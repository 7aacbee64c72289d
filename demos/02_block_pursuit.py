"""
Block-structured greedy pursuit
===============================

The pursuit engine covers the whole matching-pursuit family through the
shapes of its inputs: single atoms against one column is plain OMP, single
atoms against a matrix is the simultaneous variant, wide blocks against one
column the block variant, and wide blocks against a matrix the full
block-simultaneous pursuit used for classification.
"""

import numpy as np

from specangle import BlockDictionary, SampleSet
from specangle.classify import nn_cosine_classify, sbomp_labels
from specangle.pursuit import residual_by_class, sbomp

rng = np.random.default_rng(0)

# A dictionary of 6 blocks, three per class. Each block stacks the spectra
# of one training pixel's spatial window (here: random stand-ins, 4 columns).
blocks = tuple(rng.standard_normal((10, 4)) for _ in range(6))
classes = np.array([1, 1, 1, 2, 2, 2])
dictionary = BlockDictionary(blocks=blocks, classes=classes)

# A test "neighborhood": mostly built from the columns of class-2 blocks.
S = blocks[4] @ rng.standard_normal((4, 5)) + 0.05 * rng.standard_normal((10, 5))

# Each iteration picks the block whose correlation with the residual has the
# largest l2,1 norm (sum of row norms), then refits jointly.
scores = [np.linalg.norm(B.T @ S, axis=1).sum() for B in blocks]
print("initial selection scores:", np.round(scores, 2))

sol = sbomp(dictionary, S, K=2)
print(f"selected blocks: {sol.support}  (classes {classes[list(sol.support)]})")
print("residual history:", np.round(sol.residual_norms, 4))

# Class-restricted reconstruction residuals drive the label decision.
residuals = residual_by_class(dictionary, S, sol)
print("per-class residuals:", {k: round(v, 4) for k, v in residuals.items()})

# The label is the class with the smallest residual (the lowest id on ties).
# sbomp_labels does this for many pixels in one pursuit. It takes their
# distinct columns as the rows of Z and, per pixel, the rows its block reads:
# overlapping windows share columns, and a -1 reads a zero column.
print("predicted class:", min(residuals, key=lambda k: (residuals[k], k)))
T = blocks[0] @ rng.standard_normal((4, 5))
Z = np.vstack([S.T, T.T])
members = np.array([[0, 1, 2, 3, 4], [5, 6, 7, 8, 9], [0, 1, 2, 7, -1]])
print("labels of three blocks:", sbomp_labels(dictionary, Z, 2, members))

# The nearest-neighbor baseline compares spectral angles directly.
train = SampleSet(
    features=np.hstack([B[:, :1] for B in blocks]),
    labels=classes,
)
x = blocks[4][:, 0] * 3.0  # scaled copy of a class-2 atom
nn = nn_cosine_classify(train, x)
print(f"\ncosine NN on a scaled class-2 atom: label {nn.label}, tie broken {nn.tie_broken}")

# Width-1 everything reduces the engine to textbook OMP: one atom per block.
atoms = rng.standard_normal((8, 5))
omp_dict = BlockDictionary(
    blocks=tuple(atoms[:, i:i + 1] for i in range(5)),
    classes=np.ones(5, dtype=int),
)
s = atoms[:, 2] * 2.0
omp_sol = sbomp(omp_dict, s, K=1)
print(f"\nwidth-1 reduction: support {omp_sol.support}, "
      f"coefficient {omp_sol.coefficients.ravel().round(3)}")
