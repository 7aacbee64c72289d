"""
Learning angle-preserving subspaces
===================================

Fits all five linear projections on one synthetic labeled scene and inspects
what each one optimizes. Run as ``python demos/01_angle_preserving_subspaces.py``.
"""

import numpy as np

from specangle import (
    fit_ada,
    fit_lada,
    fit_lpp,
    fit_lspp,
    fit_slspp,
    pixels_to_sample_set,
    project,
    split_train_test,
    synth_scene,
)
from specangle.projections import Projection

# A small labeled scene: 4 spectral classes in 6x6 patches, mild noise.
cube, gt = synth_scene(rows=24, cols=24, bands=20, classes=4,
                       noise_sd=0.05, patch_size=6, seed=7)
train_coords, _ = split_train_test(gt, n_train=10, n_test=50, seed=0)
train = pixels_to_sample_set(cube, train_coords, gt)
print(f"training set: {train.n_samples} spectra of dimension {train.dim}")

# Unsupervised, feature-space neighbors: similarity-preserving projection.
lspp = fit_lspp(train, r=3)
print(f"\nlspp  eigenvalues: {np.round(lspp.eigenvalues, 3)}  "
      f"(sigma from the median heuristic: {lspp.fit_params['sigma']:.3f})")

# Unsupervised, spatial neighbors: same idea driven by window context.
slspp = fit_slspp(cube, train.coords, r=3, window=5)
print(f"slspp eigenvalues: {np.round(slspp.eigenvalues, 3)}")
# Its columns are orthonormal by construction:
gram = slspp.matrix.T @ slspp.matrix
print(f"slspp column gram max deviation from I: {np.abs(gram - np.eye(3)).max():.2e}")

# Supervised baselines from class structure.
ada = fit_ada(train)        # r defaults to classes - 1
lada = fit_lada(train)
print(f"ada   eigenvalues: {np.round(ada.eigenvalues, 4)}")
print(f"lada  eigenvalues: {np.round(lada.eigenvalues, 4)}")

# The Euclidean baseline minimizes a Laplacian objective; stored values are
# negated so bigger still means more important.
lpp = fit_lpp(train, r=3)
print(f"lpp   eigenvalues: {np.round(lpp.eigenvalues, 4)}")

# Projections apply to any sample set of matching dimension; labels and
# coordinates ride along.
reduced = project(slspp, train)
print(f"\nprojected features: {reduced.features.shape[0]} x {reduced.features.shape[1]}")

# Projections persist as self-describing text and round-trip exactly.
slspp.save("slspp_projection.txt")
again = Projection.load("slspp_projection.txt")
print(f"saved and reloaded: method={again.method}, window={again.fit_params['window']}, "
      f"matrices identical: {np.array_equal(again.matrix, slspp.matrix)}")
