"""Block-structured greedy pursuit.

One engine covers the whole family: blocks of width 1 with a single test
column reduce to plain orthogonal matching pursuit, width-1 blocks with a
matrix right-hand side to the simultaneous variant, and wide blocks with a
single column to the block variant.

Each iteration scores every unselected block by the l2,1 norm of its
correlation with the residual, appends the best block to the support, refits
the coefficients by least squares over the full selected support, and updates
the residual. Ties go to the lowest block index. The loop ends after K
iterations, or early when the residual is numerically zero or every remaining
score is zero; continuing past an exact representation would only produce
rank-deficient solves.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, SpecAngleError
from .linalg import least_squares

__all__ = ["BlockDictionary", "SparseSolution", "selection_score", "sbomp", "residual_by_class"]

# Residual Frobenius norm below this fraction of ||S||_F counts as exact.
_EXACT_RTOL = 1e-10


@dataclass(frozen=True)
class BlockDictionary:
    """Training blocks A_i (each d x m_i) with one class id per block."""

    blocks: tuple
    classes: np.ndarray

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=float) for b in self.blocks)
        if not blocks:
            raise ValueError("dictionary needs at least one block")
        d = blocks[0].shape[0]
        for i, b in enumerate(blocks):
            if b.ndim != 2 or b.shape[1] < 1:
                raise ValueError(f"block {i} must be a d x m matrix with m >= 1")
            if b.shape[0] != d:
                raise DimensionMismatchError(
                    f"block {i} has {b.shape[0]} rows, expected {d}"
                )
            if not np.all(np.isfinite(b)):
                raise NonFiniteError(f"block {i} contains NaN or Inf")
        classes = np.asarray(self.classes, dtype=np.int64)
        if classes.shape != (len(blocks),):
            raise ValueError("need exactly one class id per block")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "classes", classes)
        widths = np.array([b.shape[1] for b in blocks])
        offsets = np.concatenate([[0], np.cumsum(widths)])
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_offsets", offsets)
        object.__setattr__(self, "_stacked", np.hstack(blocks))

    @property
    def n_blocks(self):
        return len(self.blocks)

    @property
    def dim(self):
        return self.blocks[0].shape[0]

    @property
    def widths(self):
        return self._widths


@dataclass(frozen=True)
class SparseSolution:
    """Support, coefficients and residual history of one pursuit run.

    ``support`` lists selected block indices in selection order;
    ``coefficients`` stacks one row group per selected block (in the same
    order) against the columns of the right-hand side. ``residual_norms``
    starts with the initial ||S||_F and appends the Frobenius norm after each
    iteration, so it is non-increasing.
    """

    support: Tuple[int, ...]
    coefficients: np.ndarray
    residual_norms: np.ndarray


def selection_score(Ai, R):
    """l2,1 norm of Ai^t R: the sum over rows of the row-wise l2 norms."""
    Ai = np.asarray(Ai, dtype=float)
    R = np.asarray(R, dtype=float)
    if Ai.shape[0] != R.shape[0]:
        raise DimensionMismatchError(
            f"row counts differ: block has {Ai.shape[0]}, residual {R.shape[0]}"
        )
    return float(np.linalg.norm(Ai.T @ R, axis=1).sum())


def _all_scores(dictionary, R):
    G = dictionary._stacked.T @ R
    row_norms = np.linalg.norm(G, axis=1)
    return np.add.reduceat(row_norms, dictionary._offsets[:-1])


def sbomp(dictionary, S, K):
    """Greedy block pursuit of S over the dictionary, sparsity level K.

    Parameters
    ----------
    dictionary : BlockDictionary
    S : (d, w) array_like
        Right-hand side; a single column is also accepted as a 1-D vector.
    K : int
        Maximum number of blocks to select, 1 <= K <= number of blocks.

    Returns
    -------
    SparseSolution

    Raises
    ------
    RankDeficientError
        Propagated from the least-squares refit when the selected blocks are
        collinear (duplicate atoms).
    """
    S = np.asarray(S, dtype=float)
    if S.ndim == 1:
        S = S[:, None]
    if not np.all(np.isfinite(S)):
        raise NonFiniteError("S contains NaN or Inf")
    if S.shape[0] != dictionary.dim:
        raise DimensionMismatchError(
            f"S has {S.shape[0]} rows, dictionary has {dictionary.dim}"
        )
    if not 1 <= K <= dictionary.n_blocks:
        raise SpecAngleError(
            f"K must be in [1, {dictionary.n_blocks}], got {K}"
        )

    s_norm = float(np.linalg.norm(S))
    R = S
    support = []
    coeffs = np.zeros((0, S.shape[1]))
    norms = [s_norm]
    for _ in range(K):
        scores = _all_scores(dictionary, R)
        if support:
            scores[np.asarray(support)] = -np.inf
        best = int(np.argmax(scores))
        if scores[best] <= 0.0:
            break
        support.append(best)
        A_sel = np.hstack([dictionary.blocks[j] for j in support])
        coeffs = least_squares(A_sel, S)
        R = S - A_sel @ coeffs
        norms.append(float(np.linalg.norm(R)))
        if norms[-1] <= _EXACT_RTOL * s_norm:
            break
    return SparseSolution(
        support=tuple(support),
        coefficients=coeffs,
        residual_norms=np.asarray(norms),
    )


def residual_by_class(dictionary, S, sol):
    """Reconstruction residual per class from one pursuit solution.

    For each class, only the coefficient rows of that class's selected blocks
    are kept; the residual is the Frobenius norm of S minus that partial
    reconstruction. A class with no selected block therefore scores ||S||_F.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim == 1:
        S = S[:, None]
    row_groups = np.concatenate(
        [[0], np.cumsum([dictionary.widths[j] for j in sol.support])]
    ).astype(int)
    residuals = {}
    for cls in np.unique(dictionary.classes):
        recon = np.zeros_like(S)
        for pos, j in enumerate(sol.support):
            if dictionary.classes[j] == cls:
                rows = slice(row_groups[pos], row_groups[pos + 1])
                recon = recon + dictionary.blocks[j] @ sol.coefficients[rows]
        residuals[int(cls)] = float(np.linalg.norm(S - recon))
    return residuals
