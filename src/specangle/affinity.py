"""Heat-kernel affinity graphs over sample sets.

The affinity between two spectra is exp(-||x_i - x_j||^2 / sigma). The fits
never store the pairwise distances or the weights: ``_distance_blocks``
computes the distances from Gram blocks a block of rows at a time,
``heat_kernel_products`` streams X W X^t and the degrees from those blocks,
and ``_bandwidth`` resolves every bandwidth. By default that is the median
heuristic over the at most 1,024 samples ``_median_columns`` picks, whatever
the graph's size. The dense weight matrix the tests check the products
against lives in ``tests/oracles.py``.

A pass writes all its blocks into one buffer of at most about
``CHUNK_BYTES`` and builds the left Gram factor for one block's rows at a
time, so it holds the right factor [X; 1; |x|^2], one block and one block's
left factor. A yielded block is valid only until the next one is requested:
every consumer copies or consumes it first. A block marks the entries that
are no pair, on and left of its diagonal, with +inf, which every consumer
passes over: its weight exp(-inf) is exactly 0, and the median skips it.
"""

import numpy as np

from .data import _philox, chunk_pixels
from .errors import NonFiniteError, NonPositiveSigmaError, TooFewSamplesError

__all__ = [
    "heat_kernel_products",
    "median_heuristic_sigma",
]

# Columns the median-heuristic bandwidth is taken over, at most: their
# 523,776 pairs take one pass of two blocks and 4 MiB of distances.
_MEDIAN_COLUMNS = 1024


def _features_of(X):
    """Accept a SampleSet or a (d, n) array and return the feature matrix."""
    F = getattr(X, "features", X)
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise ValueError(f"expected a (d, n) feature matrix, got shape {F.shape}")
    if not np.all(np.isfinite(F)):
        raise NonFiniteError("samples contain NaN or Inf")
    return F


def _block_room(m):
    """Values in the largest block of a pass over m columns: rows x width is
    at most chunk_pixels(1), or one row of width at most m, and no block is
    larger than m x m."""
    return min(m * m, max(chunk_pixels(1), m))


def _distance_blocks(X):
    """Yield the squared distances between the columns of X, a block of rows
    at a time.

    Yields ``(lo, D)``: D[k, c] is ||x_(lo+k) - x_(lo+c)||^2 for c > k and
    +inf on and left of the diagonal, so each unordered pair appears once. A
    block holds ``chunk_pixels(m - lo)`` rows of width m - lo; a graph with
    ``chunk_pixels(m) >= m`` is one m x m block. Every block of a pass is
    written into one buffer of ``_block_room(m)`` values, room for any
    block. So a yielded block is valid only until the next one is
    requested: a caller copies or consumes it first, and may overwrite it.

    Each block is one GEMM of the augmented matrices [-2X; |x|^2; 1]^t, built
    for the block's rows only, and [X; 1; |x|^2]. That expansion cancels for
    near-coincident columns, so an entry at or below its rounding level,
    8 (d + 2) eps (|x_i|^2 + |x_j|^2), is recomputed from the difference of
    the columns: coincident columns are exactly 0 apart and no distance is
    negative.
    """
    d, m = X.shape
    sq = np.einsum("ij,ij->j", X, X)
    right = np.empty((d + 2, m))
    right[:d], right[d], right[d + 1] = X, 1.0, sq
    level = 8 * (d + 2) * np.finfo(float).eps
    # Largest squared norm from each column on, for one bound per block
    # that most blocks clear without a search for candidates.
    tail_max = np.maximum.accumulate(sq[::-1])[::-1]
    step = chunk_pixels(d)
    buffer = np.empty(_block_room(m))
    lo = 0
    while lo < m - 1:
        hi = min(m, lo + chunk_pixels(m - lo))
        rows = hi - lo
        # Two columns at least: a one-row block then passes BLAS a strided
        # vector, as a slice of a whole-graph factor would, which rounds
        # differently from a unit-stride one for some d.
        left = np.empty((d + 2, max(2, rows)))[:, :rows]
        np.multiply(X[:, lo:hi], -2.0, out=left[:d])
        left[d], left[d + 1] = sq[lo:hi], 1.0
        D = buffer[: rows * (m - lo)].reshape(rows, m - lo)
        np.matmul(left.T, right[:, lo:], out=D)
        # The diagonal and the lower triangle hold no pair, and are never
        # candidates.
        D[:, :rows][np.tri(rows, dtype=bool)] = np.inf
        bound = level * (sq[lo:hi].max() + tail_max[lo])
        if D.min() <= bound:
            k, c = np.nonzero(D <= bound)
            near = D[k, c] <= level * (sq[lo + k] + sq[lo + c])
            k, c = k[near], c[near]
            for s in range(0, k.size, step):
                diff = X[:, lo + k[s : s + step]] - X[:, lo + c[s : s + step]]
                D[k[s : s + step], c[s : s + step]] = np.einsum("ij,ij->j", diff, diff)
        yield lo, D
        lo = hi


def _median_columns(n):
    """The index of the columns, of n, that the median-heuristic bandwidth is
    taken over: all up to ``_MEDIAN_COLUMNS``, else the sorted first
    ``_MEDIAN_COLUMNS`` positions of the Philox permutation with key 0, the
    same on every call and without touching the global random state."""
    if n <= _MEDIAN_COLUMNS:
        return slice(None)
    return np.sort(_philox(0).permutation(n)[:_MEDIAN_COLUMNS])


def _sampled_median(X):
    """Median of the positive squared distances between the columns of X that
    ``_median_columns`` picks, or 1.0 when there is none.

    Each row's pairs in one ``_distance_blocks`` pass over those columns are
    copied into one array of at most 523,776 values, and one ``partition``
    finds the two middle ranks of the positive ones, which follow the zeros;
    their mean is the median, as ``np.median`` computes it.
    """
    X = X[:, _median_columns(X.shape[1])]
    m = X.shape[1]
    pairs = np.empty(m * (m - 1) // 2)
    end = 0
    for _, D in _distance_blocks(X):
        for k, row in enumerate(D):
            # Row k's pairs lie right of the block's diagonal.
            row = row[k + 1 :]
            pairs[end : end + row.size] = row
            end += row.size
    positive = np.count_nonzero(pairs)
    if positive == 0:
        return 1.0
    zeros = pairs.size - positive
    ranks = [zeros + (positive - 1) // 2, zeros + positive // 2]
    pairs.partition(ranks)
    return float((pairs[ranks[0]] + pairs[ranks[1]]) / 2)


def _bandwidth(X, sigma):
    """The heat-kernel bandwidth over the columns of X: sigma itself,
    checked, or when it is None ``_sampled_median(X)``.

    Every graph resolves its bandwidth here before its first distance pass,
    so the distances are checked here too: no squared distance exceeds
    4 max |x|^2, and a column for which that bound is not finite raises
    NonFiniteError.
    """
    with np.errstate(over="ignore"):
        bound = 4.0 * np.einsum("ij,ij->j", X, X)
    if not np.all(np.isfinite(bound)):
        raise NonFiniteError("squared distances between samples overflow")
    if sigma is None:
        return _sampled_median(X)
    _check_sigma(sigma)
    return float(sigma)


def _check_sigma(sigma):
    # Written so that NaN fails too.
    if sigma is not None and not 0 < sigma < np.inf:
        raise NonPositiveSigmaError(f"sigma must be finite and > 0, got {sigma}")


def heat_kernel_products(X, sigma):
    """X W X^t and the degrees of the heat-kernel graph over the columns of
    X, without forming W.

    W = exp(-D / sigma) with a unit diagonal, D the squared distances of one
    ``_distance_blocks`` pass over X, and sigma a bandwidth that
    ``_bandwidth`` has resolved over X, so every weight lies in [0, 1].
    Returns ``(X W X^t, degrees)``, the degrees being the row sums of W.

    Each block U of strict upper-triangle weights adds
    C += X[:, rows] (U X[:, first row:]^t); then X W X^t = C + C^t + X X^t.
    """
    C = np.zeros((X.shape[0], X.shape[0]))
    degrees = np.ones(X.shape[1])
    for lo, U in _distance_blocks(X):
        rows = U.shape[0]
        U /= -sigma
        np.exp(U, out=U)
        degrees[lo : lo + rows] += U.sum(axis=1)
        degrees[lo:] += U.sum(axis=0)
        C += X[:, lo : lo + rows] @ (U @ X[:, lo:].T)
    return C + C.T + X @ X.T, degrees


def median_heuristic_sigma(X):
    """Median of the pairwise squared distances, excluding zero-distance pairs.

    Taken over the samples ``_median_columns`` picks, from the distances the
    fits use (see ``_distance_blocks``). Falls back to 1.0 when every pair
    coincides. Raises TooFewSamplesError below two samples.
    """
    F = _features_of(X)
    if F.shape[1] < 2:
        raise TooFewSamplesError("median heuristic needs at least two samples")
    return _bandwidth(F, None)
