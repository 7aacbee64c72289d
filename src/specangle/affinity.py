"""Heat-kernel affinity graphs over sample sets.

The affinity between two spectra is exp(-||x_i - x_j||^2 / sigma). One pass
over the pairwise distances gives both the default bandwidth and the weights.
The fits never form the n x n weight matrix: ``heat_kernel_products``
streams X W X^t and the degrees from the condensed distances, a block of rows
at a time. ``heat_kernel_affinity`` builds the dense matrix, for small graphs
and as the reference the tests check the products against.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .data import chunk_pixels
from .errors import NonFiniteError, NonPositiveSigmaError, TooFewSamplesError

__all__ = [
    "AffinityMatrix",
    "heat_kernel_affinity",
    "heat_kernel_products",
    "median_heuristic_sigma",
    "sq_distances",
]


@dataclass(frozen=True)
class AffinityMatrix:
    """Dense pairwise heat-kernel weights.

    weights is symmetric with unit diagonal; sigma is the bandwidth used
    (squared-reflectance units).
    """

    weights: np.ndarray
    sigma: float

    def __post_init__(self):
        W = self.weights
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError(f"weights must be square, got shape {W.shape}")
        if not np.array_equal(W, W.T):
            raise ValueError("weights must be symmetric")
        if not np.all(np.diag(W) == 1.0):
            raise ValueError("diagonal entries must be exactly 1")
        if np.any(W < 0.0) or np.any(W > 1.0):
            raise ValueError("weights must lie in [0, 1]")


def _features_of(X):
    """Accept a SampleSet or a (d, n) array and return the feature matrix."""
    F = getattr(X, "features", X)
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise ValueError(f"expected a (d, n) feature matrix, got shape {F.shape}")
    if not np.all(np.isfinite(F)):
        raise NonFiniteError("samples contain NaN or Inf")
    return F


def _check_sigma(sigma):
    # Written so that NaN fails too.
    if not sigma > 0:
        raise NonPositiveSigmaError(f"sigma must be > 0, got {sigma}")


def _median_positive(d2):
    """Median of the positive entries of d2, or 1.0 when there is none."""
    positive = d2[d2 > 0.0]
    return float(np.median(positive, overwrite_input=True)) if positive.size else 1.0


def sq_distances(F, sigma=None):
    """The one distance pass over the columns of a (d, n) feature matrix.

    Returns ``(d2, sigma)``: the condensed squared distances, in the order
    of ``scipy.spatial.distance.pdist`` (pair (i, j), i < j, sits at
    i*n - i*(i+1)/2 + j - i - 1), and the bandwidth, the median heuristic
    (see ``median_heuristic_sigma``) taken from d2 when sigma is None.
    """
    if sigma is not None:
        _check_sigma(sigma)
    d2 = pdist(F.T, metric="sqeuclidean")
    if sigma is None:
        sigma = _median_positive(d2)
    return d2, float(sigma)


def heat_kernel_affinity(X, sigma=None):
    """Dense heat-kernel affinity matrix over the samples of X.

    Parameters
    ----------
    X : SampleSet or (d, n) array_like
        Columns are samples.
    sigma : float, optional
        Bandwidth, > 0. Distances are taken in raw spectral space. None means
        the median heuristic (see ``median_heuristic_sigma``), taken from the
        same pairwise distances the weights are built from.

    Returns
    -------
    AffinityMatrix
        Its ``sigma`` is the bandwidth used, the resolved median when sigma
        was None.
    """
    if sigma is not None:
        _check_sigma(sigma)
    F = _features_of(X)
    if F.shape[1] < 1:
        raise TooFewSamplesError("need at least one sample")
    # pdist computes each unordered pair once, so the squareform is exactly
    # symmetric; the kernel is applied in place on the condensed vector.
    d2, sigma = sq_distances(F, sigma)
    d2 /= -sigma
    W = squareform(np.exp(d2, out=d2))
    np.fill_diagonal(W, 1.0)
    return AffinityMatrix(weights=W, sigma=sigma)


def heat_kernel_products(F, d2, sigma, members=None):
    """X W X^t and the degrees of the heat-kernel graph, without forming W.

    F is the (d, n) feature matrix and d2 its condensed squared distances
    (see ``sq_distances``). The graph is over the columns ``members`` of F,
    ascending (default all): X = F[:, members] and W = exp(-d2 / sigma) on
    its pairs with a unit diagonal. Returns ``(X W X^t, degrees)``, the
    degrees being the row sums of W.

    The strict upper triangle of W is read from d2 a block of rows at a
    time, into a (rows, m - first row) block U sized by ``chunk_pixels``
    whose entries on and left of the diagonal are zero; then
    C += X[:, rows] (U X[:, first row:]^t) and X W X^t = C + C^t + X X^t.
    """
    n = F.shape[1]
    idx = np.arange(n) if members is None else np.asarray(members, dtype=np.int64)
    if np.any(np.diff(idx) <= 0):
        raise ValueError("members must be strictly ascending")
    X = F[:, idx]
    m = idx.size
    # d2 position of pair (idx[k], j) for j > idx[k] is base[k] + j.
    base = idx * (2 * n - idx - 1) // 2 - idx - 1
    C = np.zeros((F.shape[0], F.shape[0]))
    degrees = np.ones(m)
    lo = 0
    while lo < m - 1:
        width = m - lo
        hi = min(m - 1, lo + chunk_pixels(width))
        # The positions left of the diagonal are clipped into range; their
        # values are distances of other pairs, zeroed below.
        U = d2.take(base[lo:hi, None] + idx[lo:], mode="clip")
        U /= -sigma
        # Weights lie in [0, 1] exactly when their exponents are <= 0 (NaN
        # fails too).
        if not U.max() <= 0.0:
            raise ValueError("weights must lie in [0, 1]")
        np.exp(U, out=U)
        U *= np.arange(width) > np.arange(hi - lo)[:, None]
        degrees[lo:hi] += U.sum(axis=1)
        degrees[lo:] += U.sum(axis=0)
        C += X[:, lo:hi] @ (U @ X[:, lo:].T)
        lo = hi
    return C + C.T + X @ X.T, degrees


def median_heuristic_sigma(X):
    """Median of the pairwise squared distances, excluding zero-distance pairs.

    Falls back to 1.0 when every pair coincides. Raises TooFewSamplesError
    below two samples.
    """
    F = _features_of(X)
    if F.shape[1] < 2:
        raise TooFewSamplesError("median heuristic needs at least two samples")
    return sq_distances(F)[1]
