"""Heat-kernel affinity graphs over sample sets.

The affinity between two spectra is exp(-||x_i - x_j||^2 / sigma). Weights are
computed densely over all pairs, from one pass over the pairwise distances that
also gives the default bandwidth.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import NonFiniteError, NonPositiveSigmaError, TooFewSamplesError

__all__ = [
    "AffinityMatrix",
    "heat_kernel_affinity",
    "median_heuristic_sigma",
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
    # symmetric; the kernel is applied in place on the condensed vector,
    # which is freed on return.
    d2 = pdist(F.T, metric="sqeuclidean")
    if sigma is None:
        sigma = _median_positive(d2)
    d2 /= -sigma
    W = squareform(np.exp(d2, out=d2))
    np.fill_diagonal(W, 1.0)
    return AffinityMatrix(weights=W, sigma=float(sigma))


def median_heuristic_sigma(X):
    """Median of the pairwise squared distances, excluding zero-distance pairs.

    Falls back to 1.0 when every pair coincides. Raises TooFewSamplesError
    below two samples.
    """
    F = _features_of(X)
    if F.shape[1] < 2:
        raise TooFewSamplesError("median heuristic needs at least two samples")
    return _median_positive(pdist(F.T, metric="sqeuclidean"))
