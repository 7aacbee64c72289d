"""Label assignment: sparse-representation classification over block pursuits
and a nearest-neighbor baseline with cosine angle distance.

All tie-breaks pick the lowest id (class id or training index) and the
returned Prediction flags whether a tie was broken.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import SampleSet
from .errors import DimensionMismatchError, ZeroVectorError
from .pursuit import residual_by_class, sbomp

__all__ = ["Prediction", "sbomp_classify", "nn_cosine_classify"]


@dataclass(frozen=True)
class Prediction:
    """A class label plus the per-class evidence it was derived from."""

    label: int
    per_class_residuals: Optional[dict] = None
    per_class_scores: Optional[dict] = None
    tie_broken: bool = False


def _argbest(per_class, minimize):
    items = sorted(per_class.items())
    values = np.asarray([v for _, v in items])
    best = values.min() if minimize else values.max()
    hits = [cls for (cls, v) in items if v == best]
    return hits[0], len(hits) > 1


def sbomp_classify(dictionary, S, K):
    """Classify a test block by smallest per-class reconstruction residual.

    Runs the block pursuit at sparsity K, computes class-restricted residuals,
    and returns the argmin class.
    """
    sol = sbomp(dictionary, S, K)
    residuals = residual_by_class(dictionary, S, sol)
    label, tied = _argbest(residuals, minimize=True)
    return Prediction(label=label, per_class_residuals=residuals, tie_broken=tied)


def nn_cosine_classify(train, x):
    """Nearest neighbor under cosine similarity.

    Parameters
    ----------
    train : SampleSet
        Labeled training spectra, all nonzero.
    x : (d,) array_like
        Test spectrum, nonzero.
    """
    if not isinstance(train, SampleSet) or train.labels is None:
        raise ValueError("nn_cosine_classify needs a labeled SampleSet")
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != train.dim:
        raise DimensionMismatchError(
            f"test vector has dimension {x.shape[0]}, training {train.dim}"
        )
    x_norm = np.linalg.norm(x)
    col_norms = np.linalg.norm(train.features, axis=0)
    if x_norm == 0.0 or np.any(col_norms == 0.0):
        raise ZeroVectorError("cosine distance is undefined for zero vectors")
    cosines = (train.features.T @ x) / (col_norms * x_norm)
    best = int(np.argmax(cosines))  # lowest training index on ties
    tied = int(np.count_nonzero(cosines == cosines[best])) > 1
    scores = {
        int(cls): float(cosines[train.labels == cls].max())
        for cls in np.unique(train.labels)
    }
    return Prediction(
        label=int(train.labels[best]), per_class_scores=scores, tie_broken=tied
    )
