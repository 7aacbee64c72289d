"""Label assignment: sparse-representation classification over block pursuits
and a nearest-neighbor baseline with cosine angle distance.

All tie-breaks pick the lowest id (class id or training index). The
``*_labels`` functions label a whole chunk of pixels at once;
``nn_cosine_classify`` is the cosine rule for one pixel, through the same
``_nearest`` as ``nn_cosine_labels``, and returns its label and whether a
tie was broken.
"""

from dataclasses import dataclass

import numpy as np

from .data import SampleSet
from .errors import DimensionMismatchError, NonFiniteError, ZeroVectorError
from .pursuit import class_residuals

__all__ = [
    "Prediction",
    "sbomp_labels",
    "nn_cosine_classify",
    "nn_cosine_labels",
    "training_norms",
]


@dataclass(frozen=True)
class Prediction:
    """A class label, and whether a tie for it was broken to the lowest id."""

    label: int
    tie_broken: bool = False


def sbomp_labels(dictionary, Z, K, members):
    """Per pixel, the class with the smallest residual of
    ``pursuit.class_residuals``, which takes the same input and names a
    failing pixel through the error's ``index``; the lowest id on ties."""
    return dictionary.class_ids[np.argmin(class_residuals(dictionary, Z, K, members), axis=1)]


def training_norms(train):
    """Column norms of the training spectra, each checked to be nonzero.

    Raises ZeroVectorError naming the first zero spectrum by its pixel when
    ``train.coords`` is set, else by its column.
    """
    norms = np.linalg.norm(train.features, axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        i = zero[0]
        where = (
            f"training sample {i}" if train.coords is None
            else f"training pixel ({train.coords[i, 0]}, {train.coords[i, 1]})"
        )
        raise ZeroVectorError(f"{where}: cosine distance is undefined for zero vectors")
    return norms


def _nearest(train, norms, X):
    """Cosines (P, n) of the columns of X (d, P) against the training spectra,
    and per column the index of the nearest one: the largest cosine, the
    lowest training index on ties. A zero or overflowing column raises
    ZeroVectorError or NonFiniteError, ``index`` naming the first one."""
    with np.errstate(all="ignore"):
        x_norms = np.linalg.norm(X, axis=0)
        cosines = (X.T @ train.features) / (norms * x_norms[:, None])
    zero = x_norms == 0.0
    bad = zero | ~np.isfinite(x_norms) | ~np.isfinite(cosines).all(axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        exc = (ZeroVectorError("cosine distance is undefined for zero vectors") if zero[i]
               else NonFiniteError("the scale of the spectrum overflows its cosines"))
        exc.index = i
        raise exc
    return cosines, np.argmax(cosines, axis=1)


def nn_cosine_labels(train, norms, X):
    """Nearest-neighbor labels of the columns of X (d, P) under cosine similarity.

    ``norms`` is training_norms(train). A zero column raises ZeroVectorError,
    one that overflows NonFiniteError, ``index`` naming the first failing one.
    """
    return train.labels[_nearest(train, norms, X)[1]]


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
    cosines, best = _nearest(train, training_norms(train), x[:, None])
    cosines, best = cosines[0], int(best[0])
    tied = int(np.count_nonzero(cosines == cosines[best])) > 1
    return Prediction(label=int(train.labels[best]), tie_broken=tied)
