"""Angle-preserving linear subspace fits and the Euclidean baseline.

Five fits share one Projection type:

* ``fit_lspp``: unsupervised; maximizes the affinity-weighted inner products
  of projected samples under a degree-normalized constraint.
* ``fit_slspp``: unsupervised, spatial; same idea with spatial-window
  neighbors around each pixel and an orthonormality constraint.
* ``fit_ada`` / ``fit_lada``: supervised angular discriminants built from
  within/between-class outer-product matrices ((local) variants).
* ``fit_lpp``: the Euclidean locality-preserving baseline.

Columns of every returned projection are ordered most significant first and
``eigenvalues`` is descending. For ``fit_lpp``, whose natural problem is a
minimization, the stored values are the negated pencil eigenvalues so that
larger still means more important.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .affinity import (
    _features_of,
    degree_diagonal,
    heat_kernel_affinity,
    median_heuristic_sigma,
)
from .data import SampleSet, extract_neighborhood, pixels_to_sample_set
from .errors import (
    DimensionMismatchError,
    EmptyClassError,
    MalformedHeaderError,
    ReducedDimTooLargeError,
    SingleClassError,
    TooFewSamplesError,
)
from .linalg import gen_eig_desc, sym_eig_desc

__all__ = [
    "Projection",
    "ClassStats",
    "ScatterMatrices",
    "DEFAULT_RIDGE",
    "METHODS",
    "fit_lspp",
    "fit_slspp",
    "fit_ada",
    "fit_lada",
    "fit_lpp",
    "project",
    "class_stats",
    "ada_scatter",
    "lada_weights",
    "slspp_context_matrix",
]

# Hyperspectral band counts usually exceed the training sample count, which
# leaves the constraint matrices rank deficient; a small relative ridge keeps
# their factorization well posed.
DEFAULT_RIDGE = 1e-6


@dataclass(frozen=True)
class Projection:
    """A fitted d x r linear map with its spectrum and fit metadata."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    method: str
    fit_params: dict = field(default_factory=dict)

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        ev = np.asarray(self.eigenvalues, dtype=float)
        if M.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {M.shape}")
        if not np.all(np.isfinite(M)):
            raise ValueError("projection matrix contains NaN or Inf")
        if ev.shape != (M.shape[1],):
            raise ValueError("need one eigenvalue per projection column")
        if np.any(np.diff(ev) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {', '.join(METHODS)}, got '{self.method}'")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def r(self):
        return self.matrix.shape[1]

    def save(self, path):
        """Write the projection as self-describing text.

        Line 1 is ``method d r sigma window ridge`` with ``-`` marking
        parameters the method does not use; then the d x r matrix row by row
        and a final line of r eigenvalues. Floats use 17 significant digits,
        so values round-trip exactly.
        """

        def tok(key):
            v = self.fit_params.get(key)
            return "-" if v is None else f"{v:.17g}"

        out = [f"{self.method} {self.dim} {self.r} {tok('sigma')} {tok('window')} {tok('ridge')}"]
        out.extend(" ".join(f"{v:.17g}" for v in row) for row in self.matrix)
        out.append(" ".join(f"{v:.17g}" for v in self.eigenvalues))
        Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines:
            raise MalformedHeaderError("empty projection file")
        head = lines[0].split()
        if len(head) != 6:
            raise MalformedHeaderError(f"bad projection header '{lines[0]}'")
        method = head[0]
        if method not in METHODS:
            raise MalformedHeaderError(f"unknown method '{method}'")
        try:
            d, r = int(head[1]), int(head[2])
            params = {
                key: (None if tok == "-" else float(tok))
                for key, tok in zip(("sigma", "window", "ridge"), head[3:])
            }
        except ValueError as exc:
            raise MalformedHeaderError(f"unparsable projection header: {exc}") from exc
        try:
            values = [float(tok) for ln in lines[1:] for tok in ln.split()]
        except ValueError as exc:
            raise MalformedHeaderError(f"unparsable projection value: {exc}") from exc
        if len(values) != d * r + r:
            raise MalformedHeaderError(
                f"expected {d * r + r} values for a {d}x{r} projection, got {len(values)}"
            )
        fit_params = {k: v for k, v in params.items() if v is not None}
        if "window" in fit_params:
            fit_params["window"] = int(fit_params["window"])
        return cls(
            matrix=np.asarray(values[: d * r]).reshape(d, r),
            eigenvalues=np.asarray(values[d * r :]),
            method=method,
            fit_params=fit_params,
        )


def _check_r(r, d):
    if not 1 <= r <= d:
        raise ReducedDimTooLargeError(f"r must be in [1, {d}], got {r}")


def _graph_pencil(X, r, sigma):
    """Return (XWX^t, XDX^t, resolved sigma) for the heat-kernel graph of X,
    after checking that X has at least two samples and r fits its dimension."""
    F = _features_of(X)
    d, n = F.shape
    _check_r(r, d)
    if n < 2:
        raise TooFewSamplesError("need at least two samples")
    if sigma is None:
        sigma = median_heuristic_sigma(F)
    W = heat_kernel_affinity(F, sigma).weights
    deg = degree_diagonal(W)
    A = F @ W @ F.T
    B = (F * deg) @ F.T
    return 0.5 * (A + A.T), 0.5 * (B + B.T), sigma


def fit_lspp(X, r, sigma=None, ridge=DEFAULT_RIDGE):
    """Similarity-preserving projection from the dense heat-kernel graph.

    Solves the pencil (XWX^t, XDX^t + ridge) for the top-r eigenvectors, so
    the achieved objective tr(P^t XWX^t P) is the sum of the r largest
    generalized eigenvalues and P is constraint-feasible by construction.
    sigma defaults to the median heuristic.
    """
    A, B, sigma = _graph_pencil(X, r, sigma)
    w, V = gen_eig_desc(A, B, ridge)
    return Projection(
        matrix=V[:, :r],
        eigenvalues=w[:r],
        method="lspp",
        fit_params={"sigma": float(sigma), "ridge": float(ridge)},
    )


def fit_lpp(X, r, sigma=None, ridge=DEFAULT_RIDGE):
    """Euclidean locality-preserving baseline.

    Takes the bottom-r eigenvectors of the pencil (X(D-W)X^t, XDX^t + ridge),
    columns ordered smallest eigenvalue first. Stored eigenvalues are negated
    (see module docstring).
    """
    A, B, sigma = _graph_pencil(X, r, sigma)
    w, V = gen_eig_desc(B - A, B, ridge)
    return Projection(
        matrix=V[:, ::-1][:, :r],
        eigenvalues=-w[::-1][:r],
        method="lpp",
        fit_params={"sigma": float(sigma), "ridge": float(ridge)},
    )


def slspp_context_matrix(cube, coords, window, sigma):
    """Sum over pixels i and window neighbors k of W_ik * z_k x_i^t.

    W_ik is the heat kernel between the center spectrum x_i and the neighbor
    spectrum z_k; the center belongs to its own neighborhood (W_ii = 1), and
    windows are truncated at image edges.
    """
    d = cube.bands
    M = np.zeros((d, d))
    for coord in coords:
        block = extract_neighborhood(cube, coord, window)
        Z = block.spectra
        x = Z[:, 0]
        w = np.exp(-np.sum((Z - x[:, None]) ** 2, axis=0) / sigma)
        M += np.outer(Z @ w, x)
    return M


def fit_slspp(cube, coords, r, window=5, sigma=None):
    """Spatial-contextual projection from window neighborhoods.

    Builds the context matrix over all (center, neighbor) pairs, then takes
    the top-r eigenvectors of its symmetric part, which maximize the trace
    objective over orthonormal projections. Labels are never consulted.
    """
    _check_r(r, cube.bands)
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    if len(coords) < 1:
        raise TooFewSamplesError("need at least one center pixel")
    if sigma is None:
        centers = pixels_to_sample_set(cube, coords)
        sigma = 1.0 if len(coords) == 1 else median_heuristic_sigma(centers)
    M = slspp_context_matrix(cube, coords, window, sigma)
    w, V = sym_eig_desc(0.5 * (M + M.T))
    return Projection(
        matrix=V[:, :r],
        eigenvalues=w[:r],
        method="slspp",
        fit_params={"sigma": float(sigma), "window": int(window)},
    )


# ---------------------------------------------------------------------------
# Supervised fits


@dataclass(frozen=True)
class ClassStats:
    """Per-class means and counts plus the global mean."""

    class_means: np.ndarray  # (c, d)
    global_mean: np.ndarray  # (d,)
    class_counts: np.ndarray  # (c,)


@dataclass(frozen=True)
class ScatterMatrices:
    """Raw within/between outer-product matrices, before symmetrization."""

    within: np.ndarray
    between: np.ndarray


def _labeled_features(X):
    if not isinstance(X, SampleSet) or X.labels is None:
        raise ValueError("supervised fits need a labeled SampleSet")
    return X.features, X.labels


def class_stats(features, labels):
    """Class means, counts and the global mean for contiguous labels 1..c."""
    labels = np.asarray(labels)
    if labels.size and labels.min() < 1:
        raise ValueError("training labels must be >= 1")
    c = int(labels.max(initial=0))
    if c < 2:
        raise SingleClassError(f"need at least two classes, got {c}")
    d, n = features.shape
    counts = np.zeros(c, dtype=np.int64)
    means = np.zeros((c, d))
    for l in range(1, c + 1):
        mask = labels == l
        counts[l - 1] = mask.sum()
        if counts[l - 1] == 0:
            raise EmptyClassError(f"class {l} has no samples")
        means[l - 1] = features[:, mask].mean(axis=1)
    global_mean = (counts[:, None] * means).sum(axis=0) / n
    return ClassStats(class_means=means, global_mean=global_mean, class_counts=counts)


def ada_scatter(features, labels):
    """Raw angular within/between matrices.

    within  = sum over classes l, samples i in l of mu_l x_i^t
    between = sum over classes l of n_l * mu mu_l^t
    """
    stats = class_stats(features, labels)
    labels = np.asarray(labels)
    d = features.shape[0]
    within = np.zeros((d, d))
    between = np.zeros((d, d))
    for l in range(1, len(stats.class_counts) + 1):
        mu_l = stats.class_means[l - 1]
        class_sum = features[:, labels == l].sum(axis=1)
        within += np.outer(mu_l, class_sum)
        between += stats.class_counts[l - 1] * np.outer(stats.global_mean, mu_l)
    return ScatterMatrices(within=within, between=between)


def lada_weights(labels, affinity):
    """Locality-weighted within/between pair weights.

    For a same-class pair of class l: within = A_ij / n_l and
    between = A_ij * (1/n - 1/n_l); for a different-class pair the within
    weight is 0 and the between weight is 1/n regardless of A_ij.
    """
    labels = np.asarray(labels)
    A = affinity.weights if hasattr(affinity, "weights") else np.asarray(affinity, dtype=float)
    n = labels.size
    if A.shape != (n, n):
        raise DimensionMismatchError(
            f"affinity shape {A.shape} does not match {n} labels"
        )
    counts = np.bincount(labels, minlength=int(labels.max(initial=0)) + 1)
    inv_nl = 1.0 / counts[labels]  # per sample, 1/n_l of its own class
    same = labels[:, None] == labels[None, :]
    w_within = np.where(same, A * inv_nl[None, :], 0.0)
    w_between = np.where(same, A * (1.0 / n - inv_nl[None, :]), 1.0 / n)
    return w_within, w_between


def _discriminant_fit(between, within, r, d, c, ridge, method, fit_params):
    if r is None:
        r = min(d, c - 1)
    _check_r(r, d)
    w, V = gen_eig_desc(
        0.5 * (between + between.T), 0.5 * (within + within.T), ridge
    )
    return Projection(
        matrix=V[:, :r], eigenvalues=w[:r], method=method, fit_params=fit_params
    )


def fit_ada(X, r=None, ridge=DEFAULT_RIDGE):
    """Angular discriminant projection from labeled samples.

    Solves the generalized problem (sym between, sym within + ridge), the
    standard surrogate for the trace-ratio objective; r defaults to
    min(d, c - 1).
    """
    features, labels = _labeled_features(X)
    sc = ada_scatter(features, labels)
    c = int(labels.max())
    return _discriminant_fit(
        sc.between, sc.within, r, features.shape[0], c, ridge,
        "ada", {"ridge": float(ridge)},
    )


def fit_lada(X, r=None, sigma=None, ridge=DEFAULT_RIDGE):
    """Locality-aware angular discriminant projection.

    Pairwise heat-kernel affinities modulate the class structure: the scatter
    matrices become X W X^t with the weights of ``lada_weights``.
    """
    features, labels = _labeled_features(X)
    if sigma is None:
        sigma = median_heuristic_sigma(features)
    class_stats(features, labels)  # validates class structure
    A = heat_kernel_affinity(features, sigma)
    w_within, w_between = lada_weights(labels, A)
    within = features @ w_within @ features.T
    between = features @ w_between @ features.T
    c = int(labels.max())
    return _discriminant_fit(
        between, within, r, features.shape[0], c, ridge,
        "lada", {"sigma": float(sigma), "ridge": float(ridge)},
    )


def project(P, X):
    """Apply a fitted projection to a sample set; labels and coords carry over."""
    if isinstance(X, SampleSet):
        F, labels, coords = X.features, X.labels, X.coords
    else:
        F, labels, coords = np.asarray(X, dtype=float), None, None
    if F.shape[0] != P.dim:
        raise DimensionMismatchError(
            f"projection expects dimension {P.dim}, samples have {F.shape[0]}"
        )
    return SampleSet(features=P.matrix.T @ F, labels=labels, coords=coords)


# The projection methods by name, each as the evaluation pipeline fits it:
# (cube, train, config) -> Projection, where config carries r, sigma, window
# and ridge. Its keys are the one list of method names.
METHODS = {
    "lspp": lambda cube, train, c: fit_lspp(train, c.r, sigma=c.sigma, ridge=c.ridge),
    "slspp": lambda cube, train, c: fit_slspp(
        cube, train.coords, c.r, window=c.window, sigma=c.sigma
    ),
    "ada": lambda cube, train, c: fit_ada(train, r=c.r, ridge=c.ridge),
    "lada": lambda cube, train, c: fit_lada(train, r=c.r, sigma=c.sigma, ridge=c.ridge),
    "lpp": lambda cube, train, c: fit_lpp(train, c.r, sigma=c.sigma, ridge=c.ridge),
}
