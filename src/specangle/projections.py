"""Angle-preserving linear subspace fits and the Euclidean baseline.

Five fits share one Projection type:

* ``fit_lspp``: unsupervised; maximizes the affinity-weighted inner products
  of projected samples under a degree-normalized constraint.
* ``fit_slspp``: unsupervised, spatial; same idea with spatial-window
  neighbors around each pixel and an orthonormality constraint.
* ``fit_ada`` / ``fit_lada``: supervised angular discriminants built from
  within/between-class outer-product matrices ((local) variants).
* ``fit_lpp``: the Euclidean locality-preserving baseline.

LSPP, ADA, LADA and LPP are one generalized eigenproblem and take one solve
path, ``_pencil_fit``, the one caller of ``gen_eig_desc``. The graph fits
hand it their symmetrized pencils, since LPP's X(D-W)X^t is formed from
them. The discriminants hand over their scatter matrices unsymmetrized, for
``gen_eig_desc`` to check and symmetrize, except ADA's between-class matrix
(see ``fit_ada``).

Columns of every returned projection are ordered most significant first and
``eigenvalues`` is descending. For ``fit_lpp``, whose natural problem is a
minimization, the stored values are the negated pencil eigenvalues so that
larger still means more important.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .affinity import _bandwidth, _features_of, _median_columns, heat_kernel_products
from .data import SampleSet, _window_centers, _window_pixels, chunk_pixels
from .errors import (
    DimensionMismatchError,
    EmptyClassError,
    MalformedHeaderError,
    NonFiniteError,
    ReducedDimTooLargeError,
    ReducedDimTooSmallError,
    SingleClassError,
    TooFewSamplesError,
)
from .linalg import gen_eig_desc, sym_eig_desc

__all__ = [
    "Projection",
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
        if not np.all(np.isfinite(ev)):
            raise ValueError("eigenvalues contain NaN or Inf")
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
            parsers = {"sigma": float, "window": int, "ridge": float}
            params = {
                key: parse(tok) for (key, parse), tok in zip(parsers.items(), head[3:]) if tok != "-"
            }
        except ValueError as exc:
            raise MalformedHeaderError(f"unparsable projection header: {exc}") from exc
        if min(d, r) < 1:
            raise MalformedHeaderError(f"projection dimensions must be positive, got {d}x{r}")
        window = params.get("window", 1)
        if window < 1 or window % 2 == 0:
            raise MalformedHeaderError(f"projection window must be odd and >= 1, got {window}")
        if not all(np.isfinite(params.get(key, 0.0)) for key in ("sigma", "ridge")):
            raise MalformedHeaderError(f"projection sigma and ridge must be finite: '{lines[0]}'")
        try:
            values = [float(tok) for ln in lines[1:] for tok in ln.split()]
        except ValueError as exc:
            raise MalformedHeaderError(f"unparsable projection value: {exc}") from exc
        if len(values) != d * r + r:
            raise MalformedHeaderError(
                f"expected {d * r + r} values for a {d}x{r} projection, got {len(values)}"
            )
        try:
            return cls(
                matrix=np.asarray(values[: d * r]).reshape(d, r),
                eigenvalues=np.asarray(values[d * r :]),
                method=method,
                fit_params=params,
            )
        except ValueError as exc:
            raise MalformedHeaderError(f"invalid projection: {exc}") from exc


def _check_r(r, d):
    if not 1 <= r <= d:
        error = ReducedDimTooSmallError if r < 1 else ReducedDimTooLargeError
        raise error(f"r must be in [1, {d}], got {r}")


def _graph_pencil(X, r, sigma):
    """Return (XWX^t, XDX^t, resolved sigma) for the heat-kernel graph of X,
    after checking that X has at least two samples and r fits its dimension."""
    F = _features_of(X)
    d, n = F.shape
    _check_r(r, d)
    if n < 2:
        raise TooFewSamplesError("need at least two samples")
    sigma = _bandwidth(F, sigma)
    A, degrees = heat_kernel_products(F, sigma)
    B = (F * degrees) @ F.T
    return 0.5 * (A + A.T), 0.5 * (B + B.T), sigma


def _pencil_fit(A, B, r, ridge, method, sigma=None, bottom=False):
    """The one solve of the pencil fits: the top-r eigenvectors of
    (A, B + ridge), or with ``bottom`` the bottom r, smallest eigenvalue
    first and negated (see module docstring). ``gen_eig_desc`` checks and
    symmetrizes A and B. The fit parameters are sigma, when the method has
    one, and the ridge."""
    _check_r(r, A.shape[0])
    w, V = gen_eig_desc(A, B, ridge)
    if bottom:
        w, V = -w[::-1], V[:, ::-1]
    params = {"ridge": float(ridge)}
    if sigma is not None:
        params = {"sigma": float(sigma), **params}
    return Projection(matrix=V[:, :r], eigenvalues=w[:r], method=method, fit_params=params)


def fit_lspp(X, r, sigma=None, ridge=DEFAULT_RIDGE):
    """Similarity-preserving projection from the heat-kernel graph.

    Solves the pencil (XWX^t, XDX^t + ridge) for the top-r eigenvectors, so
    the achieved objective tr(P^t XWX^t P) is the sum of the r largest
    generalized eigenvalues and P is constraint-feasible by construction.
    sigma defaults to the median heuristic.
    """
    A, B, sigma = _graph_pencil(X, r, sigma)
    return _pencil_fit(A, B, r, ridge, "lspp", sigma)


def fit_lpp(X, r, sigma=None, ridge=DEFAULT_RIDGE):
    """Euclidean locality-preserving baseline.

    Takes the bottom-r eigenvectors of the pencil (X(D-W)X^t, XDX^t + ridge),
    columns ordered smallest eigenvalue first. Stored eigenvalues are negated
    (see module docstring).
    """
    A, B, sigma = _graph_pencil(X, r, sigma)
    return _pencil_fit(B - A, B, r, ridge, "lpp", sigma, bottom=True)


def slspp_context_matrix(cube, centers, window, sigma):
    """Sum over the (P, 2) centers i and their window neighbors k of
    W_ik * z_k x_i^t, W_ik the heat kernel between x_i and z_k (W_ii = 1).

    Each chunk of centers lays out its own windows by ``data._window_pixels``,
    the center first, so no layout of every window is held. A member, the
    center included, for which 4 |z_k|^2 is not finite raises NonFiniteError
    naming its pixel.
    """
    centers = _window_centers(cube, centers, window)
    M = np.zeros((cube.bands, cube.bands))
    step = chunk_pixels(window * window * cube.bands)
    for lo in range(0, len(centers), step):
        block = _window_pixels(cube, centers[lo : lo + step], window)
        # Members outside the image read pixel 0 and are zeroed; a zero z
        # adds nothing.
        rows, cols = np.divmod(np.maximum(block, 0), cube.cols)
        Z = cube.values[rows, cols]
        Z[block < 0] = 0.0
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(4.0 * np.einsum("pkd,pkd->pk", Z, Z))
        if bad.any():
            p, k = np.argwhere(bad)[0]
            raise NonFiniteError(
                f"pixel ({rows[p, k]}, {cols[p, k]}) in the window of center "
                f"({rows[p, 0]}, {cols[p, 0]}): squared distances overflow"
            )
        x = Z[:, 0]
        w = np.exp(-np.sum((Z - x[:, None]) ** 2, axis=2) / sigma)
        M += np.einsum("pk,pkd->dp", w, Z) @ x
    return M


def fit_slspp(cube, coords, r, window=5, sigma=None):
    """Spatial-contextual projection from window neighborhoods.

    Builds the context matrix over all (center, neighbor) pairs of the
    (P, 2) center coordinates ``coords``, then takes the top-r eigenvectors
    of its symmetric part, which maximize the trace objective over
    orthonormal projections. Labels are never consulted.

    Window and centers are checked first. The median-heuristic sigma gathers
    only the center spectra ``affinity._median_columns`` picks; an overflowing
    center among them fails there, any other in the context pass.
    """
    _check_r(r, cube.bands)
    coords = _window_centers(cube, coords, window)
    if len(coords) < 1:
        raise TooFewSamplesError("need at least one center pixel")
    sample = coords[_median_columns(len(coords))]
    sigma = _bandwidth(cube.values[sample[:, 0], sample[:, 1]].T, sigma)
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


def _labeled_features(X, r):
    """Features and labels of a labeled SampleSet, and r, which defaults to
    min(d, c - 1) for the c classes of the discriminants."""
    if not isinstance(X, SampleSet) or X.labels is None:
        raise ValueError("supervised fits need a labeled SampleSet")
    if r is None:
        r = min(X.dim, int(X.labels.max(initial=0)) - 1)
    return X.features, X.labels, r


def class_stats(features, labels):
    """Class means (c, d), the global mean (d,) and the class counts (c,)
    for contiguous labels 1..c."""
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
    return means, global_mean, counts


def ada_scatter(features, labels):
    """Raw angular within and between matrices, before symmetrization.

    within  = sum over classes l, samples i in l of mu_l x_i^t
    between = sum over classes l of n_l * mu mu_l^t
    """
    means, global_mean, counts = class_stats(features, labels)
    labels = np.asarray(labels)
    d = features.shape[0]
    within = np.zeros((d, d))
    between = np.zeros((d, d))
    for l in range(1, len(counts) + 1):
        class_sum = features[:, labels == l].sum(axis=1)
        within += np.outer(means[l - 1], class_sum)
        between += counts[l - 1] * np.outer(global_mean, means[l - 1])
    return within, between


def fit_ada(X, r=None, ridge=DEFAULT_RIDGE):
    """Angular discriminant projection from labeled samples.

    Solves the generalized problem (sym between, sym within + ridge), the
    standard surrogate for the trace-ratio objective; r defaults to
    min(d, c - 1).
    """
    features, labels, r = _labeled_features(X, r)
    within, between = ada_scatter(features, labels)
    # between is n mu mu^t summed over the classes. Where mu is near 0, as
    # for mean-centred features, its rounding noise is far from symmetric
    # and would fail gen_eig_desc's symmetry check, so it goes in symmetrized.
    return _pencil_fit(0.5 * (between + between.T), within, r, ridge, "ada")


def _lada_scatter(features, labels, sigma):
    """Raw LADA within and between matrices, before symmetrization, and the
    resolved sigma.

    Both are X W X^t over pair weights. A same-class pair (i, j) of class l
    with heat-kernel affinity A_ij weighs A_ij / n_l within and
    A_ij (1/n - 1/n_l) between; a pair of two classes weighs 0 within and
    1/n between, whatever its affinity. ``tests/oracles.lada_weights``
    builds these dense (n, n) weights. Only the same-class graphs are
    formed: with A_l = X_l W_l X_l^t, s = X 1 and s_l = X_l 1,
    within = sum_l A_l / n_l and
    between = sum_l (1/n - 1/n_l) A_l + (s s^t - sum_l s_l s_l^t) / n.
    """
    d, n = features.shape
    sigma = _bandwidth(features, sigma)
    within = np.zeros((d, d))
    between = np.zeros((d, d))
    same_class_sums = np.zeros((d, d))
    for l in range(1, int(labels.max()) + 1):
        X_l = features[:, labels == l]
        A_l, _ = heat_kernel_products(X_l, sigma)
        within += A_l / X_l.shape[1]
        between += (1.0 / n - 1.0 / X_l.shape[1]) * A_l
        s_l = X_l.sum(axis=1)
        same_class_sums += np.outer(s_l, s_l)
    s = features.sum(axis=1)
    between += (np.outer(s, s) - same_class_sums) / n
    return within, between, sigma


def fit_lada(X, r=None, sigma=None, ridge=DEFAULT_RIDGE):
    """Locality-aware angular discriminant projection.

    Pairwise heat-kernel affinities modulate the class structure: a
    same-class pair of class l weighs its affinity over n_l within and its
    affinity times (1/n - 1/n_l) between, a pair of two classes 0 within and
    1/n between (see ``_lada_scatter``; the dense weights are
    ``tests/oracles.lada_weights``). Only the same-class graphs are formed.
    """
    features, labels, r = _labeled_features(X, r)
    class_stats(features, labels)  # validates class structure
    within, between, sigma = _lada_scatter(features, labels, sigma)
    return _pencil_fit(between, within, r, ridge, "lada", sigma)


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
# (cube, train, config) -> Projection, where train is the training SampleSet
# gathered from cube (SLSPP takes its coords as the centres) and config
# carries r, sigma, window and ridge. Its keys are the one list of method names.
METHODS = {
    "lspp": lambda cube, train, c: fit_lspp(train, c.r, sigma=c.sigma, ridge=c.ridge),
    "slspp": lambda cube, train, c: fit_slspp(cube, train.coords, c.r, c.window, c.sigma),
    "ada": lambda cube, train, c: fit_ada(train, r=c.r, ridge=c.ridge),
    "lada": lambda cube, train, c: fit_lada(train, r=c.r, sigma=c.sigma, ridge=c.ridge),
    "lpp": lambda cube, train, c: fit_lpp(train, c.r, sigma=c.sigma, ridge=c.ridge),
}
