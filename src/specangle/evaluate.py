"""Repeated random-subsampling evaluation of projection x classifier pipelines,
parameter sweeps, report rendering, and sphere-plot exports.

A single experiment draws ``trials`` disjoint train/test splits, fits the
projection on each trial's training pixels only, classifies that trial's test
pixels, and aggregates confusion matrices. Split seeds derive from the config
seed and the trial index alone, so sweeping any post-split parameter keeps the
splits paired across sweep points.
"""

import itertools
import json
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .affinity import _check_sigma
from .classify import nn_cosine_labels, sbomp_labels, training_norms
from .data import (
    _window_centers,
    _window_pixels,
    chunk_pixels,
    l2_normalize_pixels,
    pixels_to_sample_set,
    split_train_test,
)
from .errors import (
    InvalidConfigError,
    OutOfBoundsError,
    ReducedDimTooSmallError,
    SpecAngleError,
    ZeroVectorError,
)
from .linalg import _check_ridge
from .projections import DEFAULT_RIDGE, METHODS, project
from .pursuit import BlockDictionary

__all__ = [
    "ExperimentConfig",
    "AccuracyReport",
    "run_experiment",
    "sweep",
    "CLASSIFIERS",
    "fit_projection",
    "fit_pipeline",
    "projected_block",
    "export_sphere_coords",
    "sphere_coords_csv",
    "accuracy_table",
    "accuracy_curve_csv",
]

# "somp" is "sbomp" with width-1 training blocks; see fit_pipeline.
CLASSIFIERS = ("sbomp", "somp", "nn-cos")

SWEEP_AXES = ("r", "sigma", "window", "sparsity")

@dataclass(frozen=True)
class ExperimentConfig:
    """One pipeline plus the subsampling protocol parameters.

    sigma=None means the median heuristic, resolved per trial from that
    trial's training samples. ``window`` drives both the spatial fit and the
    classifier neighborhoods; ``dict_window`` overrides the latter when the
    two must differ. ``normalize`` rescales every pixel spectrum to unit l2
    norm before fitting and classification.
    """

    method: str = "lspp"
    classifier: str = "nn-cos"
    r: int = 3
    sigma: Optional[float] = None
    window: int = 5
    sparsity: int = 1
    ridge: float = DEFAULT_RIDGE
    n_train: int = 10
    n_test: int = 100
    trials: int = 10
    seed: int = 0
    normalize: bool = False
    dict_window: Optional[int] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidConfigError(f"method '{self.method}' is not one of {', '.join(METHODS)}")
        if self.classifier not in CLASSIFIERS:
            raise InvalidConfigError(
                f"classifier '{self.classifier}' is not one of {', '.join(CLASSIFIERS)}"
            )
        integers = ("r", "window", "sparsity", "n_train", "n_test", "trials", "seed")
        for name in integers + (() if self.dict_window is None else ("dict_window",)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
            # A numpy integer would not serialize in a report, and the split
            # seeds would wrap in its width.
            object.__setattr__(self, name, int(value))
        for name in ("r", "sparsity", "n_train", "n_test", "trials"):
            if getattr(self, name) < 1:
                raise InvalidConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # Every trial's split seed must be a Philox key.
        if self.seed < 0 or _split_seed(self.seed, self.trials - 1) >= 2**64:
            raise InvalidConfigError(f"seed {self.seed} gives split seeds outside [0, 2**64)")
        # A method that never reads sigma or ridge would report them unchecked.
        _check_sigma(self.sigma)
        _check_ridge(self.ridge)

    def params(self):
        """Config as a plain dict, for reports."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class AccuracyReport:
    """Aggregated outcome of one experiment.

    ``params`` is the config as ``ExperimentConfig.params`` gives it;
    ``confusions`` stacks one (c, c) matrix per trial, rows true class,
    columns predicted, and every row sums to that class's test count. The
    report holds nothing else, so identical runs serialize byte-identically.
    """

    params: dict
    confusions: np.ndarray

    @property
    def n_classes(self):
        return self.confusions.shape[1]

    @property
    def per_trial_accuracy(self):
        correct = np.trace(self.confusions, axis1=1, axis2=2)
        total = self.confusions.sum(axis=(1, 2))
        return correct / total

    @property
    def overall_accuracy(self):
        return float(self.per_trial_accuracy.mean())

    @property
    def per_class_accuracy(self):
        diag = np.diagonal(self.confusions, axis1=1, axis2=2)
        per_trial = diag / self.confusions.sum(axis=2)
        return per_trial.mean(axis=0)

    def pipeline_label(self):
        return f"{self.params['method'].upper()}--{self.params['classifier'].upper()}"

    def to_json(self):
        """Canonical JSON: sorted keys, floats rounded to 12 decimals."""
        payload = {
            "params": {k: _jsonable(v) for k, v in self.params.items()},
            "confusion_matrices": self.confusions.tolist(),
            "per_class_accuracy": [round(float(a), 12) for a in self.per_class_accuracy],
            "per_trial_accuracy": [round(float(a), 12) for a in self.per_trial_accuracy],
            "overall_accuracy": round(self.overall_accuracy, 12),
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating, float)):
        return round(float(v), 12)
    return v


def fit_projection(work_cube, train, config):
    """Fit the projection ``config.method`` on the training samples."""
    return METHODS[config.method](work_cube, train, config)


def _window_members(cube, centers, window):
    """The distinct in-image members of the windows around centers, as flat
    pixel indices in order of first appearance in ``data._window_pixels``'s
    layout (so the first n windows' members are a prefix), and that layout
    (P, window**2) with each index replaced by its position among them."""
    pixels = _window_pixels(cube, centers, window)
    inside = pixels >= 0
    flat = pixels[inside]
    _, first, inverse = np.unique(flat, return_index=True, return_inverse=True)
    order = np.argsort(first)
    members = np.full(pixels.shape, -1)
    members[inside] = np.argsort(order)[inverse]
    return flat[first[order]], members


def _projected(proj, cube, pixels):
    """proj^T times the spectra of the flat pixel indices, as rows (U, r),
    gathered and projected a chunk_pixels(bands) block at a time."""
    rows, cols = np.divmod(pixels, cube.cols)
    Z = np.empty((len(pixels), proj.r))
    step = chunk_pixels(cube.bands)
    # A row that overflows to Inf is named as a pixel by the pursuit's
    # finiteness check, so numpy's own warning would only precede that error.
    with np.errstate(over="ignore"):
        for lo in range(0, len(pixels), step):
            part = slice(lo, lo + step)
            np.matmul(cube.values[rows[part], cols[part]], proj.matrix, out=Z[part])
    return Z


def projected_block(proj, cube, coord, window):
    """proj^T times the in-bounds window spectra around coord, (r, members)."""
    pixels = _window_pixels(cube, [coord], window)[0]
    return _projected(proj, cube, pixels[pixels >= 0]).T


def fit_pipeline(work_cube, train, config):
    """Fit one projection x classifier pipeline on labeled training pixels.

    ``train`` is a SampleSet with labels and coords in ``work_cube``. Returns
    ``(projection, predict)``; ``predict`` maps an (m, 2) array of pixel
    coordinates to an (m,) int64 array of labels. It labels the pixels in
    chunks sized by ``data.CHUNK_BYTES``: for nn-cos a fixed number of
    pixels; for sbomp and somp the longest run of pixels whose distinct
    window members and pixels, a row of max(atoms, bands) values each, fit in
    it together, counted from the members the chunk gathers anyway. That
    rule bounds the pursuit's score arrays only: each pixel also holds
    arrays of K * w * r values for its refits and class residuals (see the
    ``pursuit`` module docstring), so a chunk's peak can pass the budget.
    The labels do not depend on the chunking. A SpecAngleError raised for a
    pixel names the first failing pixel in input order: one bounds scan per
    call finds the first pixel outside the image, and each chunk of the
    pixels before it reports its own first failing pixel.
    """
    proj = fit_projection(work_cube, train, config)
    if config.classifier == "nn-cos":
        train_proj = project(proj, train)
        norms = training_norms(train_proj)
        chunk = chunk_pixels(max(train.n_samples, work_cube.bands))
        cls_window = 1

        def label(coords):
            X = work_cube.values[coords[:, 0], coords[:, 1]] @ proj.matrix
            return nn_cosine_labels(train_proj, norms, X.T)

    else:
        # Sparse-representation classifiers: block dictionary from the
        # training pixels' neighborhoods (width 1 for somp), test side always
        # the projected test neighborhood.
        cls_window = config.window if config.dict_window is None else config.dict_window
        block_window = 1 if config.classifier == "somp" else cls_window
        distinct, members = _window_members(work_cube, train.coords, block_window)
        Z = _projected(proj, work_cube, distinct)
        dictionary = BlockDictionary(
            blocks=tuple(Z[m[m >= 0]].T for m in members), classes=train.labels
        )
        # Rows of max(atoms, bands) values that a chunk's distinct members
        # (gathered spectra, then their score product) and its pixels (score
        # sums) share; each pixel brings its centre at least.
        budget = chunk_pixels(max(dictionary.n_atoms, work_cube.bands))
        chunk = max(1, budget // 2)

        def label(coords):
            # The longest prefix of coords whose distinct members (the running
            # max of members, plus one) and pixels fit the budget, at least
            # one pixel; each member is projected once.
            distinct, members = _window_members(work_cube, coords, cls_window)
            rows = np.maximum.accumulate(members.max(axis=1)) + np.arange(2, len(coords) + 2)
            n = max(1, int(np.searchsorted(rows, budget, side="right")))
            Z = _projected(proj, work_cube, distinct[: members[:n].max() + 1])
            return sbomp_labels(dictionary, Z, config.sparsity, members[:n])

    def predict(coords):
        coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
        labels = np.empty(len(coords), dtype=np.int64)
        # One bounds scan: only the pixels before the first one outside the
        # image are labelled, and its error waits for theirs.
        failure = None
        try:
            _window_centers(work_cube, coords, cls_window)
        except OutOfBoundsError as exc:
            failure = exc
        done, stop = 0, len(coords) if failure is None else failure.index
        try:
            while done < stop:
                prefix = label(coords[done : min(done + chunk, stop)])
                labels[done : done + len(prefix)] = prefix
                done += len(prefix)
        except SpecAngleError as exc:
            if exc.index is None:
                raise
            # A chunk names its first failing pixel, so that is the first of all.
            failure, stop = exc, done + exc.index
        if failure is not None:
            failure.args = (f"pixel ({coords[stop, 0]}, {coords[stop, 1]}): {failure}",)
            raise failure
        return labels

    return proj, predict


def _split_seed(seed, trial):
    # Depends on the config seed and trial index only, never on swept
    # parameters, so sweeps stay paired.
    return seed * 1_000_003 + trial


def run_experiment(cube, gt, config):
    """Run the repeated random-subsampling protocol for one pipeline.

    Returns an AccuracyReport with one confusion matrix per trial. Any error
    inside a trial aborts the experiment, annotated with the trial index.
    """
    c = gt.n_classes
    work_cube = l2_normalize_pixels(cube) if config.normalize else cube
    confusions = np.zeros((config.trials, c, c), dtype=np.int64)
    for trial in range(config.trials):
        try:
            train_coords, test_coords = split_train_test(
                gt, config.n_train, config.n_test, _split_seed(config.seed, trial)
            )
            train = pixels_to_sample_set(work_cube, train_coords, gt)
            _, predict = fit_pipeline(work_cube, train, config)
            true = gt.labels[test_coords[:, 0], test_coords[:, 1]]
            np.add.at(confusions[trial], (true - 1, predict(test_coords) - 1), 1)
        except SpecAngleError as exc:
            exc.args = (f"trial {trial}: {exc}",)
            raise
    return AccuracyReport(params=config.params(), confusions=confusions)


def sweep(cube, gt, config, axes):
    """Cartesian-product sweep over parameter axes.

    axes maps axis names from {"r", "sigma", "window", "sparsity"} to value
    sequences. Returns one AccuracyReport per combination, in the product
    order of the axes dict; per-trial splits are identical across
    combinations so parameter effects are paired.
    """
    for name in axes:
        if name not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis '{name}', expected {SWEEP_AXES}")
        if not axes[name]:
            raise ValueError(f"sweep axis '{name}' has no values")
    names = list(axes)
    # Every point's config is checked before the first point runs.
    configs = [
        replace(config, **dict(zip(names, combo)))
        for combo in itertools.product(*(axes[n] for n in names))
    ]
    return [run_experiment(cube, gt, cfg) for cfg in configs]


# ---------------------------------------------------------------------------
# Exports and rendering


def export_sphere_coords(train, projections):
    """l2-normalized 3-D coordinates of the samples, raw and projected.

    For the original data the first three features are taken; for each
    projection the first three projected components (the ones with the
    largest eigenvalues). Every 3-vector is rescaled to unit norm. Returns a
    list of (source, label, u1, u2, u3) tuples with one row per sample per
    source.
    """
    for i, p in enumerate(projections):
        if p.r < 3:
            raise ReducedDimTooSmallError(
                f"projection {i} has r={p.r}, sphere export needs r >= 3"
            )
    labels = train.labels if train.labels is not None else np.zeros(train.n_samples, dtype=int)

    sources = [("original", train.features[:3])]
    seen = {}
    for p in projections:
        seen[p.method] = seen.get(p.method, 0) + 1
        tag = p.method if seen[p.method] == 1 else f"{p.method}-{seen[p.method]}"
        sources.append((tag, (p.matrix.T @ train.features)[:3]))

    rows = []
    for tag, coords in sources:
        norms = np.linalg.norm(coords, axis=0)
        if np.any(norms == 0.0):
            raise ZeroVectorError(
                f"{tag}: a sample has zero norm in its first three components"
            )
        unit = coords / norms
        for j in range(unit.shape[1]):
            rows.append((tag, int(labels[j]), unit[0, j], unit[1, j], unit[2, j]))
    return rows


def sphere_coords_csv(rows):
    """Render export_sphere_coords rows as CSV text."""
    out = ["source,label,u1,u2,u3"]
    out.extend(
        f"{tag},{label},{u1:.17g},{u2:.17g},{u3:.17g}"
        for tag, label, u1, u2, u3 in rows
    )
    return "\n".join(out) + "\n"


def accuracy_table(reports, class_names=None):
    """Aligned text table of class-specific and overall accuracies (percent).

    One column per report, mirroring the class-specific accuracy tables of
    the evaluation protocol.
    """
    if not reports:
        raise ValueError("need at least one report")
    c = reports[0].n_classes
    if class_names is None:
        class_names = [f"Class {i}" for i in range(1, c + 1)]
    headers = ["Class / Pipeline"] + [r.pipeline_label() for r in reports]
    body = []
    for i in range(c):
        body.append(
            [class_names[i]] + [f"{100 * r.per_class_accuracy[i]:.1f}" for r in reports]
        )
    body.append(
        ["Overall Accuracy"] + [f"{100 * r.overall_accuracy:.1f}" for r in reports]
    )
    widths = [
        max(len(row[j]) for row in [headers] + body) for j in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def accuracy_curve_csv(reports, axis):
    """CSV of overall and per-class accuracy along one swept parameter."""
    c = reports[0].n_classes
    header = [axis, "overall_accuracy"] + [f"class_{i}" for i in range(1, c + 1)]
    lines = [",".join(header)]
    for r in reports:
        vals = [r.params[axis], round(r.overall_accuracy, 12)] + [
            round(float(a), 12) for a in r.per_class_accuracy
        ]
        lines.append(",".join(str(v) for v in vals))
    return "\n".join(lines) + "\n"
