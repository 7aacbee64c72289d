"""The benchmark's three workloads.

Each workload is a closed loop with one caller. ``operations`` lists its
operations, each a call of the entry point a user calls (``run_experiment`` or
the ``specangle`` CLI) that returns an ``Op``; ``run_pass`` runs them back to
back. ``traced_pass`` runs the same operations again through the public
functions of each module, with a span around every call, so that time can be
assigned to layers. Both must give
byte-identical outputs; the benchmark checks that.

Why these three (shares of a traced pass, 1 BLAS thread, 103 bands):

* ``protocol``: the paper's evaluation protocol with fewer training samples
  than bands (n=90 < d=103). Many small fits, per-pixel cosine NN (about
  45%), pursuit only as single atoms at K=1 (about 35%); affinity work is
  tiny. It is the small-n side of any size threshold.
* ``map``: a full-scene ``classify`` with block pursuit. About 73% of the time
  is ``sbomp`` and 17% ``residual_by_class``; affinity and projections take
  under 1%. A faster pursuit must move it; a faster graph must not.
* ``scene-fit``: ``fit`` on every labelled pixel (n=5,184). About 45% is the
  median-heuristic bandwidth, the rest dense n x n graphs; no pursuit at all.
  A bounded-memory graph must move it; a faster pursuit must not.

Sizes are parameters so that the self-test can run the same code on tiny
scenes; the defaults are the benchmark's sizes.
"""

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from specangle import cli, evaluate
from specangle.affinity import median_heuristic_sigma
from specangle.classify import nn_cosine_classify
from specangle.data import (
    SampleSet,
    load_cube,
    load_ground_truth,
    pixels_to_sample_set,
    save_cube,
    save_ground_truth,
    split_train_test,
    synth_scene,
)
from specangle.errors import SpecAngleError
from specangle.evaluate import AccuracyReport, ExperimentConfig, projected_block, run_experiment
from specangle.projections import (
    DEFAULT_RIDGE,
    Projection,
    fit_ada,
    fit_lada,
    fit_lpp,
    fit_lspp,
    fit_slspp,
)
from specangle.pursuit import BlockDictionary, residual_by_class, sbomp

@dataclass(frozen=True)
class Op:
    """Outcome of one operation: its output bytes, or the error it raised."""

    name: str
    output: Optional[bytes]
    error: Optional[str] = None

    @property
    def error_type(self):
        return None if self.error is None else self.error.split(":", 1)[0]


def _failed(name, exc):
    return Op(name, None, f"{type(exc).__name__}: {exc}")


def _run_cli(name, argv, out_path):
    """Run one CLI command quietly; its failure message becomes the error."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(argv)
    if rc != 0:
        return Op(name, None, stderr.getvalue().strip().removeprefix("error: "))
    return Op(name, out_path.read_bytes())


def _split_seed(seed, trial):
    """The per-trial split seed of run_experiment, derived independently.

    The traced protocol pass must draw the same splits as run_experiment.
    The library's own derivation is private, so it is checked against this
    one on every call: if either changes, the benchmark fails loudly instead
    of comparing different splits.
    """
    ours = seed * 1_000_003 + trial
    theirs = getattr(evaluate, "_split_seed", None)
    if theirs is None or theirs(seed, trial) != ours:
        raise RuntimeError(
            "evaluate._split_seed no longer matches the benchmark's derivation "
            f"(seed {seed}, trial {trial}); update perfbench/workloads.py"
        )
    return ours


# ---------------------------------------------------------------------------
# Traced calls shared by the workloads


def _traced_sigma(tr, samples):
    with tr.span("affinity.sigma", memory=True):
        sigma = median_heuristic_sigma(samples)
    n = samples.n_samples
    tr.add("affinity.sigma_pairs", n * (n - 1) // 2)
    return sigma


def _traced_fit(tr, cube, train, method, r, window, ridge=DEFAULT_RIDGE):
    """evaluate.fit_projection, with the median-heuristic sigma resolved in
    its own span and passed explicitly; the projection is the same as with
    sigma=None."""
    sigma = None
    if method == "slspp":
        with tr.span("data.gather"):
            centers = pixels_to_sample_set(cube, train.coords)
        sigma = 1.0 if centers.n_samples == 1 else _traced_sigma(tr, centers)
    elif method != "ada":
        sigma = _traced_sigma(tr, train)
    with tr.span(f"projections.fit.{method}", memory=True):
        if method == "lspp":
            proj = fit_lspp(train, r, sigma=sigma, ridge=ridge)
        elif method == "lpp":
            proj = fit_lpp(train, r, sigma=sigma, ridge=ridge)
        elif method == "ada":
            proj = fit_ada(train, r=r, ridge=ridge)
        elif method == "lada":
            proj = fit_lada(train, r=r, sigma=sigma, ridge=ridge)
        else:
            proj = fit_slspp(cube, train.coords, r, window=window, sigma=sigma)
    tr.add("projections.fit_calls")
    tr.add("projections.cols_used", proj.r / proj.dim)
    return proj


def _traced_dictionary(tr, proj, cube, coords, labels, window):
    blocks = []
    for rc in coords:
        with tr.span("evaluate.block"):
            blocks.append(projected_block(proj, cube, rc, window))
    with tr.span("pursuit.dictionary"):
        return BlockDictionary(blocks=tuple(blocks), classes=labels)


def _argmin_lowest(per_class):
    # The tie rule of classify.sbomp_classify: lowest class id wins.
    items = sorted(per_class.items())
    best = min(v for _, v in items)
    hits = [cls for cls, v in items if v == best]
    return hits[0], len(hits) > 1


def _traced_pursuit_label(tr, dictionary, proj, cube, coord, window, K):
    """sbomp_classify on one projected test neighbourhood."""
    with tr.span("classify.pixel"):
        with tr.span("evaluate.block"):
            S = projected_block(proj, cube, coord, window)
        with tr.span("pursuit.sbomp"):
            sol = sbomp(dictionary, S, K)
        with tr.span("pursuit.residual"):
            residuals = residual_by_class(dictionary, S, sol)
        label, tied = _argmin_lowest(residuals)
    used = len(sol.support)
    tr.add("classify.calls")
    tr.add("classify.ties", tied)
    tr.add("pursuit.pixels")
    tr.add("pursuit.budget", K)
    tr.add("pursuit.iterations", used)
    tr.add("pursuit.early_stops", used < K)
    # Scoring every block is one (atoms x d) by (d x w) product per iteration.
    tr.add("pursuit.score_flop", 2.0 * dictionary.dim * int(dictionary.widths.sum()) * S.shape[1] * used)
    return label


def _traced_nn_label(tr, train_proj, proj, cube, coord):
    with tr.span("classify.pixel"):
        x = proj.matrix.T @ cube.values[coord[0], coord[1]]
        with tr.span("classify.nn"):
            pred = nn_cosine_classify(train_proj, x)
    tr.add("classify.calls")
    tr.add("classify.ties", pred.tie_broken)
    return pred.label


def _traced_load(tr, cube_path, gt_path):
    with tr.span("data.load"):
        cube = load_cube(cube_path, "envi_bsq")
        gt = load_ground_truth(gt_path, "csv")
    header = cube_path.with_name(cube_path.name + ".hdr")
    tr.add("data.load_bytes", sum(p.stat().st_size for p in (cube_path, header, gt_path)))
    if gt.labels.shape != (cube.rows, cube.cols):
        raise SpecAngleError("ground truth does not match the cube")
    return cube, gt


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Set-up, the operations of an untraced pass, a traced pass and an
    accuracy per operation.

    ``floors`` maps operation names to the lowest accuracy accepted.
    """

    name = ""
    defaults = {}

    def __init__(self, seed, workdir, **params):
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise TypeError(f"unknown workload parameters {sorted(unknown)}")
        self.seed = seed
        self.dir = workdir
        self.p = {**self.defaults, **params}

    def _scene(self):
        p = self.p
        return synth_scene(p["size"], p["size"], p["bands"], p["classes"], noise_sd=0.05, seed=self.seed)

    def _write_scene(self):
        cube, gt = self._scene()
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cube_path = self.dir / "cube.bsq"
        self.gt_path = self.dir / "gt.csv"
        save_cube(self.cube_path, cube, "envi_bsq")
        save_ground_truth(self.gt_path, gt)
        return cube, gt

    def floor(self, op_name):
        return self.p["floors"].get(op_name, 0.0)

    def run_pass(self):
        return [run() for run in self.operations()]


class Protocol(Workload):
    """run_experiment on one synthetic scene, one experiment per pipeline."""

    name = "protocol"
    defaults = {
        "size": 120, "bands": 103, "classes": 9, "r": 20, "window": 3,
        "n_train": 10, "n_test": 100, "trials": 10,
        "pipelines": (
            ("lspp", "nn-cos", None), ("slspp", "nn-cos", None),
            ("ada", "nn-cos", None), ("lada", "nn-cos", None),
            ("lpp", "nn-cos", None), ("slspp", "somp", 1),
        ),
        # ADA and LADA sit at chance (1/9) with n < d: a known defect that
        # stays visible. Their floor only catches a broken pipeline.
        "floors": {
            "lspp/nn-cos": 0.9, "slspp/nn-cos": 0.95, "ada/nn-cos": 0.05,
            "lada/nn-cos": 0.05, "lpp/nn-cos": 0.9, "slspp/somp": 0.95,
        },
    }

    def setup(self):
        self.cube, self.gt = self._scene()
        p = self.p
        self.configs = [
            (f"{m}/{c}", ExperimentConfig(
                method=m, classifier=c, r=p["r"], window=p["window"], sparsity=1,
                n_train=p["n_train"], n_test=p["n_test"], trials=p["trials"],
                seed=self.seed, dict_window=dw,
            ))
            for m, c, dw in p["pipelines"]
        ]
        self.pixels_per_pass = len(self.configs) * p["trials"] * p["n_test"] * self.gt.n_classes

    def operations(self):
        return [lambda name=name, cfg=cfg: self._experiment(name, cfg)
                for name, cfg in self.configs]

    def _experiment(self, name, cfg):
        try:
            return Op(name, run_experiment(self.cube, self.gt, cfg).to_json().encode())
        except SpecAngleError as exc:
            return _failed(name, exc)

    def traced_pass(self, tr):
        ops = []
        for name, cfg in self.configs:
            try:
                with tr.span("evaluate.experiment"):
                    ops.append(Op(name, self._traced_experiment(tr, cfg)))
            except SpecAngleError as exc:
                ops.append(_failed(name, exc))
        return ops

    def _traced_experiment(self, tr, cfg):
        c = self.gt.n_classes
        confusions = np.zeros((cfg.trials, c, c), dtype=np.int64)
        for trial in range(cfg.trials):
            with tr.span("evaluate.trial"):
                confusions[trial] = self._traced_trial(tr, cfg, trial)
        with tr.span("evaluate.report"):
            return AccuracyReport(params=cfg.params(), confusions=confusions).to_json().encode()

    def _traced_trial(self, tr, cfg, trial):
        cube, gt = self.cube, self.gt
        with tr.span("data.split"):
            train_coords, test_coords = split_train_test(
                gt, cfg.n_train, cfg.n_test, _split_seed(cfg.seed, trial)
            )
        with tr.span("data.gather"):
            train = pixels_to_sample_set(cube, train_coords, gt)
        test_labels = gt.labels[test_coords[:, 0], test_coords[:, 1]]
        confusion = np.zeros((gt.n_classes, gt.n_classes), dtype=np.int64)
        proj = _traced_fit(tr, cube, train, cfg.method, cfg.r, cfg.window, cfg.ridge)
        if cfg.classifier == "nn-cos":
            train_proj = SampleSet(features=proj.matrix.T @ train.features, labels=train.labels)
            for coord, true in zip(test_coords, test_labels):
                confusion[true - 1, _traced_nn_label(tr, train_proj, proj, cube, coord) - 1] += 1
            return confusion
        cls_window = cfg.window if cfg.dict_window is None else cfg.dict_window
        block_window = 1 if cfg.classifier == "somp" else cls_window
        dictionary = _traced_dictionary(tr, proj, cube, train_coords, train.labels, block_window)
        for coord, true in zip(test_coords, test_labels):
            label = _traced_pursuit_label(tr, dictionary, proj, cube, coord, cls_window, cfg.sparsity)
            confusion[true - 1, label - 1] += 1
        return confusion

    def accuracy(self, op):
        return json.loads(op.output)["overall_accuracy"]


class Map(Workload):
    """``specangle classify`` of every held-out pixel of an ENVI BSQ scene."""

    name = "map"
    defaults = {
        "size": 96, "bands": 103, "classes": 9, "r": 30, "window": 3,
        "sparsity": 2, "n_train": 10, "floors": {"classify": 0.9},
    }

    def setup(self):
        _, gt = self._write_scene()
        self.pixels_per_pass = int(np.count_nonzero(gt.labels)) - self.p["n_train"] * gt.n_classes

    def _argv(self, out):
        p = self.p
        return [
            "classify", "--cube", str(self.cube_path), "--format", "envi_bsq",
            "--gt", str(self.gt_path), "--method", "slspp", "--r", str(p["r"]),
            "--window", str(p["window"]), "--classifier", "sbomp",
            "--sparsity", str(p["sparsity"]), "--n-train", str(p["n_train"]),
            "--seed", str(self.seed), "--out", str(out),
        ]

    def operations(self):
        out = self.dir / "predictions.csv"
        return [lambda: _run_cli("classify", self._argv(out), out)]

    def traced_pass(self, tr):
        try:
            with tr.span("cli.classify"):
                return [Op("classify", self._traced_classify(tr))]
        except SpecAngleError as exc:
            return [_failed("classify", exc)]

    def _traced_classify(self, tr):
        # cli._cmd_classify, call for call.
        p = self.p
        cube, gt = _traced_load(tr, self.cube_path, self.gt_path)
        with tr.span("data.split"):
            coords, _ = split_train_test(gt, p["n_train"], 0, self.seed)
        with tr.span("data.gather"):
            train = pixels_to_sample_set(cube, coords, gt)
        proj = _traced_fit(tr, cube, train, "slspp", p["r"], p["window"])
        train_set = set(map(tuple, train.coords))
        held_out = [tuple(rc) for rc in np.argwhere(gt.labels > 0) if tuple(rc) not in train_set]
        dictionary = _traced_dictionary(tr, proj, cube, train.coords, train.labels, p["window"])
        lines = ["row,col,true,predicted"]
        for rc in held_out:
            pred = _traced_pursuit_label(tr, dictionary, proj, cube, rc, p["window"], p["sparsity"])
            lines.append(f"{rc[0]},{rc[1]},{int(gt.labels[rc[0], rc[1]])},{pred}")
        out = self.dir / "predictions-traced.csv"
        out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return out.read_bytes()

    def accuracy(self, op):
        rows = [ln.split(",") for ln in op.output.decode().splitlines()[1:]]
        return sum(true == pred for _, _, true, pred in rows) / len(rows)


class SceneFit(Workload):
    """``specangle fit`` on every labelled pixel, once per method."""

    name = "scene-fit"
    defaults = {
        "size": 72, "bands": 103, "classes": 9,
        "fits": (("slspp", 30, 5), ("lspp", 30, None), ("lada", 8, None)),
        # Accuracy check: nn-cos on a 10/500 per-class split, outside the timed
        # passes; 4,500 test pixels keep the figure steady across seeds.
        "check_train": 10, "check_test": 500,
        # LADA sits at chance (1/9) here too, the known defect of the
        # discriminant fits; its floor only catches a broken pipeline.
        "floors": {"fit-slspp": 0.9, "fit-lspp": 0.9, "fit-lada": 0.05},
    }

    def setup(self):
        _, gt = self._write_scene()
        self.pixels_per_pass = int(np.count_nonzero(gt.labels)) * len(self.p["fits"])

    def _argv(self, method, r, window, out):
        argv = [
            "fit", "--cube", str(self.cube_path), "--format", "envi_bsq",
            "--gt", str(self.gt_path), "--method", method, "--r", str(r),
            "--out", str(out),
        ]
        return argv + (["--window", str(window)] if window is not None else [])

    def operations(self):
        ops = []
        for method, r, window in self.p["fits"]:
            name, out = f"fit-{method}", self.dir / f"{method}.proj"
            argv = self._argv(method, r, window, out)
            ops.append(lambda name=name, argv=argv, out=out: _run_cli(name, argv, out))
        return ops

    def traced_pass(self, tr):
        ops = []
        for method, r, window in self.p["fits"]:
            name = f"fit-{method}"
            try:
                with tr.span("cli.fit"):
                    ops.append(Op(name, self._traced_fit_command(tr, method, r, window)))
            except SpecAngleError as exc:
                ops.append(_failed(name, exc))
        return ops

    def _traced_fit_command(self, tr, method, r, window):
        # cli._cmd_fit without --n-train, call for call.
        cube, gt = _traced_load(tr, self.cube_path, self.gt_path)
        coords = np.argwhere(gt.labels > 0)
        with tr.span("data.gather"):
            train = pixels_to_sample_set(cube, coords, gt)
        proj = _traced_fit(tr, cube, train, method, r, window)
        out = self.dir / f"{method}-traced.proj"
        with tr.span("projections.save"):
            proj.save(out)
        return out.read_bytes()

    def accuracy(self, op):
        p = self.p
        path = self.dir / "check.proj"
        path.write_bytes(op.output)
        proj = Projection.load(path)
        cube = load_cube(self.cube_path, "envi_bsq")
        gt = load_ground_truth(self.gt_path, "csv")
        train_coords, test_coords = split_train_test(gt, p["check_train"], p["check_test"], self.seed)
        train = pixels_to_sample_set(cube, train_coords, gt)
        train_proj = SampleSet(features=proj.matrix.T @ train.features, labels=train.labels)
        hits = sum(
            nn_cosine_classify(train_proj, proj.matrix.T @ cube.values[r, c]).label == gt.labels[r, c]
            for r, c in test_coords
        )
        return float(hits / len(test_coords))


WORKLOADS = {w.name: w for w in (Protocol, Map, SceneFit)}
