"""Command-line interface.

Subcommands: synth, fit, classify, eval, sweep, export-sphere. Every command
exits 0 on success and 1 with a structured message on stderr otherwise.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import (
    _check_labeled,
    l2_normalize_pixels,
    load_cube,
    load_ground_truth,
    pixels_to_sample_set,
    save_cube,
    save_ground_truth,
    split_train_test,
    synth_scene,
)
from .errors import SpecAngleError
from .evaluate import (
    CLASSIFIERS,
    SWEEP_AXES,
    ExperimentConfig,
    accuracy_curve_csv,
    accuracy_table,
    export_sphere_coords,
    fit_pipeline,
    fit_projection,
    run_experiment,
    sphere_coords_csv,
    sweep,
)
from .projections import DEFAULT_RIDGE, METHODS

_CUBE_EXT = {"csv_bands": "csv", "envi_bsq": "bsq", "envi_bil": "bil"}


def _sigma(text):
    if text == "auto":
        return None
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"sigma must be a float or 'auto', got '{text}'")
    return value


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got '{text}'")


def _sigma_list(text):
    return [_sigma(tok) for tok in text.split(",")]


def _add_data_args(p):
    p.add_argument("--cube", required=True, help="cube file")
    p.add_argument("--gt", required=True, help="ground-truth file")
    p.add_argument(
        "--format", default="csv_bands", choices=list(_CUBE_EXT), help="cube file format"
    )
    p.add_argument(
        "--gt-format", default="csv", choices=["csv", "envi"], help="ground-truth format"
    )
    p.add_argument("--seed", type=int, default=0)


def _add_pipeline_args(p, lists=False):
    int_t = _int_list if lists else int
    p.add_argument("--method", default="lspp", choices=list(METHODS))
    p.add_argument("--r", type=int_t, default=[3] if lists else 3, help="reduced dimensionality")
    p.add_argument(
        "--sigma", type=_sigma_list if lists else _sigma, default=[None] if lists else None,
        help="heat-kernel bandwidth, or 'auto' for the median heuristic",
    )
    p.add_argument("--window", type=int_t, default=[5] if lists else 5, help="spatial window side")
    p.add_argument("--ridge", type=float, default=DEFAULT_RIDGE)
    p.add_argument("--normalize", action="store_true", help="l2-normalize spectra first")


def _add_classifier_args(p, lists=False):
    int_t = _int_list if lists else int
    p.add_argument("--classifier", default="nn-cos", choices=CLASSIFIERS)
    p.add_argument("--sparsity", type=int_t, default=[1] if lists else 1, help="pursuit sparsity K")
    p.add_argument("--n-train", type=int, default=10, help="training samples per class")
    p.add_argument("--dict-window", type=int, default=None,
                   help="classifier neighborhood window, defaults to --window")


def _add_protocol_args(p, lists=False):
    _add_classifier_args(p, lists)
    p.add_argument("--n-test", type=int, default=100, help="test samples per class")
    p.add_argument("--trials", type=int, default=10)


def build_parser():
    top = argparse.ArgumentParser(
        prog="specangle",
        description="Angle-preserving subspaces and block-sparse classification "
        "for hyperspectral pixels.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled scene")
    p.add_argument("--rows", type=int, default=24)
    p.add_argument("--cols", type=int, default=24)
    p.add_argument("--bands", type=int, default=20)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--noise-sd", type=float, default=0.05)
    p.add_argument("--patch-size", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="csv_bands", choices=list(_CUBE_EXT))
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("fit", help="fit a projection on labeled pixels")
    _add_data_args(p)
    _add_pipeline_args(p)
    p.add_argument("--n-train", type=int, default=None,
                   help="training samples per class; all labeled pixels if omitted")
    p.add_argument("--out", required=True, help="projection file")

    p = sub.add_parser("classify", help="fit, then label every held-out labeled pixel")
    _add_data_args(p)
    _add_pipeline_args(p)
    _add_classifier_args(p)
    p.add_argument("--out", required=True, help="predictions CSV")

    p = sub.add_parser("eval", help="repeated random-subsampling evaluation")
    _add_data_args(p)
    _add_pipeline_args(p)
    _add_protocol_args(p)
    p.add_argument("--out", required=True, help="JSON report")

    p = sub.add_parser("sweep", help="eval over a parameter grid "
                       "(give --r/--sigma/--window/--sparsity comma-separated)")
    _add_data_args(p)
    _add_pipeline_args(p, lists=True)
    _add_protocol_args(p, lists=True)
    p.add_argument("--out", required=True, help="JSON report list")

    p = sub.add_parser("export-sphere", help="export l2-normalized 3-D coordinates")
    _add_data_args(p)
    _add_pipeline_args(p)
    p.add_argument("--methods", default="slspp,lpp",
                   help="comma-separated projection methods to fit and export, "
                   f"from {','.join(METHODS)}")
    p.add_argument("--n-train", type=int, default=10)
    p.add_argument("--out", required=True, help="coordinates CSV")

    return top


def _load_data(args):
    cube = load_cube(args.cube, args.format)
    gt = load_ground_truth(args.gt, args.gt_format)
    if gt.labels.shape != (cube.rows, cube.cols):
        raise SpecAngleError(
            f"ground truth shape {gt.labels.shape} does not match cube "
            f"{(cube.rows, cube.cols)}"
        )
    return cube, gt


def _train_pixels(args):
    """Load the scene and gather the training pixels: every labeled pixel
    without ``--n-train``, else a per-class split keyed by ``--seed``."""
    cube, gt = _load_data(args)
    work = l2_normalize_pixels(cube) if args.normalize else cube
    if args.n_train is None:
        _check_labeled(gt)
        coords = np.argwhere(gt.labels > 0)
    else:
        coords, _ = split_train_test(gt, args.n_train, 0, args.seed)
    return work, gt, pixels_to_sample_set(work, coords, gt)


def _config_from_args(args, **overrides):
    """ExperimentConfig from the flags a subcommand has, plus overrides.

    Flags left at None (``--sigma auto``, no ``--dict-window``, ``fit`` without
    ``--n-train``) take the config default.
    """
    given = {
        f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
        if getattr(args, f.name, None) is not None
    }
    return ExperimentConfig(**{**given, **overrides})


def _cmd_synth(args):
    cube, gt = synth_scene(
        rows=args.rows, cols=args.cols, bands=args.bands, classes=args.classes,
        noise_sd=args.noise_sd, patch_size=args.patch_size, seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cube_path = out / f"cube.{_CUBE_EXT[args.format]}"
    save_cube(cube_path, cube, args.format)
    save_ground_truth(out / "gt.csv", gt)
    print(f"wrote {cube_path} and {out / 'gt.csv'}")
    return 0


def _cmd_fit(args):
    config = _config_from_args(args)
    work, _, train = _train_pixels(args)
    proj = fit_projection(work, train, config)
    proj.save(args.out)
    print(f"wrote {args.out} ({proj.method}, d={proj.dim}, r={proj.r})")
    return 0


def _cmd_classify(args):
    config = _config_from_args(args)
    work, gt, train = _train_pixels(args)
    _, predict = fit_pipeline(work, train, config)

    is_train = np.zeros(gt.labels.shape, dtype=bool)
    is_train[train.coords[:, 0], train.coords[:, 1]] = True
    held_out = np.argwhere((gt.labels > 0) & ~is_train)
    true = gt.labels[held_out[:, 0], held_out[:, 1]]
    pred = predict(held_out)

    lines = ["row,col,true,predicted"]
    # Python ints format several times faster than numpy scalars.
    rows = np.column_stack([held_out, true, pred]).tolist()
    lines.extend(f"{r},{c},{t},{p}" for r, c, t, p in rows)
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    acc = 100.0 * np.count_nonzero(pred == true) / max(len(held_out), 1)
    print(f"wrote {args.out}; held-out accuracy {acc:.1f}% over {len(held_out)} pixels")
    return 0


def _cmd_eval(args):
    config = _config_from_args(args)
    cube, gt = _load_data(args)
    report = run_experiment(cube, gt, config)
    Path(args.out).write_text(report.to_json(), encoding="utf-8")
    print(accuracy_table([report]), end="")
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args):
    cube, gt = _load_data(args)
    values = {name: getattr(args, name) for name in SWEEP_AXES}
    axes = {name: v for name, v in values.items() if len(v) > 1}
    config = _config_from_args(args, **{name: v[0] for name, v in values.items()})
    reports = sweep(cube, gt, config, axes)
    payload = "[\n" + ",\n".join(r.to_json().rstrip("\n") for r in reports) + "\n]\n"
    Path(args.out).write_text(payload, encoding="utf-8")
    print(accuracy_table(reports), end="")
    if len(axes) == 1:
        axis = next(iter(axes))
        curve_path = Path(args.out).with_suffix(".curve.csv")
        curve_path.write_text(accuracy_curve_csv(reports, axis), encoding="utf-8")
        print(f"wrote {curve_path}")
    print(f"wrote {args.out}")
    return 0


def _cmd_export_sphere(args):
    configs = [_config_from_args(args, method=m.strip()) for m in args.methods.split(",")]
    work, _, train = _train_pixels(args)
    projections = [fit_projection(work, train, cfg) for cfg in configs]
    rows = export_sphere_coords(train, projections)
    Path(args.out).write_text(sphere_coords_csv(rows), encoding="utf-8")
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "fit": _cmd_fit,
    "classify": _cmd_classify,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "export-sphere": _cmd_export_sphere,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SpecAngleError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
