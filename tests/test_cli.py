import json
import warnings
from dataclasses import fields

import numpy as np
import pytest

from specangle import evaluate
from specangle.cli import build_parser, main
from specangle.data import (
    HyperCube,
    load_cube,
    load_ground_truth,
    save_cube,
    save_ground_truth,
    split_train_test,
    synth_scene,
)
from specangle.evaluate import ExperimentConfig
from specangle.projections import Projection


@pytest.fixture
def scene_dir(tmp_path):
    out = tmp_path / "scene"
    rc = main([
        "synth", "--rows", "18", "--cols", "18", "--bands", "12",
        "--classes", "3", "--noise-sd", "0.05", "--patch-size", "6",
        "--seed", "11", "--out", str(out),
    ])
    assert rc == 0
    return out


def base_args(scene_dir):
    return ["--cube", str(scene_dir / "cube.csv"), "--gt", str(scene_dir / "gt.csv")]


class TestSynth:
    def test_outputs_loadable(self, scene_dir):
        cube = load_cube(scene_dir / "cube.csv", "csv_bands")
        gt = load_ground_truth(scene_dir / "gt.csv", "csv")
        assert (cube.rows, cube.cols, cube.bands) == (18, 18, 12)
        assert gt.n_classes == 3

    def test_envi_output(self, tmp_path):
        out = tmp_path / "scene_envi"
        rc = main([
            "synth", "--rows", "8", "--cols", "8", "--bands", "6",
            "--classes", "2", "--patch-size", "4", "--format", "envi_bsq",
            "--out", str(out),
        ])
        assert rc == 0
        cube = load_cube(out / "cube.bsq", "envi_bsq")
        assert cube.bands == 6


class TestFit:
    def test_writes_projection(self, scene_dir, tmp_path):
        proj_path = tmp_path / "proj.txt"
        rc = main([
            "fit", *base_args(scene_dir), "--method", "slspp", "--r", "4",
            "--window", "3", "--n-train", "5", "--out", str(proj_path),
        ])
        assert rc == 0
        proj = Projection.load(proj_path)
        assert proj.method == "slspp"
        assert proj.r == 4


class TestClassify:
    def test_predictions_csv(self, scene_dir, tmp_path, capsys):
        pred_path = tmp_path / "pred.csv"
        rc = main([
            "classify", *base_args(scene_dir), "--method", "lspp",
            "--classifier", "nn-cos", "--r", "3", "--n-train", "5",
            "--out", str(pred_path),
        ])
        assert rc == 0
        lines = pred_path.read_text().strip().split("\n")
        assert lines[0] == "row,col,true,predicted"
        # 18x18 fully labeled minus 3 classes x 5 training pixels
        assert len(lines) - 1 == 18 * 18 - 15
        assert "accuracy" in capsys.readouterr().out

    def test_sparse_classifier_path(self, scene_dir, tmp_path, capsys):
        pred_path = tmp_path / "pred_somp.csv"
        rc = main([
            "classify", *base_args(scene_dir), "--method", "slspp",
            "--classifier", "somp", "--r", "4", "--window", "3",
            "--sparsity", "2", "--n-train", "5", "--out", str(pred_path),
        ])
        assert rc == 0
        lines = pred_path.read_text().strip().split("\n")
        assert len(lines) - 1 == 18 * 18 - 15
        assert "accuracy" in capsys.readouterr().out


class TestEval:
    def test_json_report_and_table(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main([
            "eval", *base_args(scene_dir), "--method", "lspp",
            "--classifier", "nn-cos", "--r", "3", "--n-train", "5",
            "--n-test", "10", "--trials", "2", "--seed", "3",
            "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert len(report["confusion_matrices"]) == 2
        assert "Overall Accuracy" in capsys.readouterr().out

    def test_byte_identical_reports(self, scene_dir, tmp_path):
        args = [
            "eval", *base_args(scene_dir), "--method", "slspp",
            "--classifier", "somp", "--r", "4", "--window", "3",
            "--sparsity", "2", "--n-train", "5", "--n-test", "10",
            "--trials", "2", "--seed", "9",
        ]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sbomp_at_the_defaults(self, tmp_path):
        # r = 3 against 25 atoms per window-5 block.
        scene = tmp_path / "scene"
        assert main(["synth", "--out", str(scene)]) == 0
        out = tmp_path / "report.json"
        assert main(["eval", *base_args(scene), "--classifier", "sbomp", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["confusion_matrices"]) == 10


class TestSweep:
    def test_axis_products_and_curve(self, scene_dir, tmp_path):
        out = tmp_path / "sweep.json"
        rc = main([
            "sweep", *base_args(scene_dir), "--method", "slspp",
            "--classifier", "somp", "--r", "3", "--window", "1,3,5",
            "--n-train", "5", "--n-test", "10", "--trials", "2",
            "--out", str(out),
        ])
        assert rc == 0
        reports = json.loads(out.read_text())
        assert [r["params"]["window"] for r in reports] == [1, 3, 5]
        curve = (tmp_path / "sweep.curve.csv").read_text().strip().split("\n")
        assert curve[0].startswith("window,")
        assert len(curve) == 4


class TestExportSphere:
    def test_csv_rows_unit_norm(self, scene_dir, tmp_path):
        out = tmp_path / "sphere.csv"
        rc = main([
            "export-sphere", *base_args(scene_dir), "--methods", "slspp,lpp",
            "--r", "3", "--window", "3", "--n-train", "5", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "source,label,u1,u2,u3"
        assert len(lines) - 1 == 15 * 3  # 15 train pixels x (original + 2 fits)
        for ln in lines[1:]:
            parts = ln.split(",")
            vec = np.array([float(v) for v in parts[2:]])
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-10


@pytest.mark.parametrize("command,flags", [
    ("eval", ["method", "r", "sigma", "window", "ridge", "classifier", "sparsity",
              "n_test", "trials", "seed", "n_train"]),
    ("classify", ["method", "r", "sigma", "window", "ridge", "classifier", "sparsity",
                  "seed", "n_train"]),
])
def test_flag_defaults_are_the_config_defaults(command, flags):
    """The parser restates the config's defaults; a config default changed
    without them would not reach the command."""
    args = build_parser().parse_args([command, "--cube", "c", "--gt", "g", "--out", "o"])
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    assert {name: getattr(args, name) for name in flags} == {name: defaults[name] for name in flags}


CONFIG_ERRORS = [
    (["eval", "--trials", "0"], "InvalidConfigError"),
    (["eval", "--n-test", "0"], "InvalidConfigError"),
    (["export-sphere", "--methods", "slspp,bogus"], "InvalidConfigError"),
    (["classify", "--classifier", "sbomp", "--sparsity", "0"], "InvalidConfigError"),
    (["fit", "--method", "slspp", "--sigma", "-1"], "NonPositiveSigmaError"),
    (["fit", "--method", "slspp", "--sigma", "0"], "NonPositiveSigmaError"),
    (["fit", "--method", "lspp", "--sigma", "nan"], "NonPositiveSigmaError"),
    (["fit", "--method", "lspp", "--ridge", "nan"], "SpecAngleError"),
    (["fit", "--method", "lspp", "--ridge", "inf"], "SpecAngleError"),
    (["fit", "--method", "slspp", "--sigma", "inf"], "NonPositiveSigmaError"),
    (["eval", "--n-test", "10", "--sigma", "inf"], "NonPositiveSigmaError"),
    # Split seeds are Philox keys, uint64: seed * 1000003 + trial must fit.
    (["eval", "--seed", "-1"], "InvalidConfigError"),
    (["eval", "--seed", "18446744073709551"], "InvalidConfigError"),
    (["sweep", "--seed", "-1"], "InvalidConfigError"),
    (["classify", "--seed", "-1"], "InvalidConfigError"),
    (["export-sphere", "--seed", "-1"], "InvalidConfigError"),
    (["fit", "--n-train", "5", "--seed", "-1"], "InvalidConfigError"),
    # A method that never reads sigma or ridge would write them into the
    # report unchecked, and Infinity and NaN are not JSON.
    *[
        case
        for command in ("eval", "sweep", "classify")
        for case in (
            ([command, "--method", "ada", "--sigma", "inf"], "NonPositiveSigmaError"),
            ([command, "--method", "slspp", "--ridge", "nan"], "SpecAngleError"),
            ([command, "--r", "0"], "InvalidConfigError"),
        )
    ],
]


def labeled_in_order(scene, command):
    """The pixels the command labels, in the order it labels them, with the
    settings of test_pixel_failure_names_the_pixel."""
    gt = load_ground_truth(scene / "gt.csv", "csv")
    if command == "classify":
        train_coords, _ = split_train_test(gt, 5, 0, 0)
        taken = {tuple(rc) for rc in train_coords}
        return [rc for rc in map(tuple, np.argwhere(gt.labels > 0)) if rc not in taken]
    _, coords = split_train_test(gt, 5, 10, evaluate._split_seed(0, 0))
    return [tuple(rc) for rc in coords]


class TestErrors:
    @pytest.mark.parametrize(
        "argv,error", CONFIG_ERRORS, ids=[f"argv{i}" for i in range(len(CONFIG_ERRORS))]
    )
    def test_config_error_is_one_line(self, scene_dir, tmp_path, capsys, argv, error):
        rc = main([*argv, *base_args(scene_dir), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ")
        assert err.count("error:") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_synth_seed_outside_the_philox_keys_is_one_line(self, tmp_path, capsys, seed):
        assert main(["synth", "--seed", seed, "--out", str(tmp_path / "scene")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: InvalidConfigError: seed must be in [0, 2**64), got {seed}\n"

    @pytest.mark.parametrize("command,prefix", [
        (["classify"], ""),
        (["eval", "--n-test", "10", "--trials", "2"], "trial 0: "),
    ])
    def test_pixel_failure_names_the_pixel(self, scene_dir, tmp_path, capsys, command, prefix):
        # Zero spectra at two held-out pixels, whose cosines are undefined;
        # the error names the one labeled first.
        coords = labeled_in_order(scene_dir, command[0])
        values = load_cube(scene_dir / "cube.csv", "csv_bands").values.copy()
        for r, c in (coords[9], coords[4]):
            values[r, c] = 0.0
        save_cube(tmp_path / "cube.csv", HyperCube(values=values), "csv_bands")
        rc = main([
            *command, "--cube", str(tmp_path / "cube.csv"), "--gt", str(scene_dir / "gt.csv"),
            "--method", "lspp", "--classifier", "nn-cos", "--n-train", "5",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        r, c = coords[4]
        assert err.startswith(f"error: ZeroVectorError: {prefix}pixel ({r}, {c}): ")

    @pytest.mark.parametrize("gt,error", [
        ("1,-1\n2,1\n", "BadRasterError: labels must be nonnegative"),
        ("1,3\n3,1\n", "BadRasterError: class ids must be contiguous 1..3; missing [2]"),
        (None, "MalformedHeaderError: samples, lines and bands must be positive"),
        (("0," * 17 + "0\n") * 18,
         "InsufficientSamplesError: the ground truth has no labeled pixel"),
    ], ids=["negative-id", "id-gap", "empty-envi", "unlabeled"])
    def test_malformed_scene_file_is_one_line(self, scene_dir, tmp_path, capsys, gt, error):
        if gt is None:
            # An ENVI cube with zero lines and the empty payload that implies.
            cube = tmp_path / "cube.bsq"
            cube.write_bytes(b"")
            cube.with_name("cube.bsq.hdr").write_text(
                "ENVI\nsamples = 18\nlines = 0\nbands = 12\ndata type = 5\ninterleave = bsq\n"
            )
            args = ["--cube", str(cube), "--format", "envi_bsq", "--gt", str(scene_dir / "gt.csv")]
        else:
            (tmp_path / "gt.csv").write_text(gt)
            args = ["--cube", str(scene_dir / "cube.csv"), "--gt", str(tmp_path / "gt.csv")]
        assert main(["eval", *args, "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}")
        assert err.count("error:") == 1
        assert "Traceback" not in err

    def test_fit_on_all_pixels_of_an_unlabeled_scene_is_one_line(self, scene_dir, tmp_path, capsys):
        # Without --n-train, fit takes every labeled pixel, and fails as a
        # split of the same ground truth does.
        (tmp_path / "gt.csv").write_text(("0," * 17 + "0\n") * 18)
        rc = main([
            "fit", "--cube", str(scene_dir / "cube.csv"), "--gt", str(tmp_path / "gt.csv"),
            "--out", str(tmp_path / "proj.txt"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: InsufficientSamplesError: the ground truth has no labeled pixel\n"

    def test_overflowing_distances_are_one_line(self, scene_dir, tmp_path, capsys):
        cube = load_cube(scene_dir / "cube.csv", "csv_bands")
        scaled = tmp_path / "scaled.csv"
        save_cube(scaled, HyperCube(values=cube.values * 1e160), "csv_bands")
        rc = main([
            "fit", "--cube", str(scaled), "--gt", str(scene_dir / "gt.csv"),
            "--method", "lspp", "--out", str(tmp_path / "proj.txt"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: NonFiniteError: squared distances between samples overflow")
        assert err.count("error:") == 1
        assert "Traceback" not in err

    def test_overflowing_window_member_is_one_line(self, tmp_path, capsys):
        # A neighbour of a centre that is not a centre itself, so the
        # bandwidth's check over the centres never sees it.
        cube, gt = synth_scene(12, 12, 10, 3, seed=0)
        centers, _ = split_train_test(gt, 3, 0, seed=0)
        taken = set(map(tuple, centers.tolist()))
        r, c = centers[0]
        nb = next((r + i, c + j) for i in (-1, 0, 1) for j in (-1, 0, 1)
                  if 0 <= r + i < 12 and 0 <= c + j < 12 and (r + i, c + j) not in taken)
        values = cube.values.copy()
        values[nb] *= 1e160
        save_cube(tmp_path / "cube.csv", HyperCube(values=values), "csv_bands")
        save_ground_truth(tmp_path / "gt.csv", gt)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([
                "fit", "--cube", str(tmp_path / "cube.csv"), "--gt", str(tmp_path / "gt.csv"),
                "--method", "slspp", "--r", "2", "--window", "3", "--n-train", "3",
                "--seed", "0", "--out", str(tmp_path / "proj.txt"),
            ])
        assert rc == 1
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err == (
            f"error: NonFiniteError: pixel ({nb[0]}, {nb[1]}) in the window of center "
            f"({r}, {c}): squared distances overflow\n"
        )

    def test_missing_file(self, tmp_path, capsys):
        rc = main([
            "eval", "--cube", str(tmp_path / "nope.csv"), "--gt",
            str(tmp_path / "nope_gt.csv"), "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_shape_mismatch(self, scene_dir, tmp_path, capsys):
        bad_gt = tmp_path / "bad_gt.csv"
        bad_gt.write_text("1,2\n2,1\n")
        rc = main([
            "eval", "--cube", str(scene_dir / "cube.csv"), "--gt", str(bad_gt),
            "--out", str(tmp_path / "r.json"),
        ])
        assert rc == 1
        assert "does not match" in capsys.readouterr().err
