import json
import re

import numpy as np
import pytest

from specangle.cli import main
from specangle.data import load_cube, load_ground_truth
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


class TestErrors:
    @pytest.mark.parametrize("argv", [
        ["eval", "--trials", "0"],
        ["eval", "--n-test", "0"],
        ["export-sphere", "--methods", "slspp,bogus"],
        ["classify", "--classifier", "sbomp", "--sparsity", "0"],
    ])
    def test_config_error_is_one_line(self, scene_dir, tmp_path, capsys, argv):
        rc = main([*argv, *base_args(scene_dir), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidConfigError: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,prefix", [
        (["classify"], ""),
        (["eval", "--n-test", "10", "--trials", "2"], "trial 0: "),
    ])
    def test_pixel_failure_names_the_pixel(self, tmp_path, capsys, command, prefix):
        # noiseless patches make every window-3 neighborhood collinear
        clean = tmp_path / "clean"
        assert main([
            "synth", "--rows", "18", "--cols", "18", "--bands", "12",
            "--classes", "3", "--noise-sd", "0", "--patch-size", "6",
            "--seed", "11", "--out", str(clean),
        ]) == 0
        capsys.readouterr()
        rc = main([
            *command, *base_args(clean), "--method", "slspp", "--classifier", "sbomp",
            "--window", "3", "--sparsity", "2", "--n-train", "5",
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert re.match(rf"error: RankDeficientError: {prefix}pixel \(\d+, \d+\): ", err)

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
