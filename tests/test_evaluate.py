import json

import numpy as np
import pytest

import specangle.evaluate as evaluate
from specangle.data import SampleSet, synth_scene
from specangle.errors import (
    InsufficientSamplesError,
    ReducedDimTooSmallError,
)
from specangle.evaluate import (
    AccuracyReport,
    ExperimentConfig,
    accuracy_curve_csv,
    accuracy_table,
    export_sphere_coords,
    run_experiment,
    sphere_coords_csv,
    sweep,
)
from specangle.projections import Projection, fit_lspp


@pytest.fixture(scope="module")
def scene():
    return synth_scene(18, 18, 12, 3, noise_sd=0.05, patch_size=6, seed=11)


@pytest.fixture(scope="module")
def clean_scene():
    return synth_scene(18, 18, 12, 3, noise_sd=0.0, patch_size=6, seed=11)


def oracle_pipeline(gt):
    """A fit_pipeline stand-in that predicts the true label, to check the
    harness plumbing around the pipeline."""

    def fit(work_cube, train, config):
        return None, lambda coords: gt.labels[coords[:, 0], coords[:, 1]]

    return fit


class TestRunExperiment:
    def test_oracle_classifier_is_perfect(self, scene, monkeypatch):
        cube, gt = scene
        monkeypatch.setattr(evaluate, "fit_pipeline", oracle_pipeline(gt))
        cfg = ExperimentConfig(n_train=5, n_test=20, trials=3, seed=1)
        rep = run_experiment(cube, gt, cfg)
        assert rep.overall_accuracy == 1.0
        off_diag = rep.confusions.sum() - np.trace(
            rep.confusions, axis1=1, axis2=2
        ).sum()
        assert off_diag == 0

    def test_noiseless_separable_pipelines(self, clean_scene):
        cube, gt = clean_scene
        for method, clf in (("lspp", "nn-cos"), ("slspp", "sbomp")):
            cfg = ExperimentConfig(
                method=method, classifier=clf, r=cube.bands, window=3,
                dict_window=1, sparsity=1, n_train=5, n_test=20, trials=3, seed=2,
            )
            rep = run_experiment(cube, gt, cfg)
            assert rep.overall_accuracy == 1.0

    def test_report_shape_and_row_sums(self, scene):
        cube, gt = scene
        cfg = ExperimentConfig(
            method="lspp", classifier="nn-cos", r=3, n_train=5, n_test=15,
            trials=10, seed=3,
        )
        rep = run_experiment(cube, gt, cfg)
        assert rep.confusions.shape == (10, 3, 3)
        np.testing.assert_array_equal(rep.confusions.sum(axis=2), 15)
        assert len(rep.runtimes) == 10

    def test_accuracy_recomputable_from_confusions(self, scene):
        cube, gt = scene
        cfg = ExperimentConfig(n_train=5, n_test=10, trials=4, seed=4)
        rep = run_experiment(cube, gt, cfg)
        per_trial = [
            np.trace(m) / m.sum() for m in rep.confusions
        ]
        assert rep.overall_accuracy == np.mean(per_trial)

    def test_deterministic_json(self, scene):
        cube, gt = scene
        # window 3 blocks have 9 columns, so r must be at least 9 for the
        # projected least-squares systems to have full column rank
        cfg = ExperimentConfig(
            method="slspp", classifier="sbomp", r=10, window=3, sparsity=1,
            n_train=5, n_test=10, trials=2, seed=5,
        )
        a = run_experiment(cube, gt, cfg).to_json()
        b = run_experiment(cube, gt, cfg).to_json()
        assert a == b
        json.loads(a)  # stays valid JSON

    def test_trial_failure_has_context(self, scene):
        cube, gt = scene
        cfg = ExperimentConfig(n_train=500, n_test=500, trials=2, seed=6)
        with pytest.raises(InsufficientSamplesError, match="trial 0"):
            run_experiment(cube, gt, cfg)

    def test_normalize_flag_changes_nothing_for_cosine(self, clean_scene):
        # cosine NN is scale invariant, so normalization must not alter labels
        cube, gt = clean_scene
        base = ExperimentConfig(
            method="lspp", classifier="nn-cos", r=3, n_train=5, n_test=20,
            trials=2, seed=7,
        )
        raw = run_experiment(cube, gt, base)
        unit = run_experiment(cube, gt, ExperimentConfig(**{**base.params(), "normalize": True}))
        np.testing.assert_array_equal(raw.confusions, unit.confusions)


class TestSweep:
    def test_sweep_shapes_and_params(self, scene):
        cube, gt = scene
        cfg = ExperimentConfig(
            method="slspp", classifier="somp", r=3, window=3, n_train=5,
            n_test=10, trials=2, seed=8,
        )
        reports = sweep(cube, gt, cfg, {"window": [1, 3, 5], "sparsity": [1, 2]})
        assert len(reports) == 6
        assert [r.params["window"] for r in reports] == [1, 1, 3, 3, 5, 5]
        assert [r.params["sparsity"] for r in reports] == [1, 2, 1, 2, 1, 2]

    def test_single_point_axis_matches_run_experiment(self, scene):
        cube, gt = scene
        cfg = ExperimentConfig(n_train=5, n_test=10, trials=2, seed=9)
        direct = run_experiment(cube, gt, cfg)
        swept = sweep(cube, gt, cfg, {"r": [cfg.r]})
        assert swept[0].to_json() == direct.to_json()

    def test_splits_paired_across_combinations(self, scene, monkeypatch):
        cube, gt = scene
        seeds_seen = []
        real_split = evaluate.split_train_test

        def recording_split(gt_arg, n_train, n_test, seed):
            seeds_seen.append(seed)
            return real_split(gt_arg, n_train, n_test, seed)

        monkeypatch.setattr(evaluate, "split_train_test", recording_split)
        cfg = ExperimentConfig(n_train=5, n_test=10, trials=3, seed=10)
        sweep(cube, gt, cfg, {"sparsity": [1, 2, 3]})
        assert len(seeds_seen) == 9
        assert seeds_seen[0:3] == seeds_seen[3:6] == seeds_seen[6:9]

    def test_unknown_axis(self, scene):
        cube, gt = scene
        cfg = ExperimentConfig(n_train=5, n_test=10, trials=1)
        with pytest.raises(ValueError, match="unknown sweep axis"):
            sweep(cube, gt, cfg, {"banana": [1]})

    def test_r_axis_trend_is_nonnegative(self, scene):
        # more components never hurt on this scene; Spearman >= 0 over the axis
        from scipy.stats import spearmanr

        cube, gt = scene
        cfg = ExperimentConfig(
            method="lspp", classifier="nn-cos", n_train=5, n_test=20,
            trials=3, seed=14,
        )
        reports = sweep(cube, gt, cfg, {"r": [1, 2, 3, 4, 5]})
        accs = [rep.overall_accuracy for rep in reports]
        rho = spearmanr([1, 2, 3, 4, 5], accs).statistic
        assert not rho < 0  # nan (constant accuracies) counts as no trend

    def test_oracle_accuracy_unaffected_by_post_split_params(self, scene, monkeypatch):
        cube, gt = scene
        monkeypatch.setattr(evaluate, "fit_pipeline", oracle_pipeline(gt))
        cfg = ExperimentConfig(n_train=5, n_test=10, trials=2, seed=12)
        reports = sweep(cube, gt, cfg, {"window": [1, 3, 5, 7]})
        assert len(reports) == 4
        for rep in reports:
            np.testing.assert_array_equal(rep.confusions, reports[0].confusions)


class TestSphereExport:
    def test_unit_norm_rows(self):
        rng = np.random.default_rng(90)
        train = SampleSet(
            features=rng.standard_normal((6, 20)),
            labels=np.asarray(rng.integers(1, 4, size=20)),
        )
        proj = fit_lspp(train.features, r=3, sigma=1.0)
        rows = export_sphere_coords(train, [proj])
        for _, _, u1, u2, u3 in rows:
            assert abs(np.sqrt(u1**2 + u2**2 + u3**2) - 1.0) <= 1e-10

    def test_identity_projection_renormalizes_first_three(self):
        rng = np.random.default_rng(91)
        F = rng.standard_normal((5, 8))
        F /= np.linalg.norm(F, axis=0)
        train = SampleSet(features=F)
        proj = Projection(
            matrix=np.eye(5), eigenvalues=np.arange(5, 0, -1, dtype=float),
            method="lspp",
        )
        rows = export_sphere_coords(train, [proj])
        projected = [r for r in rows if r[0] == "lspp"]
        expected = F[:3] / np.linalg.norm(F[:3], axis=0)
        for j, (_, _, u1, u2, u3) in enumerate(projected):
            np.testing.assert_allclose([u1, u2, u3], expected[:, j], atol=1e-12)

    def test_row_count(self):
        rng = np.random.default_rng(92)
        train = SampleSet(features=rng.standard_normal((6, 11)))
        p1 = fit_lspp(train.features, r=3, sigma=1.0)
        p2 = fit_lspp(train.features, r=4, sigma=2.0)
        rows = export_sphere_coords(train, [p1, p2])
        assert len(rows) == 11 * 3

    def test_r_too_small(self):
        rng = np.random.default_rng(93)
        train = SampleSet(features=rng.standard_normal((6, 7)))
        proj = fit_lspp(train.features, r=2, sigma=1.0)
        with pytest.raises(ReducedDimTooSmallError):
            export_sphere_coords(train, [proj])

    def test_csv_rendering(self):
        rows = [("original", 1, 1.0, 0.0, 0.0), ("lpp", 2, 0.0, 1.0, 0.0)]
        text = sphere_coords_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "source,label,u1,u2,u3"
        assert lines[1].startswith("original,1,1,")


class TestRendering:
    def make_report(self, overall):
        n = 10
        correct = int(overall * n)
        conf = np.zeros((1, 2, 2), dtype=np.int64)
        conf[0, 0, 0] = correct
        conf[0, 0, 1] = n - correct
        conf[0, 1, 1] = n
        return AccuracyReport(
            params={"method": "lspp", "classifier": "nn-cos", "r": 3, "window": 5},
            confusions=conf,
        )

    def test_table_layout(self):
        text = accuracy_table([self.make_report(0.8), self.make_report(1.0)])
        lines = text.strip().split("\n")
        assert "LSPP--NN-COS" in lines[0]
        assert lines[-1].startswith("Overall Accuracy")
        assert "90.0" in lines[-1]

    def test_curve_csv(self):
        reports = [self.make_report(0.8), self.make_report(0.9)]
        text = accuracy_curve_csv(reports, "window")
        lines = text.strip().split("\n")
        assert lines[0].startswith("window,overall_accuracy,class_1,class_2")
        assert len(lines) == 3
