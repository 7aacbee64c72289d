import hashlib
import json

import numpy as np
import pytest

import specangle.evaluate as evaluate
from specangle import data
from specangle.data import (
    HyperCube,
    SampleSet,
    pixels_to_sample_set,
    split_train_test,
    synth_scene,
)
from specangle.errors import (
    InsufficientSamplesError,
    InvalidConfigError,
    NonFiniteError,
    NonPositiveSigmaError,
    OutOfBoundsError,
    ReducedDimTooSmallError,
    SpecAngleError,
    ZeroVectorError,
)
from specangle.evaluate import (
    AccuracyReport,
    ExperimentConfig,
    accuracy_curve_csv,
    accuracy_table,
    export_sphere_coords,
    fit_pipeline,
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

    def test_json_refuses_non_finite_values(self):
        report = AccuracyReport(
            params={"sigma": float("inf")}, confusions=np.eye(2, dtype=np.int64)[None]
        )
        with pytest.raises(ValueError):
            report.to_json()

    def test_trial_failure_has_context(self, scene):
        # A zero spectrum that only trial 1 reads fails that trial alone.
        cube, gt = scene
        cfg = ExperimentConfig(n_train=5, n_test=20, trials=2, seed=6)
        splits = [
            split_train_test(gt, 5, 20, evaluate._split_seed(6, trial)) for trial in (0, 1)
        ]
        seen = {tuple(rc) for rc in np.concatenate(splits[0])}
        r, c = next(rc for rc in splits[1][0].tolist() if tuple(rc) not in seen)
        values = cube.values.copy()
        values[r, c] = 0.0
        with pytest.raises(ZeroVectorError) as info:
            run_experiment(HyperCube(values=values), gt, cfg)
        assert str(info.value).startswith(f"trial 1: training pixel ({r}, {c}): ")

    def test_split_failure_has_no_trial_context(self, scene):
        # A split's errors do not depend on the trial's seed.
        cube, gt = scene
        cfg = ExperimentConfig(n_train=500, n_test=500, trials=2, seed=6)
        with pytest.raises(InsufficientSamplesError, match=r"^class 1 has \d+ labeled pixels"):
            run_experiment(cube, gt, cfg)

    def test_grouped_splits_equal_split_train_test(self, monkeypatch):
        # Unlabelled pixels and classes of unequal size: every trial draws
        # from the one grouping what split_train_test draws with its seed.
        cube, gt = synth_scene(16, 16, 8, 3, seed=2)
        labels = gt.labels.copy()
        labels[np.random.default_rng(2).random(labels.shape) < 0.3] = 0
        labels[8:][labels[8:] == 3] = 0
        gt = data.GroundTruth(labels=labels)
        assert len(set(np.bincount(labels.ravel())[1:])) == 3
        drawn = []

        def recording_pipeline(work_cube, train, config):
            def predict(coords):
                drawn.append((train.coords, coords))
                return gt.labels[coords[:, 0], coords[:, 1]]

            return None, predict

        monkeypatch.setattr(evaluate, "fit_pipeline", recording_pipeline)
        cfg = ExperimentConfig(n_train=4, n_test=6, trials=5, seed=8)
        run_experiment(cube, gt, cfg)
        assert len(drawn) == cfg.trials
        for trial, got in enumerate(drawn):
            want = split_train_test(gt, 4, 6, evaluate._split_seed(8, trial))
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)
        small = int(np.bincount(labels.ravel())[3])
        cfg = ExperimentConfig(n_train=small - 5, n_test=6, trials=2, seed=8)
        with pytest.raises(InsufficientSamplesError, match="^class 3 has") as direct:
            split_train_test(gt, cfg.n_train, cfg.n_test, 0)
        with pytest.raises(InsufficientSamplesError) as grouped:
            run_experiment(cube, gt, cfg)
        assert str(grouped.value) == str(direct.value)

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


class TestWideBlocks:
    """sbomp where a support's atoms outnumber r or repeat one direction:
    the minimum-norm refit labels every pixel."""

    def test_noiseless_window_blocks(self):
        # Criterion 5(a)'s noiseless scene with window-3 dictionary blocks,
        # most of them nine scaled copies of one signature. Windows on a
        # patch boundary mix two classes, so a few pixels are mislabeled:
        # 98.7% measured.
        cube, gt = synth_scene(24, 24, 20, 4, noise_sd=0.0, patch_size=6, seed=7)
        rep = run_experiment(cube, gt, ExperimentConfig(
            method="slspp", classifier="sbomp", r=20, window=3, sparsity=1,
            n_train=10, n_test=50, trials=10, seed=0,
        ))
        assert rep.overall_accuracy >= 0.95

    def test_ada_at_its_default_r(self, scene):
        # r = c - 1 = 2 against nine atoms per window-3 block.
        cube, gt = scene
        rep = run_experiment(cube, gt, ExperimentConfig(
            method="ada", classifier="sbomp", r=2, window=3, sparsity=2,
            n_train=5, n_test=20, trials=2,
        ))
        np.testing.assert_array_equal(rep.confusions.sum(axis=2), 20)


class TestConfigCounts:
    """Count fields, the windows and the seed must be integers; a wrong type
    raises InvalidConfigError naming the field before any comparison is made."""

    @pytest.mark.parametrize("name", ["r", "window", "sparsity", "n_train", "n_test", "trials", "seed"])
    @pytest.mark.parametrize("value", [None, 2.5, 3.0, "3", True])
    def test_a_non_integer_count_names_its_field(self, name, value):
        with pytest.raises(InvalidConfigError, match=f"^{name} must be an integer, got {value!r}$"):
            ExperimentConfig(**{name: value})

    @pytest.mark.parametrize("value", [2.5, 3.0, "3", True])
    def test_a_non_integer_dict_window_names_its_field(self, value):
        # None is no window of its own: the classifier takes ``window``.
        message = f"^dict_window must be an integer, got {value!r}$"
        with pytest.raises(InvalidConfigError, match=message):
            ExperimentConfig(dict_window=value)

    def test_numpy_integers_are_counts(self):
        cfg = ExperimentConfig(r=np.int64(4), trials=np.int32(2), seed=np.uint8(200))
        assert [(v, type(v)) for v in (cfg.r, cfg.trials, cfg.seed)] == [(4, int), (2, int), (200, int)]
        json.dumps(cfg.params())

    @pytest.mark.parametrize("name", ["r", "sparsity", "n_train", "n_test", "trials"])
    def test_a_count_below_one_names_its_field(self, name):
        with pytest.raises(InvalidConfigError, match=f"^{name} must be >= 1, got 0$"):
            ExperimentConfig(**{name: 0})


class TestFirstFailure:
    """predict names the first failing pixel in input order, whether a
    chunk's own check fails first or a pixel outside the image comes first.
    BAD is 2 pixels or more from every training pixel, so only the test
    windows read it; the other pixels' 3x3 windows are interior and share no
    member with each other or with BAD's window."""

    BAD, OUTSIDE = (2, 2), (18, 3)
    CLEAN = [(2, 6), (2, 10), (2, 14), (6, 2), (6, 6), (6, 10)]
    OUTSIDE_ERROR = OutOfBoundsError, r"^pixel \(18, 3\): center \(18, 3\) outside 18x18 image$"

    @staticmethod
    def predictor(cube, gt, classifier, **overrides):
        train_coords, _ = split_train_test(gt, 5, 0, 3)
        train = pixels_to_sample_set(cube, train_coords, gt)
        cfg = ExperimentConfig(
            method="lspp", classifier=classifier, r=10, window=3, n_train=5, **overrides
        )
        return fit_pipeline(cube, train, cfg)[1]

    @classmethod
    def coords(cls, bad, outside):
        """CLEAN with BAD at position bad and OUTSIDE at position outside."""
        coords = list(cls.CLEAN)
        for i, rc in sorted([(bad, cls.BAD), (outside, cls.OUTSIDE)]):
            coords.insert(i, rc)
        return np.array(coords)

    @staticmethod
    def set_pixel(cube, rc, value):
        values = cube.values.copy()
        values[rc] = value
        return HyperCube(values=values)

    @pytest.mark.parametrize("bad,outside", [(1, 3), (3, 1)])
    def test_zero_spectrum_and_outside_pixel(self, scene, bad, outside):
        cube, gt = scene
        predict = self.predictor(self.set_pixel(cube, self.BAD, 0.0), gt, "nn-cos")
        zero = ZeroVectorError, r"^pixel \(2, 2\): cosine distance is undefined for zero vectors$"
        error, match = zero if bad < outside else self.OUTSIDE_ERROR
        with pytest.raises(error, match=match):
            predict(self.coords(bad, outside))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad,outside", [(1, 2), (2, 1), (1, 4), (4, 1), (4, 6)],
                             ids=["one-chunk", "one-chunk-outside-first",
                                  "two-chunks", "two-chunks-outside-first", "second-chunk"])
    def test_overflowing_spectrum_and_outside_pixel(self, scene, monkeypatch, bad, outside):
        """A 32 KiB budget fits three of these windows in a chunk of sbomp."""
        cube, gt = scene
        monkeypatch.setattr(data, "CHUNK_BYTES", 1 << 15)
        predict = self.predictor(self.set_pixel(cube, self.BAD, np.finfo(float).max), gt, "sbomp")
        chunks, sbomp_labels = [], evaluate.sbomp_labels

        def record(*args):
            labels = sbomp_labels(*args)
            chunks.append(len(labels))
            return labels

        monkeypatch.setattr(evaluate, "sbomp_labels", record)
        predict(np.array(self.CLEAN))
        assert chunks == [3, 3]
        overflow = NonFiniteError, r"^pixel \(2, 2\): S contains NaN or Inf$"
        error, match = overflow if bad < outside else self.OUTSIDE_ERROR
        with pytest.raises(error, match=match):
            predict(self.coords(bad, outside))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflow_visited_first_waits_for_an_earlier_one(self, scene, monkeypatch):
        """sbomp visits the pixels in Z order, which reaches BAD, the last
        input, in the first chunk and FAR, the first input, in the third;
        after BAD's chunk fails, the pixels before it are still labelled, so
        FAR is named. FAR, like BAD, is 2 pixels or more from every training
        pixel."""
        cube, gt = scene
        far = (8, 3)
        values = cube.values.copy()
        values[self.BAD] = values[far] = np.finfo(float).max
        monkeypatch.setattr(data, "CHUNK_BYTES", 1 << 15)
        predict = self.predictor(HyperCube(values=values), gt, "sbomp")
        coords = np.array([far, *self.CLEAN, self.BAD])
        order = evaluate._z_order(coords)
        assert order[0] == len(coords) - 1 and order[-1] == 0
        chunks, sbomp_labels = [], evaluate.sbomp_labels

        def record(dictionary, Z, K, members):
            chunks.append(len(members))
            return sbomp_labels(dictionary, Z, K, members)

        monkeypatch.setattr(evaluate, "sbomp_labels", record)
        with pytest.raises(NonFiniteError, match=r"^pixel \(8, 3\): S contains NaN or Inf$"):
            predict(coords)
        assert chunks == [3, 3, 2]

    @pytest.mark.parametrize("outside", [2, 5])
    def test_sparsity_above_the_block_count_before_an_outside_pixel(self, scene, monkeypatch,
                                                                     outside):
        """K is checked for the whole chunk, so its error names no pixel,
        with the pixel outside the image in the first chunk or a later one."""
        cube, gt = scene
        monkeypatch.setattr(data, "CHUNK_BYTES", 1 << 15)
        predict = self.predictor(cube, gt, "sbomp", sparsity=100)
        coords = np.insert(np.array(self.CLEAN), outside, self.OUTSIDE, axis=0)
        with pytest.raises(SpecAngleError, match=r"^K must be in \[1, 15\], got 100$"):
            predict(coords)

    def test_error_of_no_pixel_names_none(self, scene):
        # K is checked for the whole chunk, so the error has no index.
        cube, gt = scene
        cfg = ExperimentConfig(
            method="slspp", classifier="sbomp", r=10, window=3, sparsity=100,
            n_train=5, n_test=10, trials=1,
        )
        with pytest.raises(SpecAngleError) as info:
            run_experiment(cube, gt, cfg)
        assert str(info.value) == "trial 0: K must be in [1, 15], got 100"


class TestOverflowingScores:
    """Block pursuit on a scene scaled by 1e150, where the squared
    correlations of its scores overflow. Every block would then tie and the
    lowest class win, at chance accuracy; the pursuit raises NonFiniteError
    instead, naming the pixel, and numpy warns of nothing. The unscaled
    scene keeps its report byte for byte."""

    CONFIG = ExperimentConfig(
        method="slspp", classifier="sbomp", r=2, window=3, sparsity=2,
        n_train=2, n_test=3, trials=2, seed=0,
    )
    DIGEST = "f45944b767f35aecb08f89b4b1751dd9ba624ac824f44fcc6f987a8f22390af4"

    @pytest.mark.filterwarnings("error")
    def test_overflow_raises_and_scale_one_keeps_its_report(self):
        cube, gt = synth_scene(12, 12, 8, 3, seed=4, patch_size=3)
        report = run_experiment(cube, gt, self.CONFIG)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == self.DIGEST
        message = (
            r"^trial 0: pixel \(2, 0\): "
            r"the scale of the spectra overflows block pursuit's scores$"
        )
        with pytest.raises(NonFiniteError, match=message):
            run_experiment(HyperCube(values=cube.values * 1e150), gt, self.CONFIG)


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

    def test_every_point_is_checked_before_the_first_runs(self, scene, monkeypatch):
        cube, gt = scene
        ran = []
        monkeypatch.setattr(evaluate, "run_experiment", lambda *args: ran.append(args))
        with pytest.raises(NonPositiveSigmaError):
            sweep(cube, gt, ExperimentConfig(), {"sigma": [1.0, float("inf")]})
        assert not ran

    def test_single_point_axis_matches_run_experiment(self, scene):
        cube, gt = scene
        cfg = ExperimentConfig(n_train=5, n_test=10, trials=2, seed=9)
        direct = run_experiment(cube, gt, cfg)
        swept = sweep(cube, gt, cfg, {"r": [cfg.r]})
        assert swept[0].to_json() == direct.to_json()

    def test_splits_paired_across_combinations(self, scene, monkeypatch):
        cube, gt = scene
        seeds_seen = []
        real_draw = evaluate._draw_split

        def recording_draw(groups, cols, n_train, n_test, seed):
            seeds_seen.append(seed)
            return real_draw(groups, cols, n_train, n_test, seed)

        monkeypatch.setattr(evaluate, "_draw_split", recording_draw)
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
