from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    graph_pencil_bruteforce,
    grid_best_direction,
    heat_kernel_affinity,
    lada_weights,
    slspp_matrix_bruteforce,
    traced_peak,
)
from specangle import affinity, data
from specangle.affinity import median_heuristic_sigma
from specangle.data import (
    HyperCube,
    SampleSet,
    l2_normalize_pixels,
    pixels_to_sample_set,
    split_train_test,
    synth_scene,
)
from specangle.errors import (
    DimensionMismatchError,
    EmptyClassError,
    EvenWindowError,
    MalformedHeaderError,
    NonFiniteError,
    OutOfBoundsError,
    ReducedDimTooLargeError,
    ReducedDimTooSmallError,
    SingleClassError,
    SpecAngleError,
)
from specangle.evaluate import ExperimentConfig
from specangle.linalg import gen_eig_desc, regularized
from specangle.projections import (
    DEFAULT_RIDGE,
    METHODS,
    Projection,
    _graph_pencil,
    _lada_scatter,
    ada_scatter,
    class_stats,
    fit_ada,
    fit_lada,
    fit_lpp,
    fit_lspp,
    fit_slspp,
    project,
    slspp_context_matrix,
)


def two_angular_clusters(rng, per_cluster=12, spread=0.03):
    """d=2 samples hugging the 0 and 90 degree directions."""
    a = rng.uniform(-spread, spread, per_cluster)
    b = rng.uniform(-spread, spread, per_cluster)
    scale_a = rng.uniform(0.8, 1.2, per_cluster)
    scale_b = rng.uniform(0.8, 1.2, per_cluster)
    cluster0 = np.stack([np.cos(a), np.sin(a)]) * scale_a
    cluster1 = np.stack([np.sin(b), np.cos(b)]) * scale_b
    return np.hstack([cluster0, cluster1])


class TestLspp:
    def test_rank_one_data(self):
        v = np.array([2.0, 1.0, -1.0])
        X = np.tile(v[:, None], (1, 5))
        proj = fit_lspp(X, r=1, sigma=1.0, ridge=1e-6)
        p = proj.matrix[:, 0]
        cos = abs(p @ v) / (np.linalg.norm(p) * np.linalg.norm(v))
        assert cos >= 1.0 - 1e-6

    def test_constraint_full_rank(self):
        rng = np.random.default_rng(40)
        X = rng.standard_normal((4, 30))
        ridge = 1e-6
        proj = fit_lspp(X, r=4, sigma=2.0, ridge=ridge)
        _, B = graph_pencil_bruteforce(X, 2.0)
        B_reg = regularized(B, ridge)
        gram = proj.matrix.T @ B_reg @ proj.matrix
        assert np.abs(gram - np.eye(4)).max() <= 1e-6

    def test_grid_oracle(self):
        rng = np.random.default_rng(41)
        X = two_angular_clusters(rng)
        sigma = 0.5
        proj = fit_lspp(X, r=1, sigma=sigma, ridge=1e-6)
        A, B = graph_pencil_bruteforce(X, sigma)
        B_reg = regularized(B, 1e-6)
        p = proj.matrix[:, 0]
        achieved = p @ A @ p
        best = grid_best_direction(A, B_reg, n_points=3600)
        assert achieved >= best - 1e-3 * abs(best)
        assert abs(achieved - best) <= 1e-3 * max(1.0, abs(best))

    def test_objective_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((5, 20))
        proj = fit_lspp(X, r=3, sigma=1.5, ridge=1e-6)
        A, _ = graph_pencil_bruteforce(X, 1.5)
        achieved = np.trace(proj.matrix.T @ A @ proj.matrix)
        assert achieved == pytest.approx(proj.eigenvalues.sum(), rel=1e-6)

    def test_r_too_large(self):
        with pytest.raises(ReducedDimTooLargeError):
            fit_lspp(np.ones((3, 4)), r=4, sigma=1.0)

    def test_r_too_small(self):
        with pytest.raises(ReducedDimTooSmallError, match=r"r must be in \[1, 3\], got 0"):
            fit_lspp(np.ones((3, 4)), r=0, sigma=1.0)

    def test_random_feasible_directions_never_beat_fit(self):
        rng = np.random.default_rng(43)
        for d in (2, 3):
            X = rng.standard_normal((d, 15))
            proj = fit_lspp(X, r=1, sigma=1.0, ridge=1e-6)
            A, B = graph_pencil_bruteforce(X, 1.0)
            B_reg = regularized(B, 1e-6)
            p = proj.matrix[:, 0]
            achieved = p @ A @ p
            for _ in range(1000):
                u = rng.standard_normal(d)
                u = u / np.sqrt(u @ B_reg @ u)
                assert achieved >= u @ A @ u - 1e-9


class TestLpp:
    def test_identical_samples_zero_objective(self):
        X = np.tile(np.array([1.0, 2.0])[:, None], (1, 6))
        proj = fit_lpp(X, r=1, sigma=1.0, ridge=1e-6)
        A, B = graph_pencil_bruteforce(X, 1.0)
        p = proj.matrix[:, 0]
        assert abs(p @ (B - A) @ p) <= 1e-8

    def test_two_sample_laplacian_elementwise(self):
        X = np.array([[0.0, 1.0], [0.0, 0.0]])
        sigma = 2.0
        W = heat_kernel_affinity(X, sigma)
        D = np.diag(W.sum(axis=1))
        w12 = np.exp(-1.0 / sigma)
        np.testing.assert_allclose(D - W, [[w12, -w12], [-w12, w12]], atol=1e-15)

    def test_grid_oracle(self):
        rng = np.random.default_rng(44)
        X = two_angular_clusters(rng)
        sigma = 0.5
        proj = fit_lpp(X, r=1, sigma=sigma, ridge=1e-6)
        A, B = graph_pencil_bruteforce(X, sigma)
        B_reg = regularized(B, 1e-6)
        L = B - A
        p = proj.matrix[:, 0]
        achieved = p @ L @ p
        best = grid_best_direction(L, B_reg, n_points=3600, minimize=True)
        assert abs(achieved - best) <= 1e-3 * max(1.0, abs(best))

    def test_eigenvalues_descending_and_importance_first(self):
        rng = np.random.default_rng(45)
        X = rng.standard_normal((4, 25))
        proj = fit_lpp(X, r=3, sigma=1.0, ridge=1e-6)
        assert np.all(np.diff(proj.eigenvalues) <= 0)
        # first column attains the smallest Laplacian objective
        A, B = graph_pencil_bruteforce(X, 1.0)
        L = B - A
        objs = [proj.matrix[:, i] @ L @ proj.matrix[:, i] for i in range(3)]
        assert objs[0] == min(objs)


class TestSlspp:
    def test_constant_cube(self):
        v = np.array([1.0, 3.0, 2.0])
        cube = HyperCube(values=np.tile(v, (4, 4, 1)))
        coords = [(1, 1), (2, 2), (0, 3)]
        proj = fit_slspp(cube, coords, r=1, window=3, sigma=1.0)
        p = proj.matrix[:, 0]
        cos = abs(p @ v) / (np.linalg.norm(p) * np.linalg.norm(v))
        assert cos >= 1.0 - 1e-10

    def test_r_too_small(self):
        cube = HyperCube(values=np.random.default_rng(53).standard_normal((4, 4, 3)))
        with pytest.raises(ReducedDimTooSmallError, match=r"r must be in \[1, 3\], got 0"):
            fit_slspp(cube, [(1, 1), (2, 2)], r=0, window=3, sigma=1.0)

    def test_window_one_outer_product(self):
        rng = np.random.default_rng(50)
        cube = HyperCube(values=rng.standard_normal((3, 3, 4)))
        coords = [(0, 0), (1, 2), (2, 1)]
        M = slspp_context_matrix(cube, coords, 1, 1.0)
        expected = np.zeros((4, 4))
        for r, c in coords:
            x = cube.values[r, c]
            expected += np.outer(x, x)
        np.testing.assert_allclose(M, expected, atol=1e-12)

    def test_corner_uses_four_neighbors(self):
        rng = np.random.default_rng(51)
        cube = HyperCube(values=rng.standard_normal((3, 3, 2)))
        # The window of (0, 0): itself, (0, 1), (1, 0), (1, 1), five outside.
        M = slspp_context_matrix(cube, [(0, 0)], 3, 1.0)
        brute = slspp_matrix_bruteforce(cube.values, [(0, 0)], 3, 1.0)
        np.testing.assert_allclose(M, brute, atol=1e-12)

    def test_matrix_matches_bruteforce(self):
        rng = np.random.default_rng(52)
        cube = HyperCube(values=rng.standard_normal((5, 6, 3)))
        coords = [(r, c) for r in range(5) for c in range(0, 6, 2)]
        sigma = 0.9
        M = slspp_context_matrix(cube, coords, 3, sigma)
        brute = slspp_matrix_bruteforce(cube.values, coords, 3, sigma)
        np.testing.assert_allclose(M, brute, atol=1e-10)

    def test_top_eigenvector_of_symmetrized(self):
        rng = np.random.default_rng(53)
        cube = HyperCube(values=rng.standard_normal((4, 4, 3)))
        coords = [(r, c) for r in range(4) for c in range(4)]
        proj = fit_slspp(cube, coords, r=1, window=3, sigma=1.0)
        M = slspp_matrix_bruteforce(cube.values, coords, 3, 1.0)
        sym = 0.5 * (M + M.T)
        w, V = np.linalg.eigh(sym)
        top = V[:, -1]
        cos = abs(top @ proj.matrix[:, 0])
        assert cos == pytest.approx(1.0, abs=1e-8)
        assert proj.eigenvalues[0] == pytest.approx(w[-1], rel=1e-10)

    def test_symmetrization_objective_identity(self):
        rng = np.random.default_rng(54)
        cube = HyperCube(values=rng.standard_normal((4, 5, 4)))
        coords = [(1, 1), (2, 3), (3, 4)]
        M = slspp_context_matrix(cube, coords, 3, 1.0)
        sym = 0.5 * (M + M.T)
        for _ in range(20):
            P = np.linalg.qr(rng.standard_normal((4, 2)))[0]
            assert np.trace(P.T @ M @ P) == pytest.approx(
                np.trace(P.T @ sym @ P), abs=1e-10
            )

    def test_matrix_over_chunks_matches_bruteforce(self, monkeypatch):
        # Three pixels per chunk: edge, corner and interior windows fall in
        # different chunks, and the last of the 7 chunks holds 2 pixels.
        rng = np.random.default_rng(55)
        cube = HyperCube(values=rng.standard_normal((6, 7, 4)))
        coords = [(r, c) for r in range(5) for c in range(0, 7, 2)]
        monkeypatch.setattr(data, "CHUNK_BYTES", 3 * 8 * 25 * 4)
        M = slspp_context_matrix(cube, coords, 5, 1.3)
        brute = slspp_matrix_bruteforce(cube.values, coords, 5, 1.3)
        np.testing.assert_allclose(M, brute, rtol=1e-12, atol=1e-12 * np.abs(brute).max())

    @pytest.mark.parametrize(
        "coords, window, error",
        [
            ([[100, 100], [1, 1]], 3, OutOfBoundsError),
            ([[1, 1], [-1, 2]], 3, OutOfBoundsError),
            ([[1, 1], [2, 2]], 2, EvenWindowError),
            ([[1, 1], [2, 2]], True, EvenWindowError),
            ([[1, 1], [2, 2]], 3.0, EvenWindowError),
        ],
        ids=["past-edge", "negative", "even-window", "bool-window", "float-window"],
    )
    def test_bad_centres_and_window_fail_before_the_bandwidth(
        self, monkeypatch, coords, window, error
    ):
        calls = []
        monkeypatch.setattr(affinity, "_distance_blocks", lambda X: calls.append(X) or iter(()))
        cube = HyperCube(values=np.ones((5, 5, 3)))
        with pytest.raises(error) as info:
            fit_slspp(cube, coords, 2, window=window)
        assert isinstance(info.value, SpecAngleError)
        assert calls == []

    @pytest.mark.parametrize("sigma", [None, 0.05], ids=["median", "explicit"])
    def test_training_set_fit_writes_the_bytes_of_its_coords(self, tmp_path, sigma):
        # METHODS hands fit_slspp the training set; its features are the
        # spectra a gather of its coords reads, so sigma and every value of
        # the saved projection are the same.
        cube, gt = synth_scene(12, 12, 10, 3, noise_sd=0.05, patch_size=4, seed=58)
        work = l2_normalize_pixels(cube)
        train = pixels_to_sample_set(work, split_train_test(gt, 6, 0, seed=58)[0], gt)
        config = ExperimentConfig(method="slspp", r=3, window=3, sigma=sigma)
        METHODS["slspp"](work, train, config).save(tmp_path / "set.proj")
        fit_slspp(work, train.coords, 3, window=3, sigma=sigma).save(tmp_path / "coords.proj")
        written = (tmp_path / "set.proj").read_bytes()
        assert written == (tmp_path / "coords.proj").read_bytes()
        assert written.split(b"\n")[0].split()[3] != b"-"

    def test_peak_memory_level_with_lspp(self):
        # Through METHODS the fit reads the training set's features and
        # builds its window layout after the bandwidth's distance pass, so
        # it peaks where LSPP on the same sample does: no second copy of the
        # 1,600 x 40 centre spectra (0.49 MiB) and no (1,600, 25) layout is
        # held through the pass. Allowance: a tenth of one copy.
        cube, gt = synth_scene(40, 40, 40, 4, seed=22)
        train = pixels_to_sample_set(cube, np.argwhere(gt.labels > 0), gt)
        peaks = {}
        for method in ("lspp", "slspp"):
            config = ExperimentConfig(method=method, r=3, window=5)
            peaks[method] = traced_peak(METHODS[method], cube, train, config)[1]
        assert peaks["slspp"] <= peaks["lspp"] + train.features.nbytes // 10

    def test_context_pass_holds_no_whole_layout(self, monkeypatch):
        # 3,600 centres at window 5 lay out 0.72 MB of window pixels. A
        # 16 KiB budget takes the context pass 20 centres at a time, and the
        # fit holds less than that one layout.
        cube, _ = synth_scene(60, 60, 4, 2, seed=23)
        coords = np.argwhere(np.ones((60, 60), dtype=bool))
        monkeypatch.setattr(data, "CHUNK_BYTES", 1 << 14)
        _, peak = traced_peak(fit_slspp, cube, coords, 2, window=5, sigma=0.5)
        assert peak < len(coords) * 25 * 8

    def test_median_of_more_than_1024_centres(self):
        # Only the sampled centres' spectra are gathered; sigma is the median
        # over them that median_heuristic_sigma takes of every centre.
        cube, gt = synth_scene(40, 30, 6, 3, seed=24)
        coords = np.argwhere(gt.labels > 0)
        assert len(coords) > 1024
        proj = fit_slspp(cube, coords, 2, window=3)
        expected = median_heuristic_sigma(pixels_to_sample_set(cube, coords))
        assert proj.fit_params["sigma"] == expected

    @pytest.mark.parametrize("sampled", [True, False], ids=["in-sample", "outside-sample"])
    def test_overflowing_centre_of_more_than_1024(self, sampled):
        # A centre in the median's sample fails the bandwidth's check; one
        # outside it fails the context pass, which names the pixel and the
        # first window it is a member of.
        cube, gt = synth_scene(40, 30, 6, 3, seed=24)
        coords = np.argwhere(gt.labels > 0)
        picked = np.zeros(len(coords), dtype=bool)
        picked[affinity._median_columns(len(coords))] = True
        r, c = coords[np.flatnonzero(picked == sampled)[0]]
        values = cube.values.copy()
        values[r, c] *= 1e160
        if sampled:
            message = "squared distances between samples overflow"
        else:
            message = rf"pixel \({r}, {c}\) in the window of center "
        with pytest.raises(NonFiniteError, match=message):
            fit_slspp(HyperCube(values=values), coords, 2, window=3)

    def test_one_centre_default_sigma(self):
        # One centre has no pair to take a median of: sigma falls back to 1.
        cube = HyperCube(values=np.random.default_rng(56).standard_normal((4, 4, 3)))
        proj = fit_slspp(cube, [(1, 2)], r=2, window=3)
        assert proj.fit_params["sigma"] == 1.0

    def test_columns_orthonormal(self):
        cube, _ = synth_scene(10, 10, 8, 2, noise_sd=0.1, patch_size=5, seed=4)
        coords = [(r, c) for r in range(0, 10, 3) for c in range(0, 10, 3)]
        proj = fit_slspp(cube, coords, r=4, window=3)
        gram = proj.matrix.T @ proj.matrix
        assert np.abs(gram - np.eye(4)).max() <= 1e-8


class TestAda:
    def test_one_sample_per_class_within(self):
        x1 = np.array([1.0, 0.0])
        x2 = np.array([0.0, 1.0])
        within, _ = ada_scatter(np.stack([x1, x2], axis=1), np.array([1, 2]))
        np.testing.assert_allclose(within, np.outer(x1, x1) + np.outer(x2, x2))

    def test_between_rank_one_identity(self):
        # the between matrix always collapses to n * mu mu^t
        rng = np.random.default_rng(60)
        X = rng.standard_normal((3, 12))
        labels = np.array([1, 2, 3] * 4)
        _, between = ada_scatter(X, labels)
        mu = X.mean(axis=1)
        np.testing.assert_allclose(between, 12 * np.outer(mu, mu), atol=1e-12)

    def test_between_example_pre_symmetrization(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, between = ada_scatter(X, np.array([1, 2]))
        np.testing.assert_allclose(between, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_single_class_raises(self):
        X = np.ones((2, 3))
        with pytest.raises(SingleClassError):
            fit_ada(SampleSet(features=X, labels=np.array([1, 1, 1])))

    def test_empty_class_raises(self):
        X = np.ones((2, 3))
        with pytest.raises(EmptyClassError):
            class_stats(X, np.array([1, 3, 3]))

    def test_default_r_and_determinism(self):
        rng = np.random.default_rng(61)
        X = SampleSet(
            features=rng.standard_normal((6, 20)),
            labels=np.array([1, 2, 3, 4] * 5),
        )
        p1 = fit_ada(X)
        p2 = fit_ada(X)
        assert p1.r == 3  # min(d, c-1)
        np.testing.assert_array_equal(p1.matrix, p2.matrix)

    def test_mean_centred_features(self):
        # With the global mean at rounding level the between matrix is
        # rounding noise, far from symmetric; the fit still solves its
        # symmetric part, as for any other features.
        rng = np.random.default_rng(63)
        F = rng.standard_normal((5, 20))
        F -= F.mean(axis=1, keepdims=True)
        _, between = ada_scatter(F, np.array([1, 2, 3, 4] * 5))
        assert np.max(np.abs(between - between.T)) > 1e-8 * np.max(np.abs(between))
        P = fit_ada(SampleSet(features=F, labels=np.array([1, 2, 3, 4] * 5)))
        assert P.r == 3 and np.all(np.isfinite(P.matrix))

    def test_permutation_invariance(self):
        # The between matrix is rank one, so only the leading eigenvector is
        # pinned; the trailing columns live in a degenerate eigenspace. The
        # scatter matrices themselves and the spectrum are invariant.
        rng = np.random.default_rng(62)
        F = rng.standard_normal((4, 16))
        labels = np.array([1, 2] * 8)
        perm = rng.permutation(16)
        for m1, m2 in zip(ada_scatter(F, labels), ada_scatter(F[:, perm], labels[perm])):
            np.testing.assert_allclose(m1, m2, atol=1e-12)
        p1 = fit_ada(SampleSet(features=F, labels=labels), r=2)
        p2 = fit_ada(SampleSet(features=F[:, perm], labels=labels[perm]), r=2)
        np.testing.assert_allclose(p1.eigenvalues, p2.eigenvalues, atol=1e-8)
        cos = abs(p1.matrix[:, 0] @ p2.matrix[:, 0]) / (
            np.linalg.norm(p1.matrix[:, 0]) * np.linalg.norm(p2.matrix[:, 0])
        )
        assert cos == pytest.approx(1.0, abs=1e-8)


class TestLada:
    def test_weight_formulas(self):
        # n=10, same-class pair of a 5-sample class with A_ij = 1
        labels = np.array([1] * 5 + [2] * 5)
        A = np.ones((10, 10))
        w_within, w_between = lada_weights(labels, A)
        assert w_within[0, 1] == 1.0 / 5
        assert w_between[0, 1] == 1.0 * (1.0 / 10 - 1.0 / 5)
        assert w_between[0, 1] == -0.1
        # different-class pair
        assert w_within[0, 5] == 0.0
        assert w_between[0, 5] == 1.0 / 10

    def test_off_class_between_ignores_affinity(self):
        labels = np.array([1, 1, 2, 2])
        A = np.full((4, 4), 0.3)
        np.fill_diagonal(A, 1.0)
        _, w_between = lada_weights(labels, A)
        assert w_between[0, 2] == 1.0 / 4

    def test_scatter_symmetric_for_symmetric_affinity(self):
        rng = np.random.default_rng(63)
        F = rng.standard_normal((3, 8))
        labels = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        A = heat_kernel_affinity(F, 1.0)
        w_within, w_between = lada_weights(labels, A)
        O_lw = F @ w_within @ F.T
        O_lb = F @ w_between @ F.T
        np.testing.assert_allclose(O_lw, O_lw.T, atol=1e-12)
        np.testing.assert_allclose(O_lb, O_lb.T, atol=1e-12)

    def test_fit_shapes_and_errors(self):
        rng = np.random.default_rng(64)
        X = SampleSet(
            features=rng.standard_normal((5, 12)),
            labels=np.array([1, 2, 3] * 4),
        )
        proj = fit_lada(X, r=2, sigma=1.0)
        assert proj.matrix.shape == (5, 2)
        with pytest.raises(SingleClassError):
            fit_lada(SampleSet(features=X.features, labels=np.ones(12, dtype=int)))

    def test_permutation_invariance_up_to_sign(self):
        # unlike the plain discriminant, the locality-weighted between matrix
        # has a generic spectrum, so full column invariance is testable
        rng = np.random.default_rng(65)
        F = rng.standard_normal((4, 16))
        labels = np.array([1, 2] * 8)
        perm = rng.permutation(16)
        p1 = fit_lada(SampleSet(features=F, labels=labels), r=3, sigma=1.0)
        p2 = fit_lada(
            SampleSet(features=F[:, perm], labels=labels[perm]), r=3, sigma=1.0
        )
        for i in range(3):
            cos = abs(p1.matrix[:, i] @ p2.matrix[:, i]) / (
                np.linalg.norm(p1.matrix[:, i]) * np.linalg.norm(p2.matrix[:, i])
            )
            assert cos == pytest.approx(1.0, abs=1e-8)


class TestProject:
    def test_identity(self):
        rng = np.random.default_rng(70)
        F = rng.standard_normal((3, 5))
        proj = Projection(
            matrix=np.eye(3), eigenvalues=np.array([3.0, 2.0, 1.0]), method="lspp"
        )
        out = project(proj, SampleSet(features=F))
        np.testing.assert_array_equal(out.features, F)

    def test_coordinate_selection(self):
        F = np.array([[1.0, 2.0], [3.0, 4.0]])
        proj = Projection(
            matrix=np.array([[1.0], [0.0]]), eigenvalues=np.array([1.0]), method="lspp"
        )
        out = project(proj, SampleSet(features=F))
        np.testing.assert_array_equal(out.features, [[1.0, 2.0]])

    def test_linearity(self):
        rng = np.random.default_rng(71)
        P = Projection(
            matrix=rng.standard_normal((4, 2)),
            eigenvalues=np.array([2.0, 1.0]),
            method="slspp",
        )
        X = rng.standard_normal((4, 6))
        Y = rng.standard_normal((4, 6))
        a, b = 2.5, -1.25
        left = project(P, a * X + b * Y).features
        right = a * project(P, X).features + b * project(P, Y).features
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_carries_labels_and_coords(self):
        F = np.eye(3)
        ss = SampleSet(
            features=F,
            labels=np.array([1, 2, 1]),
            coords=np.array([[0, 0], [0, 1], [1, 0]]),
        )
        proj = Projection(
            matrix=np.eye(3)[:, :2], eigenvalues=np.array([1.0, 1.0]), method="lpp"
        )
        out = project(proj, ss)
        np.testing.assert_array_equal(out.labels, ss.labels)
        np.testing.assert_array_equal(out.coords, ss.coords)

    def test_dimension_mismatch(self):
        proj = Projection(
            matrix=np.eye(3), eigenvalues=np.array([1.0, 1.0, 1.0]), method="ada"
        )
        with pytest.raises(DimensionMismatchError):
            project(proj, SampleSet(features=np.ones((2, 4))))


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(80)
        X = rng.standard_normal((6, 15))
        proj = fit_lspp(X, r=3, sigma=1.2345, ridge=1e-6)
        path = tmp_path / "proj.txt"
        proj.save(path)
        again = Projection.load(path)
        assert again.method == proj.method
        np.testing.assert_array_equal(again.matrix, proj.matrix)
        np.testing.assert_array_equal(again.eigenvalues, proj.eigenvalues)
        assert again.fit_params["sigma"] == proj.fit_params["sigma"]
        assert again.fit_params["ridge"] == proj.fit_params["ridge"]

    def test_round_trip_slspp_window(self, tmp_path):
        cube, _ = synth_scene(8, 8, 6, 2, noise_sd=0.05, patch_size=4, seed=5)
        proj = fit_slspp(cube, [(1, 1), (4, 4)], r=3, window=5)
        path = tmp_path / "proj.txt"
        proj.save(path)
        again = Projection.load(path)
        assert again.fit_params["window"] == 5
        np.testing.assert_array_equal(again.matrix, proj.matrix)

    def test_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("lspp 2 1 - -\n1 2\n")
        with pytest.raises(MalformedHeaderError):
            Projection.load(path)
        path.write_text("nope 2 1 - - -\n1\n2\n3\n")
        with pytest.raises(MalformedHeaderError):
            Projection.load(path)
        for header in ("lspp 0 2 - - -", "lspp -1 -1 - - -"):
            path.write_text(header + "\n1 2\n")
            with pytest.raises(MalformedHeaderError, match="dimensions must be positive"):
                Projection.load(path)

    @pytest.mark.parametrize("params", [
        "1 nan -", "1 inf -", "1 5.5 -", "1 -3 -", "1 0 -", "1 4 -",
        "nan - 1e-06", "-inf - 1e-06", "1 - nan", "1 - inf",
    ])
    def test_malformed_fit_parameters(self, tmp_path, params):
        """A window that is not a positive odd integer, and a sigma or ridge
        that is not finite, make the header malformed."""
        path = tmp_path / "bad.txt"
        path.write_text(f"slspp 2 1 {params}\n1\n2\n3\n")
        with pytest.raises(MalformedHeaderError):
            Projection.load(path)
        path.write_text("slspp 2 1 1 5 -\n1\n2\n3\n")
        assert Projection.load(path).fit_params == {"sigma": 1.0, "window": 5}

    @pytest.mark.parametrize("values, message", [
        ("1 nan\n2 3\n4 1", "contains NaN or Inf"),
        ("1 0\n0 1\n1 2", "sorted descending"),
        ("1 0\n0 1\nnan nan", "eigenvalues contain NaN or Inf"),
        ("1 0\n0 1\ninf 1", "eigenvalues contain NaN or Inf"),
        ("1 0\n0 1\n1 -inf", "eigenvalues contain NaN or Inf"),
    ], ids=["nan-matrix", "ascending-eigenvalues", "nan-eigenvalues", "inf-eigenvalue",
            "minus-inf-eigenvalue"])
    def test_invalid_values(self, tmp_path, values, message):
        """Values the file parses but a Projection cannot hold."""
        path = tmp_path / "bad.txt"
        path.write_text(f"lspp 2 2 1 - 1e-06\n{values}\n")
        with pytest.raises(MalformedHeaderError, match=message):
            Projection.load(path)


class TestDefaultSigma:
    """sigma=None is the median heuristic, selected from the same streamed
    distances as the graph. The benchmark's traced passes pass that median
    explicitly and require the same bytes as the sigma=None call."""

    @pytest.fixture(scope="class")
    def scene(self):
        cube, gt = synth_scene(12, 12, 10, 3, noise_sd=0.05, patch_size=4, seed=21)
        train_coords, _ = split_train_test(gt, 6, 0, seed=21)
        return cube, pixels_to_sample_set(cube, train_coords, gt)

    @pytest.fixture
    def passes(self, monkeypatch):
        """Spy on the distance passes: the column count of each, and no pdist
        (the package never imports it, but a call would look it up here)."""
        calls = []
        distance_blocks = affinity._distance_blocks

        def spy(X):
            calls.append(X.shape[1])
            return distance_blocks(X)

        def no_pdist(*args, **kwargs):
            raise AssertionError("fits must not call pdist")

        monkeypatch.setattr(affinity, "_distance_blocks", spy)
        monkeypatch.setattr("scipy.spatial.distance.pdist", no_pdist)
        return calls

    @pytest.mark.parametrize("method", METHODS)
    def test_none_equals_explicit_median(self, scene, method):
        # a method that takes no sigma (ada) passes trivially
        # slspp's centre spectra are train's features too.
        cube, train = scene
        cfg = ExperimentConfig(method=method, r=4, window=3)
        auto = METHODS[method](cube, train, cfg)
        explicit = METHODS[method](cube, train, replace(cfg, sigma=median_heuristic_sigma(train)))
        np.testing.assert_array_equal(auto.matrix, explicit.matrix)
        np.testing.assert_array_equal(auto.eigenvalues, explicit.eigenvalues)
        assert auto.fit_params == explicit.fit_params

    @pytest.mark.parametrize(
        "chunk_bytes", [data.CHUNK_BYTES, 8 * 18 * 4], ids=["one-block", "multi-block"]
    )
    @pytest.mark.parametrize("fit", [fit_lspp, fit_lpp, fit_lada])
    def test_passes_on_a_multi_block_graph(self, scene, passes, monkeypatch, fit, chunk_bytes):
        # The same passes whether the 18 samples fit one block or span
        # several: one pass over all of them gives the median, then one pass
        # streams the products, over each class graph for LADA.
        monkeypatch.setattr(data, "CHUNK_BYTES", chunk_bytes)
        products = [6, 6, 6] if fit is fit_lada else [18]
        for sigma, median in ((None, [18]), (0.7, [])):
            passes.clear()
            fit(scene[1], r=4, sigma=sigma)
            assert passes == median + products

    @pytest.fixture(scope="class")
    def large(self):
        cube, gt = synth_scene(40, 40, 40, 4, seed=22)
        return cube, pixels_to_sample_set(cube, np.argwhere(gt.labels > 0), gt)

    @pytest.mark.parametrize("method", ["lspp", "lpp", "lada", "slspp"])
    def test_one_median_pass_on_a_large_graph(self, large, passes, monkeypatch, method):
        # 1,600 real-valued samples of 40 bands. The median takes one pass
        # over 1,024 of them, drawn from a stream of its own and not the
        # global one. The products take one more pass over all of them, one
        # over each class graph for LADA; the SLSPP context takes none.
        monkeypatch.setattr(data, "CHUNK_BYTES", 1 << 18)
        cube, train = large
        m = train.n_samples
        classes = list(np.bincount(train.labels)[1:])
        products = {"lspp": [m], "lpp": [m], "lada": classes, "slspp": []}
        np.random.seed(23)
        expected = np.random.random_sample(3)
        np.random.seed(23)
        METHODS[method](cube, train, ExperimentConfig(method=method, r=3, window=3))
        assert passes == [1024] + products[method]
        np.testing.assert_array_equal(np.random.random_sample(3), expected)

    @pytest.mark.parametrize("method", ["lspp", "lpp", "lada", "slspp"])
    def test_no_fit_calls_pdist(self, scene, passes, method):
        cube, train = scene
        METHODS[method](cube, train, ExperimentConfig(method=method, r=4, window=3))


def assert_close(actual, expected, rtol=1e-12):
    """Entrywise agreement relative to the largest entry of expected."""
    np.testing.assert_allclose(actual, expected, rtol=0, atol=rtol * np.abs(expected).max())


class TestStreamedGraph:
    """The fits stream X W X^t from the condensed distances a block of rows at
    a time; they must agree with the dense references of oracles.py,
    whatever the chunking and sample order."""

    @pytest.fixture
    def chunks(self, monkeypatch):
        # One row per block at first for n = 50, up to a few rows as the
        # rows shorten, so every graph with more than a dozen samples spans
        # at least 3 blocks. The spy records, for each distance pass, its
        # column count and the row count of each of its blocks.
        monkeypatch.setattr(data, "CHUNK_BYTES", 8 * 16 * 3)
        calls = []
        distance_blocks = affinity._distance_blocks

        def spy(X):
            rows = []
            calls.append((X.shape[1], rows))
            for block in distance_blocks(X):
                rows.append(block[1].shape[0])
                yield block

        monkeypatch.setattr(affinity, "_distance_blocks", spy)
        return calls

    @staticmethod
    def samples(n, seed, duplicates=0):
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((6, n)) * rng.uniform(0.5, 2.0, n)
        # Exact copies of earlier columns: zero distances, unit weights.
        F[:, n - duplicates :] = F[:, :duplicates]
        return F

    @staticmethod
    def dense_pencil(F, sigma):
        W = heat_kernel_affinity(F, sigma)
        A = F @ W @ F.T
        B = (F * W.sum(axis=1)) @ F.T
        return 0.5 * (A + A.T), 0.5 * (B + B.T)

    @pytest.mark.parametrize(
        "n, duplicates, sigma",
        [(50, 0, 3.0), (50, 7, None), (2, 0, 1.0), (2, 1, None)],
        ids=["generic", "duplicates", "two", "two-equal"],
    )
    def test_pencil_matches_dense(self, chunks, n, duplicates, sigma):
        F = self.samples(n, 90 + n, duplicates)
        A, B, resolved = _graph_pencil(F, 2, sigma)
        if n == 50:
            assert chunks and all(len(rows) >= 3 for _, rows in chunks)
        if sigma is None:
            assert resolved == median_heuristic_sigma(F)
        A_ref, B_ref = self.dense_pencil(F, resolved)
        assert_close(A, A_ref)
        assert_close(B, B_ref)

    def test_pencil_permutation(self, chunks):
        F = self.samples(50, 91, duplicates=3)
        perm = np.random.default_rng(92).permutation(50)
        A, B, sigma = _graph_pencil(F[:, perm], 2, None)
        A_ref, B_ref = self.dense_pencil(F, median_heuristic_sigma(F))
        assert_close(A, A_ref)
        assert_close(B, B_ref)

    @pytest.mark.parametrize("fit", [fit_lspp, fit_lpp])
    def test_fit_matches_dense_pencil(self, chunks, fit):
        F = self.samples(50, 93, duplicates=2)
        proj = fit(F, 3)
        A, B = self.dense_pencil(F, proj.fit_params["sigma"])
        w, _ = gen_eig_desc(A if fit is fit_lspp else B - A, B, DEFAULT_RIDGE)
        expected = w[:3] if fit is fit_lspp else -w[::-1][:3]
        np.testing.assert_allclose(proj.eigenvalues, expected, rtol=1e-10)

    @staticmethod
    def dense_scatter(F, labels, sigma):
        W = heat_kernel_affinity(F, sigma)
        w_within, w_between = lada_weights(labels, W)
        return F @ w_within @ F.T, F @ w_between @ F.T

    @pytest.mark.parametrize(
        "labels, duplicates, sigma",
        [
            (np.arange(50) % 3 + 1, 0, 2.0),
            (np.r_[np.arange(49) % 2 + 1, 3], 4, None),  # class 3 has one sample
            (np.array([1, 2]), 0, None),
            (np.array([2, 1]), 1, 1.5),
        ],
        ids=["generic", "singleton-class", "two", "two-equal"],
    )
    def test_lada_scatter_matches_dense(self, chunks, labels, duplicates, sigma):
        F = self.samples(labels.size, 94 + labels.size, duplicates)
        *scatter, resolved = _lada_scatter(F, labels, sigma)
        if sigma is None:
            assert resolved == median_heuristic_sigma(F)
        dense = self.dense_scatter(F, labels, resolved)
        for actual, expected in zip(scatter, dense):
            assert_close(actual, expected)

    def test_lada_permutation(self, chunks):
        F = self.samples(50, 95, duplicates=5)
        labels = np.arange(50) % 4 + 1
        perm = np.random.default_rng(96).permutation(50)
        *scatter, _ = _lada_scatter(F[:, perm], labels[perm], None)
        # One pass over the whole graph gives the median; then each class
        # graph is streamed on its own, in at least 3 blocks.
        assert [m for m, _ in chunks] == [50, 13, 13, 12, 12]
        assert min(len(rows) for _, rows in chunks) >= 3
        dense = self.dense_scatter(F, labels, median_heuristic_sigma(F))
        for actual, expected in zip(scatter, dense):
            assert_close(actual, expected)

    @pytest.mark.parametrize("method", ["lspp", "lpp", "lada"])
    def test_peak_memory_linear_in_samples(self, method):
        # The features and their augmented copies are O(n d); a distance
        # block, the median's distances and the weight block are a chunk
        # each. The condensed distances alone would be 15 MiB at n = 2,000
        # and 61 MiB at n = 4,000, against bounds of 26 and 29 MiB.
        d = 20
        rng = np.random.default_rng(97)
        for n in (2000, 4000):
            X = SampleSet(features=rng.standard_normal((d, n)), labels=np.arange(n) % 4 + 1)
            _, peak = traced_peak(METHODS[method], None, X, ExperimentConfig(method=method, r=3))
            assert peak < 8 * n * d * 8 + 6 * data.CHUNK_BYTES
