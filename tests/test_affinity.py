import numpy as np
import pytest

from specangle.affinity import heat_kernel_affinity, median_heuristic_sigma
from specangle.errors import NonFiniteError, NonPositiveSigmaError, TooFewSamplesError


class TestHeatKernel:
    def test_identical_samples(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0]])
        for sigma in (0.1, 1.0, 50.0):
            W = heat_kernel_affinity(X, sigma).weights
            assert W[0, 1] == 1.0

    def test_unit_distance(self):
        X = np.array([[0.0, 1.0], [0.0, 0.0]])
        W = heat_kernel_affinity(X, 1.0).weights
        assert W[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_distance_two_sigma_two(self):
        X = np.array([[0.0, 1.0], [0.0, 1.0]])
        W = heat_kernel_affinity(X, 2.0).weights
        assert W[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_invariants(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 9))
        am = heat_kernel_affinity(X, 1.7)
        W = am.weights
        np.testing.assert_array_equal(W, W.T)
        assert np.all(np.diag(W) == 1.0)
        assert np.all(W > 0.0) and np.all(W <= 1.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((3, 6))
        shift = rng.standard_normal((3, 1))
        W0 = heat_kernel_affinity(X, 0.8).weights
        W1 = heat_kernel_affinity(X + shift, 0.8).weights
        np.testing.assert_allclose(W0, W1, atol=1e-12)

    def test_permutation_conjugation(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((3, 6))
        perm = rng.permutation(6)
        W0 = heat_kernel_affinity(X, 1.3).weights
        W1 = heat_kernel_affinity(X[:, perm], 1.3).weights
        np.testing.assert_allclose(W1, W0[np.ix_(perm, perm)], atol=1e-15)

    def test_sigma_monotonicity(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((4, 7))
        W_small = heat_kernel_affinity(X, 0.5).weights
        W_big = heat_kernel_affinity(X, 2.0).weights
        off = ~np.eye(7, dtype=bool)
        assert np.all(W_big[off] >= W_small[off])

    def test_errors(self):
        X = np.zeros((2, 3))
        with pytest.raises(NonPositiveSigmaError):
            heat_kernel_affinity(X, 0.0)
        with pytest.raises(NonPositiveSigmaError):
            heat_kernel_affinity(X, -1.0)
        with pytest.raises(NonPositiveSigmaError):
            heat_kernel_affinity(X, float("nan"))
        with pytest.raises(NonFiniteError):
            heat_kernel_affinity(np.array([[np.inf, 0.0]]), 1.0)


class TestMedianHeuristic:
    def test_single_pair(self):
        assert median_heuristic_sigma(np.array([[0.0, 2.0]])) == 4.0

    def test_degenerate_fallback(self):
        assert median_heuristic_sigma(np.array([[0.0, 0.0]])) == 1.0

    def test_three_points(self):
        # pairwise squared distances {1, 9, 4}, median 4
        assert median_heuristic_sigma(np.array([[0.0, 1.0, 3.0]])) == 4.0

    def test_too_few(self):
        with pytest.raises(TooFewSamplesError):
            median_heuristic_sigma(np.array([[1.0]]))
