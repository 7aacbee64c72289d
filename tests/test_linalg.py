import numpy as np
import pytest

from specangle.data import pixels_to_sample_set, split_train_test, synth_scene
from specangle.errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotSquareError,
    SingularBError,
    SpecAngleError,
)
from specangle.linalg import gen_eig_desc, least_squares, regularized, sym_eig_desc
from specangle.projections import DEFAULT_RIDGE, _graph_pencil


def random_symmetric(rng, n, scale=1.0):
    A = rng.standard_normal((n, n)) * scale
    return 0.5 * (A + A.T)


def random_spd(rng, n):
    C = rng.standard_normal((n, n))
    return C @ C.T + 0.1 * np.eye(n)


class TestSymEig:
    def test_diagonal(self):
        w, V = sym_eig_desc(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(w, [3.0, 1.0])
        np.testing.assert_allclose(np.abs(V), np.eye(2), atol=1e-12)

    def test_two_by_two_exchange(self):
        # hand solve: eigenvalues +-1, eigenvectors (1,1)/sqrt2 and (1,-1)/sqrt2
        w, V = sym_eig_desc(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(w, [1.0, -1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(V[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(V[:, 1], [s, -s], atol=1e-12)

    def test_identity_residual_only(self):
        A = np.eye(5)
        w, V = sym_eig_desc(A)
        np.testing.assert_allclose(w, np.ones(5))
        resid = A @ V - V * w
        assert np.linalg.norm(resid, axis=0).max() <= 1e-8

    def test_errors(self):
        with pytest.raises(NonFiniteError):
            sym_eig_desc(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(NotSquareError):
            sym_eig_desc(np.zeros((2, 3)))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            A = random_symmetric(rng, 6)
            w, V = sym_eig_desc(A)
            rebuilt = (V * w) @ V.T
            assert np.linalg.norm(rebuilt - A) <= 1e-6

    def test_residual_and_orthonormality_random(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            A = random_symmetric(rng, n, scale=rng.uniform(0.1, 10.0))
            w, V = sym_eig_desc(A)
            tol = 1e-8 * max(1.0, np.linalg.norm(A))
            assert np.linalg.norm(A @ V - V * w, axis=0).max() <= tol
            assert np.abs(V.T @ V - np.eye(n)).max() <= 1e-8
            assert np.all(np.diff(w) <= 0)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(13)
        A = random_symmetric(rng, 5)
        _, V1 = sym_eig_desc(A)
        _, V2 = sym_eig_desc(A.copy())
        np.testing.assert_array_equal(V1, V2)
        idx = np.argmax(np.abs(V1), axis=0)
        assert np.all(V1[idx, np.arange(5)] > 0)


class TestGenEig:
    def test_b_identity_reduces_to_standard(self):
        w, _ = gen_eig_desc(np.diag([2.0, 1.0]), np.eye(2), ridge=0.0)
        np.testing.assert_allclose(w, [2.0, 1.0], atol=1e-12)

    def test_diagonal_pencil(self):
        w, _ = gen_eig_desc(np.diag([1.0, 4.0]), np.diag([1.0, 4.0]), ridge=0.0)
        np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-12)

    def test_regularized_degenerate_pencil(self):
        # B_reg = diag(0,1) + 1e-6*(trace/2)*I, so lambda_max = 1/(5e-7)
        A, B = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        w, V = gen_eig_desc(A, B, ridge=1e-6)
        assert np.isfinite(w).all()
        np.testing.assert_allclose(w[0], 2.0e6, rtol=1e-9)
        assert abs(V[0, 0]) > 1e3 * abs(V[1, 0])

    def test_agrees_with_sym_eig_for_identity_b(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            A = random_symmetric(rng, 7)
            w_gen, _ = gen_eig_desc(A, np.eye(7), ridge=0.0)
            w_sym, _ = sym_eig_desc(A)
            np.testing.assert_allclose(w_gen, w_sym, atol=1e-8)

    def test_residual_and_b_orthonormality_random(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            A = random_symmetric(rng, n)
            B = random_spd(rng, n)
            ridge = 1e-6
            w, V = gen_eig_desc(A, B, ridge=ridge)
            B_reg = regularized(B, ridge)
            tol = 1e-6 * max(1.0, np.linalg.norm(A))
            assert np.linalg.norm(A @ V - (B_reg @ V) * w, axis=0).max() <= tol
            assert np.abs(V.T @ B_reg @ V - np.eye(n)).max() <= 1e-6

    @pytest.mark.parametrize("split_seed", [0, 3])
    def test_residual_and_b_orthonormality_of_an_ill_conditioned_lspp_pencil(self, split_seed):
        # The paper's regime on the 120x120x103 scene: n = 90 samples against
        # d = 103 bands, so XDX^t has rank 90 and only the default ridge makes
        # B' definite, with cond(B') near 1e7.
        cube, gt = synth_scene(120, 120, 103, 9, seed=5)
        train, _ = split_train_test(gt, 10, 100, split_seed)
        A, B, _ = _graph_pencil(pixels_to_sample_set(cube, train, gt), 10, None)
        B_reg = regularized(B, DEFAULT_RIDGE)
        assert 1e6 < np.linalg.cond(B_reg) < 1e8
        w, V = gen_eig_desc(A, B, DEFAULT_RIDGE)
        residual = np.linalg.norm(A @ V - (B_reg @ V) * w)
        assert residual <= 1e-15 * np.linalg.norm(A) * np.linalg.norm(V)
        assert np.abs(V.T @ B_reg @ V - np.eye(len(w))).max() <= 1e-9

    def test_singular_b(self):
        with pytest.raises(SingularBError):
            gen_eig_desc(np.eye(2), np.zeros((2, 2)), ridge=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            gen_eig_desc(np.eye(2), np.eye(3), ridge=0.0)

    @pytest.mark.parametrize("ridge", [-1e-6, float("nan"), float("inf")])
    def test_bad_ridge(self, ridge):
        with pytest.raises(SpecAngleError, match="ridge must be finite and >= 0"):
            gen_eig_desc(np.eye(2), np.eye(2), ridge=ridge)


class TestLeastSquares:
    def test_identity_design(self):
        B = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_allclose(least_squares(np.eye(3), B), B)

    def test_constant_regressor_mean(self):
        C = least_squares(np.array([[1.0], [1.0]]), np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(C, [[2.0]])

    def test_orthogonal_projector(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        B = np.array([[1.0], [2.0], [5.0]])
        C = least_squares(A, B)
        np.testing.assert_allclose(C, [[1.0], [2.0]])
        assert np.linalg.norm(B - A @ C) == pytest.approx(5.0)

    @staticmethod
    def assert_minimum_norm(A, B, C):
        """C is the minimum-norm least-squares solution, per system."""
        expected = np.linalg.lstsq(A, B, rcond=None)[0]
        np.testing.assert_allclose(C, expected, rtol=1e-10, atol=1e-12)

    def test_rank_deficient(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        B = np.array([[1.0, 0.0], [1.0, 2.0], [1.0, 4.0]])
        C = least_squares(A, B)
        self.assert_minimum_norm(A, B, C)
        # A duplicated column takes half of the single column's coefficient.
        np.testing.assert_allclose(C[0], C[1], rtol=1e-12)
        np.testing.assert_allclose(2.0 * C[:1], least_squares(A[:, :1], B), rtol=1e-12)

    def test_wide_design_is_minimum_norm(self):
        rng = np.random.default_rng(34)
        A = rng.standard_normal((2, 4))
        B = rng.standard_normal((2, 3))
        C = least_squares(A, B)
        self.assert_minimum_norm(A, B, C)
        # Four random columns span the two rows, so the fit is exact.
        np.testing.assert_allclose(A @ C, B, atol=1e-12)
        ones = np.ones((2, 4))
        self.assert_minimum_norm(ones, B, least_squares(ones, B))

    def test_stack_solves_each_system(self):
        rng = np.random.default_rng(32)
        A = rng.standard_normal((5, 7, 3))
        B = rng.standard_normal((5, 7, 2))
        C = least_squares(A, B)
        assert C.shape == (5, 3, 2)
        for i in range(5):
            np.testing.assert_allclose(C[i], least_squares(A[i], B[i]), rtol=1e-12, atol=1e-12)

    def test_stack_with_a_deficient_system(self):
        rng = np.random.default_rng(33)
        A = rng.standard_normal((5, 7, 3))
        A[3, :, 2] = A[3, :, 0]
        B = rng.standard_normal((5, 7, 2))
        C = least_squares(A, B)
        for i in range(5):
            self.assert_minimum_norm(A[i], B[i], C[i])

    def test_normal_equation_residual_random(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = int(rng.integers(2, 13))
            k = int(rng.integers(1, m + 1))
            p = int(rng.integers(1, 5))
            A = rng.standard_normal((m, k))
            B = rng.standard_normal((m, p))
            C = least_squares(A, B)
            resid = A.T @ (B - A @ C)
            assert np.abs(resid).max() <= 1e-8 * np.linalg.norm(A) * np.linalg.norm(B)
