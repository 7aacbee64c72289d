import numpy as np
import pytest

from oracles import (
    block_scores_reference,
    bomp_oracle,
    class_residuals_oracle,
    omp_oracle,
    somp_oracle,
    stack_members,
    window_scores_reference,
)
from specangle.errors import (
    DimensionMismatchError,
    NonFiniteError,
    SpecAngleError,
)
from specangle import pursuit
from specangle.pursuit import (
    BlockDictionary,
    class_residuals,
    residual_by_class,
    sbomp,
)


def width1_dictionary(atoms, classes=None):
    n = atoms.shape[1]
    if classes is None:
        classes = np.ones(n, dtype=int)
    return BlockDictionary(
        blocks=tuple(atoms[:, i : i + 1] for i in range(n)), classes=classes
    )


class TestSbomp:
    def test_exact_one_atom(self):
        atoms = np.eye(4)
        d = width1_dictionary(atoms, classes=np.array([1, 1, 2, 2]))
        S = 2.0 * atoms[:, [2]]
        sol = sbomp(d, S, K=1)
        assert sol.support == (2,)
        np.testing.assert_allclose(sol.coefficients, [[2.0]])
        assert sol.residual_norms[-1] <= 1e-12

    def test_matches_scalar_omp_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(50):
            ddim = int(rng.integers(4, 10))
            n = int(rng.integers(3, 9))
            K = int(rng.integers(1, min(n, ddim) + 1))
            atoms = rng.standard_normal((ddim, n))
            s = rng.standard_normal(ddim)
            d = width1_dictionary(atoms)
            sol = sbomp(d, s, K)
            support, coef = omp_oracle(atoms, s, K)
            assert list(sol.support) == support
            np.testing.assert_allclose(sol.coefficients[:, 0], coef, atol=1e-8)

    def test_matches_somp_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            ddim = int(rng.integers(4, 10))
            n = int(rng.integers(3, 9))
            w = int(rng.integers(2, 5))
            K = int(rng.integers(1, min(n, ddim) + 1))
            atoms = rng.standard_normal((ddim, n))
            S = rng.standard_normal((ddim, w))
            d = width1_dictionary(atoms)
            sol = sbomp(d, S, K)
            support, coef = somp_oracle(atoms, S, K)
            assert list(sol.support) == support
            np.testing.assert_allclose(sol.coefficients, coef, atol=1e-8)

    def test_matches_bomp_oracle(self):
        """Block OMP on one column, then the block-simultaneous case that
        predict runs: blocks of mixed widths against matrix targets, several
        of different widths in one class_residuals stack. d >= 12 keeps every
        support of up to 3 blocks of width <= 4 full rank."""
        rng = np.random.default_rng(102)
        for simultaneous in [False] * 50 + [True] * 50:
            ddim = int(rng.integers(12, 17) if simultaneous else rng.integers(6, 12))
            n = int(rng.integers(3, 7))
            widths = rng.integers(1, 5 if simultaneous else 4, size=n)
            K = int(rng.integers(1, 4 if simultaneous else 3))
            blocks = [rng.standard_normal((ddim, int(m))) for m in widths]
            if simultaneous:
                classes = rng.integers(1, 4, size=n)
                tests = [rng.standard_normal((ddim, int(w))) for w in rng.integers(2, 5, size=3)]
            else:
                classes = np.ones(n, dtype=int)
                tests = [rng.standard_normal((ddim, 1))]
            d = BlockDictionary(blocks=tuple(blocks), classes=classes)
            S = np.zeros((len(tests), ddim, max(T.shape[1] for T in tests)))
            expected = []
            for i, T in enumerate(tests):
                S[i, :, : T.shape[1]] = T
                sol = sbomp(d, T, K)
                support, coef = bomp_oracle(blocks, T, K)
                assert list(sol.support) == support
                np.testing.assert_allclose(sol.coefficients, coef, atol=1e-8)
                res = class_residuals_oracle(blocks, classes, T, support, coef)
                expected.append([res[c] for c in d.class_ids])
            Z, members = stack_members(S)
            np.testing.assert_allclose(class_residuals(d, Z, K, members), expected, atol=1e-8)

    def test_residual_monotone_and_history(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            blocks = [rng.standard_normal((10, 2)) for _ in range(6)]
            d = BlockDictionary(blocks=tuple(blocks), classes=np.arange(6) % 2 + 1)
            S = rng.standard_normal((10, 3))
            sol = sbomp(d, S, K=4)
            assert sol.residual_norms[0] == pytest.approx(np.linalg.norm(S))
            assert np.all(np.diff(sol.residual_norms) <= 1e-12)

    def test_post_ls_orthogonality(self):
        rng = np.random.default_rng(104)
        blocks = [rng.standard_normal((12, 2)) for _ in range(5)]
        d = BlockDictionary(blocks=tuple(blocks), classes=np.ones(5, dtype=int))
        S = rng.standard_normal((12, 2))
        sol = sbomp(d, S, K=3)
        A_sel = np.hstack([blocks[j] for j in sol.support])
        R = S - A_sel @ sol.coefficients
        scale = np.linalg.norm(A_sel) * np.linalg.norm(S)
        assert np.abs(A_sel.T @ R).max() <= 1e-8 * max(scale, 1.0)

    def test_no_duplicates_and_bounded_support(self):
        rng = np.random.default_rng(105)
        for _ in range(20):
            atoms = rng.standard_normal((8, 6))
            d = width1_dictionary(atoms)
            K = int(rng.integers(1, 7))
            sol = sbomp(d, rng.standard_normal(8), K)
            assert len(set(sol.support)) == len(sol.support)
            assert len(sol.support) <= K

    def test_block_permutation_consistency(self):
        rng = np.random.default_rng(106)
        blocks = [rng.standard_normal((9, 2)) for _ in range(5)]
        S = rng.standard_normal((9, 2))
        d1 = BlockDictionary(blocks=tuple(blocks), classes=np.ones(5, dtype=int))
        sol1 = sbomp(d1, S, K=3)
        perm = rng.permutation(5)
        d2 = BlockDictionary(
            blocks=tuple(blocks[j] for j in perm), classes=np.ones(5, dtype=int)
        )
        sol2 = sbomp(d2, S, K=3)
        inverse = np.argsort(perm)
        assert [int(inverse[j]) for j in sol1.support] == list(sol2.support)

    def test_zero_scores_stop(self):
        atoms = np.eye(4)[:, :2]
        d = width1_dictionary(atoms)
        s = np.array([0.0, 0.0, 1.0, 0.0])  # orthogonal to both atoms
        sol = sbomp(d, s, K=2)
        assert sol.support == ()
        assert sol.coefficients.shape == (0, 1)
        np.testing.assert_allclose(sol.residual_norms, [1.0])

    def test_exact_representation_stops_early(self):
        atoms = np.eye(3)
        d = width1_dictionary(atoms)
        s = np.array([1.0, 0.0, 0.0])
        sol = sbomp(d, s, K=3)
        assert sol.support == (0,)

    def test_duplicate_atoms_share_the_coefficient(self):
        a = np.array([[1.0], [2.0], [0.0]])
        block = np.hstack([a, a])  # duplicate atoms inside one block
        d = BlockDictionary(blocks=(block,), classes=np.array([1]))
        sol = sbomp(d, 3.0 * a, K=1)
        assert sol.support == (0,)
        # The minimum-norm refit splits the coefficient into equal halves.
        np.testing.assert_allclose(sol.coefficients, [[1.5], [1.5]], rtol=1e-12)
        assert sol.residual_norms[-1] <= 1e-12 * sol.residual_norms[0]

    def test_k_validation(self):
        d = width1_dictionary(np.eye(2))
        with pytest.raises(SpecAngleError):
            sbomp(d, np.ones(2), K=0)
        with pytest.raises(SpecAngleError):
            sbomp(d, np.ones(2), K=3)


class TestResidualByClass:
    def test_exact_single_class(self):
        atoms = np.eye(4)
        d = width1_dictionary(atoms, classes=np.array([1, 1, 2, 2]))
        S = atoms[:, [0]] + 2.0 * atoms[:, [1]]
        sol = sbomp(d, S, K=2)
        res = residual_by_class(d, S, sol)
        assert res[1] <= 1e-10
        assert res[2] == pytest.approx(np.linalg.norm(S))

    def test_absent_class_gets_full_norm(self):
        atoms = np.eye(3)
        d = width1_dictionary(atoms, classes=np.array([1, 2, 3]))
        S = atoms[:, [0]]
        sol = sbomp(d, S, K=1)
        res = residual_by_class(d, S, sol)
        assert res[2] == pytest.approx(np.linalg.norm(S))
        assert res[3] == pytest.approx(np.linalg.norm(S))

    def test_partial_reconstruction_identity(self):
        # with disjoint class supports, sum_k (S - recon_k) = (c-1) S + R
        rng = np.random.default_rng(110)
        blocks = [rng.standard_normal((6, 2)) for _ in range(4)]
        classes = np.array([1, 1, 2, 2])
        d = BlockDictionary(blocks=tuple(blocks), classes=classes)
        S = rng.standard_normal((6, 2))
        sol = sbomp(d, S, K=2)
        if len(set(classes[list(sol.support)])) < 2:
            pytest.skip("pursuit picked a single class for this draw")
        A_sel = np.hstack([blocks[j] for j in sol.support])
        R = S - A_sel @ sol.coefficients
        offsets = np.concatenate([[0], np.cumsum([blocks[j].shape[1] for j in sol.support])])
        total = np.zeros_like(S)
        for k in (1, 2):
            recon = np.zeros_like(S)
            for pos, j in enumerate(sol.support):
                if classes[j] == k:
                    recon += blocks[j] @ sol.coefficients[offsets[pos]:offsets[pos + 1]]
            total += S - recon
        np.testing.assert_allclose(total, S + R, atol=1e-10)

    def test_single_owner_class_equals_final_residual(self):
        rng = np.random.default_rng(111)
        blocks = [rng.standard_normal((8, 2)) for _ in range(4)]
        d = BlockDictionary(blocks=tuple(blocks), classes=np.array([1, 1, 1, 2]))
        S = blocks[0] @ rng.standard_normal((2, 3)) + 0.1 * rng.standard_normal((8, 3))
        sol = sbomp(d, S, K=2)
        if set(d.classes[list(sol.support)]) != {1}:
            pytest.skip("pursuit left class 1 for this draw")
        res = residual_by_class(d, S, sol)
        assert res[1] == pytest.approx(sol.residual_norms[-1], abs=1e-10)


class TestBatch:
    """The engine on a stack of pixels against each pixel run on its own.

    The stack's products have other shapes than a single pixel's, so float
    results may differ in the last bits: TOL allows a few hundred ulps.
    """

    TOL = 256 * np.finfo(float).eps

    def test_mixed_early_stops_match_batch_of_one(self):
        rng = np.random.default_rng(107)
        # The last 3 rows are zero in every block, so a test block living
        # there scores exactly 0 and stops before its first selection.
        blocks = [np.vstack([rng.standard_normal((9, m)), np.zeros((3, m))]) for m in (3, 2, 3, 1, 2)]

        def fresh():
            return BlockDictionary(blocks=tuple(blocks), classes=np.array([1, 1, 2, 2, 3]))

        d = fresh()
        K = 3
        orthogonal = np.zeros((12, 3))
        orthogonal[9:] = rng.standard_normal((3, 3))
        tests = [
            rng.standard_normal((12, 3)),
            3.0 * blocks[2] @ rng.standard_normal((3, 3)),  # block 2 alone represents it
            rng.standard_normal((12, 2)),  # zero-padded to width 3 in the stack
            orthogonal,
            rng.standard_normal((12, 3)),
        ]
        S = np.zeros((len(tests), 12, 3))
        for i, T in enumerate(tests):
            S[i, :, : T.shape[1]] = T

        support, coefficients, norms = pursuit._pursue(d, S, K, np.arange(15).reshape(5, 3))
        assert list(support[1]) == [2, -1, -1]
        assert list(support[3]) == [-1, -1, -1]
        assert np.all(support[[0, 2, 4]] >= 0)
        for i, T in enumerate(tests):
            # A fresh dictionary, so that no factorization is shared with the stack.
            sol = sbomp(fresh(), T, K)
            n = len(sol.support)
            assert tuple(int(j) for j in support[i, :n]) == sol.support
            rows = pursuit._slot_rows(d, support[i, :n])
            np.testing.assert_allclose(
                coefficients[i, rows, : T.shape[1]], sol.coefficients, rtol=self.TOL, atol=self.TOL
            )
            assert not np.any(np.delete(coefficients[i], rows, axis=0))
            assert not np.any(coefficients[i, :, T.shape[1]:])
            np.testing.assert_allclose(norms[i, : n + 1], sol.residual_norms, rtol=self.TOL, atol=self.TOL)
            assert np.all(np.isnan(norms[i, n + 1:]))

        Z, members = stack_members(S)
        residuals = class_residuals(d, Z, K, members)
        for i, T in enumerate(tests):
            one = fresh()
            expected = residual_by_class(one, T, sbomp(one, T, K))
            np.testing.assert_allclose(
                residuals[i], [expected[c] for c in d.class_ids], rtol=self.TOL, atol=self.TOL
            )

    def test_errors_carry_the_pixel(self):
        a = np.array([[1.0], [2.0], [0.0]])
        d = BlockDictionary(blocks=(np.hstack([a, a]), np.eye(3)[:, [2]]), classes=np.array([1, 2]))
        S = np.zeros((4, 3, 1))
        S[:, 2, 0] = 1.0  # block 1 represents these exactly
        S[[2, 3], :, 0] = a[:, 0]  # selects block 0, whose two atoms are equal
        Z, members = stack_members(S)
        first = class_residuals(d, Z, 1, members)
        assert (0,) in d._refits  # the duplicate-atom support is cached too
        np.testing.assert_allclose(first[[2, 3], 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(first[[0, 1], 1], 0.0, atol=1e-12)
        # A second run and a reordered part of the stack read both supports
        # from the cache; a fresh dictionary factors them again.
        fresh = BlockDictionary(blocks=d.blocks, classes=d.classes)
        np.testing.assert_array_equal(class_residuals(d, Z, 1, members), first)
        np.testing.assert_array_equal(class_residuals(fresh, Z, 1, members), first)
        part, part_members = stack_members(S[[3, 1]])
        np.testing.assert_array_equal(class_residuals(d, part, 1, part_members), first[[3, 1]])
        S[1, 0, 0] = np.nan
        Z, members = stack_members(S)
        with pytest.raises(NonFiniteError) as info:
            class_residuals(d, Z, 1, members)
        assert info.value.index == 1


class TestSharedColumns:
    """Test blocks given as distinct columns and the members of each block."""

    @staticmethod
    def case(rng, ddim=12):
        """A dictionary of mixed block widths, n distinct columns plus the
        trailing zero row, and members (P, w) that repeat columns across
        blocks and read the zero row through -1."""
        n_blocks = int(rng.integers(3, 8))
        blocks = [rng.standard_normal((ddim, int(m))) for m in rng.integers(1, 5, size=n_blocks)]
        d = BlockDictionary(blocks=tuple(blocks), classes=rng.integers(1, 4, size=n_blocks))
        n, P, w = int(rng.integers(2, 12)), int(rng.integers(1, 9)), int(rng.integers(1, 6))
        Z = np.vstack([rng.standard_normal((n, ddim)), np.zeros((1, ddim))])
        members = rng.integers(-1, n, size=(P, w))
        return blocks, d, Z, members

    def test_block_scores_match_the_loop_reference(self):
        rng = np.random.default_rng(108)
        for _ in range(50):
            blocks, d, Z, members = self.case(rng)
            windows = Z[members]
            expected = block_scores_reference(blocks, windows.transpose(0, 2, 1))
            np.testing.assert_allclose(pursuit._block_scores(d, Z, members), expected, rtol=1e-12)
            own = np.arange(members.size).reshape(members.shape)
            np.testing.assert_allclose(
                pursuit._block_scores(d, windows.reshape(-1, Z.shape[1]), own), expected, rtol=1e-12
            )

    def test_block_scores_match_the_window_sum_oracle_bit_for_bit(self):
        """Each window's squares are added to zeros in column order: -1
        members at any position add nothing, rows shared between windows are
        read once, an all -1 window scores 0 (so its pixel stops before a
        selection), and Z needs no zero row."""
        rng = np.random.default_rng(114)
        shared = 0
        for _ in range(50):
            _, d, Z, members = self.case(rng)
            Z = Z[:-1]
            empty = int(rng.integers(len(members)))
            members[empty] = -1
            inside = members[members >= 0]
            shared += len(np.unique(inside)) < len(inside)
            scores = pursuit._block_scores(d, Z, members)
            expected = window_scores_reference(Z @ d._stacked, d._offsets, members)
            np.testing.assert_array_equal(scores, expected)
            assert not np.any(scores[empty])
            S, checked = pursuit._gathered(d, Z, 1, members)
            assert pursuit._pursue(d, S, 1, checked)[0][empty, 0] == -1
        assert shared > 25

    def test_residual_scores_match_the_loop_reference(self):
        """Windows of one support group share the residual of each member
        they share; any cap on a product's rows leaves the scores as they
        are, down to a cap of one group's distinct members."""
        rng = np.random.default_rng(111)
        for _ in range(50):
            blocks, d, Z, members = self.case(rng)
            P, w = members.shape
            groups = rng.integers(0, 3, size=P)
            by_pair = rng.standard_normal((3, len(Z), Z.shape[1]))
            by_pair[:, -1] = 0.0
            R = by_pair[groups[:, None], members].transpose(0, 2, 1)
            expected = block_scores_reference(blocks, R)
            widest = max(
                len(np.unique(members[(groups == g)[:, None] & (members >= 0)])) for g in range(3)
            )
            for rows in (len(Z), max(widest, 1)):
                scores = pursuit._residual_scores(d, R, members, groups, rows)
                np.testing.assert_allclose(scores, expected, rtol=1e-12)

    def test_class_residuals_match_the_gathered_stack(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            _, d, Z, members = self.case(rng, ddim=16)
            K = int(rng.integers(1, min(3, d.n_blocks) + 1))
            S = Z[members].transpose(0, 2, 1)
            support = pursuit._pursue(d, S, K, np.arange(members.size).reshape(members.shape))[0]
            shared = pursuit._pursue(d, S, K, members)[0]
            np.testing.assert_array_equal(shared, support)
            columns, own = stack_members(S)
            np.testing.assert_allclose(
                class_residuals(d, Z[:-1], K, members), class_residuals(d, columns, K, own),
                rtol=1e-12,
            )

    def test_chunk_class_residuals_match_one_pixel_pursuits(self):
        """Each pixel of a chunk gets residual_by_class of its own sbomp, also
        pixels that stop early: an all -1 window scores 0, and a window of
        one column in a block's span is represented exactly. The chunk's
        products have other shapes, so TOL allows a few hundred ulps."""
        TOL = 256 * np.finfo(float).eps
        rng = np.random.default_rng(116)
        stopped = 0
        for _ in range(30):
            blocks, d, Z, members = self.case(rng, ddim=16)
            Z = Z[:-1]
            K = int(rng.integers(1, min(3, d.n_blocks) + 1))
            members[0] = -1
            if len(members) > 1:
                Z[0] = 3.0 * blocks[-1] @ rng.standard_normal(blocks[-1].shape[1])
                members[1] = -1
                members[1, int(rng.integers(members.shape[1]))] = 0
            residuals = class_residuals(d, Z, K, members)
            S, checked = pursuit._gathered(d, Z, K, members)
            stopped += np.count_nonzero(pursuit._pursue(d, S, K, checked)[0][:, -1] < 0)
            for i, S_i in enumerate(S):
                one = BlockDictionary(blocks=d.blocks, classes=d.classes)
                expected = residual_by_class(one, S_i, sbomp(one, S_i, K))
                np.testing.assert_allclose(
                    residuals[i], [expected[c] for c in d.class_ids], rtol=TOL, atol=TOL
                )
        assert stopped > 30

    def test_a_non_finite_column_names_the_first_block_holding_it(self):
        rng = np.random.default_rng(110)
        _, d, _, _ = self.case(rng)
        Z = rng.standard_normal((4, 12))
        Z[2, 5] = np.inf
        with pytest.raises(NonFiniteError) as info:
            class_residuals(d, Z, 1, [[0, 1, -1], [3, 0, 1], [1, 2, 0], [2, -1, -1]])
        assert info.value.index == 2

    @pytest.mark.parametrize("bad", [4, -2, 5])
    def test_a_member_outside_the_rows_names_the_first_block_holding_it(self, bad):
        """With 4 rows, member 4 would read the zero row, -2 wrap to row 3
        and 5 fail on a bare index."""
        rng = np.random.default_rng(112)
        _, d, _, _ = self.case(rng)
        Z = rng.standard_normal((4, 12))
        members = np.array([[0, 1, -1], [3, 0, 1], [1, bad, 0], [bad, -1, -1]])
        with pytest.raises(SpecAngleError) as info:
            class_residuals(d, Z, 1, members)
        assert type(info.value) is SpecAngleError
        assert info.value.index == 2
        assert "members must lie in [-1, 4)" in str(info.value)

    @pytest.mark.parametrize("members", [np.zeros((2, 3)), np.zeros(3, dtype=int)])
    def test_members_must_be_a_2d_integer_array(self, members):
        rng = np.random.default_rng(113)
        _, d, _, _ = self.case(rng)
        with pytest.raises(SpecAngleError) as info:
            class_residuals(d, rng.standard_normal((4, 12)), 1, members)
        assert info.value.index is None
