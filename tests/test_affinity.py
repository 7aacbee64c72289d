import numpy as np
import pytest
from scipy.spatial.distance import pdist

from oracles import heat_kernel_affinity, traced_peak
from specangle import affinity, data
from specangle.affinity import heat_kernel_products, median_heuristic_sigma
from specangle.data import HyperCube, pixels_to_sample_set, split_train_test, synth_scene
from specangle.errors import NonFiniteError, NonPositiveSigmaError, TooFewSamplesError
from specangle.evaluate import ExperimentConfig
from specangle.projections import METHODS, fit_lspp


class TestHeatKernel:
    """The dense reference the streamed products are checked against, and
    the package's checks of a kernel's inputs."""

    def test_identical_samples(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0]])
        for sigma in (0.1, 1.0, 50.0):
            W = heat_kernel_affinity(X, sigma)
            assert W[0, 1] == 1.0

    def test_unit_distance(self):
        X = np.array([[0.0, 1.0], [0.0, 0.0]])
        W = heat_kernel_affinity(X, 1.0)
        assert W[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_distance_two_sigma_two(self):
        X = np.array([[0.0, 1.0], [0.0, 1.0]])
        W = heat_kernel_affinity(X, 2.0)
        assert W[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_invariants(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((4, 9))
        W = heat_kernel_affinity(X, 1.7)
        np.testing.assert_array_equal(W, W.T)
        assert np.all(np.diag(W) == 1.0)
        assert np.all(W > 0.0) and np.all(W <= 1.0)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((3, 6))
        shift = rng.standard_normal((3, 1))
        W0 = heat_kernel_affinity(X, 0.8)
        W1 = heat_kernel_affinity(X + shift, 0.8)
        np.testing.assert_allclose(W0, W1, atol=1e-12)

    def test_permutation_conjugation(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((3, 6))
        perm = rng.permutation(6)
        W0 = heat_kernel_affinity(X, 1.3)
        W1 = heat_kernel_affinity(X[:, perm], 1.3)
        np.testing.assert_allclose(W1, W0[np.ix_(perm, perm)], atol=1e-15)

    def test_sigma_monotonicity(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((4, 7))
        W_small = heat_kernel_affinity(X, 0.5)
        W_big = heat_kernel_affinity(X, 2.0)
        off = ~np.eye(7, dtype=bool)
        assert np.all(W_big[off] >= W_small[off])

    def test_one_sample(self):
        W = heat_kernel_affinity(np.array([[2.0], [3.0]]), 1.0)
        np.testing.assert_array_equal(W, [[1.0]])

    def test_errors(self):
        # Checked by the package, before any graph is built.
        X = np.zeros((2, 3))
        for sigma in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(NonPositiveSigmaError):
                fit_lspp(X, 1, sigma=sigma)
        with pytest.raises(NonFiniteError):
            median_heuristic_sigma(np.array([[np.inf, 0.0]]))


class TestOverflowingDistances:
    """Finite spectra scaled by 1e160 have squared distances beyond the
    largest double. Every graph fit resolves its bandwidth first, and that
    raises NonFiniteError whether sigma is given or the median."""

    @pytest.fixture(scope="class")
    def scaled(self):
        cube, gt = synth_scene(12, 12, 10, 3, noise_sd=0.05, patch_size=4, seed=21)
        cube = HyperCube(values=cube.values * 1e160)
        train_coords, _ = split_train_test(gt, 6, 0, seed=21)
        return cube, pixels_to_sample_set(cube, train_coords, gt)

    @pytest.mark.parametrize("sigma", [None, 1.0], ids=["median", "explicit"])
    @pytest.mark.parametrize("method", ["lspp", "lpp", "lada", "slspp"])
    def test_fit_raises(self, scaled, method, sigma):
        cube, train = scaled
        cfg = ExperimentConfig(method=method, r=3, sigma=sigma, window=3)
        with pytest.raises(NonFiniteError, match="overflow"):
            METHODS[method](cube, train, cfg)

    def test_median_raises(self, scaled):
        with pytest.raises(NonFiniteError, match="overflow"):
            median_heuristic_sigma(scaled[1])


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


def numpy_median(d2):
    """np.median of the positive distances, or 1.0 when there is none."""
    positive = d2[d2 > 0.0]
    return np.median(positive) if positive.size else 1.0


@pytest.fixture(params=["one-block", "many-blocks"])
def blocks(request, monkeypatch):
    if request.param == "many-blocks":
        # 24 // width rows per block: every graph it is used on spans several.
        monkeypatch.setattr(data, "CHUNK_BYTES", 8 * 8 * 3)
    return request.param


def streamed_upper(F):
    """The (n, n) strict upper triangle of the streamed distances, 0 elsewhere."""
    n = F.shape[1]
    D = np.zeros((n, n))
    for lo, block, _ in affinity._distance_blocks(F):
        D[lo : lo + block.shape[0], lo:] = block
    return D


class TestStreamedMedian:
    """median_heuristic_sigma selects the median from streamed Gram-block
    distances without storing them. On integer features the Gram form is
    exact, so it must equal np.median of pdist's positive distances bit for
    bit, from one block or from many."""

    @staticmethod
    def integers(d, n, seed):
        return np.random.default_rng(seed).integers(-20, 20, (d, n)).astype(float)

    @pytest.mark.parametrize("n", [6, 7, 8, 40], ids=["15-pairs", "21-pairs", "28-pairs", "780-pairs"])
    def test_equals_numpy_median(self, blocks, n):
        F = self.integers(5, n, n)
        assert median_heuristic_sigma(F) == numpy_median(pdist(F.T, "sqeuclidean"))

    def test_middle_ranks_in_two_bins(self, blocks):
        # Pairwise squared distances {1, 4, 9, 49, 81, 100}: the middle two
        # lie in different histogram bins (the top 20 bits of the double).
        F = np.array([[0.0, 1.0, 3.0, 10.0]])
        d2 = np.sort(pdist(F.T, "sqeuclidean"))
        assert d2[2].view(np.int64) >> 44 != d2[3].view(np.int64) >> 44
        assert median_heuristic_sigma(F) == numpy_median(d2) == 29.0

    def test_duplicate_columns_are_excluded(self, blocks):
        F = self.integers(3, 12, 31)
        F[:, 8:] = F[:, :4]
        d2 = pdist(F.T, "sqeuclidean")
        assert np.count_nonzero(d2 == 0.0) >= 4
        assert median_heuristic_sigma(F) == numpy_median(d2)

    def test_all_coincident(self, blocks):
        assert median_heuristic_sigma(np.full((4, 9), 7.0)) == 1.0

    def test_one_column(self):
        # No pair, so no positive distance: the fallback, from an empty pass.
        assert affinity._streamed_median(np.ones((3, 1))) == 1.0

    @pytest.mark.parametrize("n", [59, 60])
    def test_equals_median_of_the_streamed_distances(self, blocks, n):
        # Real-valued features: the Gram distances round differently from
        # pdist's, but the selection is exact on the distances streamed.
        F = np.random.default_rng(n).standard_normal((5, n))
        assert median_heuristic_sigma(F) == np.median(streamed_upper(F)[np.triu_indices(n, 1)])

    @pytest.mark.parametrize(
        "copies, median, passes",
        [([10, 10, 2], 1.0, 4), ([8, 8, 4], 2.5, 3)],
        ids=["one-bin", "two-bins"],
    )
    def test_crowded_bins(self, monkeypatch, copies, median, passes):
        # Copies of the points 0, 1 and 3 give distances of 1, 4 and 9 only,
        # more of each than the selection may keep (F's 20 or 22 entries).
        # The sampled bracket, [1, 9], holds them all, so the first pass
        # learns only that the middle ranks lie in it. Middle ranks that
        # share a histogram bin narrow it over two more histogram passes, to
        # a bin one double wide; middle ranks in two bins (1 and 4) take one
        # histogram pass and one for the largest and smallest distances
        # around the split.
        monkeypatch.setattr(data, "CHUNK_BYTES", 8 * 16)
        calls = []
        distance_blocks = affinity._distance_blocks
        monkeypatch.setattr(
            affinity, "_distance_blocks", lambda X: calls.append(X) or distance_blocks(X)
        )
        F = np.repeat([0.0, 1.0, 3.0], copies)[None, :]
        assert median_heuristic_sigma(F) == numpy_median(pdist(F.T, "sqeuclidean")) == median
        assert len(calls) == passes

    def test_uint16_scale_repeated_spectra(self, blocks):
        # At reflectance ~1e4 the expanded form |x|^2 + |y|^2 - 2 x.y cancels
        # to a few ulps of 1e10 for repeated spectra, not to 0.
        F = np.random.default_rng(12).uniform(5000.0, 15000.0, (103, 30))
        F[:, 20:] = F[:, :10]
        sq = np.einsum("ij,ij->j", F, F)
        expanded = sq[:, None] + sq[None, :] - 2.0 * (F.T @ F)
        assert np.any(expanded[np.arange(10), np.arange(20, 30)] != 0.0)
        D = streamed_upper(F)
        i, j = np.triu_indices(30, 1)
        repeated = j - i == 20
        assert np.all(D[i[repeated], j[repeated]] == 0.0)
        assert np.all(D[i[~repeated], j[~repeated]] > 0.0)
        sigma = median_heuristic_sigma(F)
        for k in range(10):
            _, degrees = heat_kernel_products(F[:, [k, k + 20]], sigma)
            np.testing.assert_array_equal(degrees, [2.0, 2.0])


class TestCoincidentColumns:
    """Pairs within the rounding level of the Gram form are recomputed from
    the column difference, so the streamed distances agree with the dense
    pdist reference: exactly 0 for identical columns, within rounding else,
    whether the graph is one block or many."""

    @staticmethod
    def features(case):
        rng = np.random.default_rng(13)
        if case == "identical":
            return np.full((10, 60), 0.7)
        if case == "half-uniform":
            F = rng.standard_normal((10, 60))
            F[:, ::2] = 0.5
            return F
        # Reflectance ~1e4, where the Gram form of a repeated spectrum
        # cancels to a few ulps of 1e10 rather than to 0.
        F = rng.uniform(5000.0, 15000.0, (103, 60))
        F[:, 40:] = F[:, :20]
        return F

    @pytest.mark.parametrize("case", ["identical", "half-uniform", "uint16-repeated"])
    def test_matches_dense_reference(self, blocks, case):
        F = self.features(case)
        n = F.shape[1]
        expected = pdist(F.T, "sqeuclidean")
        D = streamed_upper(F)
        streamed = D[np.triu_indices(n, 1)]
        coincident = expected == 0.0
        assert np.any(coincident)
        assert np.all(streamed[coincident] == 0.0)
        np.testing.assert_allclose(streamed[~coincident], expected[~coincident], rtol=1e-12)
        assert np.all(D[np.tril_indices(n)] == 0.0)
        assert median_heuristic_sigma(F) == pytest.approx(numpy_median(expected), rel=1e-12)


class TestGraphMemory:
    """A distance pass holds the right factor [X; 1; |x|^2] and one reused
    CHUNK_BYTES block, plus the left factor and masks of one block's rows,
    on a graph of every pixel of a 60x60x103 scene: 3,600 columns in 14
    blocks. The median keeps at most its budget of distances on top."""

    SLACK = 2 << 20

    @pytest.fixture(scope="class")
    def features(self):
        cube, _ = synth_scene(60, 60, 103, 9, seed=3)
        return np.ascontiguousarray(cube.values.reshape(-1, 103).T)

    def bound(self, F):
        d, m = F.shape
        return (d + 2) * m * 8 + data.CHUNK_BYTES + self.SLACK

    def test_products(self, features):
        sigma = median_heuristic_sigma(features)
        _, peak = traced_peak(heat_kernel_products, features, sigma)
        assert peak <= self.bound(features)

    def test_median(self, features):
        budget = max(features.size, data.chunk_pixels(1))
        _, peak = traced_peak(median_heuristic_sigma, features)
        assert peak <= self.bound(features) + 8 * budget


class TestSampledBracket:
    """The median's first pass counts the distances against a bracket drawn
    from a sample of pairs and keeps those inside it. On a large graph of
    real-valued features the bracket holds the middle ranks and that pass is
    the only one. A bracket that misses them, or holds more distances than
    the budget, costs passes but never changes the median."""

    @pytest.fixture
    def passes(self, monkeypatch):
        # 21 rows of 1,500 columns a block at first, so a pass over the large
        # graph spans 37 blocks; its budget is F's 60,000 entries.
        monkeypatch.setattr(data, "CHUNK_BYTES", 1 << 18)
        calls = []
        distance_blocks = affinity._distance_blocks
        monkeypatch.setattr(
            affinity, "_distance_blocks", lambda X: calls.append(X) or distance_blocks(X)
        )
        return calls

    @staticmethod
    def positive_distances(F, passes):
        """The sorted positive streamed distances, and no pass counted."""
        d2 = streamed_upper(F)[np.triu_indices(F.shape[1], 1)]
        passes.clear()
        return np.sort(d2[d2 > 0.0])

    def bracket(self, monkeypatch, lo, hi):
        monkeypatch.setattr(affinity, "_sampled_bracket", lambda X, budget: (lo, hi))

    @pytest.fixture
    def real(self, passes):
        F = np.random.default_rng(40).standard_normal((40, 1500))
        return F, self.positive_distances(F, passes)

    def test_one_pass_when_the_bracket_holds_the_median(self, real, passes):
        F, d2 = real
        lo, hi = affinity._sampled_bracket(F, F.size)
        assert lo <= np.median(d2) <= hi
        assert np.count_nonzero((d2 >= lo) & (d2 <= hi)) <= F.size
        assert median_heuristic_sigma(F) == np.median(d2)
        assert len(passes) == 1

    @pytest.mark.parametrize(
        "quantiles", [(0.1, 0.2), (0.8, 0.9), (0.3, 0.7)], ids=["below", "above", "over-budget"]
    )
    def test_a_missed_bracket_costs_one_histogram_pass(self, real, passes, monkeypatch, quantiles):
        # The histogram search alone takes 2 passes here. A bracket beside
        # the middle ranks, or around them but holding 40% of the distances,
        # leaves that search one bin to narrow from: 1 + 2 passes.
        F, d2 = real
        self.bracket(monkeypatch, *(d2[int(q * d2.size)] for q in quantiles))
        assert median_heuristic_sigma(F) == np.median(d2)
        assert len(passes) == 3

    @pytest.mark.parametrize(
        "bracket, count", [((5.0, 5.0), 1), ((4.0, 5.0), 2), ((4.0, 6.0), 4)]
    )
    def test_crowded_tie_bins(self, passes, monkeypatch, bracket, count):
        # Features in {0, 1, 2} give integer distances in ties, most larger
        # than the budget of 32,768; the median, 5.0, has 147,697 copies.
        # The histogram search alone takes 4 passes. A bracket of that one
        # tie is one double wide: the pass that finds the ranks in it ends
        # the search. A bracket over two or three ties is overrun, and the
        # search narrows from it in no more passes than from all doubles.
        F = np.random.default_rng(41).integers(0, 3, (4, 1500)).astype(float)
        d2 = self.positive_distances(F, passes)
        assert np.count_nonzero(d2 == 5.0) > max(F.size, data.chunk_pixels(1))
        self.bracket(monkeypatch, *bracket)
        assert median_heuristic_sigma(F) == np.median(d2) == 5.0
        assert len(passes) == count

    def test_a_graph_too_small_to_sample(self, passes):
        # 31,125 pairs fit the budget of 32,768 (a chunk of doubles): the
        # bracket is every positive double and one pass keeps them all,
        # where the histogram search takes 2.
        F = np.random.default_rng(42).standard_normal((40, 250))
        assert data.chunk_pixels(250) < 250
        d2 = self.positive_distances(F, passes)
        everything = (5e-324, np.finfo(float).max)
        assert affinity._sampled_bracket(F, data.chunk_pixels(1)) == everything
        assert median_heuristic_sigma(F) == np.median(d2)
        assert len(passes) == 1


class TestBracketPass:
    """A bracket pass counts the positive distances below [lo, hi], up to hi
    and in all, and keeps those inside. It takes each block's zeros as
    _distance_blocks counts them: the entries on and left of the diagonal
    and the coincident pairs it recomputes. On integer features the Gram
    form is exact, so counts and kept distances equal pdist's, with copies
    of columns in other blocks and whatever the blocks' rows."""

    @pytest.mark.parametrize(
        "chunk_bytes", [8 * 3, 8 * 8 * 3], ids=["one-row-blocks", "growing-blocks"]
    )
    def test_matches_pdist(self, monkeypatch, chunk_bytes):
        monkeypatch.setattr(data, "CHUNK_BYTES", chunk_bytes)
        F = np.random.default_rng(43).integers(-3, 4, (4, 30)).astype(float)
        F[:, [7, 19, 26]] = F[:, [2, 2, 11]]
        starts, rows = zip(*((lo, D.shape[0]) for lo, D, _ in affinity._distance_blocks(F)))
        # Every copy lies in a later block than its column.
        assert np.searchsorted(starts, 2, "right") < np.searchsorted(starts, 7, "right")
        assert np.searchsorted(starts, 11, "right") < np.searchsorted(starts, 26, "right")
        assert len(rows) > 3 and (rows[-1] == 1) == (chunk_bytes == 8 * 3)
        d2 = pdist(F.T, "sqeuclidean")
        positive = np.sort(d2[d2 > 0.0])
        assert d2.size - positive.size >= 4
        lo, hi = positive[positive.size // 3], positive[2 * positive.size // 3]
        cum, _, kept = affinity._bracket_pass(F, lo, hi, d2.size)
        inside = positive[(positive >= lo) & (positive <= hi)]
        assert cum.tolist() == [
            np.count_nonzero(positive < lo),
            np.count_nonzero(positive <= hi),
            positive.size,
        ]
        np.testing.assert_array_equal(np.sort(kept), inside)
        # One distance over the budget, and none is kept.
        assert affinity._bracket_pass(F, lo, hi, inside.size - 1)[2] is None
