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
    """The (n, n) strict upper triangle of the streamed distances, +inf elsewhere."""
    n = F.shape[1]
    D = np.full((n, n), np.inf)
    for lo, block in affinity._distance_blocks(F):
        D[lo : lo + block.shape[0], lo:] = block
    return D


class TestStreamedMedian:
    """median_heuristic_sigma takes the median of the streamed Gram-block
    distances among at most 1,024 samples. On integer features the Gram form
    is exact, so up to 1,024 samples it must equal np.median of pdist's
    positive distances bit for bit, from one block or from many; beyond,
    it is that median over a fixed draw of 1,024 samples."""

    @staticmethod
    def integers(d, n, seed):
        return np.random.default_rng(seed).integers(-20, 20, (d, n)).astype(float)

    @pytest.mark.parametrize(
        "n",
        [6, 7, 8, 40, 1024],
        ids=["15-pairs", "21-pairs", "28-pairs", "780-pairs", "523776-pairs"],
    )
    def test_equals_numpy_median(self, blocks, n):
        F = self.integers(5, n, n)
        assert median_heuristic_sigma(F) == numpy_median(pdist(F.T, "sqeuclidean"))

    @pytest.mark.parametrize("n", [1025, 1600])
    def test_more_samples_take_a_fixed_draw(self, blocks, n):
        # The draw the docstrings state: the first 1,024 positions of a
        # Philox permutation with key 0, kept in column order.
        F = self.integers(5, n, n)
        idx = np.sort(np.random.Generator(np.random.Philox(key=0)).permutation(n)[:1024])
        sigma = median_heuristic_sigma(F)
        assert median_heuristic_sigma(F) == sigma
        assert sigma == median_heuristic_sigma(F[:, idx])
        assert sigma == numpy_median(pdist(F[:, idx].T, "sqeuclidean"))

    def test_middle_ranks_in_two_bins(self, blocks):
        # Pairwise squared distances {1, 4, 9, 49, 81, 100}: an even count,
        # whose middle two differ, so the median is their mean.
        F = np.array([[0.0, 1.0, 3.0, 10.0]])
        d2 = np.sort(pdist(F.T, "sqeuclidean"))
        assert median_heuristic_sigma(F) == numpy_median(d2) == 29.0

    def test_odd_count_after_zero_pairs(self, blocks):
        # {0, 1, 1, 4, 9, 9}: one zero pair, then five positive ones, whose
        # middle rank is one value.
        F = np.array([[0.0, 0.0, 1.0, 3.0]])
        d2 = pdist(F.T, "sqeuclidean")
        assert np.count_nonzero(d2 == 0.0) == 1
        assert median_heuristic_sigma(F) == numpy_median(d2) == 4.0

    def test_even_count_with_tied_middle_values(self, blocks):
        # {1 x4, 4 x3, 9 x2, 16}: the fifth and sixth values are both 4.
        F = np.array([[0.0, 1.0, 2.0, 3.0, 4.0]])
        assert median_heuristic_sigma(F) == numpy_median(pdist(F.T, "sqeuclidean")) == 4.0

    def test_two_positive_pairs(self, blocks):
        F = np.array([[0.0, 0.0, 3.0], [1.0, 1.0, -1.0]])
        d2 = pdist(F.T, "sqeuclidean")
        assert np.count_nonzero(d2) == 2
        assert median_heuristic_sigma(F) == numpy_median(d2) == 13.0

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
        assert affinity._sampled_median(np.ones((3, 1))) == 1.0

    @pytest.mark.parametrize("n", [59, 60])
    def test_equals_median_of_the_streamed_distances(self, blocks, n):
        # Real-valued features: the Gram distances round differently from
        # pdist's, but the selection is exact on the distances streamed.
        F = np.random.default_rng(n).standard_normal((5, n))
        assert median_heuristic_sigma(F) == np.median(streamed_upper(F)[np.triu_indices(n, 1)])

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
        assert np.all(D[np.tril_indices(n)] == np.inf)
        assert median_heuristic_sigma(F) == pytest.approx(numpy_median(expected), rel=1e-12)


class TestGraphMemory:
    """A distance pass holds the right factor [X; 1; |x|^2] and one reused
    CHUNK_BYTES block, plus the left factor and masks of one block's rows,
    on a graph of every pixel of a 60x60x103 scene: 3,600 columns in 14
    blocks. The median holds a copy of the 1,024 columns it draws, one pass
    over them and their 523,776 distances."""

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
        sample = features[:, :1024]
        _, peak = traced_peak(median_heuristic_sigma, features)
        assert peak <= sample.nbytes + self.bound(sample) + 8 * 1024 * 1023 // 2
