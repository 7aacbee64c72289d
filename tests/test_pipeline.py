"""The fit -> predict seam shared by ``classify`` and ``eval``.

For every registered method x classifier, the outputs of both commands are
checked against a reference loop written here over the classifier
primitives, one pixel at a time. A name added to either registry is covered
automatically, and a classifier name without a reference below fails the
test. ``predict`` labels pixels in chunks; further tests pin that its labels
do not depend on the chunking or on the pursuit's refit cache, that each
distinct support is factored once, that its errors name the right pixel, and
that a warm predict and the dictionary gather stay within their memory
bounds.
"""

import itertools

import numpy as np
import pytest

from oracles import neighborhood_bruteforce, stack_members, traced_peak
from specangle import classify, data, evaluate, pursuit
from specangle.classify import nn_cosine_classify
from specangle.cli import main
from specangle.data import (
    HyperCube,
    SampleSet,
    load_cube,
    load_ground_truth,
    pixels_to_sample_set,
    split_train_test,
    synth_scene,
)
from specangle.errors import NonFiniteError, OutOfBoundsError, SpecAngleError, ZeroVectorError
from specangle.evaluate import (
    CLASSIFIERS,
    ExperimentConfig,
    fit_pipeline,
    fit_projection,
    run_experiment,
)
from specangle.projections import METHODS, Projection
from specangle.pursuit import BlockDictionary, class_residuals, residual_by_class, sbomp

# window 3 blocks have 9 columns, so r >= 9 keeps the K=1 solves full rank
R, WINDOW, SPARSITY, N_TRAIN, N_TEST, SEED = 10, 3, 1, 5, 20, 4
PIPELINES = list(itertools.product(METHODS, CLASSIFIERS))


def reference_labels(classifier, proj, cube, train, coords, window=WINDOW, sparsity=SPARSITY):
    """Label each pixel in coords on its own: one cosine nearest-neighbour
    call, or sbomp and residual_by_class with the lowest class id on ties
    over a window gathered by brute force."""
    P = proj.matrix
    if classifier == "nn-cos":
        train_proj = SampleSet(features=P.T @ train.features, labels=train.labels)
        return [nn_cosine_classify(train_proj, P.T @ cube.values[r, c]).label for r, c in coords]

    def block(rc, w):
        return P.T @ neighborhood_bruteforce(cube.values, rc, w)

    train_window = {"sbomp": window, "somp": 1}[classifier]
    dictionary = BlockDictionary(
        blocks=tuple(block(rc, train_window) for rc in train.coords), classes=train.labels
    )
    labels = []
    for r, c in coords:
        try:
            S = block((r, c), window)
            residuals = residual_by_class(dictionary, S, sbomp(dictionary, S, sparsity))
            labels.append(min(residuals, key=lambda k: (residuals[k], k)))
        except SpecAngleError as exc:
            raise type(exc)(f"pixel ({r}, {c}): {exc}") from exc
    return labels


def gathered_windows(proj, cube, coords, window):
    """The projected windows of coords gathered by brute force: the blocks
    (r, members) and their stack (P, r, window**2), zero-padded."""
    blocks = [
        (neighborhood_bruteforce(cube.values, rc, window).T @ proj.matrix).T for rc in coords
    ]
    S = np.zeros((len(blocks), proj.r, window**2))
    for s, block in zip(S, blocks):
        s[:, : block.shape[1]] = block
    return blocks, S


def outcome(label, *args, **kwargs):
    """The labels as a list, or the error as 'Type: message'."""
    try:
        return list(label(*args, **kwargs))
    except SpecAngleError as exc:
        return f"{type(exc).__name__}: {exc}"


def config(method, classifier, **overrides):
    return ExperimentConfig(**{
        "method": method, "classifier": classifier, "r": R, "window": WINDOW,
        "sparsity": SPARSITY, "n_train": N_TRAIN, "n_test": N_TEST, "trials": 1,
        "seed": SEED, **overrides,
    })


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert main([
        "synth", "--rows", "18", "--cols", "18", "--bands", "12", "--classes", "3",
        "--noise-sd", "0.05", "--patch-size", "6", "--seed", "11", "--out", str(out),
    ]) == 0
    return out


@pytest.mark.parametrize("method,classifier", PIPELINES)
def test_classify_matches_reference(scene_dir, tmp_path, method, classifier):
    out = tmp_path / "pred.csv"
    assert main([
        "classify", "--cube", str(scene_dir / "cube.csv"), "--gt", str(scene_dir / "gt.csv"),
        "--method", method, "--classifier", classifier, "--r", str(R),
        "--window", str(WINDOW), "--sparsity", str(SPARSITY),
        "--n-train", str(N_TRAIN), "--seed", str(SEED), "--out", str(out),
    ]) == 0

    cube = load_cube(scene_dir / "cube.csv", "csv_bands")
    gt = load_ground_truth(scene_dir / "gt.csv", "csv")
    train_coords, _ = split_train_test(gt, N_TRAIN, 0, SEED)
    train = pixels_to_sample_set(cube, train_coords, gt)
    train_set = {tuple(rc) for rc in train_coords}
    held_out = [tuple(rc) for rc in np.argwhere(gt.labels > 0) if tuple(rc) not in train_set]
    proj = fit_projection(cube, train, config(method, classifier))
    pred = reference_labels(classifier, proj, cube, train, held_out)

    expected = ["row,col,true,predicted"] + [
        f"{r},{c},{gt.labels[r, c]},{p}" for (r, c), p in zip(held_out, pred)
    ]
    assert out.read_text().splitlines() == expected


@pytest.mark.parametrize("method,classifier", PIPELINES)
def test_eval_confusion_matches_reference(method, classifier):
    cube, gt = synth_scene(18, 18, 12, 3, noise_sd=0.05, patch_size=6, seed=11)
    cfg = config(method, classifier)
    report = run_experiment(cube, gt, cfg)

    train_coords, test_coords = split_train_test(
        gt, N_TRAIN, N_TEST, evaluate._split_seed(SEED, 0)
    )
    train = pixels_to_sample_set(cube, train_coords, gt)
    proj = fit_projection(cube, train, cfg)
    expected = np.zeros((gt.n_classes, gt.n_classes), dtype=np.int64)
    for (r, c), p in zip(test_coords, reference_labels(classifier, proj, cube, train, test_coords)):
        expected[gt.labels[r, c] - 1, p - 1] += 1
    np.testing.assert_array_equal(report.confusions[0], expected)


# More bands than training pixels (3 classes of N_TRAIN), the paper's n < d
# regime; a K=2 support of window-3 blocks holds 18 atoms, within r.
WIDE_BANDS, WIDE_R, WIDE_K = 30, 20, 2


@pytest.fixture(scope="module")
def wide_scene():
    cube, gt = synth_scene(18, 18, WIDE_BANDS, 3, noise_sd=0.05, patch_size=6, seed=11)
    train_coords, _ = split_train_test(gt, N_TRAIN, 0, SEED)
    return cube, pixels_to_sample_set(cube, train_coords, gt)


@pytest.mark.parametrize("method", METHODS)
def test_block_pursuit_k2_matches_reference_on_every_pixel(wide_scene, method):
    """Every pixel of the image, so edge and corner windows are truncated.

    The lspp, lpp and lada fits on this n < d scene stretch some directions
    thousands of times more than others; refits are minimum-norm, so every
    method labels every pixel, as the one-pixel reference does.
    """
    cube, train = wide_scene
    proj, predict = fit_pipeline(cube, train, config(method, "sbomp", r=WIDE_R, sparsity=WIDE_K))
    coords = np.argwhere(np.ones((cube.rows, cube.cols), dtype=bool))
    expected = outcome(reference_labels, "sbomp", proj, cube, train, coords, sparsity=WIDE_K)
    assert isinstance(expected, list) and len(expected) == len(coords)
    assert outcome(predict, coords) == expected


def spy_chunks(monkeypatch):
    """Record how many pixels each classifier call of predict labels."""
    chunks = []
    for name in ("sbomp_labels", "nn_cosine_labels"):

        def record(*args, labeller=getattr(evaluate, name)):
            labels = labeller(*args)
            chunks.append(len(labels))
            return labels

        monkeypatch.setattr(evaluate, name, record)
    return chunks


@pytest.mark.parametrize("classifier,window", [
    *(pytest.param(c, WINDOW, id=c) for c in CLASSIFIERS),
    *(pytest.param(c, 5, id=f"{c}-window5") for c in CLASSIFIERS),
])
def test_labels_do_not_depend_on_chunking(wide_scene, monkeypatch, classifier, window):
    """A test window of 5 shares each member among up to 25 windows; the
    dictionary's blocks stay at window 3, so K=2 refits stay full rank. A
    128 KiB budget cuts the pixels, repeats included, into chunks of a few
    to a few hundred."""
    cube, train = wide_scene
    monkeypatch.setattr(data, "CHUNK_BYTES", 1 << 17)
    cfg = config("slspp", classifier, r=WIDE_R, sparsity=WIDE_K, window=window, dict_window=WINDOW)
    _, predict = fit_pipeline(cube, train, cfg)
    chunks = spy_chunks(monkeypatch)

    pixels = np.argwhere(np.ones((cube.rows, cube.cols), dtype=bool))
    many = pixels[np.random.default_rng(5).permutation(2 * len(pixels)) % len(pixels)]
    everything = predict(many)
    assert len(chunks) > 1
    chunk = chunks[0]
    coords = many[: chunk + 1]
    labels = predict(coords)
    assert labels.dtype == np.int64 and labels.shape == (chunk + 1,)
    np.testing.assert_array_equal(labels, everything[: chunk + 1])
    for n in (chunk - 1, chunk):
        np.testing.assert_array_equal(predict(coords[:n]), labels[:n])
    k = min(7, chunk)
    np.testing.assert_array_equal(np.concatenate([predict(coords[:k]), predict(coords[k:])]), labels)
    empty = predict(np.empty((0, 2), dtype=np.int64))
    assert empty.dtype == np.int64 and empty.shape == (0,)


@pytest.mark.parametrize("classifier", ["sbomp", "somp"])
def test_labels_do_not_depend_on_the_input_order(wide_scene, monkeypatch, classifier):
    """predict visits the pixels in Z order and labels each chunk in input
    order, so a shuffled copy of the pixels gets every pixel the same label;
    a 16 KiB budget cuts either order into ten chunks or more."""
    cube, train = wide_scene
    monkeypatch.setattr(data, "CHUNK_BYTES", 1 << 14)
    _, predict = fit_pipeline(cube, train, config("slspp", classifier, r=WIDE_R, sparsity=WIDE_K))
    chunks = spy_chunks(monkeypatch)
    coords = np.argwhere(np.ones((cube.rows, cube.cols), dtype=bool))
    labels = predict(coords)
    assert len(chunks) >= 10
    chunks.clear()
    shuffle = np.random.default_rng(7).permutation(len(coords))
    np.testing.assert_array_equal(predict(coords[shuffle]), labels[shuffle])
    assert len(chunks) >= 10


@pytest.mark.parametrize("K", [2, 3])
def test_shared_members_match_the_gathered_and_one_pixel_paths(wide_scene, monkeypatch, K):
    """predict gathers and projects each distinct window member once, and
    each iteration correlates each distinct (support, member) residual once,
    the first one each member. On integer uint16-scale spectra with a
    patch of repeated ones, truncated edge windows and short chunks, patches
    of about 15 pixels that cut through image rows, its supports and labels
    equal those of the gathered stack and of one-pixel sbomp, and its
    residuals agree with theirs to rounding. Each chunk's records are mapped
    back to its pixels, which predict visits in Z order and labels in input
    order. The training pixels' windows are represented exactly, so they
    stop early beside pixels that continue, and neighbours that share
    members select different first blocks."""
    cube, train = wide_scene
    values = np.round(cube.values * 20000.0)
    assert values.max() < 2**16
    # The repeated spectra lie outside every training window, so the
    # dictionary holds no duplicate atoms.
    repeated = np.zeros((cube.rows, cube.cols), dtype=bool)
    repeated[6:12] = True
    for r, c in train.coords:
        repeated[max(r - 1, 0) : r + 2, max(c - 1, 0) : c + 2] = False
    assert np.count_nonzero(repeated) >= 20
    values[repeated] = values[tuple(np.argwhere(repeated)[0])]
    cube = HyperCube(values=values)
    train = SampleSet(
        features=values[train.coords[:, 0], train.coords[:, 1]].T,
        labels=train.labels, coords=train.coords,
    )

    # 64 KiB holds 63 score rows of the dictionary's 129 atoms: chunks of
    # about 15 pixels, each with as many distinct members as fit beside them.
    monkeypatch.setattr(data, "CHUNK_BYTES", 1 << 16)
    recorded, visits = [], []
    class_residuals_of, z_order = classify.class_residuals, evaluate._z_order

    def record(dictionary, Z, K, members):
        recorded.append(class_residuals_of(dictionary, Z, K, members))
        return recorded[-1]

    def visit(coords):
        visits.append(z_order(coords))
        return visits[-1]

    monkeypatch.setattr(classify, "class_residuals", record)
    monkeypatch.setattr(evaluate, "_z_order", visit)
    _, supports = spy_refits(monkeypatch)
    proj, predict = fit_pipeline(cube, train, config("slspp", "sbomp", r=WIDE_R, sparsity=K))
    coords = np.argwhere(np.ones((cube.rows, cube.cols), dtype=bool))
    labels = predict(coords)
    ends = np.cumsum([len(r) for r in recorded])
    # Chunk k holds the pixels visited from ends[k - 1] to ends[k], each
    # chunk's records in input order; a pixel's position is its flat index.
    [visited] = visits
    np.testing.assert_array_equal(np.sort(visited), np.arange(len(coords)))
    parts = np.split(visited, ends[:-1])
    rows = [len(np.unique(part // cube.cols)) for part in parts]
    # Some chunk spans image rows that it does not cover whole.
    assert len(parts) > 10 and any(
        n > 1 and len(part) < n * cube.cols for n, part in zip(rows, parts)
    )
    positions = np.concatenate([np.sort(part) for part in parts])
    order = np.argsort(positions)
    support, residuals = np.concatenate(supports)[order], np.concatenate(recorded)[order]
    supports.clear()
    stopped = support[:, -1] < 0
    assert np.any(stopped) and not np.all(stopped)
    assert np.any(stopped[[cube.cols * r + c for r, c in train.coords]])
    grid = support[:, 0].reshape(cube.rows, cube.cols)
    assert np.any(grid[:, 1:] != grid[:, :-1])

    _, S = gathered_windows(proj, cube, coords, WINDOW)
    blocks, _ = gathered_windows(proj, cube, train.coords, WINDOW)
    dictionary = BlockDictionary(blocks=tuple(blocks), classes=train.labels)
    # Residuals are compared relative to the pixel's norm as well, since a
    # window its own class represents exactly leaves only rounding noise.
    scale = np.linalg.norm(S, axis=(1, 2))[:, None]
    Z, members = stack_members(S)
    gathered = class_residuals(dictionary, Z, K, members)
    [gathered_support] = supports
    np.testing.assert_array_equal(support, gathered_support)
    np.testing.assert_allclose(residuals / scale, gathered / scale, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(labels, dictionary.class_ids[np.argmin(gathered, axis=1)])
    for i, rc in enumerate(coords):
        block = evaluate.projected_block(proj, cube, rc, WINDOW)
        sol = sbomp(dictionary, block, K)
        assert sol.support == tuple(int(j) for j in support[i] if j >= 0)
        by_class = residual_by_class(dictionary, block, sol)
        one = np.array([by_class[c] for c in dictionary.class_ids])
        np.testing.assert_allclose(residuals[i] / scale[i], one / scale[i], rtol=1e-12, atol=1e-12)
        assert labels[i] == min(by_class, key=lambda k: (by_class[k], k))


def spy_refits(monkeypatch):
    """Record every stacked factorization (matrix count) and pursuit support."""
    factored, supports = [], []
    pinv, pursue = pursuit._pinv, pursuit._pursue

    def count(A):
        factored.append(len(A))
        return pinv(A)

    def record(dictionary, S, K, members):
        out = pursue(dictionary, S, K, members)
        supports.append(out[0])
        return out

    monkeypatch.setattr(pursuit, "_pinv", count)
    monkeypatch.setattr(pursuit, "_pursue", record)
    return factored, supports


def distinct_supports(supports):
    """The distinct ordered supports (every selection prefix) of the pixels."""
    rows = np.concatenate(supports).tolist()
    return {tuple(row[:k]) for row in rows for k in range(1, len(row) + 1) if row[k - 1] >= 0}


def test_each_support_is_factored_once(wide_scene, monkeypatch):
    """Refits factor each distinct ordered support once, not once per pixel."""
    cube, train = wide_scene
    monkeypatch.setattr(data, "CHUNK_BYTES", 1 << 18)
    factored, supports = spy_refits(monkeypatch)
    _, predict = fit_pipeline(cube, train, config("slspp", "sbomp", r=WIDE_R, sparsity=WIDE_K))
    predict(np.argwhere(np.ones((cube.rows, cube.cols), dtype=bool)))
    distinct = distinct_supports(supports)
    assert len(supports) > 1
    assert sum(factored) == len(distinct)
    assert np.count_nonzero(np.concatenate(supports) >= 0) > 10 * len(distinct)


def test_refit_cache_history_does_not_change_results(wide_scene, monkeypatch):
    """Cold, warm and repeatedly cleared caches give the same bits."""
    cube, train = wide_scene
    cfg = config("slspp", "sbomp", r=WIDE_R, sparsity=WIDE_K)
    coords = np.argwhere(np.ones((cube.rows, cube.cols), dtype=bool))
    proj, predict = fit_pipeline(cube, train, cfg)
    Z, members = stack_members(gathered_windows(proj, cube, coords, WINDOW)[1])
    blocks, _ = gathered_windows(proj, cube, train.coords, WINDOW)

    def fresh():
        return BlockDictionary(blocks=tuple(blocks), classes=train.labels)

    labels = predict(coords)
    np.testing.assert_array_equal(predict(coords), labels)
    dictionary = fresh()
    residuals = class_residuals(dictionary, Z, WIDE_K, members)
    np.testing.assert_array_equal(class_residuals(dictionary, Z, WIDE_K, members), residuals)

    budget = 1 << 16
    monkeypatch.setattr(data, "CHUNK_BYTES", budget)
    factored, supports = spy_refits(monkeypatch)
    refits, peak = pursuit._refits, []

    def bounded(dictionary, *args):
        out = refits(dictionary, *args)
        peak.append(sum(pinv.nbytes for pinv in dictionary._refits.values()))
        return out

    monkeypatch.setattr(pursuit, "_refits", bounded)
    _, small = fit_pipeline(cube, train, cfg)
    np.testing.assert_array_equal(small(coords), labels)
    np.testing.assert_array_equal(class_residuals(fresh(), Z, WIDE_K, members), residuals)
    # More factorizations than supports: the cache was cleared and refilled.
    assert sum(factored) > len(distinct_supports(supports))
    assert 0 < max(peak) <= budget


def zeroed(cube, pixel):
    values = cube.values.copy()
    values[pixel] = 0.0
    return HyperCube(values=values)


@pytest.mark.parametrize("method", METHODS)
def test_zero_training_spectrum_names_the_training_pixel(method):
    cube, gt = synth_scene(18, 18, 12, 3, noise_sd=0.05, patch_size=6, seed=11)
    train_coords, _ = split_train_test(gt, N_TRAIN, N_TEST, evaluate._split_seed(SEED, 0))
    r, c = train_coords[N_TRAIN + 1]
    with pytest.raises(ZeroVectorError) as info:
        run_experiment(zeroed(cube, (r, c)), gt, config(method, "nn-cos"))
    assert str(info.value) == (
        f"trial 0: training pixel ({r}, {c}): cosine distance is undefined for zero vectors"
    )


def test_zero_test_spectrum_names_that_pixel(wide_scene):
    cube, train = wide_scene
    taken = {tuple(rc) for rc in train.coords}
    coords = np.array([rc for rc in np.ndindex(cube.rows, cube.cols) if rc not in taken][:40])
    r, c = coords[25]
    _, predict = fit_pipeline(zeroed(cube, (r, c)), train, config("lspp", "nn-cos", r=WIDE_R))
    predict(coords[:25])
    with pytest.raises(ZeroVectorError, match=rf"^pixel \({r}, {c}\): cosine distance is undefined"):
        predict(coords)


@pytest.mark.filterwarnings("error")
def test_overflowing_test_spectrum_names_that_pixel():
    # Scaled by 1e160, a spectrum's squared norm overflows to Inf, which
    # would turn every cosine to 0 and label the pixel as training sample 0.
    cube, gt = synth_scene(18, 18, 12, 3, seed=11)
    train_coords, _ = split_train_test(gt, 5, 0, 3)
    values = cube.values.copy()
    values[[2, 6], [6, 6]] *= 1e160
    scaled = HyperCube(values=values)
    _, predict = fit_pipeline(
        scaled, pixels_to_sample_set(scaled, train_coords, gt), config("lspp", "nn-cos")
    )
    np.testing.assert_array_equal(predict([(2, 14)]), [2])
    with pytest.raises(NonFiniteError, match=r"^pixel \(2, 6\): "):
        predict([(2, 6), (6, 6), (2, 14)])


@pytest.mark.filterwarnings("error")
def test_overflowing_ada_training_spectrum_names_that_pixel():
    # Scaled by 1e160, a training spectrum's scatter products overflow: the
    # fit names the pixel before any arithmetic warns.
    cube, gt = synth_scene(18, 18, 12, 3, seed=11)
    train_coords, _ = split_train_test(gt, 5, 0, 3)
    r, c = train_coords[0]
    values = cube.values.copy()
    values[r, c] *= 1e160
    scaled = HyperCube(values=values)
    with pytest.raises(NonFiniteError, match=rf"^pixel \({r}, {c}\): training spectra overflow"):
        fit_pipeline(
            scaled, pixels_to_sample_set(scaled, train_coords, gt), config("ada", "nn-cos", r=2)
        )


class TestPredictMemory:
    """The traced peak of a warm predict, and the members its chunks score.
    A chunk's distinct members (their gathered spectra, then their score
    product) and its pixels' score sums share one CHUNK_BYTES budget, so the
    peak stays near it when windows share most members and when they share
    none; the K * w * r values each pixel holds for its refits and class
    residuals come on top. Measured: 6.25 MiB on the map shape, 10.45 MiB
    at r = 60, window 5 (9.41 MiB with the row-major chunks, whose pixels
    shared fewer members, so fewer fitted a chunk), 4.30 MiB on scattered
    pixels."""

    @staticmethod
    def predictor(size, seed, window, r=30):
        """A fitted predict on a size x size x 103 scene of 9 classes, and
        every labelled pixel."""
        cube, gt = synth_scene(size, size, 103, 9, noise_sd=0.05, seed=seed)
        train_coords, _ = split_train_test(gt, 10, 0, seed)
        train = pixels_to_sample_set(cube, train_coords, gt)
        cfg = ExperimentConfig(
            method="slspp", classifier="sbomp", r=r, window=window, sparsity=2, n_train=10,
        )
        return fit_pipeline(cube, train, cfg)[1], np.argwhere(gt.labels > 0)

    @classmethod
    def peak(cls, size, seed, window, r=30, coords=None):
        predict, labelled = cls.predictor(size, seed, window, r)
        if coords is None:
            coords = labelled
        predict(coords)
        labels, peak = traced_peak(predict, coords)
        assert labels.shape == (len(coords),)
        return peak

    def test_map_shape(self):
        """96x96x103, slspp r = 30, window 3, K = 2: chunks of about 280
        pixels and 370 distinct members against about 800 atoms."""
        assert self.peak(96, 5, 3) <= 7.5 * 2**20

    def test_pavia_shape(self):
        """The paper's r = 60, window 5 and K = 2 on a 60x60x103 scene:
        chunks of about 70 pixels and 170 distinct members against about
        2,150 atoms, each pixel holding 3,000 refit and residual values."""
        assert self.peak(60, 3, 5, r=60) <= 11 * 2**20

    def test_scattered_pixels(self):
        """Window-5 pixels 5 apart on a 60x60x103 scene share no member:
        chunks of 9 pixels and 225 members against about 2,150 atoms."""
        grid = np.argwhere(np.ones((12, 12), dtype=bool)) * 5 + 2
        assert self.peak(60, 3, 5, coords=grid) <= 5 * 2**20

    def test_map_chunks_are_compact_patches(self, monkeypatch):
        """Chunks along the Z-order curve are patches whose windows share
        most members: on the map shape the distinct members summed over the
        chunks stay within 1.5 times the pixels (1.31 measured, against
        1.82 for chunks of consecutive row-major pixels)."""
        predict, coords = self.predictor(96, 5, 3)
        members, class_residuals_of = [], classify.class_residuals

        def record(dictionary, Z, K, windows):
            members.append(len(Z))
            return class_residuals_of(dictionary, Z, K, windows)

        monkeypatch.setattr(classify, "class_residuals", record)
        predict(coords)
        assert len(members) > 10
        assert sum(members) <= 1.5 * len(coords)


class TestDictionaryGather:
    """fit_pipeline builds the block dictionary from the distinct members of
    the training windows, each gathered and projected once, a
    chunk_pixels(bands) block of spectra at a time. 1,000 window-5
    neighbourhoods of a 60x60x103 scene projected to r = 60 make 11.5 MB of
    blocks, held twice (the blocks and the dictionary's stacked atoms), from
    3,587 distinct members: 1.7 MB projected, 3.0 MB of spectra, so three
    chunks under a 1 MiB budget; the gather peaks at 2.8 MB."""

    @pytest.fixture(scope="class")
    def case(self):
        cube, _ = synth_scene(60, 60, 103, 9, seed=3)
        rng = np.random.default_rng(6)
        proj = Projection(
            matrix=rng.standard_normal((103, 60)), eigenvalues=np.zeros(60), method="lspp"
        )
        coords = rng.integers(0, 60, size=(1000, 2))
        train = SampleSet(
            features=cube.values[coords[:, 0], coords[:, 1]].T,
            labels=np.arange(1000) % 9 + 1, coords=coords,
        )
        return cube, proj, train

    @staticmethod
    def dictionary(monkeypatch, cube, proj, train):
        """fit_pipeline's dictionary for the fixed projection proj, and the
        traced peak of fit_pipeline."""
        built = []

        def spy(**kwargs):
            built.append(BlockDictionary(**kwargs))
            return built[-1]

        monkeypatch.setattr(evaluate, "fit_projection", lambda *args: proj)
        monkeypatch.setattr(evaluate, "BlockDictionary", spy)
        _, peak = traced_peak(fit_pipeline, cube, train, config("lspp", "sbomp", r=60, window=5))
        return built[0], peak

    def test_peak_is_the_blocks_and_one_chunk(self, case, monkeypatch):
        cube, proj, train = case
        monkeypatch.setattr(data, "CHUNK_BYTES", 1 << 20)
        distinct, _ = evaluate._window_members(cube, train.coords, 5)
        assert len(distinct) * cube.bands * 8 > 2 * data.CHUNK_BYTES
        Z, peak = traced_peak(evaluate._projected, proj, cube, distinct)
        assert peak <= Z.nbytes + data.CHUNK_BYTES + (1 << 18)
        # The whole build: the projected members, the blocks and the atoms.
        dictionary, peak = self.dictionary(monkeypatch, cube, proj, train)
        blocks = sum(b.nbytes for b in dictionary.blocks)
        assert blocks > 11 * 10**6
        assert peak <= Z.nbytes + 2 * blocks + data.CHUNK_BYTES + (1 << 20)

    def test_chunks_match_one_product(self, case, monkeypatch):
        cube, proj, train = case
        monkeypatch.setattr(data, "CHUNK_BYTES", 1 << 20)
        dictionary, _ = self.dictionary(monkeypatch, cube, proj, train)
        expected, _ = gathered_windows(proj, cube, train.coords, 5)
        assert len(dictionary.blocks) == len(expected)
        for block, brute in zip(dictionary.blocks, expected):
            np.testing.assert_array_equal(block, brute)

    def test_an_outside_centre_is_named_by_its_position(self, case, monkeypatch):
        cube, proj, train = case
        coords = train.coords.copy()
        coords[700] = (60, 0)
        train = SampleSet(features=train.features, labels=train.labels, coords=coords)
        with pytest.raises(OutOfBoundsError, match=r"^center \(60, 0\) outside") as info:
            self.dictionary(monkeypatch, cube, proj, train)
        assert info.value.index == 700
