import hashlib
import re

import numpy as np
import pytest

from oracles import (
    envi_load_reference,
    envi_payload_reference,
    neighborhood_bruteforce,
    split_train_test_reference,
    traced_peak,
)
from specangle import data
from specangle.data import (
    CHUNK_BYTES,
    GroundTruth,
    HyperCube,
    class_signatures,
    l2_normalize_pixels,
    load_cube,
    load_ground_truth,
    pixels_to_sample_set,
    save_cube,
    save_ground_truth,
    split_train_test,
    synth_scene,
)
from specangle.errors import (
    BadRasterError,
    BadSpecError,
    EvenWindowError,
    InsufficientSamplesError,
    InvalidConfigError,
    MalformedHeaderError,
    NonFiniteError,
    OutOfBoundsError,
    SizeMismatchError,
    UnsupportedDataTypeError,
)


def write_envi(tmp_path, name, payload, header_lines):
    path = tmp_path / name
    path.write_bytes(payload)
    (tmp_path / (name + ".hdr")).write_text("\n".join(header_lines) + "\n")
    return path


def scene_digest(cube, gt):
    h = hashlib.sha256(cube.values.tobytes())
    h.update(gt.labels.tobytes())
    return h.hexdigest()


class TestCsvCube:
    def test_single_spectrum(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0.1,0.2,0.3\n")
        cube = load_cube(path, "csv_bands")
        assert (cube.rows, cube.cols, cube.bands) == (1, 1, 3)
        np.testing.assert_allclose(cube.values[0, 0], [0.1, 0.2, 0.3])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        cube = HyperCube(values=rng.standard_normal((3, 4, 5)))
        path = tmp_path / "cube.csv"
        save_cube(path, cube, "csv_bands")
        again = load_cube(path, "csv_bands")
        np.testing.assert_array_equal(again.values, cube.values)
        save_cube(tmp_path / "cube2.csv", again, "csv_bands")
        assert (tmp_path / "cube2.csv").read_bytes() == path.read_bytes()

    def test_bad_shape_comment(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# 2,2\n1.0\n")
        with pytest.raises(MalformedHeaderError):
            load_cube(path, "csv_bands")

    def test_payload_shape_mismatch(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("# 2,2,1\n1.0\n2.0\n3.0\n")
        with pytest.raises(SizeMismatchError):
            load_cube(path, "csv_bands")


class TestEnviCube:
    def test_bsq_layout(self, tmp_path):
        # single band, 2x2 raster, bytes 1..4 laid out band-sequential
        path = write_envi(
            tmp_path, "t.bsq", bytes([1, 2, 3, 4]),
            ["ENVI", "samples = 2", "lines = 2", "bands = 1",
             "data type = 1", "interleave = bsq", "byte order = 0"],
        )
        cube = load_cube(path, "envi_bsq")
        np.testing.assert_array_equal(cube.values[:, :, 0], [[1, 2], [3, 4]])

    def test_bil_short_payload(self, tmp_path):
        path = write_envi(
            tmp_path, "t.bil", bytes([1, 2, 3]),
            ["ENVI", "samples = 2", "lines = 2", "bands = 1",
             "data type = 1", "interleave = bil", "byte order = 0"],
        )
        with pytest.raises(SizeMismatchError):
            load_cube(path, "envi_bil")

    def test_interleave_equivalence(self, tmp_path):
        rng = np.random.default_rng(1)
        vals = rng.integers(0, 255, size=(3, 4, 2)).astype(float)
        cube = HyperCube(values=vals)
        p_bsq = tmp_path / "c.bsq"
        p_bil = tmp_path / "c.bil"
        save_cube(p_bsq, cube, "envi_bsq", dtype="u1")
        save_cube(p_bil, cube, "envi_bil", dtype="u1")
        np.testing.assert_array_equal(load_cube(p_bsq, "envi_bsq").values, vals)
        np.testing.assert_array_equal(load_cube(p_bil, "envi_bil").values, vals)

    def test_bip_read(self, tmp_path):
        vals = np.arange(8, dtype=float).reshape(2, 2, 2)
        payload = vals.astype("<f8").tobytes()  # bip is exactly (row, col, band)
        path = write_envi(
            tmp_path, "t.bip", payload,
            ["ENVI", "samples = 2", "lines = 2", "bands = 2",
             "data type = 5", "interleave = bip", "byte order = 0"],
        )
        np.testing.assert_array_equal(load_cube(path, "envi_bsq").values, vals)

    @pytest.mark.parametrize("dtype", ["u1", "u2", "f4", "f8"])
    @pytest.mark.parametrize("byte_order", [0, 1])
    def test_round_trip_all_dtypes(self, tmp_path, dtype, byte_order):
        rng = np.random.default_rng(2)
        vals = rng.integers(0, 200, size=(2, 3, 4)).astype(float)
        cube = HyperCube(values=vals)
        path = tmp_path / "c.bsq"
        save_cube(path, cube, "envi_bsq", dtype=dtype, byte_order=byte_order)
        np.testing.assert_array_equal(load_cube(path, "envi_bsq").values, vals)

    def test_float_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        cube = HyperCube(values=rng.standard_normal((2, 2, 3)))
        path = tmp_path / "c.bil"
        save_cube(path, cube, "envi_bil")
        again = load_cube(path, "envi_bil")
        np.testing.assert_array_equal(again.values, cube.values)

    def test_missing_header_field(self, tmp_path):
        path = write_envi(
            tmp_path, "t.bsq", bytes([1]),
            ["ENVI", "samples = 1", "lines = 1",
             "data type = 1", "interleave = bsq"],
        )
        with pytest.raises(MalformedHeaderError):
            load_cube(path, "envi_bsq")

    def test_unsupported_data_type(self, tmp_path):
        path = write_envi(
            tmp_path, "t.bsq", bytes([1, 0, 0, 0]),
            ["ENVI", "samples = 1", "lines = 1", "bands = 1",
             "data type = 3", "interleave = bsq"],
        )
        with pytest.raises(UnsupportedDataTypeError):
            load_cube(path, "envi_bsq")

    def test_unknown_field_warns(self, tmp_path):
        path = write_envi(
            tmp_path, "t.bsq", bytes([7]),
            ["ENVI", "samples = 1", "lines = 1", "bands = 1",
             "data type = 1", "interleave = bsq", "sensor type = X"],
        )
        with pytest.warns(UserWarning, match="sensor type"):
            cube = load_cube(path, "envi_bsq")
        assert cube.values[0, 0, 0] == 7.0


class TestChunkedEnvi:
    """Reads and writes go a block at a time; bytes, values and memory layout
    equal the one-shot references in the oracles."""

    SHAPE = (23, 17, 6)

    @pytest.fixture(params=[1000, 8000, CHUNK_BYTES], ids=["lines", "slabs", "one-chunk"])
    def chunk_bytes(self, request, monkeypatch):
        # 1000 bytes write each bsq band plane 7 lines at a time and bil a
        # row at a time; 8000 write 2 bsq planes or 9 bil rows at a time;
        # reads of any type but native float64 take 125 or 1000 values,
        # ending inside rows and bands.
        monkeypatch.setattr(data, "CHUNK_BYTES", request.param)
        return request.param

    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    @pytest.mark.parametrize("dtype", ["u1", "u2", "f4", "f8"])
    @pytest.mark.parametrize("byte_order", [0, 1])
    def test_bytes_and_values_match_references(self, tmp_path, chunk_bytes, interleave, dtype,
                                               byte_order):
        vals = np.random.default_rng(4).uniform(0.0, 250.0, size=self.SHAPE)
        path = tmp_path / f"c.{interleave}"
        save_cube(path, HyperCube(values=vals), f"envi_{interleave}", dtype=dtype,
                  byte_order=byte_order)
        np_dtype = ("<" if byte_order == 0 else ">") + dtype
        payload = path.read_bytes()
        assert payload == envi_payload_reference(vals, interleave, np_dtype)
        loaded = load_cube(path, f"envi_{interleave}").values
        expected = envi_load_reference(payload, self.SHAPE, interleave, np_dtype)
        np.testing.assert_array_equal(loaded, expected)
        assert loaded.strides == expected.strides

    def test_bip_matches_reference(self, tmp_path, chunk_bytes):
        rows, cols, bands = self.SHAPE
        payload = np.random.default_rng(5).standard_normal(self.SHAPE).astype(">f4").tobytes()
        path = write_envi(
            tmp_path, "t.bip", payload,
            ["ENVI", f"samples = {cols}", f"lines = {rows}", f"bands = {bands}",
             "data type = 4", "interleave = bip", "byte order = 1"],
        )
        loaded = load_cube(path, "envi_bsq").values
        expected = envi_load_reference(payload, self.SHAPE, "bip", ">f4")
        np.testing.assert_array_equal(loaded, expected)
        assert loaded.strides == expected.strides

    def test_oversized_payload(self, tmp_path):
        path = write_envi(
            tmp_path, "t.bsq", bytes([1, 2, 3, 4, 5]),
            ["ENVI", "samples = 2", "lines = 2", "bands = 1",
             "data type = 1", "interleave = bsq"],
        )
        with pytest.raises(SizeMismatchError, match="5 bytes, header implies 4"):
            load_cube(path, "envi_bsq")

    @pytest.mark.parametrize("row", [0, 22])
    def test_non_finite_in_any_block(self, chunk_bytes, row):
        vals = np.ones(self.SHAPE)
        vals[row, 16, 5] = np.nan
        with pytest.raises(NonFiniteError):
            HyperCube(values=vals)


class TestCubeMemory:
    """One cube plus about one CHUNK_BYTES block, on a 214x200x103 cube
    (33.6 MB, 9 blocks of rows)."""

    SHAPE = (214, 200, 103)
    BOUND = 2 * CHUNK_BYTES

    def test_synth(self):
        (cube, _), peak = traced_peak(synth_scene, *self.SHAPE, 9, seed=3)
        assert peak <= cube.values.nbytes + self.BOUND

    @pytest.fixture(scope="class")
    def scene(self):
        cube, _ = synth_scene(*self.SHAPE, 9, seed=3)
        # Nonnegative and in range for every writable dtype.
        return HyperCube(values=np.abs(cube.values) * 100.0)

    @pytest.mark.parametrize("fmt", ["envi_bsq", "envi_bil"])
    def test_save(self, tmp_path, scene, fmt):
        _, peak = traced_peak(save_cube, tmp_path / "c", scene, fmt)
        assert peak <= self.BOUND

    @pytest.mark.parametrize("interleave", ["bsq", "bil"])
    def test_save_slabs_over_the_budget(self, tmp_path, monkeypatch, interleave):
        """At a 64 KiB budget each bsq band plane (48 x 1024 values) and
        each bil row (10 x 1024) is over it, so each is written a block of
        its lines at a time, and only one block is held."""
        monkeypatch.setattr(data, "CHUNK_BYTES", 1 << 16)
        vals = np.random.default_rng(6).uniform(0.0, 250.0, size=(48, 1024, 10))
        path = tmp_path / f"c.{interleave}"
        _, peak = traced_peak(save_cube, path, HyperCube(values=vals), f"envi_{interleave}")
        assert peak <= 1.25 * data.CHUNK_BYTES
        assert path.read_bytes() == envi_payload_reference(vals, interleave, "<f8")

    @pytest.mark.parametrize("dtype", ["f8", "u2"])
    def test_load(self, tmp_path, scene, dtype):
        path = tmp_path / "c.bsq"
        save_cube(path, scene, "envi_bsq", dtype=dtype)
        cube, peak = traced_peak(load_cube, path, "envi_bsq")
        assert peak <= cube.values.nbytes + self.BOUND


class TestGroundTruthIO:
    def test_csv_round_trip(self, tmp_path):
        gt = GroundTruth(labels=np.array([[0, 1], [2, 1]]))
        path = tmp_path / "gt.csv"
        save_ground_truth(path, gt)
        again = load_ground_truth(path, "csv")
        np.testing.assert_array_equal(again.labels, gt.labels)

    def test_envi_raster(self, tmp_path):
        path = write_envi(
            tmp_path, "gt.bsq", bytes([0, 1, 2, 2]),
            ["ENVI", "samples = 2", "lines = 2", "bands = 1",
             "data type = 1", "interleave = bsq"],
        )
        gt = load_ground_truth(path, "envi")
        np.testing.assert_array_equal(gt.labels, [[0, 1], [2, 2]])

    def test_envi_float_labels_must_be_integers(self, tmp_path):
        header = ["ENVI", "samples = 2", "lines = 2", "bands = 1",
                  "data type = 4", "interleave = bsq"]
        labels = np.array([[0.0, 2.0], [2.7, 1.2]], dtype="<f4")
        path = write_envi(tmp_path, "gt.bsq", labels.tobytes(), header)
        with pytest.raises(BadRasterError, match=r"pixel \(1, 0\) is not an integer"):
            load_ground_truth(path, "envi")
        labels[1] = 1.0
        path = write_envi(tmp_path, "gt.bsq", labels.tobytes(), header)
        np.testing.assert_array_equal(load_ground_truth(path, "envi").labels, [[0, 2], [1, 1]])

    @pytest.mark.parametrize("value", [1.5, np.nan])
    def test_a_label_that_is_no_integer_names_its_pixel(self, value):
        message = rf"^ground-truth label {value} at pixel \(1, 0\) is not an integer$"
        with pytest.raises(BadRasterError, match=message):
            GroundTruth(labels=[[0.0, 2.0], [value, 1.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [1e30, 2.0**63, -np.inf])
    def test_a_label_beyond_int64_names_its_pixel(self, value):
        # Cast to int64, these would warn "invalid value encountered in cast".
        message = f"ground-truth label {value} at pixel (1, 0) is outside the int64 range"
        with pytest.raises(BadRasterError, match=f"^{re.escape(message)}$"):
            GroundTruth(labels=[[0.0, 2.0], [value, 1.0]])

    def test_contiguity_enforced(self):
        with pytest.raises(ValueError, match="contiguous"):
            GroundTruth(labels=np.array([[0, 1], [3, 1]]))

    def test_a_huge_label_is_rejected_in_small_memory(self):
        # The missing ids come from the gaps between the present ones: the
        # message names the first few and their count, and no set of all
        # 10**6 ids is built (that took 94.5 MiB).
        def rejection(labels):
            with pytest.raises(BadRasterError) as info:
                GroundTruth(labels=labels)
            return str(info.value)

        message, peak = traced_peak(rejection, np.array([[0, 1], [2, 10**6]]))
        assert message.endswith("1..1000000; missing 999997 ids, first [3, 4, 5, 6, 7]")
        assert peak < 1 << 20


class TestNeighborhoods:
    """The window layout of ``data._window_pixels``, the one source of window
    members: flat indices, the centre first, then row-major, then -1s."""

    @pytest.fixture
    def cube(self):
        # Every spectrum is distinct, so a gathered row names its pixel.
        vals = np.arange(5 * 4 * 2, dtype=float).reshape(5, 4, 2)
        return HyperCube(values=vals)

    @staticmethod
    def spectra(cube, pixels):
        """The spectra of the in-image members of one window, as rows."""
        return cube.values.reshape(-1, cube.bands)[pixels[pixels >= 0]]

    def window(self, cube, center, window):
        return self.spectra(cube, data._window_pixels(cube, [center], window)[0])

    def test_window_one(self, cube):
        np.testing.assert_array_equal(self.window(cube, (2, 2), 1), cube.values[[2], [2]])

    def test_interior_full_box(self, cube):
        assert len(self.window(cube, (2, 2), 3)) == 9

    def test_corner_truncated(self, cube):
        assert len(self.window(cube, (0, 0), 3)) == 4

    def test_center_first_then_row_major(self, cube):
        members = [(1, 1)] + [(i, j) for i in range(3) for j in range(3) if (i, j) != (1, 1)]
        np.testing.assert_array_equal(
            self.window(cube, (1, 1), 3), [cube.values[i, j] for i, j in members]
        )

    def test_member_count_matches_bruteforce(self, cube):
        centers = [(r, c) for r in range(cube.rows) for c in range(cube.cols)]
        for window in (1, 3, 5):
            counts = (data._window_pixels(cube, centers, window) >= 0).sum(axis=1)
            for (r, c), n in zip(centers, counts):
                count = sum(
                    1
                    for dr in range(-(window // 2), window // 2 + 1)
                    for dc in range(-(window // 2), window // 2 + 1)
                    if 0 <= r + dr < cube.rows and 0 <= c + dc < cube.cols
                )
                assert n == count

    def test_stacked_spectra_pad_each_neighborhood(self, cube):
        # In-image members first, then a -1 for each member outside.
        centers = [(r, c) for r in range(cube.rows) for c in range(cube.cols)]
        for window in (1, 3, 5):
            pixels = data._window_pixels(cube, centers, window)
            assert pixels.shape == (len(centers), window**2)
            for rc, row in zip(centers, pixels):
                block = neighborhood_bruteforce(cube.values, rc, window)
                n = block.shape[1]
                np.testing.assert_array_equal(self.spectra(cube, row[:n]), block.T)
                assert np.all(row[n:] == -1)

    def test_stacked_spectra_name_first_outside_center(self, cube):
        with pytest.raises(OutOfBoundsError, match=r"center \(5, 0\) outside") as info:
            data._window_pixels(cube, [(0, 0), (5, 0), (-1, 2)], 3)
        assert info.value.index == 1

    def test_errors(self, cube):
        with pytest.raises(EvenWindowError):
            data._window_pixels(cube, [(0, 0)], 2)
        with pytest.raises(OutOfBoundsError):
            data._window_pixels(cube, [(9, 0)], 3)


class TestSplits:
    def test_exact_capacity_uses_all(self):
        gt = GroundTruth(labels=np.repeat([1, 2], 10).reshape(2, 10))
        train, test = split_train_test(gt, 4, 6, seed=0)
        assert len(train) == 8 and len(test) == 12
        all_coords = {tuple(rc) for rc in np.vstack([train, test])}
        assert len(all_coords) == 20

    def test_determinism(self):
        gt = GroundTruth(labels=np.repeat([1, 2, 3], 40).reshape(6, 20))
        a = split_train_test(gt, 5, 10, seed=42)
        b = split_train_test(gt, 5, 10, seed=42)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        c = split_train_test(gt, 5, 10, seed=43)
        assert not np.array_equal(a[0], c[0])

    def test_counts(self):
        gt = GroundTruth(labels=np.repeat([1, 2, 3], 200).reshape(30, 20))
        train, test = split_train_test(gt, 10, 100, seed=1)
        assert len(train) == 30 and len(test) == 300

    def test_disjoint_and_per_class_exact(self):
        gt = GroundTruth(labels=np.repeat([1, 2, 3], 80).reshape(12, 20))
        train, test = split_train_test(gt, 7, 13, seed=5)
        train_set = {tuple(rc) for rc in train}
        test_set = {tuple(rc) for rc in test}
        assert not train_set & test_set
        for cls in (1, 2, 3):
            assert sum(gt.labels[r, c] == cls for r, c in train) == 7
            assert sum(gt.labels[r, c] == cls for r, c in test) == 13

    def test_negative_sizes_are_rejected(self):
        gt = GroundTruth(labels=np.repeat([1, 2], 10).reshape(2, 10))
        for n_train, n_test in [(-3, 2), (2, -1)]:
            with pytest.raises(InvalidConfigError, match="must be >= 0"):
                split_train_test(gt, n_train, n_test, seed=0)
        # Zero stays legal: classify fits with n_test = 0.
        train, test = split_train_test(gt, 0, 3, seed=0)
        assert train.shape == (0, 2) and test.shape == (6, 2)

    def test_seeds_are_philox_keys(self):
        gt = GroundTruth(labels=np.repeat([1, 2], 10).reshape(2, 10))
        for seed in (-1, 2**64):
            with pytest.raises(InvalidConfigError, match=r"seed must be in \[0, 2\*\*64\)"):
                split_train_test(gt, 2, 2, seed=seed)
        assert len(split_train_test(gt, 2, 2, seed=2**64 - 1)[0]) == 4

    def test_insufficient_names_class(self):
        gt = GroundTruth(labels=np.array([[1, 1, 1, 2], [1, 1, 2, 2]]))
        with pytest.raises(InsufficientSamplesError, match="class 2"):
            split_train_test(gt, 2, 2, seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_matches_per_class_scan(self, seed):
        # Unlabelled pixels, uneven classes and a non-square map.
        labels = np.random.default_rng(seed).integers(0, 5, size=(13, 29))
        gt = GroundTruth(labels=labels)
        got = split_train_test(gt, 3, 9, seed)
        want = split_train_test_reference(labels, 3, 9, seed)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)


class TestSynthScene:
    def test_noiseless_cosine_one(self):
        cube, gt = synth_scene(12, 12, 16, 3, noise_sd=0.0, patch_size=4, seed=3)
        sigs = class_signatures(16, 3)
        for r in range(cube.rows):
            for c in range(cube.cols):
                spec = cube.values[r, c]
                sig = sigs[gt.labels[r, c] - 1]
                cos = spec @ sig / (np.linalg.norm(spec) * np.linalg.norm(sig))
                assert cos == pytest.approx(1.0, abs=1e-12)

    def test_signatures_nearly_orthogonal(self):
        sigs = class_signatures(20, 2)
        cos = abs(sigs[0] @ sigs[1])
        assert cos <= 0.1

    @pytest.mark.parametrize("args, kwargs, digest", [
        # Nine blocks of noise rows.
        ((214, 200, 103, 9), {"seed": 3},
         "63c728c0db61b0ca4564ce3d21fe0fb48d3e2fed7e12aa043bb978e602a208b0"),
        ((30, 20, 10, 3), {"noise_sd": 0.0, "patch_size": 6, "seed": 1},
         "54d2253c2465aef9be8701e2a0a3b142165189a025dda54b0583de6fc3d04ff3"),
        ((7, 5, 4, 2), {"noise_sd": 0.05, "patch_size": 2, "seed": 9},
         "bfe478394dd47cc43e1b3d20634d07f3b55d355440cfff7bae425e22d49df24f"),
    ], ids=["multi-block", "noiseless", "tiny"])
    def test_pinned_digests(self, args, kwargs, digest):
        assert scene_digest(*synth_scene(*args, **kwargs)) == digest

    def test_deterministic(self):
        a, _ = synth_scene(10, 10, 8, 2, noise_sd=0.1, patch_size=5, seed=9)
        b, _ = synth_scene(10, 10, 8, 2, noise_sd=0.1, patch_size=5, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_all_classes_present(self):
        _, gt = synth_scene(24, 24, 20, 4, noise_sd=0.05, patch_size=6, seed=7)
        assert gt.n_classes == 4
        counts = np.bincount(gt.labels.ravel(), minlength=5)[1:]
        assert np.all(counts >= 60)

    def test_truncated_boundary_patches(self):
        # 10 is not divisible by 4; edge patches are cut but still single-class
        cube, gt = synth_scene(10, 10, 8, 2, noise_sd=0.0, patch_size=4, seed=6)
        assert cube.rows == 10 and gt.labels.shape == (10, 10)
        for pr in range(3):
            for pc in range(3):
                patch = gt.labels[4 * pr : 4 * (pr + 1), 4 * pc : 4 * (pc + 1)]
                assert len(np.unique(patch)) == 1
                assert patch[0, 0] == (pr + pc) % 2 + 1

    def test_bad_specs(self):
        with pytest.raises(BadSpecError):
            synth_scene(8, 8, 8, 1, patch_size=2)
        with pytest.raises(BadSpecError):
            synth_scene(8, 8, 3, 4, patch_size=2)
        with pytest.raises(BadSpecError):
            synth_scene(8, 8, 8, 2, noise_sd=-0.1, patch_size=2)
        with pytest.raises(BadSpecError):
            synth_scene(2, 2, 8, 4, patch_size=2)


class TestSampleSets:
    def test_pixels_to_sample_set(self):
        cube, gt = synth_scene(8, 8, 6, 2, noise_sd=0.0, patch_size=4, seed=1)
        coords = [(0, 0), (4, 4), (7, 7)]
        ss = pixels_to_sample_set(cube, coords, gt)
        assert ss.features.shape == (6, 3)
        np.testing.assert_array_equal(
            ss.labels, [gt.labels[r, c] for r, c in coords]
        )
        np.testing.assert_array_equal(ss.features[:, 1], cube.values[4, 4])

    @pytest.mark.parametrize("outside", [(-1, 0), (8, 0), (0, -1), (0, 8)])
    def test_pixels_outside_the_image_raise(self, outside):
        cube, gt = synth_scene(8, 8, 6, 2, noise_sd=0.0, patch_size=4, seed=1)
        message = rf"pixel \({outside[0]}, {outside[1]}\) outside 8x8 image"
        with pytest.raises(OutOfBoundsError, match=message) as info:
            pixels_to_sample_set(cube, [(0, 0), outside, (9, 9)], gt)
        assert info.value.index == 1

    def test_l2_normalize(self):
        cube, _ = synth_scene(6, 6, 5, 2, noise_sd=0.1, patch_size=3, seed=2)
        unit = l2_normalize_pixels(cube)
        norms = np.linalg.norm(unit.values, axis=2)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
