"""Hyperspectral cubes, ground truth, sample sets, window neighborhoods,
splits, and synthetic scenes.

File formats
------------
ENVI rasters (``envi_bsq``, ``envi_bil``): payload file plus a ``<path>.hdr``
text header. Supported header fields are samples, lines, bands, interleave
(bsq/bil/bip), data type (1=uint8, 12=uint16, 4=float32, 5=float64) and byte
order (0=little-endian, default; 1=big-endian). Unknown fields are ignored
with a warning. BIP is read but never written.

``csv_bands``: comma-separated text, one band vector per line, pixels in
row-major order. The first line may be a shape comment ``# rows,cols,bands``;
without it the file is read as a single-column image. Floats are written with
17 significant digits so that float64 values round-trip exactly.

Ground truth: a CSV grid of integer class ids (0 = unlabeled) or a
single-band 8/16-bit ENVI raster.

Memory
------
``synth_scene`` and the ENVI paths of ``load_cube`` and ``save_cube`` hold
one cube plus at most about one ``CHUNK_BYTES`` block: noise is drawn a block
of rows at a time, a payload is read straight into the cube (converted a
block of values at a time unless it is native float64), and one is written a
block at a time in file order: whole bsq band planes or bil image rows, or,
for a plane or row over the budget, a block of its lines. ``HyperCube``
checks finiteness a block of rows at a time. The csv formats hold the whole
text of the file.
"""

import functools
import itertools
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
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

__all__ = [
    "CHUNK_BYTES",
    "chunk_pixels",
    "HyperCube",
    "GroundTruth",
    "SampleSet",
    "load_cube",
    "save_cube",
    "load_ground_truth",
    "save_ground_truth",
    "pixels_to_sample_set",
    "l2_normalize_pixels",
    "split_train_test",
    "synth_scene",
]

CUBE_FORMATS = ("envi_bsq", "envi_bil", "csv_bands")

# Byte budget for the largest array of one chunk of pixels: a block of graph
# weights, gathered window spectra or pursuit scores.
CHUNK_BYTES = 4 << 20

# ENVI data type code <-> numpy dtype, little-endian baseline.
_ENVI_DTYPES = {1: "u1", 12: "u2", 4: "f4", 5: "f8"}
_ENVI_CODES = {np.dtype(v).str[1:]: k for k, v in _ENVI_DTYPES.items()}


@dataclass(frozen=True)
class HyperCube:
    """Reflectance raster indexed (row, col, band)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3 or min(v.shape) < 1:
            raise BadRasterError(f"cube must be (rows, cols, bands), got {v.shape}")
        if not all(np.isfinite(v[block]).all() for block in _row_blocks(v.shape)):
            raise NonFiniteError("cube contains NaN or Inf")
        object.__setattr__(self, "values", v)

    @property
    def rows(self):
        return self.values.shape[0]

    @property
    def cols(self):
        return self.values.shape[1]

    @property
    def bands(self):
        return self.values.shape[2]


@dataclass(frozen=True)
class GroundTruth:
    """Per-pixel class ids, 0 meaning unlabeled. Ids are contiguous 1..c.
    A float label that is no integer (NaN included) or lies outside the int64
    range (Inf included) raises BadRasterError naming its pixel."""

    labels: np.ndarray

    def __post_init__(self):
        lab = np.asarray(self.labels)
        if lab.ndim != 2:
            raise BadRasterError(f"labels must be 2-D, got shape {lab.shape}")
        if not np.issubdtype(lab.dtype, np.integer):
            # Checked before the cast, which would only warn: NaN fails `whole`, Inf the range.
            whole = lab == np.round(lab)
            bad = np.argwhere(~(whole & (np.abs(lab) < 2.0**63)))
            if len(bad):
                r, c = bad[0]
                what = "is outside the int64 range" if whole[r, c] else "is not an integer"
                raise BadRasterError(f"ground-truth label {lab[r, c]} at pixel ({r}, {c}) {what}")
            lab = lab.astype(np.int64)
        if lab.min(initial=0) < 0:
            raise BadRasterError("labels must be nonnegative")
        c = int(lab.max(initial=0))
        present = np.unique(lab[lab > 0])
        if len(present) != c:
            # The missing ids are the gaps between consecutive present ids
            # (and 0): name the first few, never all of them.
            ids = present.tolist()
            gaps = (range(a + 1, b) for a, b in zip([0, *ids], ids))
            shown = list(itertools.islice(itertools.chain.from_iterable(gaps), 5))
            count = c - len(ids)
            missing = shown if count == len(shown) else f"{count} ids, first {shown}"
            raise BadRasterError(f"class ids must be contiguous 1..{c}; missing {missing}")
        object.__setattr__(self, "labels", lab)

    @property
    def n_classes(self):
        return int(self.labels.max(initial=0))


@dataclass(frozen=True)
class SampleSet:
    """Spectra as matrix columns, with optional labels and pixel coordinates."""

    features: np.ndarray
    labels: Optional[np.ndarray] = None
    coords: Optional[np.ndarray] = None

    def __post_init__(self):
        F = np.asarray(self.features, dtype=float)
        if F.ndim != 2:
            raise ValueError(f"features must be (d, n), got shape {F.shape}")
        if not np.all(np.isfinite(F)):
            raise NonFiniteError("features contain NaN or Inf")
        object.__setattr__(self, "features", F)
        n = F.shape[1]
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=np.int64)
            if lab.shape != (n,):
                raise ValueError(f"labels must have shape ({n},), got {lab.shape}")
            object.__setattr__(self, "labels", lab)
        if self.coords is not None:
            xy = np.asarray(self.coords, dtype=np.int64)
            if xy.shape != (n, 2):
                raise ValueError(f"coords must have shape ({n}, 2), got {xy.shape}")
            object.__setattr__(self, "coords", xy)

    @property
    def dim(self):
        return self.features.shape[0]

    @property
    def n_samples(self):
        return self.features.shape[1]


# ---------------------------------------------------------------------------
# ENVI raster reading/writing


def _parse_envi_header(path):
    text = Path(path).read_text(encoding="utf-8", errors="ignore")
    fields = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.upper() == "ENVI" or "=" not in line:
            continue
        key, _, value = line.partition("=")
        key = " ".join(key.lower().split())
        fields[key] = value.strip()
    known = {"samples", "lines", "bands", "interleave", "data type", "byte order"}
    for key in sorted(set(fields) - known):
        warnings.warn(f"ignoring unsupported ENVI header field '{key}'", stacklevel=3)
    required = ("samples", "lines", "bands", "interleave", "data type")
    missing = [k for k in required if k not in fields]
    if missing:
        raise MalformedHeaderError(f"ENVI header missing fields: {missing}")
    try:
        samples = int(fields["samples"])
        lines = int(fields["lines"])
        bands = int(fields["bands"])
        dtype_code = int(fields["data type"])
        byte_order = int(fields.get("byte order", "0"))
    except ValueError as exc:
        raise MalformedHeaderError(f"unparsable ENVI header value: {exc}") from exc
    if min(samples, lines, bands) < 1:
        raise MalformedHeaderError(
            f"samples, lines and bands must be positive, got {samples}, {lines}, {bands}"
        )
    interleave = fields["interleave"].lower()
    if interleave not in ("bsq", "bil", "bip"):
        raise MalformedHeaderError(f"unknown interleave '{interleave}'")
    if dtype_code not in _ENVI_DTYPES:
        raise UnsupportedDataTypeError(f"ENVI data type {dtype_code} not supported")
    if byte_order not in (0, 1):
        raise MalformedHeaderError(f"byte order must be 0 or 1, got {byte_order}")
    return lines, samples, bands, interleave, dtype_code, byte_order


def _find_header(path):
    path = Path(path)
    for cand in (path.with_name(path.name + ".hdr"), path.with_suffix(".hdr")):
        if cand.exists():
            return cand
    raise MalformedHeaderError(f"no ENVI header found for {path}")


def _load_envi(path):
    path = Path(path)
    rows, cols, bands, interleave, code, byte_order = _parse_envi_header(
        _find_header(path)
    )
    dtype = np.dtype(("<" if byte_order == 0 else ">") + _ENVI_DTYPES[code])
    size = path.stat().st_size
    expected = rows * cols * bands * dtype.itemsize
    if size != expected:
        raise SizeMismatchError(f"payload is {size} bytes, header implies {expected}")
    # Filled in file order, so the cube keeps the file's memory layout:
    # native float64 directly, any other type converted a block at a time.
    flat = np.empty(rows * cols * bands)
    with path.open("rb") as f:
        if dtype == flat.dtype:
            f.readinto(flat)
        else:
            step = CHUNK_BYTES // flat.itemsize
            for lo in range(0, flat.size, step):
                flat[lo : lo + step] = np.fromfile(f, dtype=dtype, count=min(step, flat.size - lo))
    if interleave == "bsq":
        arr = flat.reshape(bands, rows, cols).transpose(1, 2, 0)
    elif interleave == "bil":
        arr = flat.reshape(rows, bands, cols).transpose(0, 2, 1)
    else:  # bip
        arr = flat.reshape(rows, cols, bands)
    return HyperCube(values=arr)


def _save_envi(path, values, interleave, dtype, byte_order):
    path = Path(path)
    key = np.dtype(dtype).str[1:]
    if key not in _ENVI_CODES:
        raise UnsupportedDataTypeError(
            f"dtype '{dtype}' not writable; use one of {sorted(_ENVI_CODES)}"
        )
    code = _ENVI_CODES[key]
    np_dtype = np.dtype(("<" if byte_order == 0 else ">") + _ENVI_DTYPES[code])
    if np_dtype.kind == "u":
        # Checked before the payload file is opened, so none is left behind.
        top = np.iinfo(np_dtype).max
        for block in _row_blocks(values.shape):
            outside = np.argwhere((values[block] < 0) | (values[block] > top))
            if len(outside):
                r, c, b = outside[0] + (block.start, 0, 0)
                raise BadRasterError(f"value {values[r, c, b]} at pixel ({r}, {c}) band {b} "
                                     f"is outside [0, {top}]")
    rows, cols, bands = values.shape
    # The payload in file order, (bands, rows, cols) or (rows, bands, cols),
    # written in blocks of whole slabs of its first axis (a bsq band plane or
    # a bil row) when a slab fits the budget, else a slab's lines at a time.
    payload = values.transpose((2, 0, 1) if interleave == "bsq" else (0, 2, 1))
    slabs, lines = payload.shape[:2]
    per_slab, per_line = chunk_pixels(lines * cols), lines
    if lines * cols > chunk_pixels(1):
        per_slab, per_line = 1, chunk_pixels(cols)
    with path.open("wb") as f:
        for i in range(0, slabs, per_slab):
            for j in range(0, lines, per_line):
                block = payload[i : i + per_slab, j : j + per_line]
                f.write(np.ascontiguousarray(block, dtype=np_dtype))
    header = (
        "ENVI\n"
        f"samples = {cols}\n"
        f"lines = {rows}\n"
        f"bands = {bands}\n"
        f"data type = {code}\n"
        f"interleave = {interleave}\n"
        f"byte order = {byte_order}\n"
    )
    path.with_name(path.name + ".hdr").write_text(header, encoding="utf-8")


# ---------------------------------------------------------------------------
# CSV cube reading/writing


def _load_csv_cube(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    shape = None
    if lines and lines[0].lstrip().startswith("#"):
        head = lines.pop(0).lstrip("# \t")
        try:
            rows, cols, bands = (int(tok) for tok in head.split(","))
            shape = (rows, cols, bands)
        except ValueError as exc:
            raise MalformedHeaderError(f"bad shape comment '{head}'") from exc
    data_lines = [ln for ln in lines if ln.strip()]
    if not data_lines:
        raise SizeMismatchError("csv cube has no data lines")
    try:
        rows_of_floats = [
            [float(tok) for tok in ln.split(",")] for ln in data_lines
        ]
    except ValueError as exc:
        raise MalformedHeaderError(f"unparsable csv value: {exc}") from exc
    widths = {len(r) for r in rows_of_floats}
    if len(widths) != 1:
        raise SizeMismatchError("csv lines have inconsistent band counts")
    arr = np.asarray(rows_of_floats, dtype=float)
    if shape is None:
        shape = (arr.shape[0], 1, arr.shape[1])
    rows, cols, bands = shape
    if arr.shape != (rows * cols, bands):
        raise SizeMismatchError(
            f"csv payload {arr.shape} does not match shape {shape}"
        )
    return HyperCube(values=arr.reshape(rows, cols, bands))


def _save_csv_cube(path, values):
    rows, cols, bands = values.shape
    flat = values.reshape(rows * cols, bands)
    out = [f"# {rows},{cols},{bands}"]
    out.extend(",".join(f"{v:.17g}" for v in px) for px in flat)
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def load_cube(path, fmt):
    """Load a hyperspectral cube in one of the supported formats.

    For the ENVI formats the header's interleave field is authoritative, so a
    BIP file is read correctly whichever ENVI format name was passed.
    """
    if fmt not in CUBE_FORMATS:
        raise ValueError(f"format must be one of {CUBE_FORMATS}, got '{fmt}'")
    if fmt == "csv_bands":
        return _load_csv_cube(path)
    return _load_envi(path)


def save_cube(path, cube, fmt, dtype="f8", byte_order=0):
    """Write a cube. ENVI writes honor dtype (u1/u2/f4/f8) and byte order.
    An integer type takes values in [0, 255] (u1) or [0, 65535] (u2),
    truncating fractions toward zero; the first value outside raises
    BadRasterError naming its pixel and band, and no file is written."""
    if fmt not in CUBE_FORMATS:
        raise ValueError(f"format must be one of {CUBE_FORMATS}, got '{fmt}'")
    if fmt == "csv_bands":
        _save_csv_cube(path, cube.values)
    else:
        _save_envi(path, cube.values, fmt[len("envi_"):], dtype, byte_order)


def load_ground_truth(path, fmt="csv"):
    """Load ground truth from a CSV grid or a single-band ENVI raster."""
    if fmt == "csv":
        lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines() if ln.strip()]
        try:
            grid = [[int(tok) for tok in ln.split(",")] for ln in lines]
        except ValueError as exc:
            raise MalformedHeaderError(f"unparsable ground-truth value: {exc}") from exc
        widths = {len(r) for r in grid}
        if len(widths) != 1:
            raise SizeMismatchError("ground-truth rows have inconsistent widths")
        return GroundTruth(labels=np.asarray(grid, dtype=np.int64))
    if fmt == "envi":
        cube = _load_envi(path)
        if cube.bands != 1:
            raise SizeMismatchError(f"ground-truth raster must be single-band, has {cube.bands}")
        return GroundTruth(labels=cube.values[:, :, 0])
    raise ValueError(f"ground-truth format must be 'csv' or 'envi', got '{fmt}'")


def save_ground_truth(path, gt):
    """Write ground truth as a CSV grid of class ids."""
    rows = [",".join(str(int(v)) for v in row) for row in gt.labels]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Neighborhoods and sample sets


def chunk_pixels(values_per_pixel):
    """Pixels per chunk when the largest array holds this many float64
    values per pixel."""
    return max(1, CHUNK_BYTES // (8 * values_per_pixel))


def _row_blocks(shape):
    """Slices of consecutive rows of a (rows, cols, bands) array, each about
    CHUNK_BYTES of float64 (one row at least)."""
    step = chunk_pixels(shape[1] * shape[2])
    return [slice(lo, lo + step) for lo in range(0, shape[0], step)]


@functools.lru_cache(maxsize=8)
def _window_offsets(window):
    """Read-only (window**2, 2) member offsets: the centre, then the rest of
    the box in row-major order."""
    steps = range(-(window // 2), window // 2 + 1)
    offsets = np.array([(0, 0)] + [(i, j) for i in steps for j in steps if i or j])
    offsets.flags.writeable = False
    return offsets


def _pixels_inside(cube, coords, what):
    """coords as a (P, 2) int64 array, each pixel checked to lie in the image.

    The first pixel outside raises OutOfBoundsError, which names it as
    ``what`` and sets ``index`` to its position.
    """
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
    outside = ((coords < 0) | (coords >= (cube.rows, cube.cols))).any(axis=1)
    if outside.any():
        i = int(outside.argmax())
        exc = OutOfBoundsError(
            f"{what} ({coords[i, 0]}, {coords[i, 1]}) outside {cube.rows}x{cube.cols} image"
        )
        exc.index = i
        raise exc
    return coords


def _window_centers(cube, centers, window):
    """centers as a (P, 2) int64 array, checked as window centres: a window
    that is no odd integer >= 1 (a bool is none) raises EvenWindowError, then
    an out-of-bounds centre OutOfBoundsError, ``index`` naming the first."""
    integer = isinstance(window, (int, np.integer)) and not isinstance(window, bool)
    if not integer or window < 1 or window % 2 == 0:
        raise EvenWindowError(f"window must be an odd integer >= 1, got {window!r}")
    return _pixels_inside(cube, centers, "center")


def _window_pixels(cube, centers, window):
    """Flat indices (row * cols + col) of the members of each window, (P, window**2).

    Row i lists the in-bounds pixels of the window x window box around
    centers[i], the centre first and then the rest in row-major order, then
    -1 once per member outside the image (a window truncated at an edge).
    window and centers are checked by ``_window_centers``.
    """
    centers = _window_centers(cube, centers, window)
    members = centers[:, None, :] + _window_offsets(window)
    inside = ((members >= 0) & (members < (cube.rows, cube.cols))).all(axis=2)
    pixels = np.where(inside, members[:, :, 0] * cube.cols + members[:, :, 1], -1)
    # Only a window cut by the image edge has members to move last. Stable,
    # so the in-bounds members keep their order.
    cut = np.flatnonzero(~inside.all(axis=1))
    order = np.argsort(~inside[cut], axis=1, kind="stable")
    pixels[cut] = np.take_along_axis(pixels[cut], order, axis=1)
    return pixels


def pixels_to_sample_set(cube, coords, gt=None):
    """Gather the spectra at coords into a SampleSet, with labels if gt given.

    A pixel outside the image raises OutOfBoundsError with ``index`` set to
    the first such pixel.
    """
    idx = _pixels_inside(cube, coords, "pixel")
    feats = cube.values[idx[:, 0], idx[:, 1]].T
    labels = gt.labels[idx[:, 0], idx[:, 1]] if gt is not None else None
    return SampleSet(features=feats, labels=labels, coords=idx)


def l2_normalize_pixels(cube):
    """Scale every pixel spectrum to unit l2 norm; zero spectra stay zero."""
    norms = np.linalg.norm(cube.values, axis=2, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return HyperCube(values=cube.values / safe)


# ---------------------------------------------------------------------------
# Splits and synthetic scenes


def _philox(seed):
    # Philox is a counter-based generator keyed by a uint64, with a fully
    # specified algorithm, so streams are identical across platforms.
    if not 0 <= seed < 2**64:
        raise InvalidConfigError(f"seed must be in [0, 2**64), got {seed}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def split_train_test(gt, n_train, n_test, seed):
    """Disjoint per-class random subsamples of the labeled pixels.

    For each class id in ascending order, labeled pixel coordinates are
    enumerated in row-major order and permuted with a Philox stream keyed by
    seed; the first n_train become training pixels and the next n_test test
    pixels. Returns (train_coords, test_coords) as (k, 2) int arrays. A
    negative size raises InvalidConfigError; 0 is an empty part.
    """
    if n_train < 0 or n_test < 0:
        raise InvalidConfigError(
            f"split sizes must be >= 0, got n_train={n_train}, n_test={n_test}"
        )
    if gt.n_classes == 0:
        raise InsufficientSamplesError("the ground truth has no labeled pixel")
    rng = _philox(seed)
    train, test = [], []
    flat = gt.labels.ravel()
    for cls in range(1, gt.n_classes + 1):
        pixels = np.flatnonzero(flat == cls)
        if len(pixels) < n_train + n_test:
            raise InsufficientSamplesError(
                f"class {cls} has {len(pixels)} labeled pixels, "
                f"needs {n_train + n_test}"
            )
        perm = rng.permutation(len(pixels))
        train.append(pixels[perm[:n_train]])
        test.append(pixels[perm[n_train:n_train + n_test]])
    cols = gt.labels.shape[1]
    return tuple(np.stack(np.divmod(np.concatenate(part), cols), axis=1) for part in (train, test))


def class_signatures(bands, classes):
    """Deterministic unit-norm class spectra: Gaussian bumps shifted along the
    band axis, centered at (l - 1/2) * bands/classes with width bands/(4c)."""
    b = np.arange(bands, dtype=float)
    width = bands / (4.0 * classes)
    sigs = np.empty((classes, bands))
    for l in range(1, classes + 1):
        center = (l - 0.5) * bands / classes
        g = np.exp(-((b - center) ** 2) / (2.0 * width**2))
        sigs[l - 1] = g / np.linalg.norm(g)
    return sigs


def synth_scene(rows, cols, bands, classes, noise_sd=0.05, patch_size=6, seed=0):
    """Deterministic synthetic scene of single-class square patches.

    The image is tiled into patch_size x patch_size patches (truncated at the
    edges); the patch at patch-grid position (pr, pc) gets class
    ((pr + pc) mod classes) + 1, so horizontally and vertically adjacent
    patches always differ. Each pixel is its class signature scaled by
    1 + jitter with jitter ~ U(-0.25, 0.25), plus iid N(0, noise_sd^2) noise
    per band. All randomness comes from one Philox stream keyed by seed
    (jitter drawn first, then noise), so scenes are bit-identical per seed.
    """
    if classes < 2:
        raise BadSpecError(f"need at least 2 classes, got {classes}")
    if bands < classes:
        raise BadSpecError(f"need bands >= classes, got {bands} < {classes}")
    if rows < 1 or cols < 1 or patch_size < 1:
        raise BadSpecError("rows, cols and patch_size must be positive")
    if noise_sd < 0:
        raise BadSpecError(f"noise_sd must be nonnegative, got {noise_sd}")

    pr = np.arange(rows) // patch_size
    pc = np.arange(cols) // patch_size
    labels = ((pr[:, None] + pc[None, :]) % classes + 1).astype(np.int64)
    present = np.unique(labels)
    if len(present) != classes:
        raise BadSpecError(
            f"scene too small to place all {classes} classes; got {len(present)}"
        )

    sigs = class_signatures(bands, classes)
    rng = _philox(seed)
    jitter = rng.uniform(-0.25, 0.25, size=(rows, cols))
    values = sigs[labels - 1]
    values *= (1.0 + jitter)[:, :, None]
    if noise_sd > 0:
        # Consecutive draws continue one stream, so row blocks of noise equal
        # one draw of the whole cube.
        for block in _row_blocks(values.shape):
            rows_of_values = values[block]
            rows_of_values += rng.normal(0.0, noise_sd, size=rows_of_values.shape)
    return HyperCube(values=values), GroundTruth(labels=labels)
