"""Block-structured greedy pursuit.

One engine covers the whole family: blocks of width 1 with a single test
column reduce to plain orthogonal matching pursuit, width-1 blocks with a
matrix right-hand side to the simultaneous variant, and wide blocks with a
single column to the block variant.

The engine pursues a whole stack of test blocks S (P, d, w), one pixel per
slice, against the fixed dictionary. Callers give the stack as its distinct
columns, the rows of Z (n, d), and each pixel's members, the rows its columns
read: overlapping windows share most of their members, and a member of -1 marks
a zero column. Each iteration scores every block for every pixel by one rule:
the l2,1 norm of the block's correlation with that pixel's residual, in one
summation order for every caller (each atom's correlations with the pixel's
columns squared and summed in column order, then the square roots summed over
the block's atoms). Pixels with the same support share the residual of every
member they share, so each distinct (support, member) residual is read from one
of its pixels and correlated once with the stacked dictionary, whole support
groups going into products of at most the distinct members, and one sparse
product sums each window's squares. Every pixel starts from the empty support,
so the first iteration correlates each distinct member once. A pixel's scores
therefore do not depend on which pixels share its members. The engine masks the
blocks a pixel has already selected, appends the best block to the pixel's
support (ties go to the lowest block index), refits the pixel's coefficients by
least squares over its whole support and updates the residual. Coefficients
live in a slot layout: support slot k holds as many rows as the widest block,
and the rows past a narrower block's width belong to a trailing zero atom of
the stacked dictionary, so every support of L blocks is L slots of the same
width. The refit of support I is the minimum-norm X = pinv(A_I) S, defined for
every support, however many of its atoms are collinear. pinv(A_I) depends on
the dictionary and the ordered support, not on the pixel. Pixels choose few
distinct supports, so each one is factored once per dictionary and kept in
its cache for every later pixel and chunk that selects it: the supports an
iteration misses, of any block widths, are factored with one stacked
pseudo-inverse in the slot layout. Each iteration then refits every pixel
with one stacked product. The cache is cleared before its pseudo-inverses
would pass ``data.CHUNK_BYTES``. Each pixel stops on its own: after K
iterations, or early when its residual is numerically zero or every remaining
score is zero. A pixel that has stopped keeps its support and coefficients.
Test blocks of different widths share a stack by zero-padding to the widest;
zero columns change neither the scores nor the residuals. Class residuals then
come from one segmented reduction over every pixel's selected blocks.

The arrays of one call that grow with the dictionary are the (U, atoms)
score products, U being the number of distinct members, and the (P, atoms)
score sums. A caller bounds those through U and P; ``predict`` from
``evaluate.fit_pipeline`` keeps (U + P) rows of max(atoms, bands) values
within ``data.CHUNK_BYTES``, over compact patches of pixels along the
Z-order curve, whose windows share most of their members. That rule does
not count the arrays of K * w * r values that each pixel also holds, w
being the columns of a window block and r the dimension: the gathered
pseudo-inverses and atoms of ``_pursue``, and the parts and reconstructions
of ``_class_residuals``, which drops its gathered blocks before the
reconstructions and squares their differences in place. So a chunk can pass
the budget: a warm ``predict`` on the ``map`` benchmark's scene
(96x96x103, slspp r = 30, window 3, K = 2) traces about 6.3 MiB against the
4 MiB budget, and on a 60x60x103 scene at r = 60, window 5, K = 2, where
each pixel holds 3,000 such values against about 2,150 atoms, about
10.5 MiB. ``sbomp`` and ``residual_by_class``, the one-pixel forms, run the
same engine on a stack of one.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import data
from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    SpecAngleError,
)
from .linalg import _pinv

__all__ = [
    "BlockDictionary",
    "SparseSolution",
    "sbomp",
    "residual_by_class",
    "class_residuals",
]

# Residual Frobenius norm below this fraction of ||S||_F counts as exact.
_EXACT_RTOL = 1e-10


@dataclass(frozen=True)
class BlockDictionary:
    """Training blocks A_i (each d x m_i) with one class id per block."""

    blocks: tuple
    classes: np.ndarray

    def __post_init__(self):
        blocks = tuple(np.asarray(b, dtype=float) for b in self.blocks)
        if not blocks:
            raise ValueError("dictionary needs at least one block")
        d = blocks[0].shape[0]
        for i, b in enumerate(blocks):
            if b.ndim != 2 or b.shape[1] < 1:
                raise ValueError(f"block {i} must be a d x m matrix with m >= 1")
            if b.shape[0] != d:
                raise DimensionMismatchError(
                    f"block {i} has {b.shape[0]} rows, expected {d}"
                )
            if not np.all(np.isfinite(b)):
                raise NonFiniteError(f"block {i} contains NaN or Inf")
        classes = np.asarray(self.classes, dtype=np.int64)
        if classes.shape != (len(blocks),):
            raise ValueError("need exactly one class id per block")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "classes", classes)
        widths = np.array([b.shape[1] for b in blocks])
        offsets = np.concatenate([[0], np.cumsum(widths)])
        object.__setattr__(self, "_widths", widths)
        object.__setattr__(self, "_offsets", offsets)
        # One trailing zero atom, read by every -1 of _slots.
        object.__setattr__(self, "_stacked", np.hstack(blocks + (np.zeros((d, 1)),)))
        # Row j: the atoms (columns of _stacked) of block j, padded with -1
        # to the widest block.
        cols = np.arange(widths.max())
        slots = np.where(cols < widths[:, None], offsets[:-1, None] + cols, -1)
        class_ids, class_pos = np.unique(classes, return_inverse=True)
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_class_ids", class_ids)
        object.__setattr__(self, "_class_pos", class_pos)
        # Ordered support tuple -> its pseudo-inverse in the slot layout,
        # filled by _refits.
        object.__setattr__(self, "_refits", {})

    @property
    def n_blocks(self):
        return len(self.blocks)

    @property
    def dim(self):
        return self.blocks[0].shape[0]

    @property
    def widths(self):
        return self._widths

    @property
    def n_atoms(self):
        """Total column count over all blocks."""
        return int(self._offsets[-1])

    @property
    def class_ids(self):
        """Distinct class ids in ascending order."""
        return self._class_ids


@dataclass(frozen=True)
class SparseSolution:
    """Support, coefficients and residual history of one pursuit run.

    ``support`` lists selected block indices in selection order;
    ``coefficients`` stacks one row group per selected block (in the same
    order) against the columns of the right-hand side. ``residual_norms``
    starts with the initial ||S||_F and appends the Frobenius norm after each
    iteration, so it is non-increasing.
    """

    support: Tuple[int, ...]
    coefficients: np.ndarray
    residual_norms: np.ndarray


def _block_scores(dictionary, Z, members):
    """Selection score of every block for every window, (P, n_blocks).

    Window i holds the columns Z[members[i]] of the (n, d) array Z, in that
    order, a member below 0 giving a zero column. Each row of Z is correlated
    once, however many windows share it. A block's score is the sum over its
    atoms of the l2 norm of the atom's correlations with the window's columns,
    squared and summed in column order by one CSR product of the (P, n + 1)
    incidence matrix, w entries a row, with the squares and a zero row that
    every member below 0 reads; the product adds each row's entries to zero
    in stored order, and a zero adds nothing. So a window's score does not
    depend on which windows share its rows, up to how the product rounds a
    row for another row count.
    """
    # Imported here, so that only block pursuit loads scipy.sparse (some
    # 17 MB resident); fits and nn-cos labelling run on numpy alone.
    from scipy import sparse

    P, w = members.shape
    n = len(Z)
    squares = np.empty((n + 1, dictionary._stacked.shape[1]))
    squares[n] = 0.0
    # A product or square that overflows gives a score that is not finite,
    # which ``_pursue`` reports as a NonFiniteError naming the window.
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(Z, dictionary._stacked, out=squares[:n])
        squares *= squares
    incidence = sparse.csr_array(
        (np.ones(P * w), np.where(members < 0, n, members).ravel(), np.arange(P + 1) * w),
        shape=(P, n + 1),
    )
    total = incidence @ squares
    return np.add.reduceat(np.sqrt(total, out=total), dictionary._offsets[:-1], axis=1)


def _residual_scores(dictionary, R, members, groups, rows):
    """``_block_scores`` of the residual windows R (P, d, w), (P, n_blocks).

    Column j of R[i] is the residual of member members[i, j] (-1 a zero
    column) under the support numbered groups[i]. Two windows with
    the same support share the residual of every member they share, so each
    distinct (support, member) column is correlated once; with every window
    in one group, each distinct member is. Each product takes whole support
    groups and no more than ``rows`` rows: a group holds no more distinct
    members than that.
    """
    inside = members >= 0
    base = members.max() + 1
    pairs, first, inverse = np.unique(
        (groups[:, None] * base + members)[inside], return_index=True, return_inverse=True
    )
    local = np.full(members.shape, -1)
    local[inside] = inverse
    pixel, column = np.nonzero(inside)
    columns = R[pixel[first], :, column[first]]
    # Pairs sort by support; the pairs of group g end at ends[g].
    ends = np.searchsorted(pairs // base, np.arange(groups.max() + 1), side="right")
    scores = np.empty((len(members), dictionary.n_blocks))
    g = lo = 0
    while g < len(ends):
        stop = int(np.searchsorted(ends, lo + rows, side="right"))
        hi = ends[stop - 1]
        batch = np.flatnonzero((groups >= g) & (groups < stop))
        # The batch's members lie in [lo, hi); each -1 stays below 0.
        scores[batch] = _block_scores(dictionary, columns[lo:hi], local[batch] - lo)
        g, lo = stop, hi
    return scores


def _refits(dictionary, supports):
    """Pseudo-inverse of each row of ``supports`` in the slot layout.

    For supports of L blocks the result is (len(supports), L * width, d),
    width being the widest block: row k * width + j holds the pseudo-inverse
    row of atom j of the block in support slot k, and the rows past that
    block's width are zero, so a test block S refits to pinv @ S in the
    coefficient layout of ``_pursue``. The entries depend on the dictionary
    and the ordered support only, so they are kept in the dictionary's cache,
    cleared when its bytes would pass ``data.CHUNK_BYTES``. The missing ones
    are factored by one stacked ``_pinv`` of their ``_slots`` atoms; a -1
    slot reads the zero atom, whose column counts in the max(d, L * width) *
    eps cutoff, and whose rows, rounding noise, are set to zero.
    """
    cache = dictionary._refits
    keys = [tuple(row) for row in supports.tolist()]
    refits = [cache.get(key) for key in keys]
    miss = np.array([i for i, pinv in enumerate(refits) if pinv is None], dtype=np.int64)
    if not miss.size:
        return np.stack(refits)
    atoms = dictionary._slots[supports[miss]].reshape(len(miss), -1)
    pinv = _pinv(dictionary._stacked[:, atoms].transpose(1, 0, 2))
    pinv[atoms < 0] = 0.0
    used = sum(entry.nbytes for entry in cache.values())
    size = pinv[0].nbytes
    for i, entry in zip(miss, pinv):
        refits[i] = entry
        if used + size > data.CHUNK_BYTES:
            cache.clear()
            used = 0
        if size <= data.CHUNK_BYTES:
            cache[keys[i]] = entry
            used += size
    return np.stack(refits)


def _pursue(dictionary, S, K, members):
    """Greedy block pursuit of every slice of S (P, d, w), sparsity K.

    Returns ``support`` (P, K), block indices in selection order padded with
    -1; ``coefficients`` (P, K * width, w) by slot, where width is the widest
    block and the rows of support slot k start at k * width (zero rows past
    the block's own width); and ``norms`` (P, K + 1), the residual history,
    NaN after each pixel's last iteration. ``members`` (P, w) holds the key
    of each column of S: columns with the same key are equal, keys lie in 0
    to U - 1, and -1 marks a zero column. Every iteration scores with
    ``_residual_scores``, each pixel grouped by its support and every pixel
    starting in the group of the empty support, with the row bound of the
    first iteration: the U members. Each iteration refits every active pixel
    with one stacked product by the pseudo-inverse of its support from
    ``_refits``, which factors the supports not seen yet.
    """
    P, d, w = S.shape
    slots = dictionary._slots
    support = np.full((P, K), -1, dtype=np.int64)
    # Per pixel, the rank of its support among the iteration's distinct ones;
    # every pixel starts with the empty one.
    ranks = np.zeros(P, dtype=np.int64)
    bound = members.max(initial=-1) + 1
    coefficients = np.zeros((P, K * slots.shape[1], w))
    norms = np.full((P, K + 1), np.nan)
    norms[:, 0] = np.linalg.norm(S, axis=(1, 2))
    # The pixels still pursued, and their residuals in that order.
    active, R = np.arange(P), S
    for t in range(K):
        if not active.size:
            break
        scores = _residual_scores(dictionary, R, members[active], ranks[active], bound)
        # Scores that overflow would tie every block, and the lowest would win.
        finite = np.isfinite(scores).all(axis=1)
        if not finite.all():
            exc = NonFiniteError("the scale of the spectra overflows block pursuit's scores")
            exc.index = int(active[np.argmin(finite)])
            raise exc
        rows = np.arange(len(active))
        scores[rows[:, None], support[active, :t]] = -np.inf
        best = np.argmax(scores, axis=1)
        go = scores[rows, best] > 0.0
        active = active[go]
        if not active.size:
            break
        support[active, t] = best[go]
        # The codes sort as the supports do, and stay below P * n_blocks.
        codes = ranks[active] * dictionary.n_blocks + best[go]
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        ranks[active] = inverse
        distinct = support[active[first], : t + 1]
        R = S[active]
        X = _refits(dictionary, distinct)[inverse] @ R
        coefficients[active, : X.shape[1]] = X
        atoms = slots[support[active, : t + 1]].reshape(len(active), -1)
        R -= dictionary._stacked[:, atoms].transpose(1, 0, 2) @ X
        norms[active, t + 1] = np.linalg.norm(R, axis=(1, 2))
        keep = norms[active, t + 1] > _EXACT_RTOL * norms[active, 0]
        active, R = active[keep], R[keep]
    return support, coefficients, norms


def _class_residuals(dictionary, S, support, coefficients):
    """Residual norm per class, (P, n_classes), from one solution per pixel.

    Each selected block's partial reconstruction is summed over the selected
    blocks of its own class (one segmented reduction); a class with no
    selected block keeps ||S_i||_F. The gathered blocks are dropped before the
    reconstructions, and the differences are squared in place and summed as
    ``np.linalg.norm`` sums them.
    """
    P, d, w = S.shape
    K = support.shape[1]
    used = support >= 0
    selected = np.where(used, support, 0)
    slots = dictionary._slots[selected]
    blocks = dictionary._stacked[:, slots].transpose(1, 2, 0, 3)
    parts = blocks @ coefficients.reshape(P, K, slots.shape[2], w)
    del blocks
    cls = dictionary._class_pos[selected]
    same = (cls[:, :, None] == cls[:, None, :]) & used[:, None, :]
    recon = np.einsum("pkl,pldw->pkdw", same.astype(float), parts)
    del parts
    diff = np.subtract(S[:, None], recon, out=recon)
    by_slot = np.sqrt(np.add.reduce(np.multiply(diff, diff, out=diff), axis=(2, 3)))
    out = np.repeat(np.linalg.norm(S, axis=(1, 2))[:, None], len(dictionary.class_ids), axis=1)
    p, k = np.nonzero(used)
    out[p, cls[p, k]] = by_slot[p, k]
    return out


def _gathered(dictionary, Z, K, members):
    """The checked stack (P, d, w) of the blocks Z[members[i]].T, a -1
    giving a zero column, and members as int64; see ``class_residuals``."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != dictionary.dim:
        raise DimensionMismatchError(f"Z must be (n, {dictionary.dim}), got shape {Z.shape}")
    if not 1 <= K <= dictionary.n_blocks:
        raise SpecAngleError(f"K must be in [1, {dictionary.n_blocks}], got {K}")
    members = np.asarray(members)
    if members.ndim != 2 or not np.issubdtype(members.dtype, np.integer):
        raise SpecAngleError(f"members must be a 2-D integer array, got shape {members.shape}")
    members = members.astype(np.int64, copy=False)
    outside = np.any((members < -1) | (members >= len(Z)), axis=1)
    if np.any(outside):
        exc = SpecAngleError(f"members must lie in [-1, {len(Z)})")
        exc.index = int(np.argmax(outside))
        raise exc
    # A trailing zero row, read by every -1 of members.
    Z = np.vstack([Z, np.zeros((1, Z.shape[1]))])
    finite = np.all(np.isfinite(Z), axis=1)[members].all(axis=1)
    if not np.all(finite):
        exc = NonFiniteError("S contains NaN or Inf")
        exc.index = int(np.argmin(finite))
        raise exc
    return np.ascontiguousarray(Z[members].transpose(0, 2, 1)), members


def _one_block(S):
    S = np.asarray(S, dtype=float)
    return S.reshape(S.shape[0], -1)


def _slot_rows(dictionary, support):
    """Rows of the slot layout that hold the coefficients of ``support``."""
    return np.flatnonzero(dictionary._slots[support].ravel() >= 0)


def sbomp(dictionary, S, K):
    """Greedy block pursuit of S over the dictionary, sparsity level K.

    Parameters
    ----------
    dictionary : BlockDictionary
    S : (d, w) array_like
        Right-hand side; a single column is also accepted as a 1-D vector.
    K : int
        Maximum number of blocks to select, 1 <= K <= number of blocks.

    Returns
    -------
    SparseSolution
    """
    Z = _one_block(S).T
    S, members = _gathered(dictionary, Z, K, np.arange(len(Z))[None])
    support, coefficients, norms = _pursue(dictionary, S, K, members)
    chosen = support[0][support[0] >= 0]
    return SparseSolution(
        support=tuple(int(j) for j in chosen),
        coefficients=coefficients[0, _slot_rows(dictionary, chosen)],
        residual_norms=norms[0, : len(chosen) + 1],
    )


def residual_by_class(dictionary, S, sol):
    """Reconstruction residual per class from one pursuit solution.

    For each class, only the coefficient rows of that class's selected blocks
    are kept; the residual is the Frobenius norm of S minus that partial
    reconstruction. A class with no selected block therefore scores ||S||_F.
    """
    S = _one_block(S)[None]
    support = np.asarray(sol.support, dtype=np.int64)
    coefficients = np.zeros((len(support) * dictionary._slots.shape[1], S.shape[2]))
    coefficients[_slot_rows(dictionary, support)] = sol.coefficients
    res = _class_residuals(dictionary, S, support[None], coefficients[None])[0]
    return {int(c): float(v) for c, v in zip(dictionary.class_ids, res)}


def class_residuals(dictionary, Z, K, members):
    """Pursue every test block at sparsity K; residuals per class.

    Parameters
    ----------
    dictionary : BlockDictionary
    Z : (n, d) array_like
        The distinct columns of the test blocks, one per row.
    K : int
        Maximum number of blocks to select, 1 <= K <= number of blocks.
    members : (P, w) int array_like
        Pixel i's test block is the columns Z[members[i]], in that order, a -1
        giving a zero column, which changes neither its pursuit nor its
        residuals. Every iteration correlates the residual of a row under one
        support once, however many blocks share it.

    Returns
    -------
    (P, n_classes) ndarray
        Row i holds residual_by_class of sbomp(dictionary, S_i, K) for pixel
        i's block S_i, columns in ``dictionary.class_ids`` order, up to how
        the products round a different row count.

    Raises
    ------
    SpecAngleError
        A member outside [-1, n), or a NonFiniteError for a row with NaN or
        Inf, has ``index`` set to the first pixel whose block holds it. A
        NonFiniteError for block scores that overflow has ``index`` set to
        the first pixel whose scores do.
    """
    S, members = _gathered(dictionary, Z, K, members)
    support, coefficients, _ = _pursue(dictionary, S, K, members)
    return _class_residuals(dictionary, S, support, coefficients)
