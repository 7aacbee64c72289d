"""Heat-kernel affinity graphs over sample sets.

The affinity between two spectra is exp(-||x_i - x_j||^2 / sigma). The fits
never store the pairwise distances or the weights: ``_distance_blocks``
computes the distances from Gram blocks a block of rows at a time,
``heat_kernel_products`` streams X W X^t and the degrees from those blocks,
and ``_bandwidth`` resolves every bandwidth, the median of the positive
distances by default, selected exactly, usually from one streamed pass
bracketed by a sample of pairs. Every graph takes this path whatever its
size. The dense weight matrix the tests check the products against lives in
``tests/oracles.py``.

A pass writes all its blocks into one buffer of at most about
``CHUNK_BYTES`` and builds the left Gram factor for one block's rows at a
time, so it holds the right factor [X; 1; |x|^2], one block and one block's
left factor. A yielded block is valid only until the next one is requested:
every consumer copies or consumes it first. A block marks the entries that
are no pair, on and left of its diagonal, with +inf, which every consumer
passes over: its weight exp(-inf) is exactly 0, and the median's passes
count it in no bin. Each block comes with the count of its zeros, the
coincident pairs the pass recomputes, so no consumer counts them from the
values. The median's bracket pass adds two boolean masks the size of the
buffer, allocated once per pass and refilled for every block.
"""

import numpy as np

from .data import _philox, chunk_pixels
from .errors import NonFiniteError, NonPositiveSigmaError, TooFewSamplesError

__all__ = [
    "heat_kernel_products",
    "median_heuristic_sigma",
]

# Bins of one histogram pass of the streamed median: 2**19 int64 counts, 4 MiB.
_HISTOGRAM_BITS = 19
# Standard errors of the sample median on either side of the sampled bracket.
_BRACKET_Z = 4.0


def _features_of(X):
    """Accept a SampleSet or a (d, n) array and return the feature matrix."""
    F = getattr(X, "features", X)
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise ValueError(f"expected a (d, n) feature matrix, got shape {F.shape}")
    if not np.all(np.isfinite(F)):
        raise NonFiniteError("samples contain NaN or Inf")
    return F


def _block_room(m):
    """Values in the largest block of a pass over m columns: rows x width is
    at most chunk_pixels(1), or one row of width at most m, and no block is
    larger than m x m."""
    return min(m * m, max(chunk_pixels(1), m))


def _distance_blocks(X):
    """Yield the squared distances between the columns of X, a block of rows
    at a time.

    Yields ``(lo, D, zeros)``: D[k, c] is ||x_(lo+k) - x_(lo+c)||^2 for
    c > k and +inf on and left of the diagonal, so each unordered pair
    appears once, and ``zeros`` counts the entries of D that are 0. A block
    holds ``chunk_pixels(m - lo)`` rows of width m - lo; a graph with
    ``chunk_pixels(m) >= m`` is one m x m block. Every block of a pass is
    written into one buffer of ``_block_room(m)`` values, room for any
    block. So a yielded block is valid only until the next one is
    requested: a caller copies or consumes it first, and may overwrite it.

    Each block is one GEMM of the augmented matrices [-2X; |x|^2; 1]^t, built
    for the block's rows only, and [X; 1; |x|^2]. That expansion cancels for
    near-coincident columns, so an entry at or below its rounding level,
    8 (d + 2) eps (|x_i|^2 + |x_j|^2), is recomputed from the difference of
    the columns: coincident columns are exactly 0 apart and no distance is
    negative. An entry the GEMM leaves at 0 is under that level too, so the
    zeros of a block are the recomputed entries that are 0, and are counted
    there.
    """
    d, m = X.shape
    sq = np.einsum("ij,ij->j", X, X)
    right = np.empty((d + 2, m))
    right[:d], right[d], right[d + 1] = X, 1.0, sq
    level = 8 * (d + 2) * np.finfo(float).eps
    # Largest squared norm from each column on, for one bound per block
    # that most blocks clear without a search for candidates.
    tail_max = np.maximum.accumulate(sq[::-1])[::-1]
    step = chunk_pixels(d)
    buffer = np.empty(_block_room(m))
    lo = 0
    while lo < m - 1:
        hi = min(m, lo + chunk_pixels(m - lo))
        rows = hi - lo
        # Two columns at least: a one-row block then passes BLAS a strided
        # vector, as a slice of a whole-graph factor would, which rounds
        # differently from a unit-stride one for some d.
        left = np.empty((d + 2, max(2, rows)))[:, :rows]
        np.multiply(X[:, lo:hi], -2.0, out=left[:d])
        left[d], left[d + 1] = sq[lo:hi], 1.0
        D = buffer[: rows * (m - lo)].reshape(rows, m - lo)
        np.matmul(left.T, right[:, lo:], out=D)
        # The diagonal and the lower triangle hold no pair, and are never
        # candidates.
        D[:, :rows][np.tri(rows, dtype=bool)] = np.inf
        zeros = 0
        bound = level * (sq[lo:hi].max() + tail_max[lo])
        if D.min() <= bound:
            k, c = np.nonzero(D <= bound)
            near = D[k, c] <= level * (sq[lo + k] + sq[lo + c])
            k, c = k[near], c[near]
            for s in range(0, k.size, step):
                diff = X[:, lo + k[s : s + step]] - X[:, lo + c[s : s + step]]
                exact = np.einsum("ij,ij->j", diff, diff)
                zeros += exact.size - np.count_nonzero(exact)
                D[k[s : s + step], c[s : s + step]] = exact
        yield lo, D, zeros
        lo = hi


def _sampled_bracket(X, budget):
    """A bracket [lo, hi] about the median of the positive squared distances
    between the columns of X, from a random sample of column pairs.

    The k pairs i != j come from a fixed-key Philox stream and their exact
    distances from the column differences, a chunk at a time, gathered into
    two buffers of one chunk of spectra each. The sample's positive order
    statistics at ranks 1/2 -+ z / (2 sqrt(k)) bracket the median unless it
    lies z standard errors off, and k = 4 z^2 (pairs / budget)^2 (at most
    the budget) leaves about half the budget of distances inside. When
    every pair fits the budget, or no sampled distance is positive, the
    bracket is all positive doubles.
    """
    d, m = X.shape
    pairs = m * (m - 1) // 2
    everything = 5e-324, np.finfo(float).max
    if pairs <= budget:
        return everything
    k = min(budget, int(np.ceil(4 * _BRACKET_Z**2 * (pairs / budget) ** 2)))
    # A fixed key: the bracket, and so the pass count, repeats.
    rng = _philox(0)
    sample = np.empty(k)
    # Each sampled pair gathers two contiguous spectra.
    spectra = np.ascontiguousarray(X.T)
    step = chunk_pixels(d)
    gathered = np.empty((2, min(step, k), d))
    for s in range(0, k, step):
        i = rng.integers(m, size=min(step, k - s))
        j = rng.integers(m - 1, size=i.size)
        j += j >= i
        diff, other = gathered[:, : i.size]
        # Every index is in range: mode="clip" changes no value and spares
        # the copy of out that mode="raise" makes.
        np.take(spectra, i, axis=0, out=diff, mode="clip")
        np.take(spectra, j, axis=0, out=other, mode="clip")
        diff -= other
        sample[s : s + i.size] = np.einsum("ij,ij->i", diff, diff)
    zeros = k - np.count_nonzero(sample)
    if zeros == k:
        return everything
    # The zeros sort first; the ranks count the positive distances after them.
    mid, half = (k - zeros) / 2, _BRACKET_Z * np.sqrt(k - zeros) / 2
    ranks = zeros + np.clip([np.floor(mid - half), np.ceil(mid + half)], 0, k - zeros - 1)
    ranks = ranks.astype(np.int64)
    sample.partition(ranks)
    return float(sample[ranks[0]]), float(sample[ranks[1]])


def _bracket_pass(X, lo, hi, budget):
    """One distance pass that splits the positive distances into three bins,
    [lo, hi] and either side of it.

    Returns ``(cum, edge, kept)``: the cumulative counts of the bins, the
    first bit pattern of bin i as ``edge(i)``, and the distances in the
    middle bin, or None when they outnumber the budget (they are kept only
    while they fit).

    Beside the pass's block buffer it holds two boolean masks of the same
    size, allocated once and refilled for each block, and the kept
    distances. The zeros of each block come counted from
    ``_distance_blocks``; none is positive, and all lie under lo. The +inf
    entries on and left of its diagonal, no pair, lie above hi.
    """
    below = inside = total = 0
    # A graph of fewer than two columns has no blocks: nothing is kept.
    kept = [np.empty(0)]
    masks = np.empty((2, _block_room(X.shape[1])), dtype=bool)
    for _, D, zeros in _distance_blocks(X):
        rows = D.shape[0]
        D = D.ravel()
        under, middle = masks[:, : D.size]
        total += D.size - rows * (rows + 1) // 2 - zeros
        np.less(D, lo, out=under)
        below += np.count_nonzero(under) - zeros
        # lo <= hi, so every distance under lo is in D <= hi too.
        np.less_equal(D, hi, out=middle)
        middle ^= under
        inside += np.count_nonzero(middle)
        if inside <= budget:
            kept.append(D.take(np.flatnonzero(middle)))
    kept = np.concatenate(kept) if inside <= budget else None
    lo, hi = (int(key) for key in np.array([lo, hi]).view(np.int64))
    edges = (1, lo, hi + 1, int(np.array(np.inf).view(np.int64)))
    return np.array([below, below + inside, total]), edges.__getitem__, kept


def _histogram_pass(X, a, b):
    """One distance pass that counts the distances with bit patterns in
    [a, b] into at most 2**19 bins of equal width.

    Returns ``(cum, edge)``: the cumulative counts of the bins and the first
    pattern of bin i as ``edge(i)``.
    """
    shift = max(0, (b - a).bit_length() - _HISTOGRAM_BITS)
    bins = ((b - a) >> shift) + 1
    # Bins -1 and `bins` collect the patterns below a and above b.
    counts = np.zeros(bins + 2, dtype=np.int64)
    for _, D, _ in _distance_blocks(X):
        keys = D.view(np.int64).ravel()
        keys -= a
        keys >>= shift
        np.clip(keys, -1, bins, out=keys)
        keys += 1
        counts += np.bincount(keys, minlength=bins + 2)
    return np.cumsum(counts[1:-1]), lambda i: min(a + (i << shift), b + 1)


def _streamed_median(X):
    """Exact median of the positive squared distances between the columns
    of X, or 1.0 when there is none, holding no more of them than X has
    entries (or one chunk, if more).

    This is Floyd & Rivest's SELECT (CACM 1975). Nonnegative doubles sort as
    their bit patterns read as int64, and each pass counts the distances in
    bins of patterns. The first pass has three bins, a sampled bracket
    about the median (``_sampled_bracket``) and either side of it, and keeps
    the distances inside the bracket: when both middle ranks fall among
    them, selecting there ends the search in one pass. Otherwise the search
    narrows to the bin that holds the middle ranks, by histogram passes of
    2**19 bins, until the bin holds few enough distances for a last pass to
    keep them and select. Middle ranks in two bins have only empty bins
    between them, so a last pass takes the largest distance below the upper
    bin and the smallest in or above it. The sample sets the number of
    passes, never the result. The first pass and a last pass that keeps a
    bin are both ``_bracket_pass``, so they hold the block buffer, its two
    masks and the kept distances, and take each block's zero count from
    ``_distance_blocks``.
    """
    budget = max(X.size, chunk_pixels(1))
    cum, edge, kept = _bracket_pass(X, *_sampled_bracket(X, budget), budget)
    if cum[-1] == 0:
        return 1.0
    ranks = np.array([(cum[-1] - 1) // 2, cum[-1] // 2])
    below = 0  # distances with patterns below the bins searched
    while True:
        first, last = (int(i) for i in np.searchsorted(cum, ranks - below, side="right"))
        if first != last:
            split = np.array(edge(last)).view(float)
            low, high = 0.0, np.inf
            for _, D, _ in _distance_blocks(X):
                low = max(low, D[D < split].max(initial=0.0))
                high = min(high, D[D >= split].min(initial=np.inf))
            return float((low + high) / 2)
        skipped = int(cum[first - 1]) if first else 0
        a, b = edge(first), edge(first + 1) - 1
        below += skipped
        if a == b:
            return float(np.array(a).view(float))
        if cum[first] - skipped <= budget:
            break
        cum, edge = _histogram_pass(X, a, b)
        kept = None
    # kept holds the bracket, bin 1 of the first pass, if it was not overrun.
    if kept is None or first != 1:
        kept = _bracket_pass(X, *np.array([a, b]).view(float), budget)[2]
    kth = ranks - below
    kept.partition(kth)
    return float((kept[kth[0]] + kept[kth[1]]) / 2)


def _bandwidth(X, sigma):
    """The heat-kernel bandwidth over the columns of X: sigma itself,
    checked, or the median of the positive squared distances when it is
    None (see ``_streamed_median``).

    Every graph resolves its bandwidth here before its first distance pass,
    so the distances are checked here too: no squared distance exceeds
    4 max |x|^2, and a column for which that bound is not finite raises
    NonFiniteError.
    """
    with np.errstate(over="ignore"):
        bound = 4.0 * np.einsum("ij,ij->j", X, X)
    if not np.all(np.isfinite(bound)):
        raise NonFiniteError("squared distances between samples overflow")
    if sigma is None:
        return _streamed_median(X)
    _check_sigma(sigma)
    return float(sigma)


def _check_sigma(sigma):
    # Written so that NaN fails too.
    if sigma is not None and not 0 < sigma < np.inf:
        raise NonPositiveSigmaError(f"sigma must be finite and > 0, got {sigma}")


def heat_kernel_products(X, sigma):
    """X W X^t and the degrees of the heat-kernel graph over the columns of
    X, without forming W.

    W = exp(-D / sigma) with a unit diagonal, D the squared distances of one
    ``_distance_blocks`` pass over X, and sigma a bandwidth that
    ``_bandwidth`` has resolved over X, so every weight lies in [0, 1].
    Returns ``(X W X^t, degrees)``, the degrees being the row sums of W.

    Each block U of strict upper-triangle weights adds
    C += X[:, rows] (U X[:, first row:]^t); then X W X^t = C + C^t + X X^t.
    """
    C = np.zeros((X.shape[0], X.shape[0]))
    degrees = np.ones(X.shape[1])
    for lo, U, _ in _distance_blocks(X):
        rows = U.shape[0]
        U /= -sigma
        np.exp(U, out=U)
        degrees[lo : lo + rows] += U.sum(axis=1)
        degrees[lo:] += U.sum(axis=0)
        C += X[:, lo : lo + rows] @ (U @ X[:, lo:].T)
    return C + C.T + X @ X.T, degrees


def median_heuristic_sigma(X):
    """Median of the pairwise squared distances, excluding zero-distance pairs.

    Exact for the distances the fits use (see ``_distance_blocks``), which
    are never stored. Falls back to 1.0 when every pair coincides. Raises
    TooFewSamplesError below two samples.
    """
    F = _features_of(X)
    if F.shape[1] < 2:
        raise TooFewSamplesError("median heuristic needs at least two samples")
    return _bandwidth(F, None)
