"""Independent reference implementations used only by the tests.

Everything here is written from scratch against the algorithm definitions,
using numpy's SVD-based lstsq rather than the package's QR path, so support
sets, coefficients and objectives can be cross-checked between two unrelated
code paths. The dense graph references (``heat_kernel_affinity``,
``lada_weights``) hold the n x n weights that the package streams and never
forms, with distances from scipy's ``pdist`` rather than the package's Gram
blocks. The one-shot data references (``split_train_test_reference``,
``envi_payload_reference``, ``envi_load_reference``) hold whole arrays where
the package works a class or a block of rows at a time. ``traced_peak``
measures the memory bounds those block-at-a-time paths are held to.
``stack_members`` gives a gathered stack of test blocks in the input form of
the batch pursuit, and ``window_scores_reference`` sums its window scores one
window and one column at a time.
"""

import tracemalloc

import numpy as np
from scipy.spatial.distance import pdist, squareform


def heat_kernel_affinity(X, sigma):
    """Dense heat-kernel weights exp(-||x_i - x_j||^2 / sigma) between the
    columns of X, (n, n) with a unit diagonal.

    pdist computes each unordered pair once, so the matrix is exactly
    symmetric. Its distances may differ from the package's Gram-block
    distances in the last bits.
    """
    W = squareform(np.exp(-pdist(np.asarray(X, dtype=float).T, "sqeuclidean") / sigma))
    np.fill_diagonal(W, 1.0)
    return W


def lada_weights(labels, affinity):
    """Locality-weighted within/between pair weights, each (n, n).

    For a same-class pair of class l: within = A_ij / n_l and
    between = A_ij * (1/n - 1/n_l); for a different-class pair the within
    weight is 0 and the between weight is 1/n regardless of A_ij. affinity
    is the (n, n) weight array A.
    """
    labels = np.asarray(labels)
    A = np.asarray(affinity, dtype=float)
    n = labels.size
    counts = np.bincount(labels)
    inv_nl = 1.0 / counts[labels]  # per sample, 1/n_l of its own class
    same = labels[:, None] == labels[None, :]
    w_within = np.where(same, A * inv_nl[None, :], 0.0)
    w_between = np.where(same, A * (1.0 / n - inv_nl[None, :]), 1.0 / n)
    return w_within, w_between


def omp_oracle(atoms, s, K):
    """Plain orthogonal matching pursuit with unnormalized correlation.

    atoms: (d, n) matrix of single-column atoms; s: (d,) target.
    Returns (support list, coefficient vector over the support).
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    r = s.copy()
    support = []
    coef = np.zeros(0)
    s_norm = np.linalg.norm(s)
    for _ in range(K):
        scores = np.abs(atoms.T @ r)
        scores[support] = -np.inf
        best = int(np.argmax(scores))
        if scores[best] <= 0.0:
            break
        support.append(best)
        A = atoms[:, support]
        coef = np.linalg.lstsq(A, s, rcond=None)[0]
        r = s - A @ coef
        if np.linalg.norm(r) <= 1e-10 * s_norm:
            break
    return support, coef


def somp_oracle(atoms, S, K):
    """Simultaneous OMP: single-column atoms against a matrix target.

    Selection score is the l2 norm of the atom's correlation row with the
    residual matrix.
    """
    S = np.asarray(S, dtype=float)
    R = S.copy()
    support = []
    coef = np.zeros((0, S.shape[1]))
    s_norm = np.linalg.norm(S)
    for _ in range(K):
        scores = np.linalg.norm(atoms.T @ R, axis=1)
        scores[support] = -np.inf
        best = int(np.argmax(scores))
        if scores[best] <= 0.0:
            break
        support.append(best)
        A = atoms[:, support]
        coef = np.linalg.lstsq(A, S, rcond=None)[0]
        R = S - A @ coef
        if np.linalg.norm(R) <= 1e-10 * s_norm:
            break
    return support, coef


def bomp_oracle(blocks, S, K):
    """Block OMP: wide blocks against a (d,) or (d, w) target.

    Selection score is the sum over the block's atoms of the l2 norms of their
    correlation rows with the residual (the l2,1 norm of B^t R; for one column,
    the sum of absolute entries). Returns (support list, coefficients over the
    support's atoms, shaped like the target: a vector or one column per
    target column).
    """
    S = np.asarray(S, dtype=float)
    R = S.copy()
    support = []
    coef = np.zeros((0,) + S.shape[1:])
    s_norm = np.linalg.norm(S)
    for _ in range(K):
        scores = np.array(
            [np.linalg.norm((B.T @ R).reshape(B.shape[1], -1), axis=1).sum() for B in blocks]
        )
        if support:
            scores[support] = -np.inf
        best = int(np.argmax(scores))
        if scores[best] <= 0.0:
            break
        support.append(best)
        A = np.hstack([blocks[j] for j in support])
        coef = np.linalg.lstsq(A, S, rcond=None)[0]
        R = S - A @ coef
        if np.linalg.norm(R) <= 1e-10 * s_norm:
            break
    return support, coef


def block_scores_reference(blocks, windows):
    """Selection score of every block for every window, (P, n_blocks), one
    atom at a time: the sum over the block's atoms of the l2 norm of the
    atom's correlations with the window's columns. ``windows`` is (P, d, w).
    """
    return np.array(
        [[sum(np.linalg.norm(atom @ W) for atom in B.T) for B in blocks] for W in windows]
    )


def window_scores_reference(correlations, offsets, members):
    """Block scores of windows of rows, (P, n_blocks), one window and one
    column at a time.

    ``correlations`` (n, atoms) holds each row's correlation with every atom,
    ``offsets`` the first atom of each block and then the atom count, and
    ``members`` (P, w) the rows of each window, -1 for a zero column. Each
    window's squared correlations are added to zeros in column order, a -1
    adding nothing; the square roots of the sums are then summed over each
    block's atoms by the same ``np.add.reduceat`` the package uses, so the
    result is comparable bit for bit.
    """
    sums = np.zeros((len(members), correlations.shape[1]))
    for total, window in zip(sums, members):
        for m in window:
            if m >= 0:
                total += correlations[m] * correlations[m]
    return np.add.reduceat(np.sqrt(sums), offsets[:-1], axis=1)


def stack_members(S):
    """A stack S (P, d, w) of test blocks as ``pursuit.class_residuals``
    takes it: its columns as the rows of Z (P * w, d), and members (P, w)
    giving each column a row of its own."""
    S = np.asarray(S, dtype=float)
    P, d, w = S.shape
    return S.transpose(0, 2, 1).reshape(P * w, d), np.arange(P * w).reshape(P, w)


def class_residuals_oracle(blocks, classes, S, support, coef):
    """Residual norm per class id, ascending, of one pursuit solution: the
    Frobenius norm of S minus the reconstruction from that class's selected
    blocks alone (all of S for a class with none)."""
    S = np.asarray(S, dtype=float)
    S = S.reshape(len(S), -1)
    out = {}
    for k in sorted(set(np.asarray(classes).tolist())):
        recon = np.zeros_like(S)
        row = 0
        for j in support:
            m = blocks[j].shape[1]
            if classes[j] == k:
                recon += blocks[j] @ coef[row:row + m]
            row += m
        out[k] = float(np.linalg.norm(S - recon))
    return out


def neighborhood_bruteforce(cube_values, center, window):
    """(bands, members) spectra of the in-bounds window x window box around
    center: the center first, then the rest in row-major order."""
    rows, cols, _ = cube_values.shape
    r, c = center
    half = window // 2
    members = [(r, c)] + [
        (i, j)
        for i in range(r - half, r + half + 1)
        for j in range(c - half, c + half + 1)
        if (i, j) != (r, c) and 0 <= i < rows and 0 <= j < cols
    ]
    return np.stack([cube_values[i, j] for i, j in members], axis=1)


def grid_best_direction(A, B, n_points=3600, minimize=False):
    """Best constrained objective over a planar grid of unit directions.

    Directions u(theta) on the unit circle are rescaled to p = u/sqrt(u^t B u)
    so that p^t B p = 1, then p^t A p is optimized over the grid. Only valid
    for 2x2 pencils.
    """
    thetas = np.arange(n_points) * (2.0 * np.pi / n_points)
    best = np.inf if minimize else -np.inf
    for t in thetas:
        u = np.array([np.cos(t), np.sin(t)])
        scale = u @ B @ u
        if scale <= 0:
            continue
        p = u / np.sqrt(scale)
        obj = p @ A @ p
        best = min(best, obj) if minimize else max(best, obj)
    return best


def graph_pencil_bruteforce(X, sigma):
    """Literal double-sum construction of (XWX^t, XDX^t) from pair weights."""
    d, n = X.shape
    W = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            W[i, j] = np.exp(-np.sum((X[:, i] - X[:, j]) ** 2) / sigma)
    A = np.zeros((d, d))
    B = np.zeros((d, d))
    for i in range(n):
        for j in range(n):
            A += W[i, j] * np.outer(X[:, i], X[:, j])
        B += W[i].sum() * np.outer(X[:, i], X[:, i])
    return A, B


def slspp_matrix_bruteforce(cube_values, coords, window, sigma):
    """Literal double sum over centers and in-bounds window neighbors."""
    rows, cols, d = cube_values.shape
    M = np.zeros((d, d))
    half = window // 2
    for (ri, ci) in coords:
        x = cube_values[ri, ci]
        for dr in range(-half, half + 1):
            for dc in range(-half, half + 1):
                rk, ck = ri + dr, ci + dc
                if 0 <= rk < rows and 0 <= ck < cols:
                    z = cube_values[rk, ck]
                    w = np.exp(-np.sum((x - z) ** 2) / sigma)
                    M += w * np.outer(z, x)
    return M


def split_train_test_reference(labels, n_train, n_test, seed):
    """Per-class splits, one ``argwhere`` scan of the label map per class:
    row-major coordinates of class 1, 2, ... each permuted by one Philox
    stream keyed by seed, first n_train to train and next n_test to test.
    Returns (train, test) as (k, 2) arrays, or raises ValueError naming the
    class that is too small."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    train, test = [], []
    for cls in range(1, int(labels.max()) + 1):
        coords = np.argwhere(labels == cls)
        if len(coords) < n_train + n_test:
            raise ValueError(f"class {cls}")
        perm = rng.permutation(len(coords))
        train.append(coords[perm[:n_train]])
        test.append(coords[perm[n_train:n_train + n_test]])
    return np.concatenate(train), np.concatenate(test)


def envi_payload_reference(values, interleave, dtype):
    """ENVI payload bytes of a (rows, cols, bands) array from one whole-cube
    conversion; dtype carries the byte order (e.g. '>u2')."""
    axes = (2, 0, 1) if interleave == "bsq" else (0, 2, 1)
    return np.ascontiguousarray(values.transpose(axes), dtype=dtype).tobytes()


def envi_load_reference(payload, shape, interleave, dtype):
    """The (row, col, band) float64 cube of an ENVI payload, converted in one
    ``astype`` of the whole interleaved view (which keeps its memory order)."""
    rows, cols, bands = shape
    flat = np.frombuffer(payload, dtype=dtype)
    if interleave == "bsq":
        arr = flat.reshape(bands, rows, cols).transpose(1, 2, 0)
    elif interleave == "bil":
        arr = flat.reshape(rows, bands, cols).transpose(0, 2, 1)
    else:
        arr = flat.reshape(rows, cols, bands)
    return arr.astype(float)


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
