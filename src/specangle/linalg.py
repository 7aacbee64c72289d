"""Dense numerical kernels: symmetric and symmetric-definite eigendecompositions
and least-squares solves, the latter also over stacks of systems.

All functions are pure and operate on float64 numpy arrays. Eigenvectors are
returned as matrix columns, unit norm (or B-orthonormal for the generalized
problem), ordered by descending eigenvalue, with a deterministic sign
convention: the largest-magnitude entry of each eigenvector is positive.
Every kernel, the pencil reduction of ``gen_eig_desc`` included, uses numpy
alone, so importing this module loads no scipy.
"""

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotSquareError,
    SingularBError,
    SpecAngleError,
)

__all__ = ["sym_eig_desc", "gen_eig_desc", "least_squares", "regularized"]

# Relative symmetry defect tolerated before an input is rejected outright.
_SYM_DEFECT_TOL = 1e-8


def _as_matrix(A, name="matrix", stacked=False):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 and not (stacked and A.ndim > 2):
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return A


def _as_symmetric(A, name="matrix"):
    """Validate shape and symmetry defect, then return the symmetrized matrix."""
    A = _as_matrix(A, name)
    if A.shape[0] != A.shape[1]:
        raise NotSquareError(f"{name} must be square, got shape {A.shape}")
    scale = np.max(np.abs(A)) if A.size else 0.0
    defect = np.max(np.abs(A - A.T)) if A.size else 0.0
    if defect > _SYM_DEFECT_TOL * max(scale, 1e-300):
        raise SpecAngleError(
            f"{name} is not symmetric (defect {defect:.3e} vs scale {scale:.3e})"
        )
    return 0.5 * (A + A.T)


def _eigh_desc(A, back=None):
    """The eigh core of both eigendecompositions: eigenpairs of the symmetric
    matrix A by descending eigenvalue, ties keeping their order, with each
    eigenvector mapped by ``back`` when given and then sign-fixed so that its
    largest-magnitude entry is positive."""
    w, V = np.linalg.eigh(A)
    order = np.argsort(-w, kind="stable")
    w, V = w[order], V[:, order]
    if back is not None:
        V = back @ V
    idx = np.argmax(np.abs(V), axis=0)
    V[:, V[idx, np.arange(V.shape[1])] < 0] *= -1.0
    return w, V


def sym_eig_desc(A):
    """Full eigendecomposition of a symmetric matrix, descending eigenvalues.

    Parameters
    ----------
    A : (n, n) array_like, symmetric
        Symmetrized internally as (A + A^t)/2; inputs whose symmetry defect
        exceeds 1e-8 relative to the largest entry are rejected.

    Returns
    -------
    w : (n,) ndarray
        Eigenvalues in descending order.
    V : (n, n) ndarray
        Orthonormal eigenvectors as columns, V[:, i] matching w[i]. Sign is
        fixed by making the largest-magnitude entry of each column positive.
    """
    return _eigh_desc(_as_symmetric(A, "A"))


def _check_ridge(ridge):
    if not 0 <= ridge < np.inf:
        raise SpecAngleError(f"ridge must be finite and >= 0, got {ridge}")


def regularized(B, ridge):
    """Return B + ridge * (trace(B)/n) * I, the ridge used by gen_eig_desc."""
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    _check_ridge(ridge)
    if ridge == 0 or n == 0:
        return B.copy()
    return B + (ridge * np.trace(B) / n) * np.eye(n)


def gen_eig_desc(A, B, ridge=0.0):
    """Generalized symmetric-definite eigendecomposition A v = lambda B' v.

    A and B are checked and symmetrized as in ``sym_eig_desc``. B is
    regularized to B' = B + ridge * (trace(B)/n) * I, Cholesky-factored, and
    the pencil reduced to the standard symmetric problem C = L^-1 A L^-t. C
    goes to the eigh core that ``sym_eig_desc`` runs after its own check,
    which orders the eigenpairs, maps them back by L^-t and fixes their signs.
    Eigenvectors are B'-orthonormal: v_i^t B' v_j = delta_ij.

    Parameters
    ----------
    A, B : (n, n) array_like, symmetric
        B must be positive semidefinite; positive definite after the ridge.
        Either may be passed unsymmetrized, within the symmetry tolerance.
    ridge : float
        Relative ridge, scaled by the mean diagonal of B.

    Returns
    -------
    w : (n,) ndarray
        Generalized eigenvalues in descending order.
    V : (n, n) ndarray
        B'-orthonormal eigenvectors as columns, sign-fixed.

    Raises
    ------
    SingularBError
        If the regularized B fails Cholesky factorization.
    """
    A = _as_symmetric(A, "A")
    B = _as_symmetric(B, "B")
    if A.shape != B.shape:
        raise DimensionMismatchError(
            f"A and B must share shape, got {A.shape} and {B.shape}"
        )
    B_reg = regularized(B, ridge)
    try:
        L = np.linalg.cholesky(B_reg)
    except np.linalg.LinAlgError as exc:
        raise SingularBError(
            "regularized B is not positive definite; increase ridge"
        ) from exc
    # C u = lambda u; its eigenvectors map back as v = L^-t u.
    L_inv = np.linalg.inv(L)
    C = L_inv @ A @ L_inv.T
    return _eigh_desc(0.5 * (C + C.T), back=L_inv.T)


def _pinv(A):
    """pinv(A) of one (m, k) matrix or a stack, singular values at most
    max(m, k) * eps times the largest one treated as zero."""
    m, k = A.shape[-2:]
    return np.linalg.pinv(A, rcond=max(m, k) * np.finfo(float).eps)


def least_squares(A, B):
    """Minimum-norm minimizer of ||B - A C||_F, for one system or a stack.

    C = pinv(A) B, with singular values of A at most max(m, k) * eps times
    its largest one treated as zero. Every design matrix has a solution:
    where several C fit equally well, as with collinear columns or k > m,
    the one of least norm is returned, e.g. equal halves for a duplicated
    column.

    Parameters
    ----------
    A : (..., m, k) array_like
        Design matrices.
    B : (..., m, p) array_like
        Right-hand sides, one per column, with the leading dimensions of A.

    Returns
    -------
    C : (..., k, p) ndarray
    """
    A = _as_matrix(A, "A", stacked=True)
    B = _as_matrix(B, "B", stacked=True)
    if A.shape[:-1] != B.shape[:-1]:
        raise DimensionMismatchError(
            f"row counts or stacks differ: A is {A.shape}, B is {B.shape}"
        )
    return _pinv(A) @ B
