"""Dense complex linear algebra: spectra, the partial trace, states, entropy.

Conventions used everywhere in the package:
  * matrices are complex128 numpy arrays;
  * a vector on a bipartite space C^k (x) C^n stores index (i, j) at
    position i*n + j (left factor major);
  * eigenvalues are reported in descending order;
  * entropies use the natural logarithm.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidDensityMatrixError,
    NoConvergenceError,
    NonHermitianError,
    NotUnitVectorError,
)

HERMITIAN_TOL = 1e-10
STATE_HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


def as_complex_matrix(m, *, stack: bool = False) -> np.ndarray:
    """Coerce to a finite square complex matrix, or with `stack` a (..., n, n) stack."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        what = "a stack of square matrices" if stack else "a square matrix"
        raise DimensionMismatchError(f"expected {what}, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidDensityMatrixError("matrix has non-finite entries")
    return a


def row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm along the last axis of a complex array.

    Each norm is the square root of re.re + im.im with both dots taken by
    BLAS, the form `np.linalg.norm` uses for one complex vector, so a row of
    a stack gets the same double as that vector alone.
    """
    re, im = v.real[..., None, :], v.imag[..., None, :]
    sq = re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2)
    return np.sqrt(sq[..., 0, 0])


def unit_rows(vectors) -> np.ndarray:
    """Coerce to a complex array whose rows (last axis) have norm 1 within 1e-12."""
    v = np.asarray(vectors, dtype=np.complex128)
    norms = row_norms(v)
    bad = ~(np.abs(norms - 1.0) <= 1e-12)  # a NaN norm fails too
    if np.any(bad):
        nrm = float(norms[bad][0])
        raise NotUnitVectorError(f"norm {nrm!r} differs from 1 beyond 1e-12")
    return v


def unit_vector(vector) -> np.ndarray:
    """Flatten to a complex vector whose norm is 1 within 1e-12."""
    return unit_rows(np.asarray(vector, dtype=np.complex128).reshape(-1))


def _adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-norm distance from m to its own adjoint; over a stack, the largest."""
    return float(np.max(np.abs(m - _adjoint(m)))) if m.size else 0.0


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m*) / 2 of a matrix or of each matrix in a stack.

    Exactly Hermitian, and idempotent bit for bit.
    """
    return (m + _adjoint(m)) / 2.0


def _hermitian_part(
    m, tol: float = HERMITIAN_TOL, error=NonHermitianError, *, stack: bool = False
) -> np.ndarray:
    """Coerce to a square complex matrix (or stack), raise `error` beyond `tol`, hermitize."""
    a = state_matrix(m, stack=stack)
    defect = hermiticity_defect(a)
    if defect > tol:
        raise error(f"matrix is not Hermitian (defect {defect:.3e} > {tol:.1e})")
    return hermitize(a)


class EigenSystem(NamedTuple):
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigs(m) -> EigenSystem:
    """Eigensystem of a Hermitian matrix, eigenvalues descending.

    Ties keep the solver's ordering.  Raises NonHermitianError when the
    input is further than 1e-10 from Hermitian in max norm, and
    NoConvergenceError when the underlying solver gives up.
    """
    h = _hermitian_part(m)
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergenceError(str(exc)) from exc
    return EigenSystem(vals[::-1].copy(), vecs[:, ::-1].copy())


def _top_eigenpair(h: np.ndarray) -> EigenSystem:
    """Top eigenpair of the Hermitian `h` (overwritten) by shifted inverse iteration.

    Returns one value and one unit eigenvector column, which costs less
    than the full solve.  `h` is not checked, so callers pass a fresh
    array that is Hermitian by construction.  The eigenvalue comes from
    `eigvalsh`, which skips the back-transformation that makes `eigh`
    about twice as expensive.  The vector comes from two solves with
    h - sigma I, sigma just above the top eigenvalue, from a start vector
    fixed by the dimension (as LAPACK's ?stein does), so the result does
    not depend on any caller's random stream.  One solve leaves errors
    near 1e-12 when the top of the spectrum is clustered; two bring them
    to rounding level.  Raises NoConvergenceError when LAPACK gives up or
    the vector misses its residual bound.
    """
    n = h.shape[0]
    try:
        lam = float(np.linalg.eigvalsh(h)[-1])
        tol = 1e-12 * max(1.0, abs(lam))
        sigma = lam + tol
        x = np.random.default_rng(n).standard_normal(n).astype(np.complex128)
        h.flat[:: n + 1] -= sigma
        for _ in range(2):
            x = np.linalg.solve(h, x)
            x /= np.linalg.norm(x)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    # h now holds h - sigma I, so h x + (sigma - lam) x = (h_orig - lam I) x
    residual = float(np.linalg.norm(h @ x + (sigma - lam) * x))
    if not residual <= tol:
        raise NoConvergenceError(f"top eigenvector residual {residual:.3e} > {tol:.1e}")
    return EigenSystem(np.array([lam]), x[:, None])


def hermitian_eigenvalues(m) -> np.ndarray:
    """Eigenvalues only, descending."""
    h = _hermitian_part(m)
    try:
        vals = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergenceError(str(exc)) from exc
    return vals[::-1].copy()


def _check_bipartite(m: np.ndarray, left_dim: int, right_dim: int) -> None:
    if left_dim <= 0 or right_dim <= 0:
        raise DimensionMismatchError("factor dimensions must be positive")
    if m.shape != (left_dim * right_dim, left_dim * right_dim):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} incompatible with factors ({left_dim}, {right_dim})"
        )


def partial_trace_right(m, left_dim: int, right_dim: int) -> np.ndarray:
    """Trace out the right factor of an operator on C^left (x) C^right."""
    a = as_complex_matrix(m)
    _check_bipartite(a, left_dim, right_dim)
    t = a.reshape(left_dim, right_dim, left_dim, right_dim)
    return np.einsum("ajbj->ab", t)


class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, positive semidefinite.

    Hermiticity must hold within 1e-12 in max norm and the trace within
    1e-12 of 1.  Eigenvalues are allowed to dip to -1e-10 (floating-point
    dust from channel arithmetic); `normalized` clips that dust to zero
    and rescales, while the plain constructor only verifies.
    """

    __slots__ = ("matrix", "dim")

    def __init__(self, matrix, *, _validated: bool = False):
        a = as_complex_matrix(matrix)
        if not _validated:
            h = _hermitian_part(a, STATE_HERMITIAN_TOL, InvalidDensityMatrixError)
            tr = complex(np.trace(a))
            if abs(tr - 1.0) > TRACE_TOL:
                raise InvalidDensityMatrixError(f"trace {tr!r} differs from 1 beyond 1e-12")
            _floor_check(np.linalg.eigvalsh(h), "minimum eigenvalue")
        self.matrix = a
        self.dim = a.shape[0]

    @classmethod
    def normalized(cls, matrix) -> "DensityMatrix":
        """Build a state from near-valid input: hermitize, clip eigenvalue dust, rescale.

        The one-matrix case of `normalize_states`.
        """
        return cls(normalize_states(matrix), _validated=True)

    @classmethod
    def pure(cls, vector) -> "DensityMatrix":
        """Rank-one state from a unit vector."""
        v = unit_vector(vector)
        return cls(np.outer(v, v.conj()), _validated=True)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        if dim <= 0:
            raise DimensionMismatchError("dimension must be positive")
        return cls(np.eye(dim, dtype=np.complex128) / dim, _validated=True)


def state_matrix(state, *, stack: bool = False) -> np.ndarray:
    """Accept a DensityMatrix or a raw array and return the underlying matrix.

    With `stack`, a raw array may also be a (..., n, n) stack of matrices.
    """
    if isinstance(state, DensityMatrix):
        return state.matrix
    return as_complex_matrix(state, stack=stack)


def checked_state(state) -> np.ndarray:
    """The matrix of a DensityMatrix, or of a raw array that passes DensityMatrix's checks."""
    return (state if isinstance(state, DensityMatrix) else DensityMatrix(state)).matrix


def _floor_check(vals: np.ndarray, what: str) -> None:
    """Raise when an ascending spectrum, or any in a stack, dips below the floor."""
    low = float(np.min(vals[..., 0])) if vals.size else 0.0
    if low < EIGENVALUE_FLOOR:
        raise InvalidDensityMatrixError(f"{what} {low:.3e} below {EIGENVALUE_FLOOR:.1e}")


def normalize_states(matrices) -> np.ndarray:
    """Hermitize, clip eigenvalue dust and rescale a matrix or each in a (..., n, n) stack.

    Raises InvalidDensityMatrixError for entries that are not finite, for
    a matrix further than 1e-10 from Hermitian, for an eigenvalue below
    -1e-10 and for a zero trace after clipping.  The stacked `eigh` and
    products treat every matrix as they treat it alone, so each result is
    the one `DensityMatrix.normalized` gives for that matrix, bit for bit.
    """
    h = _hermitian_part(matrices, HERMITIAN_TOL, InvalidDensityMatrixError, stack=True)
    vals, vecs = np.linalg.eigh(h)
    _floor_check(vals, "minimum eigenvalue")
    vals = np.clip(vals, 0.0, None)
    total = vals.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise InvalidDensityMatrixError("zero trace after clipping")
    vals /= total
    return hermitize((vecs * vals[..., None, :]) @ _adjoint(vecs))


def von_neumann_entropy(states):
    """Entropy -sum lambda ln lambda in nats, of one state or of each in a stack.

    One state (a DensityMatrix or a matrix) gives a float; a (..., n, n)
    stack gives an array of shape (...).
    """
    vals = np.linalg.eigvalsh(_hermitian_part(states, stack=True))
    _floor_check(vals, "negative eigenvalue")
    flat = np.clip(vals, 0.0, None).reshape(-1, vals.shape[-1])
    # eigvalsh sorts ascending, so each row's positive values are a suffix.
    # Rows are summed in groups that share the suffix start: padding a row
    # with zero terms would regroup numpy's pairwise sum from 8 terms on and
    # move the last bit, against the one-state sum over the positives alone.
    start = np.count_nonzero(flat <= 0.0, axis=-1)
    sums = np.empty(flat.shape[0])
    for s in set(start.tolist()):
        rows = start == s
        pos = flat[rows, s:]
        sums[rows] = np.sum(pos * np.log(pos), axis=-1)
    entropy = np.maximum(0.0, -sums).reshape(vals.shape[:-1])
    return float(entropy) if entropy.ndim == 0 else entropy
