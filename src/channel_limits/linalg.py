"""Dense complex linear algebra: spectra, states, entropy.

Conventions used everywhere in the package:
  * matrices are complex128 numpy arrays;
  * a vector on a bipartite space C^k (x) C^n stores index (i, j) at
    position i*n + j (left factor major);
  * eigenvalues are reported in descending order;
  * entropies use the natural logarithm.

There is no partial trace here: a Stinespring channel contracts over its
isometry's k output blocks in both directions (see `channels`), so its
forward map holds the (kn x N) product VX, never the (kn x kn) V X V*.
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
from .openblas import eigenvalues_two_stage

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


# rows of m - m* that `hermiticity_defect` forms at a time
_DEFECT_BAND = 64


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-norm distance from m to its own adjoint; over a stack, the largest.

    Taken over bands of rows, so that an n x n matrix costs O(band n)
    memory, not that of m - m* and its modulus; the maximum is the same.
    """
    if not m.size:
        return 0.0
    band, defect = _DEFECT_BAND, 0.0
    for i in range(0, m.shape[-1], band):
        rows = m[..., i : i + band, :] - _adjoint(m[..., :, i : i + band])
        defect = np.maximum(defect, np.max(np.abs(rows)))  # keeps a NaN
    return float(defect)


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m*) / 2 of a matrix or of each matrix in a stack.

    Exactly Hermitian, and idempotent bit for bit.  It is built in one
    C-ordered array, m* + m, then halved in place: the values of
    (m + m*) / 2.0, since addition commutes.
    """
    out = np.conjugate(m.swapaxes(-1, -2), order="C")
    out += m
    out /= 2.0
    return out


def _hermitian_part(
    m, tol: float = HERMITIAN_TOL, error=NonHermitianError, *, stack: bool = False
) -> np.ndarray:
    """Coerce to a square complex matrix (or stack), raise `error` beyond `tol`, hermitize.

    An exactly Hermitian input, such as a lift `Channel.adjoint` has
    hermitized, comes back as it is: `hermitize` would return its values
    bit for bit.  Callers only read the result.
    """
    a = state_matrix(m, stack=stack)
    defect = hermiticity_defect(a)
    if defect > tol:
        raise error(f"matrix is not Hermitian (defect {defect:.3e} > {tol:.1e})")
    return a if defect == 0.0 else hermitize(a)


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


# Rayleigh quotient iterations a warm start may take before the cold path
_WARM_STEPS = 3


def _top_eigenpair(h: np.ndarray, start: np.ndarray | None = None) -> EigenSystem:
    """Top eigenpair of the Hermitian `h` (overwritten), warm from `start` if given.

    Returns one value and one unit eigenvector column, which costs less
    than the full solve.  `h` is not checked, so callers pass a fresh
    array that is Hermitian by construction.

    With a `start` vector near the answer, Rayleigh quotient iteration
    from it makes at most _WARM_STEPS shifted solves, and its pair is
    accepted once the residual is at most tol = 1e-12 max(1, |theta|) and
    (theta + tol) I - h has a Cholesky factor: then some eigenvalue lies
    within tol of theta and none above theta + tol, so the pair is the top
    one to the tolerance the cold path meets.  Until the pair is
    certified or refused `h` stays intact: each shift writes the saved
    diagonal back, so the cold path sees the caller's `h` bit for bit.

    The cold path takes the eigenvalue from `eigvalsh`, which skips the
    back-transformation that makes `eigh` about twice as expensive, and
    the vector from two solves with h - sigma I, sigma just above the top
    eigenvalue, from a start vector fixed by the dimension (as LAPACK's
    ?stein does), so the result does not depend on any caller's random
    stream.  One solve leaves errors near 1e-12 when the top of the
    spectrum is clustered; two bring them to rounding level.  Raises
    NoConvergenceError when LAPACK gives up or the vector misses its
    residual bound.
    """
    if start is not None:
        pair = _warm_top_eigenpair(h, start)
        if pair is not None:
            return pair
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


def _warm_top_eigenpair(h: np.ndarray, start: np.ndarray) -> EigenSystem | None:
    """The certified pair of `_top_eigenpair`'s warm path, or None to fall back.

    Leaves `h` as it found it, bit for bit.
    """
    n = h.shape[0]
    diag = h.diagonal().copy()
    x = start / np.linalg.norm(start)
    for step in range(_WARM_STEPS + 1):
        hx = h @ x
        theta = float(np.vdot(x, hx).real)
        tol = 1e-12 * max(1.0, abs(theta))
        if np.linalg.norm(hx - theta * x) <= tol:
            break
        if step == _WARM_STEPS:
            return None
        h.flat[:: n + 1] = diag - theta
        try:
            x = np.linalg.solve(h, x)
        except np.linalg.LinAlgError:
            return None
        finally:
            h.flat[:: n + 1] = diag
        x /= np.linalg.norm(x)
    bound = -h
    bound.flat[:: n + 1] += theta + tol
    try:
        np.linalg.cholesky(bound)
    except np.linalg.LinAlgError:
        return None
    return EigenSystem(np.array([theta]), x[:, None])


# dimension from which `hermitian_eigenvalues` takes the two-stage solver:
# its time over eigvalsh's, one BLAS thread, median of 7, was 0.99 at
# n = 400, 0.87 at 500 and 0.73 at 800
TWO_STAGE_MIN_DIM = 500


def hermitian_eigenvalues(m, *, overwrite: bool = False) -> np.ndarray:
    """Eigenvalues only, descending.

    From dimension TWO_STAGE_MIN_DIM on they come from LAPACK's two-stage
    solver (`openblas.eigenvalues_two_stage`), which agrees with
    `eigvalsh` to rounding; below it, they are `eigvalsh`'s bytes.  A
    caller that gives up m passes `overwrite`: the two-stage solve then
    runs in m's bytes, with the same values, and makes no n x n copy.
    """
    h = _hermitian_part(m)
    try:
        if h.shape[0] >= TWO_STAGE_MIN_DIM:
            vals = eigenvalues_two_stage(h, overwrite)
        else:
            vals = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergenceError(str(exc)) from exc
    return vals[::-1].copy()


class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, positive semidefinite.

    Hermiticity must hold within 1e-12 in max norm and the trace within
    1e-12 of 1.  Eigenvalues are allowed to dip to -1e-10 (floating-point
    dust from channel arithmetic); `normalized` clips that dust to zero
    and rescales, while the plain constructor only verifies.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, _validated: bool = False):
        a = as_complex_matrix(matrix)
        if not _validated:
            h = _hermitian_part(a, STATE_HERMITIAN_TOL, InvalidDensityMatrixError)
            tr = complex(np.trace(a))
            if abs(tr - 1.0) > TRACE_TOL:
                raise InvalidDensityMatrixError(f"trace {tr!r} differs from 1 beyond 1e-12")
            _floor_check(np.linalg.eigvalsh(h), "minimum eigenvalue")
        self.matrix = a

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
    # adding +0.0 turns the -0.0 of a pure state into 0.0
    entropy = (np.maximum(0.0, -sums) + 0.0).reshape(vals.shape[:-1])
    return float(entropy) if entropy.ndim == 0 else entropy
