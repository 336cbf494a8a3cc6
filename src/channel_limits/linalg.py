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


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite square complex matrix."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InvalidDensityMatrixError("matrix has non-finite entries")
    return a


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-norm distance from m to its own adjoint."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def hermitize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m*) / 2; exactly Hermitian, and idempotent bit for bit."""
    return (m + m.conj().T) / 2.0


def _hermitian_part(m, tol: float = HERMITIAN_TOL, error=NonHermitianError) -> np.ndarray:
    """Coerce to a square complex matrix, raise `error` beyond `tol`, hermitize."""
    a = state_matrix(m)
    defect = hermiticity_defect(a)
    if defect > tol:
        raise error(f"matrix is not Hermitian (defect {defect:.3e} > {tol:.1e})")
    return hermitize(a)


class EigenSystem(NamedTuple):
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigs(m, tol: float = HERMITIAN_TOL) -> EigenSystem:
    """Full eigensystem of a Hermitian matrix, eigenvalues descending.

    Ties keep the solver's ordering.  Raises NonHermitianError when the
    input is further than `tol` from Hermitian in max norm, and
    NoConvergenceError when the underlying solver gives up.
    """
    h = _hermitian_part(m, tol)
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergenceError(str(exc)) from exc
    return EigenSystem(vals[::-1].copy(), vecs[:, ::-1].copy())


def hermitian_eigenvalues(m, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Eigenvalues only, descending."""
    h = _hermitian_part(m, tol)
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
            low = float(np.linalg.eigvalsh(h)[0])
            if low < EIGENVALUE_FLOOR:
                raise InvalidDensityMatrixError(
                    f"minimum eigenvalue {low:.3e} below {EIGENVALUE_FLOOR:.1e}"
                )
        self.matrix = a
        self.dim = a.shape[0]

    @classmethod
    def normalized(cls, matrix) -> "DensityMatrix":
        """Build a state from near-valid input: hermitize, clip eigenvalue dust, rescale."""
        h = _hermitian_part(matrix, HERMITIAN_TOL, InvalidDensityMatrixError)
        vals, vecs = np.linalg.eigh(h)
        if vals[0] < EIGENVALUE_FLOOR:
            raise InvalidDensityMatrixError(
                f"minimum eigenvalue {vals[0]:.3e} below {EIGENVALUE_FLOOR:.1e}"
            )
        vals = np.clip(vals, 0.0, None)
        total = float(vals.sum())
        if total <= 0.0:
            raise InvalidDensityMatrixError("zero trace after clipping")
        vals /= total
        out = (vecs * vals) @ vecs.conj().T
        obj = cls.__new__(cls)
        obj.matrix = hermitize(out)
        obj.dim = out.shape[0]
        return obj

    @classmethod
    def pure(cls, vector) -> "DensityMatrix":
        """Rank-one state from a unit vector."""
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > 1e-12:
            raise NotUnitVectorError(f"norm {nrm!r} differs from 1 beyond 1e-12")
        return cls(np.outer(v, v.conj()), _validated=True)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        if dim <= 0:
            raise DimensionMismatchError("dimension must be positive")
        return cls(np.eye(dim, dtype=np.complex128) / dim, _validated=True)

    @classmethod
    def diagonal(cls, probabilities) -> "DensityMatrix":
        p = np.asarray(probabilities, dtype=float)
        return cls(np.diag(p).astype(np.complex128))

    def eigenvalues(self) -> np.ndarray:
        return hermitian_eigenvalues(self.matrix, tol=HERMITIAN_TOL)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DensityMatrix(dim={self.dim})"


def state_matrix(state) -> np.ndarray:
    """Accept a DensityMatrix or a raw array and return the underlying matrix."""
    if isinstance(state, DensityMatrix):
        return state.matrix
    return as_complex_matrix(state)


def _state_spectrum(state) -> np.ndarray:
    vals = np.linalg.eigvalsh(_hermitian_part(state))
    if vals[0] < EIGENVALUE_FLOOR:
        raise InvalidDensityMatrixError(f"negative eigenvalue {vals[0]:.3e}")
    return np.clip(vals, 0.0, None)


def von_neumann_entropy(state) -> float:
    """Entropy -sum lambda ln lambda of a state, in nats."""
    vals = _state_spectrum(state)
    pos = vals[vals > 0.0]
    return float(max(0.0, -np.sum(pos * np.log(pos))))
