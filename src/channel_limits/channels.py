"""Quantum channels in the representations the experiments need.

A channel maps states on C^N to states on C^k.  Every class below stores
the most structured description it was built from and only materializes
the isometric dilation when an operation genuinely needs it:

* ``StinespringChannel`` -- an isometry V : C^N -> C^k (x) C^n with the
  channel X -> Tr_env[V X V*].
* ``MixedUnitaryChannel`` -- weights w and unitaries U_1..U_k on C^n with
  output entries (Phi(X))_{ij} = sqrt(w_i w_j) Tr[U_i X U_j*].  Its
  complementary channel is the familiar mixture X -> sum_i w_i U_i X U_i*.
* ``EBChannel`` -- a measure-and-prepare map X -> sum_i Tr[X M_i] sigma_i
  for a POVM (M_i) and states (sigma_i).
* ``DepolarizingChannel`` -- X -> Tr[X] I/k.

Adjoint actions are implemented directly on the structured data, so the
mixed-unitary adjoint costs k matrix products on C^n instead of touching
the (kn x kn) dilation projection.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadWeightsError,
    DimensionMismatchError,
    InvalidPOVMError,
    NotUnitaryError,
    RepresentationUnavailableError,
)
from .linalg import (
    DensityMatrix,
    as_complex_matrix,
    hermiticity_defect,
    hermitize,
    partial_trace_right,
    state_matrix,
)

ISOMETRY_TOL = 1e-10
POVM_TOL = 1e-10
WEIGHT_TOL = 1e-12


def validate_weights(weights) -> np.ndarray:
    """Check for a strictly positive probability vector, return as float array."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size == 0:
        raise BadWeightsError("empty weight vector")
    if np.any(w <= 0.0):
        raise BadWeightsError("weights must be strictly positive")
    if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
        raise BadWeightsError(f"weights sum to {float(w.sum())!r}, not 1")
    return w


def _check_unitary(u: np.ndarray, tol: float = ISOMETRY_TOL) -> None:
    n = u.shape[0]
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
    if defect > tol:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds {tol:.1e}")


def validate_povm(povm, tol: float = POVM_TOL) -> np.ndarray:
    """Check Hermitian positive elements summing to the identity; stack them."""
    ms = [as_complex_matrix(m) for m in povm]
    if not ms:
        raise InvalidPOVMError("empty POVM")
    n = ms[0].shape[0]
    total = np.zeros((n, n), dtype=np.complex128)
    for m in ms:
        if m.shape[0] != n:
            raise DimensionMismatchError("POVM elements must share a dimension")
        if hermiticity_defect(m) > tol:
            raise InvalidPOVMError("POVM element is not Hermitian")
        if float(np.linalg.eigvalsh(hermitize(m))[0]) < -tol:
            raise InvalidPOVMError("POVM element is not positive semidefinite")
        total += m
    if float(np.max(np.abs(total - np.eye(n)))) > tol:
        raise InvalidPOVMError("POVM elements do not sum to the identity")
    return np.stack(ms)


class Channel:
    """Base class: linear action plus validated state-level wrappers."""

    input_dim: int
    output_dim: int

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        """Linear action on an arbitrary input matrix."""
        raise NotImplementedError

    def adjoint_matrix(self, y: np.ndarray) -> np.ndarray:
        """Action of the adjoint map on an arbitrary output-side matrix."""
        raise NotImplementedError

    def apply(self, state) -> DensityMatrix:
        """Apply to a state, returning a validated state.

        Accepts a DensityMatrix or a raw matrix; the output is hermitized
        and has eigenvalue dust below 1e-10 clipped before renormalizing.
        """
        x = state_matrix(state)
        if x.shape[0] != self.input_dim:
            raise DimensionMismatchError(
                f"state dim {x.shape[0]} != channel input dim {self.input_dim}"
            )
        return DensityMatrix.normalized(self.apply_matrix(x))

    def adjoint(self, observable) -> np.ndarray:
        """Adjoint action on an output-side observable, hermitized."""
        y = state_matrix(observable)
        if y.shape[0] != self.output_dim:
            raise DimensionMismatchError(
                f"observable dim {y.shape[0]} != channel output dim {self.output_dim}"
            )
        return hermitize(self.adjoint_matrix(y))

    def apply_pure(self, vector: np.ndarray) -> np.ndarray:
        """Output matrix for a pure input, without forming the input projector."""
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        return self.apply_matrix(np.outer(v, v.conj()))

    def adjoint_rank_one(self, vector: np.ndarray) -> np.ndarray:
        """Adjoint lift of the rank-one observable built on `vector`."""
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        return hermitize(self.adjoint_matrix(np.outer(v, v.conj())))

    def complementary(self) -> "StinespringChannel":
        raise RepresentationUnavailableError(
            f"{type(self).__name__} stores no isometric dilation"
        )

    def dilation_projection(self) -> np.ndarray:
        raise RepresentationUnavailableError(
            f"{type(self).__name__} stores no isometric dilation"
        )


class StinespringChannel(Channel):
    """Channel X -> Tr_env[V X V*] for an isometry V : C^N -> C^k (x) C^env.

    Parameters
    ----------
    isometry : (output_dim * env_dim, input_dim) array
        Must satisfy V* V = I within 1e-10.
    output_dim, env_dim : int
        Factor dimensions of the dilation space, left factor major.
    """

    def __init__(self, isometry, output_dim: int, env_dim: int):
        v = np.asarray(isometry, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] != output_dim * env_dim:
            raise DimensionMismatchError(
                f"isometry shape {v.shape} incompatible with ({output_dim}, {env_dim})"
            )
        if v.shape[1] > v.shape[0]:
            raise DimensionMismatchError("isometry must not shrink row space")
        defect = float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))))
        if defect > ISOMETRY_TOL:
            raise NotUnitaryError(f"isometry defect {defect:.3e} exceeds 1e-10")
        self.isometry = v
        self.output_dim = int(output_dim)
        self.env_dim = int(env_dim)
        self.input_dim = v.shape[1]

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        big = self.isometry @ x @ self.isometry.conj().T
        return partial_trace_right(big, self.output_dim, self.env_dim)

    def adjoint_matrix(self, y: np.ndarray) -> np.ndarray:
        # V*(A (x) I)V without forming the kn x kn operator: reshape V into
        # environment blocks and contract A across the output index.
        y = np.asarray(y, dtype=np.complex128)
        v = self.isometry.reshape(self.output_dim, self.env_dim, self.input_dim)
        w = np.tensordot(y, v, axes=(1, 0)).reshape(
            self.output_dim * self.env_dim, self.input_dim
        )
        return self.isometry.conj().T @ w

    def apply_pure(self, vector: np.ndarray) -> np.ndarray:
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        y = (self.isometry @ v).reshape(self.output_dim, self.env_dim)
        return y @ y.conj().T

    def adjoint_rank_one(self, vector: np.ndarray) -> np.ndarray:
        # V*(aa* (x) I)V = B*B for B the a-contraction of the isometry blocks
        a = np.asarray(vector, dtype=np.complex128).reshape(-1)
        v = self.isometry.reshape(self.output_dim, self.env_dim, self.input_dim)
        b = np.tensordot(a.conj(), v, axes=(0, 0))
        return hermitize(b.conj().T @ b)

    def complementary(self) -> "StinespringChannel":
        """Swap which dilation factor is traced out."""
        v = self.isometry.reshape(self.output_dim, self.env_dim, self.input_dim)
        swapped = v.transpose(1, 0, 2).reshape(
            self.env_dim * self.output_dim, self.input_dim
        )
        return StinespringChannel(swapped, self.env_dim, self.output_dim)

    def dilation_projection(self) -> np.ndarray:
        """Orthogonal projection V V* onto the isometry's range."""
        return self.isometry @ self.isometry.conj().T


class MixedUnitaryChannel(Channel):
    """Weighted family of unitaries, output entries sqrt(w_i w_j) Tr[U_i X U_j*].

    The stored data are the weights (strictly positive, summing to 1) and
    the unitaries; the dilation isometry stacks sqrt(w_i) U_i as blocks
    and is only materialized on demand.
    """

    def __init__(self, weights, unitaries):
        w = validate_weights(weights)
        us = [as_complex_matrix(u) for u in unitaries]
        if len(us) != w.size:
            raise DimensionMismatchError("one unitary required per weight")
        n = us[0].shape[0]
        for u in us:
            if u.shape[0] != n:
                raise DimensionMismatchError("unitaries must share a dimension")
            _check_unitary(u)
        self.weights = w
        self.unitaries = np.stack(us)
        self.output_dim = int(w.size)
        self.input_dim = n
        self._scaled = np.sqrt(w)[:, None, None] * self.unitaries

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        y = self._scaled @ x
        return np.einsum("iab,jab->ij", y, self._scaled.conj())

    def adjoint_matrix(self, y: np.ndarray) -> np.ndarray:
        # sum_ij sqrt(w_i w_j) Y_ij U_i* U_j as one GEMM on stacked blocks
        y = np.asarray(y, dtype=np.complex128)
        k, n = self.output_dim, self.input_dim
        mixed = np.tensordot(y, self._scaled, axes=(1, 0))
        flat_s = self._scaled.reshape(k * n, n)
        flat_m = mixed.reshape(k * n, n)
        return flat_s.conj().T @ flat_m

    def apply_pure(self, vector: np.ndarray) -> np.ndarray:
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        y = self._scaled @ v
        return y @ y.conj().T

    def adjoint_rank_one(self, vector: np.ndarray) -> np.ndarray:
        # the lift of aa* factors as C*C with C the conj(a)-weighted block sum
        a = np.asarray(vector, dtype=np.complex128).reshape(-1)
        c = np.tensordot(a.conj(), self._scaled, axes=(0, 0))
        return hermitize(c.conj().T @ c)

    def stinespring(self) -> StinespringChannel:
        """Dilation with isometry blocks sqrt(w_i) U_i, environment C^n."""
        v = self._scaled.reshape(self.output_dim * self.input_dim, self.input_dim)
        return StinespringChannel(v, self.output_dim, self.input_dim)

    def complementary(self) -> StinespringChannel:
        """The mixture X -> sum_i w_i U_i X U_i* as a Stinespring channel."""
        return self.stinespring().complementary()

    def dilation_projection(self) -> np.ndarray:
        """Projection with (i, j) blocks sqrt(w_i w_j) U_i U_j*."""
        return self.stinespring().dilation_projection()


class EBChannel(Channel):
    """Measure-and-prepare channel X -> sum_i Tr[X M_i] sigma_i."""

    def __init__(self, povm, states):
        ms = validate_povm(povm)
        sts = [state_matrix(s) for s in states]
        if len(sts) != ms.shape[0]:
            raise DimensionMismatchError("one output state required per POVM element")
        k = sts[0].shape[0]
        for s in sts:
            if s.shape[0] != k:
                raise DimensionMismatchError("output states must share a dimension")
        self.povm = ms
        self.states = np.stack(sts)
        self.input_dim = ms.shape[1]
        self.output_dim = k

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        probs = np.einsum("ab,iba->i", x, self.povm)
        return np.tensordot(probs, self.states, axes=(0, 0))

    def adjoint_matrix(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.complex128)
        coeffs = np.einsum("ab,iba->i", y, self.states)
        return np.tensordot(coeffs, self.povm, axes=(0, 0))


class DepolarizingChannel(Channel):
    """Fully depolarizing map X -> Tr[X] I/k."""

    def __init__(self, output_dim: int, input_dim: int):
        if output_dim <= 0 or input_dim <= 0:
            raise DimensionMismatchError("dimensions must be positive")
        self.output_dim = int(output_dim)
        self.input_dim = int(input_dim)

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        return np.trace(x) / self.output_dim * np.eye(self.output_dim, dtype=np.complex128)

    def adjoint_matrix(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.complex128)
        return np.trace(y) / self.output_dim * np.eye(self.input_dim, dtype=np.complex128)


def make_depolarizing(output_dim: int, input_dim: int | None = None) -> DepolarizingChannel:
    """Depolarizing channel M_N -> M_k; input defaults to the output dimension."""
    return DepolarizingChannel(output_dim, input_dim or output_dim)


def make_pinching(dim: int) -> EBChannel:
    """Diagonal-part channel: measure in the standard basis, re-prepare it."""
    units = [np.zeros((dim, dim), dtype=np.complex128) for _ in range(dim)]
    for i, e in enumerate(units):
        e[i, i] = 1.0
    return EBChannel(units, units)
