"""Quantum channels in the representations the experiments need.

A channel maps states on C^N to states on C^k.  Every class below stores
the most structured description it was built from:

* ``StinespringChannel`` -- an isometry V : C^N -> C^k (x) C^n with the
  channel X -> Tr_env[V X V*].
* ``MixedUnitaryChannel`` -- weights w and unitaries U_1..U_k on C^n with
  output entries (Phi(X))_{ij} = sqrt(w_i w_j) Tr[U_i X U_j*].  This is
  the Stinespring channel whose isometry stacks the blocks sqrt(w_i) U_i,
  with environment C^n, so it shares that class's kernels.
* ``EBChannel`` -- a measure-and-prepare map X -> sum_i Tr[X M_i] sigma_i
  for a POVM (M_i) and states (sigma_i).
* ``DepolarizingChannel`` -- X -> Tr[X] I/k.

Stinespring adjoints contract an observable A across the isometry's
output blocks, so a lift never forms the (kn x kn) operator A (x) I.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadWeightsError,
    DimensionMismatchError,
    InvalidDensityMatrixError,
    InvalidPOVMError,
    NotUnitaryError,
)
from .linalg import (
    DensityMatrix,
    as_complex_matrix,
    hermiticity_defect,
    hermitize,
    normalize_states,
    partial_trace_right,
    state_matrix,
    unit_rows,
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


def _check_isometry(v: np.ndarray) -> None:
    """Raise unless V*V = I within ISOMETRY_TOL; for square V, unitarity."""
    defect = float(np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))))
    if defect > ISOMETRY_TOL:
        raise NotUnitaryError(f"isometry defect {defect:.3e} exceeds {ISOMETRY_TOL:.1e}")


def validate_povm(povm) -> np.ndarray:
    """Check Hermitian positive elements summing to the identity; stack them."""
    ms = [as_complex_matrix(m) for m in povm]
    if not ms:
        raise InvalidPOVMError("empty POVM")
    n = ms[0].shape[0]
    total = np.zeros((n, n), dtype=np.complex128)
    for m in ms:
        if m.shape[0] != n:
            raise DimensionMismatchError("POVM elements must share a dimension")
        if hermiticity_defect(m) > POVM_TOL:
            raise InvalidPOVMError("POVM element is not Hermitian")
        if float(np.linalg.eigvalsh(hermitize(m))[0]) < -POVM_TOL:
            raise InvalidPOVMError("POVM element is not positive semidefinite")
        total += m
    if float(np.max(np.abs(total - np.eye(n)))) > POVM_TOL:
        raise InvalidPOVMError("POVM elements do not sum to the identity")
    return np.stack(ms)


def _operand(obj, dim: int, what: str, side: str) -> np.ndarray:
    """A finite vector or (b, dim) stack of vectors, or a DensityMatrix's matrix.

    The last axis must be `dim`.
    """
    if isinstance(obj, DensityMatrix):
        a = obj.matrix
    else:
        a = np.asarray(obj, dtype=np.complex128)
        if a.ndim not in (1, 2):
            raise DimensionMismatchError(f"expected one or two axes, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidDensityMatrixError(f"{what} has non-finite entries")
    if a.shape[-1] != dim:
        raise DimensionMismatchError(f"{what} dim {a.shape[-1]} != channel {side} dim {dim}")
    return a


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

    def apply(self, state) -> DensityMatrix | np.ndarray:
        """Apply to a mixed state or to unit vectors, returning validated states.

        A DensityMatrix is a mixed state and gives a DensityMatrix.  A 1-D
        array is a unit vector v for the pure state vv*, and also gives a
        DensityMatrix; a 2-D array is a (b, N) stack of unit vectors, one
        pure input per row, and gives the (b, k, k) array of their outputs,
        each the double the row alone gives.  Vectors go through
        `apply_pure` without forming the projector.  Outputs are
        hermitized and have eigenvalue dust below 1e-10 clipped before
        renormalizing.
        """
        x = _operand(state, self.input_dim, "state", "input")
        if isinstance(state, DensityMatrix):
            return DensityMatrix.normalized(self.apply_matrix(x))
        out = normalize_states(self.apply_pure(unit_rows(x)))
        return out if x.ndim == 2 else DensityMatrix(out, _validated=True)

    def adjoint(self, observable) -> np.ndarray:
        """Adjoint action on an output-side observable, hermitized.

        A vector a stands for the rank-one observable aa* and goes through
        `adjoint_rank_one`; anything else is the observable's square matrix.
        """
        y = _operand(observable, self.output_dim, "observable", "output")
        if y.ndim == 1:
            return self.adjoint_rank_one(y)
        return hermitize(self.adjoint_matrix(as_complex_matrix(y)))

    def apply_pure(self, vectors: np.ndarray) -> np.ndarray:
        """Output matrix for a pure input vector, or (b, k, k) outputs for a (b, N) stack.

        This generic form maps the projector of each vector in turn; the
        kinds the output cloud samples override it with one stacked pass.
        """
        v = np.asarray(vectors, dtype=np.complex128)
        if v.ndim == 2:
            return np.stack([self.apply_pure(row) for row in v])
        return self.apply_matrix(np.outer(v, v.conj()))

    def adjoint_rank_one(self, vector: np.ndarray) -> np.ndarray:
        """Adjoint lift of the rank-one observable built on `vector`."""
        v = np.asarray(vector, dtype=np.complex128).reshape(-1)
        return hermitize(self.adjoint_matrix(np.outer(v, v.conj())))

    def cache_lifts(self) -> None:
        """Prepare for many `adjoint_rank_one` calls; the generic lift keeps nothing."""


class StinespringChannel(Channel):
    """Channel X -> Tr_env[V X V*] for an isometry V : C^N -> C^k (x) C^env.

    Parameters
    ----------
    isometry : (output_dim * env_dim, input_dim) array
        Must satisfy V* V = I within 1e-10.
    output_dim, env_dim : int
        Factor dimensions of the dilation space, left factor major.

    `_validated=True` skips the V* V check, for samplers whose isometry is
    exact by construction.
    """

    # blocks (i, j, V_i* V_j) for i <= j, kept by `cache_lifts`
    _gram: list | None = None

    def __init__(self, isometry, output_dim: int, env_dim: int, *, _validated: bool = False):
        v = np.asarray(isometry, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] != output_dim * env_dim:
            raise DimensionMismatchError(
                f"isometry shape {v.shape} incompatible with ({output_dim}, {env_dim})"
            )
        if v.shape[1] > v.shape[0]:
            raise DimensionMismatchError("isometry must not shrink row space")
        if not _validated:
            _check_isometry(v)
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

    def apply_pure(self, vectors: np.ndarray) -> np.ndarray:
        # a broadcast matmul runs one matrix-vector product per row, the
        # same product a single vector gets (a single GEMM would not be)
        v = np.asarray(vectors, dtype=np.complex128)
        y = np.matmul(self.isometry, v[..., None])
        y = y.reshape(*v.shape[:-1], self.output_dim, self.env_dim)
        return y @ y.conj().swapaxes(-1, -2)

    def adjoint_rank_one(self, vector: np.ndarray) -> np.ndarray:
        # V*(aa* (x) I)V = B*B for B = sum_i conj(a_i) V_i, V_i the isometry's
        # output blocks; expanded, sum_ij a_i conj(a_j) V_i* V_j
        a = np.asarray(vector, dtype=np.complex128).reshape(-1)
        if self._gram is not None:
            return self._gram_lift(a)
        v = self.isometry.reshape(self.output_dim, self.env_dim, self.input_dim)
        b = np.tensordot(a.conj(), v, axes=(0, 0))
        return hermitize(b.conj().T @ b)

    def cache_lifts(self) -> None:
        """Keep the Gram blocks G_ij = V_i* V_j (i <= j) of the output blocks V_i.

        A rank-one lift then sums k(k+1)/2 scaled N x N blocks instead of
        forming B and the (env x N)-by-N product B*B.  Building the blocks
        costs k(k+1)/2 such products, one at a time, so they pay off only
        on a channel that is lifted more often than that.
        """
        if self._gram is None:
            v = self.isometry.reshape(self.output_dim, self.env_dim, self.input_dim)
            k = self.output_dim
            self._gram = [
                (i, j, self._gram_block(v, i, j)) for i in range(k) for j in range(i, k)
            ]

    def _gram_block(self, v: np.ndarray, i: int, j: int):
        return v[i].conj().T @ v[j]

    def _gram_lift(self, a: np.ndarray) -> np.ndarray:
        # the lift is U + U* = hermitize(2U) for
        # U = sum_i (|a_i|^2 / 2) G_ii + sum_{i<j} a_i conj(a_j) G_ij,
        # since G_ji = G_ij*
        two_u = np.zeros((self.input_dim, self.input_dim), dtype=np.complex128)
        for i, j, g in self._gram:
            c = abs(a[i]) ** 2 if i == j else 2.0 * a[i] * a[j].conjugate()
            if np.ndim(g):
                two_u += c * g
            else:  # the block g I
                two_u.flat[:: self.input_dim + 1] += c * g
        return hermitize(two_u)


class MixedUnitaryChannel(StinespringChannel):
    """Weighted family of unitaries, output entries sqrt(w_i w_j) Tr[U_i X U_j*].

    Stores the Stinespring isometry stacking sqrt(w_i) U_i as blocks, and
    the weights (strictly positive, summing to 1, checked first), which
    give the diagonal Gram blocks w_i I of `cache_lifts` without a
    product.  Each U_i is checked to be unitary on its own: the stacked
    isometry alone would only certify sum_i w_i U_i* U_i = I.  `_validated=True` skips
    those checks, for samplers whose unitaries are exact by construction.
    """

    def __init__(self, weights, unitaries, *, _validated: bool = False):
        w = validate_weights(weights)
        us = [as_complex_matrix(u) for u in unitaries]
        if len(us) != w.size:
            raise DimensionMismatchError("one unitary required per weight")
        n = us[0].shape[0]
        for u in us:
            if u.shape[0] != n:
                raise DimensionMismatchError("unitaries must share a dimension")
            if not _validated:
                _check_isometry(u)
        blocks = np.stack(us)
        blocks *= np.sqrt(w)[:, None, None]
        self.weights = w
        self.output_dim = int(w.size)
        self.env_dim = self.input_dim = n
        self.isometry = blocks.reshape(w.size * n, n)

    def _gram_block(self, v: np.ndarray, i: int, j: int):
        # V_i* V_i = w_i U_i* U_i = w_i I: a scalar, with no product or storage
        return float(self.weights[i]) if i == j else super()._gram_block(v, i, j)


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

    def apply_pure(self, vectors: np.ndarray) -> np.ndarray:
        # Tr[vv*] summed as the trace sums the projector's diagonal v_i conj(v_i)
        v = np.asarray(vectors, dtype=np.complex128)
        trace = (v * v.conj()).sum(axis=-1)[..., None, None]
        return trace / self.output_dim * np.eye(self.output_dim, dtype=np.complex128)

    def adjoint_matrix(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=np.complex128)
        return np.trace(y) / self.output_dim * np.eye(self.input_dim, dtype=np.complex128)


def make_depolarizing(output_dim: int, input_dim: int) -> DepolarizingChannel:
    """Depolarizing channel M_N -> M_k."""
    return DepolarizingChannel(output_dim, input_dim)


def make_pinching(dim: int) -> EBChannel:
    """Diagonal-part channel: measure in the standard basis, re-prepare it."""
    units = [np.zeros((dim, dim), dtype=np.complex128) for _ in range(dim)]
    for i, e in enumerate(units):
        e[i, i] = 1.0
    return EBChannel(units, units)
