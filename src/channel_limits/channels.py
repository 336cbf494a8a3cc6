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

Both directions of a Stinespring channel contract over the isometry's k
output blocks V_i, never forming a (kn x kn) operator: Phi*(A) = sum_r l_r
B_r* B_r for A = sum_r l_r u_r u_r* and B_r = sum_i conj(u_ri) V_i, by zherk
over B_r's row panels, and Phi(X) = Tr_env[V X V*] is one k x k product of
the (k, env N) views of VX and V, holding only VX beyond its operands.
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
    _hermitian_part,
    as_complex_matrix,
    checked_state,
    hermitize,
    normalize_states,
    unit_rows,
)
from .openblas import adjoint_product, adjoint_square

ISOMETRY_TOL = 1e-10
POVM_TOL = 1e-10
WEIGHT_TOL = 1e-12


def validate_weights(weights) -> np.ndarray:
    """Check for a strictly positive probability vector, return as float array."""
    w = np.asarray(weights, dtype=float).reshape(-1)
    if w.size == 0:
        raise BadWeightsError("empty weight vector")
    if not np.all(np.isfinite(w)):
        raise BadWeightsError("weights must be finite")
    if np.any(w <= 0.0):
        raise BadWeightsError("weights must be strictly positive")
    if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
        raise BadWeightsError(f"weights sum to {float(w.sum())!r}, not 1")
    return w


def _check_isometry(v: np.ndarray) -> None:
    """Raise unless V*V = I within ISOMETRY_TOL; for square V, unitarity."""
    defect = float(np.max(np.abs(adjoint_product(v, v) - np.eye(v.shape[1]))))
    if not defect <= ISOMETRY_TOL:  # a NaN defect fails too
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
        h = _hermitian_part(m, POVM_TOL, InvalidPOVMError)
        if float(np.linalg.eigvalsh(h)[0]) < -POVM_TOL:
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


# rows of a B_r = sum_i c_i V_i formed at a time for a lift
_PANEL_ROWS = 128


def _row_panels(weights, c: np.ndarray, v: np.ndarray):
    """(w_t, rows of B_t = sum_i c[t, i] v[i]) for each t, _PANEL_ROWS rows at a time.

    v is a C-ordered (k, r, m) stack.  Each panel is one product of c[t]
    with the matching rows of every v[i], a strided view that `np.matmul`
    reads in place (`np.dot` would copy it), into one buffer reused for
    every panel, which is read before the next is asked for, so no B_t is
    whole; one t's panels are `np.tensordot(c[t], v, axes=(0, 0))`'s rows.
    """
    k, r, m = v.shape
    buf = np.empty((min(r, _PANEL_ROWS), m), dtype=np.complex128)
    for w, ct in zip(weights, c):
        for i in range(0, r, _PANEL_ROWS):
            panel = buf[: min(_PANEL_ROWS, r - i)]
            np.matmul(ct, v[:, i : i + len(panel)].reshape(k, -1), out=panel.reshape(-1))
            yield w, panel


class Channel:
    """Base class: linear action plus validated state-level wrappers."""

    input_dim: int
    output_dim: int

    def apply_matrix(self, x: np.ndarray) -> np.ndarray:
        """Linear action on an arbitrary input matrix."""
        raise NotImplementedError

    def adjoint_matrix(self, y: np.ndarray) -> np.ndarray:
        """Action of the adjoint map on an arbitrary output-side matrix."""
        raise NotImplementedError(
            f"{type(self).__name__} has no adjoint_matrix; `adjoint` lifts a matrix"
            " as its Hermitian part"
        )

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
        """Adjoint action on an output-side observable, exactly Hermitian.

        A vector a stands for the rank-one observable aa* and goes through
        `adjoint_rank_one`; a matrix Y is hermitized first, as Phi*(Y)'s
        Hermitian part is Phi* of Y's, and goes to `adjoint_hermitian`.
        """
        y = _operand(observable, self.output_dim, "observable", "output")
        if y.ndim == 1:
            return self.adjoint_rank_one(y)
        return self.adjoint_hermitian(hermitize(as_complex_matrix(y)))

    def adjoint_hermitian(self, h: np.ndarray) -> np.ndarray:
        """Adjoint action on a Hermitian observable h; here `adjoint_matrix`'s, hermitized."""
        return hermitize(self.adjoint_matrix(h))

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
        # hermitized as `adjoint` does aa*, whose diagonal numpy can leave off the real axis
        return self.adjoint_hermitian(hermitize(np.outer(v, v.conj())))

    def adjoint_matrix_units(self, x: np.ndarray) -> np.ndarray:
        """Phi*(E_ij) x for every matrix unit E_ij = e_i e_j* of the output side.

        Returned as a (k, k, N) array.  This generic form lifts each of the
        k^2 units in turn.
        """
        e = np.eye(self.output_dim, dtype=np.complex128)
        return np.array(
            [[self.adjoint_matrix(np.outer(ei, ej)) @ x for ej in e] for ei in e]
        )

    def rank_one_lift(self):
        """The map a -> Phi*(aa*), for a caller that lifts many times; here `adjoint_rank_one`."""
        return self.adjoint_rank_one


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

    def __init__(self, isometry, output_dim: int, env_dim: int, *, _validated: bool = False):
        # C order, so that the block reshapes below are views and
        # `adjoint_product` reads the blocks in place
        v = np.ascontiguousarray(isometry, dtype=np.complex128)
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
        # Phi(X)_ij = sum_{e,b} (VX)_{(i,e),b} conj(V_{(j,e),b}), one product
        # of the (k, env N) views of VX and V, taken as conj(conj(VX) V^T)
        # with VX conjugated in place, so that no conjugate copy of V is made
        k = self.output_dim
        vx = self.isometry @ np.asarray(x, dtype=np.complex128)
        np.conjugate(vx, out=vx)
        return (vx.reshape(k, -1) @ self.isometry.reshape(k, -1).T).conj()

    def apply_pure(self, vectors: np.ndarray) -> np.ndarray:
        # a broadcast matmul runs one matrix-vector product per row, the
        # same product a single vector gets (a single GEMM would not be)
        v = np.asarray(vectors, dtype=np.complex128)
        y = np.matmul(self.isometry, v[..., None])
        y = y.reshape(*v.shape[:-1], self.output_dim, self.env_dim)
        return y @ y.conj().swapaxes(-1, -2)

    def adjoint_hermitian(self, h: np.ndarray) -> np.ndarray:
        # V*(H (x) I)V = sum_r l_r B_r* B_r for H = sum_r l_r u_r u_r* and
        # B_r = sum_i conj(u_ri) V_i: one zherk per panel, with alpha l_r
        lam, u = np.linalg.eigh(h)
        v = self.isometry.reshape(self.output_dim, self.env_dim, self.input_dim)
        return adjoint_square(_row_panels(lam, u.T.conj(), v))

    def adjoint_rank_one(self, vector: np.ndarray, gram: list | None = None) -> np.ndarray:
        # V*(aa* (x) I)V = B*B for B = sum_i conj(a_i) V_i, the one-term
        # case of `adjoint_hermitian`; expanded, sum_ij a_i conj(a_j) V_i* V_j
        a = np.asarray(vector, dtype=np.complex128).reshape(-1)
        if gram is None:
            v = self.isometry.reshape(self.output_dim, self.env_dim, self.input_dim)
            return adjoint_square(_row_panels([1.0], a.conj()[None], v))
        # summed over `gram`, the blocks (i, j, G_ij = V_i* V_j) of
        # `rank_one_lift`, the lift is U + U* = hermitize(2U) for
        # U = sum_i (|a_i|^2 / 2) G_ii + sum_{i<j} a_i conj(a_j) G_ij,
        # since G_ji = G_ij*
        two_u = np.zeros((self.input_dim, self.input_dim), dtype=np.complex128)
        for i, j, g in gram:
            c = abs(a[i]) ** 2 if i == j else 2.0 * a[i] * a[j].conjugate()
            if np.ndim(g):
                two_u += c * g
            else:  # the block g I
                two_u.flat[:: self.input_dim + 1] += c * g
        return hermitize(two_u)

    def adjoint_matrix_units(self, x: np.ndarray) -> np.ndarray:
        # Phi*(E_ij) x = V_i* (V x)_j, taken as conj(conj(V x)_j V_i) so that
        # no conjugate copy of V is made
        v = self.isometry.reshape(self.output_dim, self.env_dim, self.input_dim)
        y = (self.isometry @ x).reshape(self.output_dim, self.env_dim)
        return np.matmul(y.conj(), v).conj()

    def rank_one_lift(self):
        """The map a -> Phi*(aa*), summing the Gram blocks G_ij = V_i* V_j (i <= j).

        A lift then adds k(k+1)/2 scaled N x N blocks instead of forming B
        and the (env x N)-by-N product B*B.  Building the blocks costs
        k(k+1)/2 such products, one at a time, so the map pays off only for
        a caller that lifts more often than that.  The blocks live with the
        returned function; the channel keeps nothing.  Each lift is still a
        call of `adjoint_rank_one`, so a profile counts every lift there.
        """
        v = self.isometry.reshape(self.output_dim, self.env_dim, self.input_dim)
        k = self.output_dim
        gram = [(i, j, self._gram_block(v, i, j)) for i in range(k) for j in range(i, k)]
        return lambda a: self.adjoint_rank_one(a, gram)

    def _gram_block(self, v: np.ndarray, i: int, j: int):
        return adjoint_product(v[i], v[j])


class MixedUnitaryChannel(StinespringChannel):
    """Weighted family of unitaries, output entries sqrt(w_i w_j) Tr[U_i X U_j*].

    Stores the Stinespring isometry stacking sqrt(w_i) U_i as blocks, and
    the weights (strictly positive, summing to 1, checked first), which
    give the diagonal Gram blocks w_i I of `rank_one_lift` without a
    product.  Each U_i is checked to be unitary on its own: the stacked
    isometry alone would only certify sum_i w_i U_i* U_i = I.

    `_validated=True` is for samplers whose unitaries are exact by
    construction: it skips those checks and takes `unitaries` as the
    C-ordered (k, n, n) array of the blocks sqrt(w_i) U_i, which becomes
    the isometry without a copy.
    """

    def __init__(self, weights, unitaries, *, _validated: bool = False):
        w = validate_weights(weights)
        blocks = unitaries if _validated else [as_complex_matrix(u) for u in unitaries]
        if len(blocks) != w.size:
            raise DimensionMismatchError("one unitary required per weight")
        if not _validated:
            for u in blocks:
                if u.shape != blocks[0].shape:
                    raise DimensionMismatchError("unitaries must share a dimension")
                _check_isometry(u)
            blocks = np.stack(blocks)
            blocks *= np.sqrt(w)[:, None, None]
        n = blocks.shape[-1]
        self.weights = w
        self.output_dim = int(w.size)
        self.env_dim = self.input_dim = n
        self.isometry = blocks.reshape(w.size * n, n)

    def _gram_block(self, v: np.ndarray, i: int, j: int):
        # V_i* V_i = w_i U_i* U_i = w_i I: a scalar, with no product or storage.
        # When U_i = I, V_i = sqrt(w_i) I and V_i* V_j = sqrt(w_i) V_j, which
        # is also the product's value bit for bit: each of its entries sums
        # one nonzero term and exact zeros
        if i == j:
            return float(self.weights[i])
        scale = np.sqrt(self.weights[i])
        if np.count_nonzero(v[i]) == self.env_dim and np.all(np.diagonal(v[i]) == scale):
            return scale * v[j]
        return super()._gram_block(v, i, j)


class EBChannel(Channel):
    """Measure-and-prepare channel X -> sum_i Tr[X M_i] sigma_i.

    Each sigma_i is a DensityMatrix, or a raw array checked as one.
    """

    def __init__(self, povm, states):
        ms = validate_povm(povm)
        sts = [checked_state(s) for s in states]
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
    """Fully depolarizing map M_N -> M_k, X -> Tr[X] I/k: DepolarizingChannel(k, N)."""

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


def make_pinching(dim: int) -> EBChannel:
    """Diagonal-part channel: measure in the standard basis, re-prepare it."""
    units = [np.zeros((dim, dim), dtype=np.complex128) for _ in range(dim)]
    for i, e in enumerate(units):
        e[i, i] = 1.0
    return EBChannel(units, units)
