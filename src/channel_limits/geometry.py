"""Probing the geometry of channel output sets.

Tools to compare finite-dimensional samples against their limiting
descriptions: top-eigenvalue probes of the adjoint action, a
subspace-accelerated Riemannian BFGS ascent on the output-side sphere
for the 1 -> infinity norm, Weyl conjugations, and entropy statistics of
output clouds.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import Channel
from .errors import (
    EmptySampleError,
    OutOfRangeError,
)
from .linalg import (
    DensityMatrix,
    _top_eigenpair,
    as_complex_matrix,
    hermitian_eigenvalues,
    hermitian_eigs,
    hermitize,
    von_neumann_entropy,
)
from .ensembles import sample_pure_state


def probe_top_eigenvalues(channel: Channel, observable, count: int) -> np.ndarray:
    """Top `count` eigenvalues of the adjoint action on one observable, descending.

    The observable is anything `Channel.adjoint` takes: a matrix, or a
    vector a for the rank-one observable aa*.
    """
    if count < 1:
        raise OutOfRangeError("count must be at least 1")
    if count > channel.input_dim:
        raise OutOfRangeError(
            f"count {count} exceeds adjoint dimension {channel.input_dim}"
        )
    # the lift is this call's own array, so the solve may run in its bytes
    lifted = channel.adjoint(observable)
    return hermitian_eigenvalues(lifted, overwrite=True)[:count]


class Restart(NamedTuple):
    """Where one restart of the sphere ascent ended.

    `value` is the top eigenvalue of `output` = Phi(xx*) for the restart's
    last input x, `input_vector`; `trajectory` is f at each accepted point,
    then `value`.  `evaluations` counts full evaluations (lift, top
    eigenpair, forward map), not the steps on the restart's Ritz space, and
    the restart `converged` when its `gradient_norm` is at most 1e-8.
    """

    value: float
    input_vector: np.ndarray
    trajectory: tuple[float, ...]
    output: DensityMatrix
    evaluations: int
    converged: bool
    gradient_norm: float


@dataclass(frozen=True)
class NormAscent:
    """Result of the sphere ascent for the 1 -> infinity norm: one record per restart."""

    restarts: tuple[Restart, ...]

    @property
    def best(self) -> Restart:
        """The first restart with the largest value."""
        return max(self.restarts, key=lambda r: r.value)

    @property
    def value(self) -> float:
        return self.best.value


# Armijo sufficient-increase constant of the backtracking line search
_ARMIJO = 1e-4
# gradient norm at which a restart has converged
_GRADIENT_TOL = 1e-8
# relative change of f within which two evaluations tie: evaluations of f
# at points closer than rounding scatter by about 1e-15
_TIE_TOL = 1e-14
# a new top lift vector whose part outside the Ritz space is at most this
# is taken to lie in it
_SPAN_TOL = 1e-10


def _to_real(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v.real, v.imag])


def _to_complex(r: np.ndarray) -> np.ndarray:
    k = r.shape[0] // 2
    return r[:k] + 1j * r[k:]


def _value_and_gradient(out: np.ndarray, a: np.ndarray):
    """f = <a| out |a> and the horizontal gradient out a - f a."""
    out_a = out @ a
    f = float(np.vdot(a, out_a).real)
    return f, out_a - f * a


def _evaluate(channel: Channel, lift, a: np.ndarray, start: np.ndarray | None = None):
    """f(a) = lambda_max(Phi*(aa*)), its horizontal gradient, x and Phi(xx*).

    x is the top eigenvector of the lift `lift(a)`, so f(a) = <a| Phi(xx*) |a>, and
    by the envelope theorem Phi(xx*) a - f a is the gradient on the unit
    sphere (up to a factor 2), orthogonal to both a and the phase i a.
    The lift is exactly Hermitian and a fresh array, so it goes to the
    eigensolver unchecked.  A `start` near x (the Ritz vector at a) lets
    the solver certify x from it; the lift stays intact until x is
    certified or the solver has fallen back to its cold path, which may
    overwrite it.
    """
    x = _top_eigenpair(lift(a), start).eigenvectors[:, 0]
    out = channel.apply_pure(x)
    return (*_value_and_gradient(out, a), x, out)


class _RitzSpace:
    """Orthonormal basis P of top lift vectors and the reduced problem on span P.

    With the matrix units E_ij = e_i e_j*, the lift of aa* compressed to
    span P is sum_ij a_i conj(a_j) H_ij for the p x p blocks
    H_ij = P* Phi*(E_ij) P, and the output of x = P y has entries
    <e_i| Phi(xx*) |e_j> = x* Phi*(E_ji) x = y* H_ji y.  So `evaluate`
    touches nothing of size N, and `grow` extends every block by one row
    and one column.
    """

    def __init__(self, channel: Channel):
        k = channel.output_dim
        self.channel = channel
        self.basis = np.zeros((channel.input_dim, 0), dtype=np.complex128)
        self.blocks = np.zeros((k, k, 0, 0), dtype=np.complex128)

    def grow(self, x: np.ndarray) -> bool:
        """Add the part of x outside span P; False when it is rounding dust."""
        p = self.basis
        q = x
        for _ in range(2):  # Gram-Schmidt twice keeps P orthonormal to rounding
            q = q - p @ (p.conj().T @ q)
        norm = float(np.linalg.norm(q))
        if norm <= _SPAN_TOL:
            return False
        q /= norm
        self.basis = np.column_stack([p, q])
        # column m of H_ij is P* Phi*(E_ij) q; row m of H_ij is the conjugate
        # of column m of H_ji, since Phi*(E_ij)* = Phi*(E_ji)
        col = self.channel.adjoint_matrix_units(q) @ self.basis.conj()
        k, _, m, _ = self.blocks.shape
        blocks = np.empty((k, k, m + 1, m + 1), dtype=np.complex128)
        blocks[:, :, :m, :m] = self.blocks
        blocks[:, :, :, m] = col
        blocks[:, :, m, :m] = col.conj().swapaxes(0, 1)[:, :, :m]
        self.blocks = blocks
        return True

    def evaluate(self, a: np.ndarray):
        """`_evaluate` on span P: f, gradient, y with x = P y, and Phi(xx*)."""
        k, _, p, _ = self.blocks.shape
        weights = np.outer(a, a.conj()).reshape(-1)
        lifted = (weights @ self.blocks.reshape(k * k, p * p)).reshape(p, p)
        y = np.linalg.eigh(hermitize(lifted))[1][:, -1]
        out = ((self.blocks @ y) @ y.conj()).T
        return (*_value_and_gradient(out, a), y, out)


def _ties(point, f: float) -> bool:
    """Whether an evaluation is a maximum to rounding: f within _TIE_TOL, |g| at most tol.

    Near a maximum f changes by about |g|^2 per step, which drops below
    the scatter of its evaluations as |g| nears 1e-8, so a line search
    can no longer tell a better point from a worse one; the gradient can.
    """
    return point[0] >= f - _TIE_TOL * max(1.0, abs(f)) and (
        float(np.linalg.norm(point[1])) <= _GRADIENT_TOL
    )


def _sphere_bfgs(evaluate, a: np.ndarray, h):
    """Riemannian BFGS from the unit vector a, with f and its gradient from `evaluate`.

    `h` is the starting inverse Hessian approximation, the identity when
    None.  Returns the end point (the last accepted point, or a trial point
    that tied it), the inverse Hessian approximation there, in real
    coordinates, and the evaluation at the end point.  It ends, since each
    accepted step strictly raises f, a bounded float, and each backtrack
    halves t until t |p| <= eps.
    """
    point = evaluate(a)
    f, g = point[:2]
    eye = np.eye(2 * a.shape[0])
    h = eye if h is None else h
    while True:
        g_norm = float(np.linalg.norm(g))
        if g_norm <= _GRADIENT_TOL:
            return a, h, point
        p = _to_complex(h @ _to_real(g))
        p -= a * np.vdot(a, p)
        slope = float(np.vdot(g, p).real)
        if slope <= 0.0:
            h, p, slope = eye, g, g_norm**2
        p_norm = float(np.linalg.norm(p))
        t = 1.0
        # backtrack from t = 1; the else branch runs when no trial passed
        while t * p_norm > np.finfo(float).eps:
            b = a + t * p
            b /= np.linalg.norm(b)
            trial = evaluate(b)
            if trial[0] > f and trial[0] >= f + _ARMIJO * t * slope:
                break
            if _ties(trial, f):
                return b, h, trial
            t *= 0.5
        else:
            return a, h, point
        g_new = trial[1]
        # carry the step and the old gradient to the tangent space at b
        s = t * p
        s -= b * np.vdot(b, s)
        y = g - b * np.vdot(b, g) - g_new
        sy = float(np.vdot(s, y).real)
        if sy > 0.0:
            rs, ry = _to_real(s), _to_real(y)
            v = eye - np.outer(rs, ry) / sy
            h = v @ h @ v.T + np.outer(rs, rs) / sy
        a, point, f, g = b, trial, trial[0], g_new


def _subspace_restart(channel: Channel, lift, a: np.ndarray, iter_cap: int) -> Restart:
    """One restart: BFGS on a growing Ritz space, full evaluations to grow and certify it.

    Each outer step maximizes f on span P from the current point, with
    the BFGS approximation carried over from the last step, and makes
    one full evaluation at the reduced maximizer.  Its f is at least the
    reduced maximum there (the reduced maximum is a Rayleigh quotient of
    the full lift), which is at least the current f, since P holds the
    current top lift vector.  The Ritz vector P y of the reduced maximizer
    is the warm start of that evaluation's eigensolve; the first
    evaluation of a restart has none.
    """
    space = _RitzSpace(channel)
    point = _evaluate(channel, lift, a)
    values, evaluations, h = [point[0]], 1, None
    while (
        float(np.linalg.norm(point[1])) > _GRADIENT_TOL
        and evaluations < iter_cap
        and space.grow(point[2])
    ):
        b, h, reduced = _sphere_bfgs(space.evaluate, a, h)
        if b is a:  # the reduced run took no step
            break
        trial = _evaluate(channel, lift, b, space.basis @ reduced[2])
        evaluations += 1
        if trial[0] > point[0]:
            values.append(trial[0])
        elif not _ties(trial, point[0]):
            break
        a, point = b, trial
    _, g, x, out = point
    value = float(hermitian_eigs(out).eigenvalues[0])
    g_norm = float(np.linalg.norm(g))
    return Restart(
        value,
        x,
        (*values, value),
        DensityMatrix.normalized(out),
        evaluations,
        g_norm <= _GRADIENT_TOL,
        g_norm,
    )


def norm_ascent(
    channel: Channel,
    rng: np.random.Generator,
    restarts: int = 10,
    iter_cap: int = 200,
) -> NormAscent:
    """Maximize <a| Phi(x x*) |a> over unit a in C^k and unit x in C^N.

    For fixed a the best x is the top eigenvector of the adjoint lift of
    aa*, so the problem is to maximize f(a) = lambda_max(Phi*(aa*)) over
    the unit sphere of C^k modulo phase.  One full evaluation of f costs
    one lift, one top eigenpair and one forward map, and also gives the
    gradient Phi(xx*) a - f a.  The lifts all act on one channel, so they
    go through one `Channel.rank_one_lift()` function, built once per
    ascent; the channel itself is left as it was.

    Each restart draws a start a and runs a subspace method (Kangal,
    Meerbergen, Mengi & Michiels, A subspace method for large-scale
    eigenvalue optimization, SIAM J. Matrix Anal. Appl. 39, 2018): it
    keeps an orthonormal basis P of the top lift vectors of its full
    evaluations, maximizes the reduced f_P(a) = lambda_max(P* Phi*(aa*) P)
    by Riemannian BFGS on the sphere with Armijo backtracking and
    normalization as the retraction (Absil, Mahony & Sepulchre,
    Optimization Algorithms on Matrix Manifolds, 2008, ch. 4 and 8), and
    makes one full evaluation at the reduced maximizer, whose top lift
    vector joins P.  f_P is at most f everywhere and equals it at the
    current point, so every accepted full value exceeds the last.  The
    BFGS approximation carries over from one reduced problem to the next.

    A restart ends converged once its full gradient norm is at most 1e-8.
    It ends unconverged when it has made `iter_cap` full evaluations
    (capped), or earlier (stalled) when a new top lift vector lies in
    span P to within 1e-10, the reduced BFGS takes no step, or a full
    value fails to rise.  A full value within 1e-14 relative of the last
    accepted one at a point whose gradient norm is at most 1e-8 is
    accepted, and the restart ends converged there: so close to a
    maximum a line search can no longer tell a better point from a worse
    one.  It never moves to a lower f by more than that.

    The value of a restart is the top eigenvalue of Phi(xx*) at its last
    point: the value of the best a for that x, so it is attained by the
    input x, and it is at least f there up to rounding.  Returns one
    `Restart` record per restart, in draw order; each keeps its output
    Phi(xx*) for reuse as an entropy warm start.
    """
    if restarts < 1 or iter_cap < 1:
        raise OutOfRangeError("restarts and iter_cap must be positive")
    lift = channel.rank_one_lift()
    starts = (sample_pure_state(channel.output_dim, rng) for _ in range(restarts))
    return NormAscent(tuple(_subspace_restart(channel, lift, a, iter_cap) for a in starts))


def weyl_operator(shift: int, phase: int, dim: int) -> np.ndarray:
    """Discrete Weyl unitary X^shift Y^phase on C^dim.

    X cyclically shifts the standard basis, Y multiplies basis vector l
    by exp(2 pi i l / dim).
    """
    if dim < 1:
        raise OutOfRangeError("dim must be positive")
    a = shift % dim
    b = phase % dim
    idx = np.arange(dim)
    shift_mat = np.zeros((dim, dim), dtype=np.complex128)
    shift_mat[(idx + a) % dim, idx] = 1.0
    phases = np.exp(2j * np.pi * b * idx / dim)
    return shift_mat * phases[None, :]


def weyl_conjugates(observable) -> Iterator[np.ndarray]:
    """W A W* for a matrix A, or W a for a vector a (the observable aa*), per Weyl W.

    The dim^2 operators W = weyl_operator(shift, phase, dim) run shift-major.
    """
    a = np.asarray(observable, dtype=np.complex128)
    k = a.shape[0]
    for w in (weyl_operator(s, p, k) for s in range(k) for p in range(k)):
        yield w @ a if a.ndim == 1 else w @ a @ w.conj().T


def weyl_twirl(observable) -> np.ndarray:
    """Average of W A W* over all dim^2 Weyl conjugations."""
    a = as_complex_matrix(observable)
    return sum(weyl_conjugates(a)) / a.shape[0] ** 2


def estimate_smin(outputs) -> float:
    """Smallest von Neumann entropy across a cloud of output states.

    Each item is a state or a (b, n, n) stack of states, whose entropies
    are taken in one stacked call.
    """
    entropies = [np.ravel(von_neumann_entropy(o)) for o in outputs]
    if not any(e.size for e in entropies):
        raise EmptySampleError("no outputs to scan")
    return float(np.concatenate(entropies).min())


def holevo_from_smin(dim: int, smin: float) -> float:
    """Capacity value ln(dim) - smin, valid when flat outputs are reachable."""
    if dim < 1:
        raise OutOfRangeError("dim must be positive")
    cap = float(np.log(dim))
    if not -1e-12 <= smin <= cap + 1e-9:  # a NaN smin fails too
        raise OutOfRangeError(f"smin = {smin} outside [0, ln {dim}]")
    return cap - min(max(smin, 0.0), cap)
