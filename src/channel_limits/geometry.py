"""Probing the geometry of channel output sets.

Tools to compare finite-dimensional samples against their limiting
descriptions: top-eigenvalue probes of the adjoint action, a Riemannian
BFGS ascent on the output-side sphere for the 1 -> infinity norm, Weyl
conjugations, and entropy statistics of output clouds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .errors import (
    EmptySampleError,
    OutOfRangeError,
)
from .linalg import (
    DensityMatrix,
    hermitian_eigenvalues,
    hermitian_eigs,
    state_matrix,
    von_neumann_entropy,
)
from .ensembles import sample_pure_state


@dataclass(frozen=True)
class SpectrumProbe:
    """Top adjoint eigenvalues for one probe observable."""

    eigenvalues: np.ndarray
    spread: float

    @property
    def top(self) -> float:
        return float(self.eigenvalues[0])


def probe_top_eigenvalues(channel: Channel, observable, count: int) -> SpectrumProbe:
    """Top `count` eigenvalues of the adjoint action on one observable.

    The observable is anything `Channel.adjoint` takes: a matrix, or a
    vector a for the rank-one observable aa*.

    The spread (largest minus smallest reported eigenvalue) measures how
    far the spectrum edge is from collapsing to its limit value.
    """
    if count < 1:
        raise OutOfRangeError("count must be at least 1")
    if count > channel.input_dim:
        raise OutOfRangeError(
            f"count {count} exceeds adjoint dimension {channel.input_dim}"
        )
    lifted = channel.adjoint(observable)
    vals = hermitian_eigenvalues(lifted)[:count]
    return SpectrumProbe(vals, float(vals[0] - vals[-1]))


@dataclass(frozen=True)
class NormAscent:
    """Result of the sphere ascent for the 1 -> infinity norm.

    `value`, `input_vector` and `trajectory` belong to the best restart;
    `outputs`, `evaluations`, `converged` and `gradient_norms` hold one
    entry per restart, in restart order.
    """

    value: float
    input_vector: np.ndarray
    trajectory: tuple[float, ...]
    outputs: tuple[DensityMatrix, ...]
    evaluations: tuple[int, ...]
    converged: tuple[bool, ...]
    gradient_norms: tuple[float, ...]


# Armijo sufficient-increase constant of the backtracking line search
_ARMIJO = 1e-4
# gradient norm at which a restart has converged
_GRADIENT_TOL = 1e-8


def _to_real(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v.real, v.imag])


def _to_complex(r: np.ndarray) -> np.ndarray:
    k = r.shape[0] // 2
    return r[:k] + 1j * r[k:]


def _evaluate(channel: Channel, a: np.ndarray):
    """f(a) = lambda_max(Phi*(aa*)), its horizontal gradient, x and Phi(xx*).

    x is the top eigenvector of the lift, so f(a) = <a| Phi(xx*) |a>, and
    by the envelope theorem Phi(xx*) a - f a is the gradient on the unit
    sphere (up to a factor 2), orthogonal to both a and the phase i a.
    """
    lifted = channel.adjoint_rank_one(a)
    x = hermitian_eigs(lifted, top=True).eigenvectors[:, 0]
    out = channel.apply_pure(x)
    out_a = out @ a
    f = float(np.vdot(a, out_a).real)
    return f, out_a - f * a, x, out


def _sphere_bfgs(channel: Channel, a: np.ndarray, iter_cap: int):
    """One restart of Riemannian BFGS from the unit vector a.

    Returns (accepted values, x, Phi(xx*), evaluations, converged, |g|)
    at the last accepted point.
    """
    f, g, x, out = _evaluate(channel, a)
    evaluations, values = 1, [f]
    eye = np.eye(2 * a.shape[0])
    h = eye
    while True:
        g_norm = float(np.linalg.norm(g))
        if g_norm <= _GRADIENT_TOL:
            return values, x, out, evaluations, True, g_norm
        p = _to_complex(h @ _to_real(g))
        p -= a * np.vdot(a, p)
        slope = float(np.vdot(g, p).real)
        if slope <= 0.0:
            h, p, slope = eye, g, g_norm**2
        p_norm = float(np.linalg.norm(p))
        t = 1.0
        # backtrack from t = 1; the else branch runs when no trial passed
        while evaluations < iter_cap and t * p_norm > np.finfo(float).eps:
            b = a + t * p
            b /= np.linalg.norm(b)
            trial = _evaluate(channel, b)
            evaluations += 1
            if trial[0] >= f + _ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            return values, x, out, evaluations, False, g_norm
        f_new, g_new, x_new, out_new = trial
        if f_new <= f:
            # near a maximum f stops rising at rounding level; a tie still
            # ends the restart converged when the trial point's gradient
            # norm is at most _GRADIENT_TOL
            g_new_norm = float(np.linalg.norm(g_new))
            if f_new == f and g_new_norm <= _GRADIENT_TOL:
                return values, x_new, out_new, evaluations, True, g_new_norm
            return values, x, out, evaluations, False, g_norm
        # carry the step and the old gradient to the tangent space at b
        s = t * p
        s -= b * np.vdot(b, s)
        y = g - b * np.vdot(b, g) - g_new
        sy = float(np.vdot(s, y).real)
        if sy > 0.0:
            rs, ry = _to_real(s), _to_real(y)
            v = eye - np.outer(rs, ry) / sy
            h = v @ h @ v.T + np.outer(rs, rs) / sy
        a, f, g, x, out = b, f_new, g_new, x_new, out_new
        values.append(f)


def norm_ascent(
    channel: Channel,
    rng: np.random.Generator,
    restarts: int = 10,
    iter_cap: int = 200,
) -> NormAscent:
    """Maximize <a| Phi(x x*) |a> over unit a in C^k and unit x in C^N.

    For fixed a the best x is the top eigenvector of the adjoint lift of
    aa*, so the problem is to maximize f(a) = lambda_max(Phi*(aa*)) over
    the unit sphere of C^k modulo phase.  Each restart draws a start a
    and runs Riemannian BFGS on that sphere with Armijo backtracking and
    normalization as the retraction (Absil, Mahony & Sepulchre,
    Optimization Algorithms on Matrix Manifolds, 2008, ch. 4 and 8).  One
    evaluation of f costs one lift, one top eigenpair and one forward
    map, and also gives the gradient Phi(xx*) a - f a.  The lifts all
    act on one channel, so it first keeps what makes them cheap
    (`Channel.cache_lifts`).

    A restart has converged once its gradient norm is at most 1e-8.
    `iter_cap` caps its evaluations, line-search trials included.  A
    restart also stops when an accepted step fails to raise f: it ends
    converged at the new point when f is unchanged to the last bit and
    the new gradient norm is at most 1e-8, and unconverged at the old
    point otherwise.  It stops unconverged when the step shrinks below
    rounding, and it never moves to a lower f.

    The reported value of a restart is the top eigenvalue of Phi(xx*) at
    its last point: the value of the best a for that x, so it is
    attained by the input x, and it is at least f there up to rounding.
    The trajectory is f at each accepted point, then that value.  Keeps
    the best restart; every restart's output Phi(xx*) is returned for
    reuse as an entropy warm start.
    """
    if restarts < 1 or iter_cap < 1:
        raise OutOfRangeError("restarts and iter_cap must be positive")
    best_value = -np.inf
    best_x = None
    best_traj: tuple[float, ...] = ()
    outputs, evaluations, converged, gradient_norms = [], [], [], []
    channel.cache_lifts()
    for _ in range(restarts):
        a = sample_pure_state(channel.output_dim, rng)
        values, x, out, count, done, g_norm = _sphere_bfgs(channel, a, iter_cap)
        value = float(hermitian_eigs(out).eigenvalues[0])
        outputs.append(DensityMatrix.normalized(out))
        evaluations.append(count)
        converged.append(done)
        gradient_norms.append(g_norm)
        if value > best_value:
            best_value = value
            best_x = x
            best_traj = (*values, value)
    return NormAscent(
        best_value,
        best_x,
        best_traj,
        tuple(outputs),
        tuple(evaluations),
        tuple(converged),
        tuple(gradient_norms),
    )


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


def weyl_twirl(observable) -> np.ndarray:
    """Average of W A W* over all dim^2 Weyl conjugations."""
    a = state_matrix(observable)
    k = a.shape[0]
    total = np.zeros_like(a)
    for s in range(k):
        for p in range(k):
            w = weyl_operator(s, p, k)
            total += w @ a @ w.conj().T
    return total / k**2


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
    if smin < -1e-12 or smin > cap + 1e-9:
        raise OutOfRangeError(f"smin = {smin} outside [0, ln {dim}]")
    return cap - min(max(smin, 0.0), cap)
