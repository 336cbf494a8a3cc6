"""Closed-form limit values for channel output sets.

The central quantity is the operator norm of a weighted sum of free Haar
unitaries.  For coefficients a it equals

    min_{x >= 0} [ 2x + sum_i (sqrt(x^2 + |a_i|^2) - x) ],

a strictly convex one-dimensional problem solved here by Newton's
method on the derivative in u = 1/x^2 (Akemann and Ostrand, 1976).  Its
supremum over unit-norm coefficient vectors with a fixed per-coordinate
scaling has an exact combinatorial description: each subset J of
coordinates contributes a candidate value

    h(J) = sqrt(beta - gamma (#J - 2)^2),
    beta = sum_{j in J} w_j,  gamma = (sum_{j in J} 1/w_j)^{-1},

and the supremum is the largest h(J) over subsets satisfying
min_{j in J} w_j >= gamma |#J - 2|, always attained on a prefix of the
weights sorted heaviest first.  These functions feed the Monte-Carlo
experiments as exact targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import validate_weights
from .errors import (
    DimensionMismatchError,
    EmptySubsetError,
    OutOfRangeError,
    ZeroVectorError,
)
from .linalg import _hermitian_part, checked_state, unit_vector


def _derivative_roots(squared: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of F(x) = 2 - k + sum_i x / sqrt(x^2 + b_i) for rows of `squared`.

    Returns (values, roots) where values[r] is the minimum of the norm
    surrogate for row r.  Rows with F(0+) >= 0 sit at the boundary x = 0.
    The others solve H(u) = 2 - k + sum_i (1 + b_i u)^(-1/2) = 0 in u = 1/x^2
    with b scaled to max 1; H(0) = 2 and H is decreasing and convex, so
    Newton from u = 0 rises to the root.
    """
    b = np.atleast_2d(np.asarray(squared, dtype=float))
    m, k = b.shape
    top = b.max(axis=1, keepdims=True)
    # an entry under tiny * max b moves x by ~1e-154 sqrt(max b), but overflows u
    zero = b <= np.finfo(float).tiny * top
    active = 2.0 - k + zero.sum(axis=1) < 0.0
    c = np.where(zero, 0.0, b)[active] / top[active]
    u = np.zeros(len(c))
    while True:
        s = 1.0 + c * u[:, None]
        h = 2.0 - k + np.sum(s**-0.5, axis=1)
        new = u + 2.0 * h / np.sum(c * s**-1.5, axis=1)
        if not np.any(new > u):
            break
        u = np.maximum(u, new)
    x = np.zeros(m)
    x[active] = np.sqrt(top[active, 0] / u)
    values = (2.0 - k) * x + np.sum(np.sqrt(x[:, None] ** 2 + b), axis=1)
    return values, x


def free_unitary_sum_norm(coefficients) -> float:
    """Limiting operator norm of sum_i a_i u_i for free Haar unitaries u_i."""
    a = np.asarray(coefficients, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise OutOfRangeError("coefficients must be finite")
    if a.size == 0 or not np.any(a != 0):
        raise ZeroVectorError("coefficient vector must be nonzero")
    values, _ = _derivative_roots(np.abs(a)[None, :] ** 2)
    return float(values[0])


@dataclass(frozen=True)
class SubsetEvaluation:
    """Candidate data for one coordinate subset J, its indices ascending.

    weight_sum is beta, harmonic_scale is gamma; value is h(J); maximizer
    is the unit coefficient vector attaining h(J) when the subset is
    valid, None otherwise.
    """

    subset: tuple[int, ...]
    weight_sum: float
    harmonic_scale: float
    valid: bool
    value: float
    maximizer: np.ndarray | None


def _evaluate(w: np.ndarray, idx: np.ndarray) -> SubsetEvaluation:
    """beta, gamma, validity, h(J) and maximizer of one ascending index array."""
    wj = w[idx]
    m = idx.size
    beta = float(wj.sum())
    gamma = float(1.0 / np.sum(1.0 / wj))
    excess = m - 2
    # subsets of size <= 3 satisfy min w_j >= gamma * |m - 2| identically
    # (|m - 2| <= 1 and the harmonic scale never exceeds the smallest
    # weight), so only larger subsets need the literal comparison, which
    # would otherwise be fragile at the singleton equality case
    valid = m <= 3 or bool(wj.min() >= gamma * abs(excess))
    value = float(np.sqrt(max(0.0, beta - gamma * excess**2)))
    maximizer = None
    if valid:
        maximizer = np.zeros(w.size)
        maximizer[idx] = 1.0  # a singleton's; the formula below is 0/0 there
        if m > 1:
            coef = np.maximum(0.0, wj - (gamma * excess) ** 2 / wj)
            maximizer[idx] = np.sqrt(coef / (beta - gamma * excess**2))
    return SubsetEvaluation(tuple(idx.tolist()), beta, gamma, valid, value, maximizer)


def evaluate_subset(subset, weights) -> SubsetEvaluation:
    """Candidate value and maximizer for one subset of coordinates."""
    w = validate_weights(weights)
    idx = tuple(sorted(int(j) for j in subset))
    if len(idx) == 0:
        raise EmptySubsetError("subset must be non-empty")
    if len(set(idx)) != len(idx):
        raise OutOfRangeError(f"subset {idx} has repeated indices")
    if idx[0] < 0 or idx[-1] >= w.size:
        raise OutOfRangeError(f"subset {idx} out of range for {w.size} weights")
    return _evaluate(w, np.array(idx, dtype=np.intp))


@dataclass(frozen=True)
class SphereSupremum:
    """Supremum of the scaled free-sum norm over unit coefficient vectors."""

    value: float
    argmax_subset: tuple[int, ...]
    maximizer: np.ndarray
    evaluations: tuple[SubsetEvaluation, ...]


def sphere_sup(weights) -> SphereSupremum:
    """Exact sup of a -> free_unitary_sum_norm(a * sqrt(w)) over ||a||_2 = 1.

    The supremum is h(P_m) for the best valid heaviest-first prefix P_m,
    the m largest weights (equal weights taken in index order), so at
    most k subsets are evaluated.  If the full set is valid it wins at
    once, by monotonicity of h under inclusion.  Ties between prefixes
    pick the lexicographically smallest subset.

    Why prefixes suffice.  Write b_i = |a_i|^2 w_i; the norm
    min_x [2x + sum_i (sqrt(x^2 + b_i) - x)] is invariant under
    permutations of the b_i and nondecreasing in each.  So moving the
    mass a_i of a coordinate onto an unused coordinate j with
    w_j >= w_i keeps ||a|| and never lowers the norm, and repeating such
    swaps turns any maximizer into one supported on a prefix P_m.  Take
    the smallest such m.  The subset characterization restricted to the
    coordinates of P_m gives the supremum as h(J) for a valid J within
    P_m, attained by a vector supported in J.  If #J < m the same swaps
    would move that vector onto a shorter prefix, so J = P_m.  Every
    valid prefix's h(P_m) is attained by a unit vector, so none exceeds
    the supremum, and the best valid prefix is exact.
    """
    w = validate_weights(weights)
    k = w.size
    if k < 2:
        raise OutOfRangeError("need at least two weights")
    full = _evaluate(w, np.arange(k))
    if full.valid:
        return SphereSupremum(full.value, full.subset, full.maximizer, (full,))
    in_prefix = np.zeros(k, dtype=bool)
    evaluations = []
    for j in np.argsort(-w, kind="stable")[:-1]:
        in_prefix[j] = True
        evaluations.append(_evaluate(w, np.flatnonzero(in_prefix)))
    evaluations.append(full)
    # the largest value, ties to the smallest subset; a singleton is always valid
    best = min((ev for ev in evaluations if ev.valid), key=lambda ev: (-ev.value, ev.subset))
    return SphereSupremum(best.value, best.subset, best.maximizer, tuple(evaluations))


def mixed_unitary_norm_limit(weights) -> float:
    """Limiting 1 -> infinity norm of the weighted-unitary channel family."""
    return sphere_sup(weights).value ** 2


def rank_one_limit(coefficients, weights) -> float:
    """Limit value for the rank-one probe built from unit coefficients a."""
    a = np.asarray(coefficients, dtype=np.complex128).reshape(-1)
    w = validate_weights(weights)
    if a.size != w.size:
        raise DimensionMismatchError("coefficients and weights must have equal length")
    return free_unitary_sum_norm(unit_vector(a) * np.sqrt(w)) ** 2


def eb_limit(observable, states) -> float:
    """Limit value max_i Tr[A sigma_i] for measure-and-prepare channels.

    Each sigma_i is a DensityMatrix, or a raw array checked as one.
    """
    a = _hermitian_part(observable)
    if len(states) == 0:
        raise DimensionMismatchError("need at least one output state")
    vals = [float(np.trace(a @ checked_state(s)).real) for s in states]
    return max(vals)


def stinespring_peak_eigenvalue(k: int, t: float) -> float:
    """Top limiting eigenvalue of minimum-entropy outputs of random isometries.

    For input dimension growing as t*n*k the value saturates at 1 once
    t + 1/k >= 1.
    """
    if k < 2:
        raise OutOfRangeError("need output dimension k >= 2")
    if not (0.0 < t <= 1.0):
        raise OutOfRangeError(f"t = {t} outside (0, 1]")
    if t + 1.0 / k >= 1.0:
        return 1.0
    return (
        t
        + 1.0 / k
        - 2.0 * t / k
        + 2.0 * np.sqrt(t * (1.0 - t) * (k - 1)) / k
    )


def flat_tail_entropy(k: int, peak: float) -> float:
    """Entropy of the spectrum (peak, r, ..., r) on k points, r = (1 - peak)/(k - 1).

    With `peak` the limiting top output eigenvalue this is the limiting
    minimum output entropy; it is 0 once the peak reaches 1.
    """
    if k < 2:
        raise OutOfRangeError("need output dimension k >= 2")
    if not peak > 0.0:
        raise OutOfRangeError(f"peak = {peak} must be positive")
    if peak >= 1.0:
        return 0.0
    rest = (1.0 - peak) / (k - 1)
    return float(-peak * np.log(peak) - (k - 1) * rest * np.log(rest))


def one_heavy_weights(k: int, r: float) -> np.ndarray:
    """Weight vector (r, (1-r)/(k-1), ..., (1-r)/(k-1))."""
    if k < 2:
        raise OutOfRangeError("need k >= 2")
    if not (0.0 < r < 1.0):
        raise OutOfRangeError(f"r = {r} outside (0, 1)")
    w = np.full(k, (1.0 - r) / (k - 1))
    w[0] = r
    return w


def one_heavy_sup_value(r: float) -> float:
    """Piecewise closed form of the k = 4 one-heavy supremum."""
    if not (0.0 < r < 1.0):
        raise OutOfRangeError(f"r = {r} outside (0, 1)")
    if r >= 0.1:
        return (2.0 * r + 1.0) / np.sqrt(8.0 * r + 1.0)
    return (2.0 * np.sqrt(2.0) / 3.0) * np.sqrt(1.0 - r)


_SPHERE_STARTS = 50


def maximize_over_sphere(scale, rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """Brute-force check of the subset formula: projected gradient ascent.

    Maximizes a -> free_unitary_sum_norm(a * scale) over the real unit
    sphere from 50 random starts, with per-start adaptive steps and
    monotone acceptance, until a pass raises no start's value.  Each
    value never falls and is bounded, and a pass that continues strictly
    raises one of them, so only finitely many passes can run.  Returns
    (best value, best a).  Deliberately independent of the prefix scan.
    """
    s = np.asarray(scale, dtype=float).reshape(-1)
    if s.size == 0 or not np.all(np.isfinite(s)) or np.any(s < 0.0) or not np.any(s > 0.0):
        raise OutOfRangeError("scale must be finite and non-negative with a positive entry")
    k = s.size
    a = rng.standard_normal((_SPHERE_STARTS, k))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    s2 = s**2
    val, x = _derivative_roots(a**2 * s2)
    step = np.full(_SPHERE_STARTS, 0.3)
    while True:
        denom = np.sqrt(x[:, None] ** 2 + a**2 * s2)
        grad = np.divide(s2 * a, denom, out=np.zeros_like(a), where=denom > 0)
        grad -= np.sum(grad * a, axis=1, keepdims=True) * a
        cand = a + step[:, None] * grad
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cval, cx = _derivative_roots(cand**2 * s2)
        if not np.any(cval > val):
            break
        ok = cval >= val
        a[ok] = cand[ok]
        x[ok] = cx[ok]
        val[ok] = cval[ok]
        step[ok] = np.minimum(step[ok] * 1.1, 1.0)
        step[~ok] = np.maximum(step[~ok] * 0.5, 1e-12)
    best = int(np.argmax(val))
    return float(val[best]), a[best].copy()
