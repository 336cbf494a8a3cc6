"""Closed-form limit values for channel output sets.

The central quantity is the operator norm of a weighted sum of free Haar
unitaries.  For coefficients a it equals

    min_{x >= 0} [ 2x + sum_i (sqrt(x^2 + |a_i|^2) - x) ],

a strictly convex one-dimensional problem solved here by bisection on
the derivative.  Its supremum over unit-norm coefficient vectors with a
fixed per-coordinate scaling has an exact combinatorial description:
each subset J of coordinates contributes a candidate value

    h(J) = sqrt(beta - gamma (#J - 2)^2),
    beta = sum_{j in J} w_j,  gamma = (sum_{j in J} 1/w_j)^{-1},

and the supremum is the largest h(J) over subsets satisfying
min_{j in J} w_j >= gamma |#J - 2|.  These functions feed the
Monte-Carlo experiments as exact targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .channels import validate_weights
from .errors import (
    CapacityExceededError,
    DegenerateInputError,
    DimensionMismatchError,
    EmptySubsetError,
    NonHermitianError,
    NotUnitVectorError,
    OutOfRangeError,
    ZeroVectorError,
)
from .linalg import HERMITIAN_TOL, hermiticity_defect, state_matrix

ENUMERATION_LIMIT = 20
_BISECTION_STEPS = 90


def _derivative_roots(squared: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots of F(x) = 2 - k + sum_i x / sqrt(x^2 + b_i) for rows of `squared`.

    Returns (values, roots) where values[r] is the minimum of the norm
    surrogate for row r.  Rows with F(0+) >= 0 sit at the boundary x = 0.
    """
    b = np.atleast_2d(np.asarray(squared, dtype=float))
    m, k = b.shape
    zero_terms = (b == 0.0).sum(axis=1)
    f_at_zero = 2.0 - k + zero_terms
    x = np.zeros(m)
    active = f_at_zero < 0.0
    if np.any(active):
        lo = np.zeros(m)
        hi = k * np.sqrt(np.max(b, axis=1))
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            with np.errstate(invalid="ignore"):
                f = 2.0 - k + np.sum(
                    mid[:, None] / np.sqrt(mid[:, None] ** 2 + b), axis=1
                )
            above = f > 0.0
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        x = np.where(active, 0.5 * (lo + hi), 0.0)
    values = (2.0 - k) * x + np.sum(np.sqrt(x[:, None] ** 2 + b), axis=1)
    return values, x


def stationary_x(squared_terms) -> float:
    """Root of the norm-surrogate derivative for squared coefficients b_i.

    Returns 0 when the derivative is already non-negative at the boundary
    (which happens iff 2 - k + #{i : b_i = 0} >= 0).
    """
    b = np.asarray(squared_terms, dtype=float).reshape(-1)
    if b.size == 0 or np.any(b < 0.0):
        raise OutOfRangeError("squared terms must be a non-empty non-negative vector")
    if np.all(b == 0.0):
        raise DegenerateInputError("all squared terms vanish")
    _, roots = _derivative_roots(b[None, :])
    return float(roots[0])


def free_unitary_sum_norm(coefficients) -> float:
    """Limiting operator norm of sum_i a_i u_i for free Haar unitaries u_i."""
    a = np.asarray(coefficients, dtype=np.complex128).reshape(-1)
    if a.size == 0 or not np.any(a != 0):
        raise ZeroVectorError("coefficient vector must be nonzero")
    values, _ = _derivative_roots(np.abs(a)[None, :] ** 2)
    return float(values[0])


@dataclass(frozen=True)
class SubsetEvaluation:
    """Candidate data for one coordinate subset.

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
    wj = w[list(idx)]
    m = len(idx)
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
        a = np.zeros(w.size)
        if m == 1:
            a[idx[0]] = 1.0
        else:
            denom = beta - gamma * excess**2
            a[list(idx)] = np.sqrt(np.maximum(0.0, wj - (gamma * excess) ** 2 / wj) / denom)
        maximizer = a
    return SubsetEvaluation(idx, beta, gamma, valid, value, maximizer)


@dataclass(frozen=True)
class SphereSupremum:
    """Supremum of the scaled free-sum norm over unit coefficient vectors."""

    value: float
    argmax_subset: tuple[int, ...]
    maximizer: np.ndarray
    evaluations: tuple[SubsetEvaluation, ...]


def sphere_sup(weights) -> SphereSupremum:
    """Exact sup of a -> free_unitary_sum_norm(a * sqrt(w)) over ||a||_2 = 1.

    Enumerates the 2^k - 1 coordinate subsets (k <= 20) unless the full
    set is already valid, in which case monotonicity of h settles the
    maximum immediately.  Ties pick the lexicographically smallest subset.
    """
    w = validate_weights(weights)
    k = w.size
    if k < 2:
        raise OutOfRangeError("need at least two weights")
    if k > ENUMERATION_LIMIT:
        raise CapacityExceededError(
            f"subset enumeration supported up to k = {ENUMERATION_LIMIT}, got {k}"
        )
    full = evaluate_subset(range(k), w)
    if full.valid:
        return SphereSupremum(full.value, full.subset, full.maximizer, (full,))
    evaluations = []
    best = None
    for size in range(1, k + 1):
        for combo in combinations(range(k), size):
            ev = evaluate_subset(combo, w)
            evaluations.append(ev)
            if not ev.valid:
                continue
            if (
                best is None
                or ev.value > best.value
                or (ev.value == best.value and ev.subset < best.subset)
            ):
                best = ev
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
    nrm = float(np.linalg.norm(a))
    if abs(nrm - 1.0) > 1e-12:
        raise NotUnitVectorError(f"norm {nrm!r} differs from 1 beyond 1e-12")
    return free_unitary_sum_norm(a * np.sqrt(w)) ** 2


def eb_limit(observable, states) -> float:
    """Limit value max_i Tr[A sigma_i] for measure-and-prepare channels."""
    a = state_matrix(observable)
    if hermiticity_defect(a) > HERMITIAN_TOL:
        raise NonHermitianError("observable must be Hermitian")
    if len(states) == 0:
        raise DimensionMismatchError("need at least one output state")
    vals = [float(np.trace(a @ state_matrix(s)).real) for s in states]
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


def maximize_over_sphere(
    scale,
    rng: np.random.Generator,
    starts: int = 50,
    iters: int = 350,
) -> tuple[float, np.ndarray]:
    """Brute-force check of the subset formula: projected gradient ascent.

    Maximizes a -> free_unitary_sum_norm(a * scale) over the real unit
    sphere from `starts` random starting points, with per-start adaptive
    step sizes and monotone acceptance.  Returns (best value, best a).
    Deliberately independent of the subset enumeration.
    """
    s = np.asarray(scale, dtype=float).reshape(-1)
    if s.size == 0 or np.any(s < 0.0) or not np.any(s > 0.0):
        raise OutOfRangeError("scale must be non-negative with a positive entry")
    k = s.size
    a = rng.standard_normal((starts, k))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    s2 = s**2
    val, x = _derivative_roots(a**2 * s2)
    step = np.full(starts, 0.3)
    for _ in range(iters):
        denom = np.sqrt(x[:, None] ** 2 + a**2 * s2)
        grad = np.divide(s2 * a, denom, out=np.zeros_like(a), where=denom > 0)
        grad -= np.sum(grad * a, axis=1, keepdims=True) * a
        cand = a + step[:, None] * grad
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cval, cx = _derivative_roots(cand**2 * s2)
        ok = cval >= val
        a[ok] = cand[ok]
        x[ok] = cx[ok]
        val[ok] = cval[ok]
        step[ok] = np.minimum(step[ok] * 1.1, 1.0)
        step[~ok] = np.maximum(step[~ok] * 0.5, 1e-12)
    best = int(np.argmax(val))
    return float(val[best]), a[best].copy()
