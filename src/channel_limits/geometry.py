"""Probing the geometry of channel output sets.

Tools to compare finite-dimensional samples against their limiting
descriptions: top-eigenvalue probes of the adjoint action, alternating
ascent for the 1 -> infinity norm, Weyl conjugations, and entropy
statistics of output clouds.
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
    """Result of the alternating 1 -> infinity norm ascent."""

    value: float
    input_vector: np.ndarray
    trajectory: tuple[float, ...]
    outputs: tuple[DensityMatrix, ...]


def norm_ascent(
    channel: Channel,
    rng: np.random.Generator,
    restarts: int = 10,
    iter_cap: int = 200,
    tol: float = 1e-12,
) -> NormAscent:
    """Alternating maximization of <a| Phi(x x*) |a> over unit a and x.

    Fixing a, the best x is the top eigenvector of the adjoint lift of
    aa*; fixing x, the best a is the top eigenvector of Phi(x x*).  Both
    half-steps are exact, so the objective never decreases.  Keeps the
    best restart; all restart outputs are returned for reuse as entropy
    warm starts.
    """
    if restarts < 1 or iter_cap < 1:
        raise OutOfRangeError("restarts and iter_cap must be positive")
    best_value = -np.inf
    best_x = None
    best_traj: tuple[float, ...] = ()
    outputs = []
    for _ in range(restarts):
        a = sample_pure_state(channel.output_dim, rng)
        traj = []
        prev = -np.inf
        for _ in range(iter_cap):
            lifted = channel.adjoint_rank_one(a)
            x = hermitian_eigs(lifted, top=True).eigenvectors[:, 0]
            out = channel.apply_pure(x)
            vals, vecs = hermitian_eigs(out)
            a = vecs[:, 0]
            value = float(vals[0])
            traj.append(value)
            if value <= prev + tol:
                break
            prev = value
        outputs.append(DensityMatrix.normalized(out))
        if traj[-1] > best_value:
            best_value = traj[-1]
            best_x = x
            best_traj = tuple(traj)
    return NormAscent(best_value, best_x, best_traj, tuple(outputs))


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
    """Smallest von Neumann entropy across a cloud of output states."""
    entropies = [von_neumann_entropy(o) for o in outputs]
    if not entropies:
        raise EmptySampleError("no outputs to scan")
    return min(entropies)


def holevo_from_smin(dim: int, smin: float) -> float:
    """Capacity value ln(dim) - smin, valid when flat outputs are reachable."""
    if dim < 1:
        raise OutOfRangeError("dim must be positive")
    cap = float(np.log(dim))
    if smin < -1e-12 or smin > cap + 1e-9:
        raise OutOfRangeError(f"smin = {smin} outside [0, ln {dim}]")
    return cap - min(max(smin, 0.0), cap)
