"""Seeded random ensembles: Haar unitaries, isometries, channels, states.

Reproducibility contract: every random quantity is drawn from a
counter-based stream keyed by (master_seed, stream_index).  A trial that
re-runs with the same key reproduces its output bit for bit, regardless
of how many other trials run or on which threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import MixedUnitaryChannel, StinespringChannel, validate_weights
from .errors import DimensionMismatchError
from .linalg import DensityMatrix, row_norms


def stream(master_seed: int, stream_index: int = 0) -> np.random.Generator:
    """Independent generator keyed by (master_seed, stream_index)."""
    key = np.array(
        [np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream_index)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _complex_gaussian(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Unit-variance complex Gaussians from real and imaginary standard normals."""
    return (re + 1j * im) / np.sqrt(2.0)


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    # two draws rather than one (2, rows, cols) block: the block would give
    # the same stream, but two cm-convergence workers at n = 800 peaked
    # 27 MB higher with it
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return _complex_gaussian(re, im)


def _haar_columns(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """QR of a rows x cols Ginibre matrix, with R's diagonal phases moved into Q."""
    z = _ginibre(rows, cols, rng)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix.

    Mezzadri, "How to generate random matrices from the classical compact
    groups", Notices AMS 54 (2007).
    """
    if dim <= 0:
        raise DimensionMismatchError("dimension must be positive")
    return _haar_columns(dim, dim, rng)


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """First `cols` columns of a Haar unitary on C^rows, in distribution."""
    if cols > rows:
        raise DimensionMismatchError(f"isometry needs cols <= rows, got {cols} > {rows}")
    if cols <= 0 or rows <= 0:
        raise DimensionMismatchError("dimensions must be positive")
    return _haar_columns(rows, cols, rng)


def sample_pure_state(
    dim: int, rng: np.random.Generator, count: int | None = None
) -> np.ndarray:
    """Uniform unit vector on the complex sphere in C^dim, or a (count, dim) stack.

    Each vector draws its dim real parts, then its dim imaginary parts, so
    a stack of `count` rows is the same stream, bit for bit, as `count`
    single draws in a row, and leaves the generator in the same state.
    """
    if dim <= 0:
        raise DimensionMismatchError("dimension must be positive")
    g = rng.standard_normal((1 if count is None else count, 2, dim))
    v = _complex_gaussian(g[:, 0], g[:, 1])
    v /= row_norms(v)[:, None]
    return v[0] if count is None else v


def sample_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank state G G* / Tr[G G*] from a square Ginibre G."""
    g = _ginibre(dim, dim, rng)
    m = g @ g.conj().T
    return DensityMatrix.normalized(m / np.trace(m).real)


def _k_weights(k: int, weights) -> np.ndarray:
    w = validate_weights(weights)
    if w.size != k:
        raise DimensionMismatchError(f"need {k} weights, got {w.size}")
    return w


def sample_mixed_unitary_channel(
    k: int, n: int, weights, rng: np.random.Generator
) -> MixedUnitaryChannel:
    """k independent Haar unitaries on C^n with the given weights."""
    w = _k_weights(k, weights)
    us = [haar_unitary(n, rng) for _ in range(k)]
    return MixedUnitaryChannel(w, us, _validated=True)


def sample_gauged_mixed_unitary_channel(
    k: int, n: int, weights, rng: np.random.Generator
) -> MixedUnitaryChannel:
    """U_1 = I and k - 1 independent Haar unitaries on C^n, with the given weights.

    As a random channel this is not `sample_mixed_unitary_channel`, but its
    output set, and every quantity the experiments read from it, has the
    same law, at one Haar draw fewer.  Let Phi be the channel of Haar
    unitaries U_1..U_k and Psi the channel of U_i U_1* (whose first unitary
    is I), with the same weights.

    * Psi(X) = Phi(U_1* X U_1), so Psi = Phi o Ad(U_1*).  Ad(U_1*) maps the
      states onto themselves, and pure states onto pure states, so Psi and
      Phi have the same output set and the same sup over pure inputs.
    * Psi*(A) = U_1 Phi*(A) U_1*, so each adjoint lift of Psi is unitarily
      conjugate to that of Phi and has the same spectrum.
    * Given U_1, the products U_i U_1* (i >= 2) are independent, each Haar
      by the right invariance of Haar measure.  That conditional law does
      not depend on U_1, so they are i.i.d. Haar outright.

    So the k - 1 unitaries drawn here have the law of U_i U_1*, and every
    function of the output set or of the lift spectra has the law it has
    under `sample_mixed_unitary_channel`.
    """
    w = _k_weights(k, weights)
    us = [np.eye(n, dtype=np.complex128)] + [haar_unitary(n, rng) for _ in range(k - 1)]
    return MixedUnitaryChannel(w, us, _validated=True)


def sample_stinespring_channel(
    k: int, env_dim: int, input_dim: int, rng: np.random.Generator
) -> StinespringChannel:
    """Channel from a Haar isometry C^input -> C^k (x) C^env."""
    v = haar_isometry(k * env_dim, input_dim, rng)
    return StinespringChannel(v, k, env_dim, _validated=True)


@dataclass(frozen=True)
class StinespringRegime:
    """Growth regime for random isometries: input dimension N(n) = t n k, rounded, at least 1."""

    k: int
    t: float
    n_grid: tuple[int, ...] = field(default_factory=tuple)

    def input_dim(self, n: int) -> int:
        return max(1, int(round(self.t * n * self.k)))

    def sample(self, n: int, rng: np.random.Generator) -> StinespringChannel:
        return sample_stinespring_channel(self.k, n, self.input_dim(n), rng)


def sample_projective_povm(
    block_dims, rng: np.random.Generator
) -> list[np.ndarray]:
    """Orthogonal projectors with prescribed ranks, conjugated by a Haar unitary.

    Every element has operator norm exactly 1 and a 1-eigenspace of the
    requested dimension: the unit-norm sampler with no slack block.
    """
    return sample_unit_norm_povm(block_dims, 0, rng)


def sample_unit_norm_povm(
    block_dims, slack_dim: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Non-projective POVM whose elements still have norm 1.

    Projectors of the given ranks share a Haar-rotated basis; a slack
    block of dimension `slack_dim` is split among the elements with
    random convex coefficients, so each element gains eigenvalues
    strictly inside (0, 1) while keeping its 1-eigenspace.
    """
    dims = [int(d) for d in block_dims]
    if any(d <= 0 for d in dims) or slack_dim < 0:
        raise DimensionMismatchError("block dimensions must be positive")
    n = sum(dims) + slack_dim
    u = haar_unitary(n, rng)
    povm = []
    start = 0
    for d in dims:
        cols = u[:, start : start + d]
        povm.append(cols @ cols.conj().T)
        start += d
    if slack_dim > 0:
        cols = u[:, start:]
        slack = cols @ cols.conj().T
        shares = rng.dirichlet(np.ones(len(dims)))
        # keep shares strictly below 1 so the 1-eigenspace dimensions survive
        shares = 0.5 * shares + 0.5 / len(dims)
        shares /= shares.sum()
        for i, s in enumerate(shares):
            povm[i] = povm[i] + s * slack
    return povm
