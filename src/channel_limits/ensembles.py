"""Seeded random ensembles: Haar unitaries, isometries, channels, states.

Reproducibility contract: every random quantity is drawn from a
counter-based stream keyed by (master_seed, stream_index).  A trial that
re-runs with the same key reproduces its output bit for bit, regardless
of how many other trials run or on which threads.
"""

from __future__ import annotations

import functools
from concurrent.futures import Executor
from dataclasses import dataclass

import numpy as np

from .channels import MixedUnitaryChannel, StinespringChannel, validate_weights
from .errors import DimensionMismatchError
from .linalg import DensityMatrix, row_norms
from .openblas import householder_product


def stream(master_seed: int, stream_index: int = 0) -> np.random.Generator:
    """Independent generator keyed by (master_seed, stream_index)."""
    key = np.array(
        [np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream_index)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


# columns whose reflectors are drawn and computed at a time; the order of the
# norms' sums, and so the last bits of every draw, depends on it
_BAND = 64


def _reflectors(z: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Stewart's reflectors of a Haar isometry below the (m, c) z's diagonal; tau, sign(beta).

    Column j, in order, draws m - j real parts, then m - j imaginary
    parts, each scaled by 1/sqrt(2): a Gaussian x in C^(m - j),
    sent to beta e_1 by zlarfg's reflector I - tau v v*, with alpha = x[0],
    beta = -copysign(|x|, Re alpha), tau = (beta - alpha) / beta and
    v = (1, x[1:] / (alpha - beta)).  In the QR of a Ginibre matrix, what
    the j-th reflector meets is again a fresh Gaussian vector, so these
    have the joint law of zgeqrf's reflectors from half the normals
    (Stewart, SIAM J. Numer. Anal. 17, 1980).  Bands of _BAND columns
    bound the temporaries.
    """
    m, c = z.shape
    scale = 1.0 / np.sqrt(2.0)
    tau, signs = np.empty(c, dtype=np.complex128), np.empty(c)
    for j0 in range(0, c, _BAND):
        j1 = min(j0 + _BAND, c)
        g, start = rng.standard_normal(2 * sum(m - j for j in range(j0, j1))), 0
        for j in range(j0, j1):
            np.multiply(g[start : start + m - j], scale, out=z[j:, j].real)
            np.multiply(g[start + m - j : start + 2 * (m - j)], scale, out=z[j:, j].imag)
            start += 2 * (m - j)
        band = z[j0:, j0:j1]
        band[np.triu_indices(j1 - j0, 1)] = 0.0  # so that each column is its x
        alpha = band.diagonal().copy()
        beta = -np.copysign(np.linalg.norm(band, axis=0), alpha.real)
        tau[j0:j1] = (beta - alpha) / beta
        band *= 1.0 / (alpha - beta)  # zlarfg's product with the reciprocal
        signs[j0:j1] = np.sign(beta)
    return tau, signs


def _haar_from_reflectors(z: np.ndarray, tau: np.ndarray, phases: np.ndarray) -> None:
    """Form Q of z's reflectors in z's bytes, column j times phases[j].

    R's diagonal is beta, so phases sign(beta) make Q Haar (Mezzadri,
    Notices AMS 54, 2007); a block's scale rides on them, exactly.
    """
    householder_product(z, tau)
    z *= phases


def haar_unitary(dim: int, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """Haar-distributed unitary from Stewart's reflectors, with the phase fix.

    Built in `out`, a C-contiguous complex128 (dim, dim) array, or in one
    this allocates, which is returned: Q is formed in its transpose, a
    Fortran-ordered view, so it holds Q^T, Haar too, and no other
    dim x dim buffer is made.
    """
    if dim <= 0:
        raise DimensionMismatchError("dimension must be positive")
    if out is None:
        out = np.empty((dim, dim), dtype=np.complex128)
    elif out.shape != (dim, dim) or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise DimensionMismatchError(f"out must be a C-contiguous complex ({dim}, {dim}) array")
    _haar_from_reflectors(out.T, *_reflectors(out.T, rng))
    return out


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """First `cols` columns of a Haar unitary on C^rows, in distribution.

    Formed as `haar_unitary` forms Q, then returned C-contiguous, so that
    a channel's reshapes of it are views.
    """
    if cols > rows:
        raise DimensionMismatchError(f"isometry needs cols <= rows, got {cols} > {rows}")
    if cols <= 0 or rows <= 0:
        raise DimensionMismatchError("dimensions must be positive")
    z = np.empty((rows, cols), dtype=np.complex128, order="F")
    _haar_from_reflectors(z, *_reflectors(z, rng))
    return np.ascontiguousarray(z)


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
    v = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    v /= row_norms(v)[:, None]
    return v[0] if count is None else v


def sample_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank state G G* / Tr[G G*] from a square Ginibre G."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    m = g @ g.conj().T
    return DensityMatrix.normalized(m / np.trace(m).real)


def sample_mixed_unitary_channel(
    k: int, n: int, weights, rng: np.random.Generator, pool: Executor | None = None
) -> MixedUnitaryChannel:
    """Channel of k i.i.d. Haar unitaries on C^n: U_1 = I, then k - 1 Haar draws.

    The channel of U_1..U_k with weights w has output entries

        sqrt(w_i w_j) Tr[U_i X U_j*] = sqrt(w_i w_j) Tr[(U_1* U_i) X (U_1* U_j)*]

    by the cyclicity of the trace, so it is the same map as the channel of
    I, U_1* U_2, ..., U_1* U_k.  For i.i.d. Haar U_1..U_k and given U_1,
    the products U_1* U_i (i >= 2) are i.i.d. Haar by the left invariance
    of Haar measure; that law does not depend on U_1, so it is their law
    outright.  Drawing them directly gives the law of the k-unitary
    channel, as a random map, at one Haar draw fewer.

    The (k, n, n) blocks sqrt(w_i) U_i are allocated once: block 0 is
    sqrt(w_1) I, and each draw is built and scaled in its own block, with
    the rounding of stacking the unitaries and then scaling them.

    Every unitary's reflectors are computed here, in stream order.  With a
    `pool`, a concurrent.futures executor, forming each unitary but the
    last from its reflectors (zungqr, the phase fix and the scale) is
    submitted to it as a helper task; the last one runs here, then each
    helper is joined.  A helper that no worker has started yet is
    cancelled and run here, so the sampler never waits on queued work, and
    a busy pool costs nothing.  The helpers depend only on their blocks,
    so the isometry is the same bytes with or without a pool.
    """
    scale = np.sqrt(validate_weights(weights))
    blocks = np.zeros((k, n, n), dtype=np.complex128)
    # a weight count other than k leaves blocks unfilled, and the channel
    # refuses it
    helpers = []
    for block, s in zip(blocks[1:-1], scale[1:-1]):
        tau, signs = _reflectors(block.T, rng)
        task = functools.partial(_haar_from_reflectors, block.T, tau, signs * s)
        if pool is None:
            task()
        else:
            helpers.append((pool.submit(task), task))
    if k > 1:
        np.multiply(haar_unitary(n, rng, out=blocks[-1]), scale[-1], out=blocks[-1])
    for future, task in helpers:
        if future.cancel():
            task()
        else:
            future.result()
    blocks[0].flat[:: n + 1] = scale[0]
    return MixedUnitaryChannel(weights, blocks, _validated=True)


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
    if not dims or any(d <= 0 for d in dims) or slack_dim < 0:
        raise DimensionMismatchError("need at least one block, and positive block dimensions")
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
