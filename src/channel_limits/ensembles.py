"""Seeded random ensembles: Haar unitaries, isometries, channels, states.

Reproducibility contract: every random quantity is drawn from a
counter-based stream keyed by (master_seed, stream_index).  A trial that
re-runs with the same key reproduces its output bit for bit, regardless
of how many other trials run or on which threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channels import MixedUnitaryChannel, StinespringChannel, validate_weights
from .errors import DimensionMismatchError, OutOfRangeError
from .linalg import DensityMatrix, row_norms
from .openblas import householder_product


# master seeds lie in [0, SEED_LIMIT): the stream keys on 64 bits
SEED_LIMIT = 2**64


def stream(master_seed: int, stream_index: int = 0) -> np.random.Generator:
    """Independent generator keyed by (master_seed, stream_index)."""
    if not 0 <= master_seed < SEED_LIMIT:
        raise OutOfRangeError(f"master_seed: {master_seed} outside [0, 2^64)")
    key = np.array([master_seed, stream_index], dtype=np.uint64)
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


def _haar_in(z: np.ndarray, rng: np.random.Generator) -> None:
    """Form a Haar isometry in z's bytes: Q of Stewart's reflectors, column j times sign(beta_j).

    R's diagonal is beta, so these phases make Q Haar (Mezzadri, Notices
    AMS 54, 2007).
    """
    tau, signs = _reflectors(z, rng)
    householder_product(z, tau)
    z *= signs


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
    _haar_in(out.T, rng)
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
    _haar_in(z, rng)
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


def _cmv_band(out: np.ndarray, rng: np.random.Generator, scale: float) -> None:
    """Write scale * C into the band of a zeroed (n, n) out, C a CMV matrix with CUE(n) spectrum.

    Killip and Nenciu (IMRN 2004, no. 50): C = LM, with L = T_0 + T_2 + ...
    and M = 1 + T_1 + T_3 + ... block diagonal, T_j = [[conj a_j, r_j],
    [r_j, -a_j]], r_j = sqrt(1 - |a_j|^2) and the block of j = n - 1 cut to
    [conj a_(n-1)], has a Haar unitary's spectrum when the a_j are
    independent, |a_j|^2 ~ Beta(1, n - j - 1) with a uniform phase and
    a_(n-1) uniform on the unit circle.  The stream gives n - 1 uniforms
    u in (0, 1] for the moduli, taken by the inverse CDF as
    r_j = u^(1 / (2 (n - j - 1))) and |a_j|^2 = -expm1(log u / (n - j - 1)),
    then n for the phases.  Rows 2p, 2p + 1 of C are T_2p times rows 2p,
    2p + 1 of M, which hold (r_(2p-1), -a_(2p-1)) in columns 2p - 1, 2p and
    (conj a_(2p+1), r_(2p+1)) in columns 2p + 1, 2p + 2: only these 4n band
    entries are written.
    """
    n = out.shape[0]
    u = 1.0 - rng.random(n - 1)
    phases = np.exp(2j * np.pi * rng.random(n))
    dof = np.arange(n - 1, 0, -1.0)
    # a_j and r_j at index j + 1: a_(-1) = -1 and r_(-1) = 0 give M's leading
    # 1, and the zeros past j = n - 1 cut the last block
    pairs = (n + 1) // 2
    a, r = np.zeros(2 * pairs + 1, dtype=np.complex128), np.zeros(2 * pairs + 1)
    a[0], a[1 : n + 1] = -1.0, phases
    a[1:n] *= np.sqrt(-np.expm1(np.log(u) / dof))
    r[1:n] = u ** (0.5 / dof)
    theta = np.array([[a[1::2].conj(), r[1::2]], [r[1::2], -a[1::2]]])
    m_rows = np.array([[r[:-1:2], -a[:-1:2]], [a[2::2].conj(), r[2::2]]])
    # entry (i, h, e, p) is C[2p + i, 2p - 1 + 2h + e]
    values = scale * (theta[:, :, None] * m_rows[None])
    i, h, e = np.indices((2, 2, 2))[..., None]
    first = 2 * np.arange(pairs)
    rows, cols = np.broadcast_arrays(first + i, first - 1 + 2 * h + e)
    inside = (rows < n) & (cols >= 0) & (cols < n)
    out[rows[inside], cols[inside]] = values[inside]


def sample_mixed_unitary_channel(
    k: int, n: int, weights, rng: np.random.Generator
) -> MixedUnitaryChannel:
    """Channel of k i.i.d. Haar unitaries on C^n: U_1 = I, U_2 a CMV matrix, then Haar draws.

    By the cyclicity of the trace, the output entries
    sqrt(w_i w_j) Tr[U_i X U_j*] do not change when every U_i is multiplied
    on the left by one unitary, nor when every U_i and X are conjugated by
    one unitary V.  The first gives U_1 = I, as the U_1* U_i are i.i.d.
    Haar.  The second changes no quantity the lab measures (probe spectra,
    the 1 -> inf norm, the output set), since V* X V runs over the inputs
    as X does.  With U_2 = V D V*, the V* U_i V (i >= 3) are i.i.d. Haar
    and independent of D, so U_2 enters only through its eigenvalues, and
    a five-diagonal CMV matrix with the CUE spectrum takes its place.

    The blocks sqrt(w_i) U_i are allocated zeroed: block 0 is sqrt(w_1) I,
    block 1 gets the band of sqrt(w_2) C, and each Haar draw is built and
    scaled in its own block, with the rounding of stacking the unitaries
    and then scaling them.  The stream gives C's uniforms first, then
    U_3..U_k in block order: no Haar draw at k = 2, one at k = 3.
    """
    if k <= 0 or n <= 0:
        raise DimensionMismatchError("dimensions must be positive")
    scale = np.sqrt(validate_weights(weights))
    blocks = np.zeros((k, n, n), dtype=np.complex128)
    # a weight count other than k leaves blocks unfilled, and the channel
    # refuses it
    draws = zip(blocks[1:], scale[1:])
    for block, s in itertools.islice(draws, 1):  # U_2
        _cmv_band(block, rng, s)
    for block, s in draws:  # U_3..U_k
        np.multiply(haar_unitary(n, rng, out=block), s, out=block)
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
