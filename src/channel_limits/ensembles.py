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
from .openblas import orthonormal_columns


def stream(master_seed: int, stream_index: int = 0) -> np.random.Generator:
    """Independent generator keyed by (master_seed, stream_index)."""
    key = np.array(
        [np.uint64(master_seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream_index)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _complex_gaussian(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Unit-variance complex Gaussians from real and imaginary standard normals.

    Both parts are scaled by 1/sqrt(2) straight into one complex array.
    numpy divides a complex array by a real scalar as a product with its
    reciprocal, so the values are those of
    `(re + 1j * im) / np.sqrt(2.0)`, bit for bit, without that
    expression's three temporaries.
    """
    z = np.empty(re.shape, dtype=np.complex128)
    scale = 1.0 / np.sqrt(2.0)
    np.multiply(re, scale, out=z.real)
    np.multiply(im, scale, out=z.imag)
    return z


# rows of normals drawn at a time into a Ginibre matrix, and the side of
# the tiles a transpose in place swaps
_BAND = 64


def _fill_ginibre(z: np.ndarray, rng: np.random.Generator) -> None:
    """Fill the complex matrix z, in place, with unit-variance complex Gaussians.

    The real parts are drawn row by row, then the imaginary parts, each
    scaled by 1/sqrt(2) as `_complex_gaussian` scales them: the stream and
    the values of drawing both as whole matrices, bit for bit.  They are
    drawn _BAND rows at a time, so no matrix-sized temporary is made,
    whatever z's memory order.
    """
    scale = 1.0 / np.sqrt(2.0)
    for part in (z.real, z.imag):
        for i in range(0, part.shape[0], _BAND):
            rows = part[i : i + _BAND]
            np.multiply(rng.standard_normal(rows.shape), scale, out=rows)


def _ginibre(rows: int, cols: int, rng: np.random.Generator, order: str = "C") -> np.ndarray:
    z = np.empty((rows, cols), dtype=np.complex128, order=order)
    _fill_ginibre(z, rng)
    return z


def _haar_columns(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """QR of a rows x cols Ginibre matrix, with R's diagonal phases moved into Q.

    The Ginibre values are drawn into a Fortran-ordered array, which
    `orthonormal_columns` overwrites with Q; the result is the value of
    `np.linalg.qr` and the phase fix, bit for bit.
    """
    q, d = orthonormal_columns(_ginibre(rows, cols, rng, order="F"))
    q *= d / np.abs(d)
    return q


def _haar_in_place(block: np.ndarray, scale: float = 1.0) -> None:
    """Turn the Ginibre matrix z = block.T into its Haar unitary, in the block's bytes.

    block is C-ordered, so z is Fortran-ordered and its QR runs in place;
    the phase fix and then `scale` multiply Q as `_haar_columns` and a
    product with the scale would, and a transpose in place, a tile at a
    time, leaves scale * Q in the block, C-ordered.
    """
    z = block.T
    q, d = orthonormal_columns(z)
    q *= d / np.abs(d)
    if scale != 1.0:  # a product with 1.0 changes no bit
        q *= scale
    if q is not z:  # numpy's qr, where the kernels are not bound
        block[...] = q
        return
    tiles = [slice(i, i + _BAND) for i in range(0, block.shape[0], _BAND)]
    for t, rows in enumerate(tiles):
        block[rows, rows] = block[rows, rows].T.copy()
        for cols in tiles[t + 1 :]:
            upper = block[rows, cols].copy()
            block[rows, cols] = block[cols, rows].T
            block[cols, rows] = upper.T


def haar_unitary(dim: int, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix.

    Returned Fortran-ordered where numpy's OpenBLAS is bound, else
    C-ordered.  With `out`, a C-contiguous complex128 (dim, dim) array, the
    same values are built in its bytes, C-ordered, and `out` is returned:
    no other dim x dim buffer is made.
    Mezzadri, "How to generate random matrices from the classical compact
    groups", Notices AMS 54 (2007).
    """
    if dim <= 0:
        raise DimensionMismatchError("dimension must be positive")
    if out is None:
        return _haar_columns(dim, dim, rng)
    if out.shape != (dim, dim) or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise DimensionMismatchError(f"out must be a C-contiguous complex ({dim}, {dim}) array")
    _fill_ginibre(out.T, rng)
    _haar_in_place(out)
    return out


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """First `cols` columns of a Haar unitary on C^rows, in distribution.

    Returned C-contiguous, so that a channel's reshapes of it are views.
    """
    if cols > rows:
        raise DimensionMismatchError(f"isometry needs cols <= rows, got {cols} > {rows}")
    if cols <= 0 or rows <= 0:
        raise DimensionMismatchError("dimensions must be positive")
    return np.ascontiguousarray(_haar_columns(rows, cols, rng))


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

    Every Ginibre matrix is drawn here, in stream order.  With a `pool`, a
    concurrent.futures executor, the QR of each unitary but the last is
    submitted to it as a helper task; the last one runs here, then each
    helper is joined.  A helper that no worker has started yet is
    cancelled and run here, so the sampler never waits on queued work, and
    a busy pool costs nothing.  The QRs depend only on their blocks, so
    the isometry is the same bytes with or without a pool.
    """
    scale = np.sqrt(validate_weights(weights))
    blocks = np.zeros((k, n, n), dtype=np.complex128)
    # a weight count other than k leaves blocks unfilled, and the channel
    # refuses it
    helpers = []
    for block, s in zip(blocks[1:-1], scale[1:-1]):
        _fill_ginibre(block.T, rng)
        task = functools.partial(_haar_in_place, block, s)
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
    # C order, so each projector's product keeps the BLAS call it always had
    u = np.ascontiguousarray(haar_unitary(n, rng))
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
