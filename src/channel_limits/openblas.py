"""numpy's bundled OpenBLAS, bound once, and the kernels that run on it.

numpy offers no product of Householder reflectors and no product that
reads an operand through its conjugate transpose, so a Haar draw would
pay for a whole QR and a Gram block would copy its operand.  The kernels
below call the OpenBLAS numpy itself runs on, through ctypes, whose
thread count `one_thread` pins:

* `householder_product` -- Q of given reflectors in z's own bytes (zungqr);
* `adjoint_product` -- a* b in one zgemm whose op on a is 'C';
* `adjoint_square` -- a weighted sum of panels' p* p, one zherk each
  with its weight as real alpha, mirrored in place;
* `eigenvalues_two_stage` -- a Hermitian spectrum by zheevd_2stage, in a
  copy or in the caller's bytes.

The first two run LAPACK or BLAS with the arguments numpy's own call
would pass: zungqr on the reflectors of `np.linalg.qr(z, mode="raw")`
gives `np.linalg.qr(z)`'s Q bit for bit, and the product is the value of
`a.conj().T @ b`, bit for bit.  The last two run other algorithms than
numpy's: zherk's triangle is within the rounding bound of an inner
product over all its panels' rows, and the two-stage spectrum agrees with
`eigvalsh`'s to rounding.  Where numpy's library does not export a
symbol, or the operands are not laid out for the call, each kernel
evaluates a numpy expression itself and keeps its contract, so no caller
knows which path ran; only zgemm's expression gives the same bytes, and
the others agree with their kernel to rounding.
"""

from __future__ import annotations

import ctypes
import logging
from contextlib import contextmanager

import numpy as np

from .errors import DimensionMismatchError, NoConvergenceError


def _load():
    # dlsym on numpy's linalg extension also searches the libraries it
    # links, so this finds the OpenBLAS numpy runs on and not some other copy
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None


_LIB = _load()


def _bind(*signatures):
    """The named functions of _LIB, typed (name, restype, argtypes), or None if one is missing."""
    try:
        fns = tuple(getattr(_LIB, name) for name, _, _ in signatures)
    except AttributeError:  # a missing symbol, or no library at all
        return None
    for fn, (_, restype, argtypes) in zip(fns, signatures):
        fn.restype, fn.argtypes = restype, argtypes
    return fns


_I64 = ctypes.c_int64
_PTR = ctypes.c_void_p

# getter and setter of OpenBLAS's process-wide thread count
_BLAS_THREADS = _bind(
    ("scipy_openblas_get_num_threads64_", ctypes.c_int, []),
    ("scipy_openblas_set_num_threads64_", None, [ctypes.c_int]),
)

# zungqr (every argument by reference), cblas_zgemm, cblas_zherk and
# zheevd_2stage (characters by address, then their lengths), each bound on
# its own, so that each kernel takes its own fallback
_UNGQR = _bind(("scipy_zungqr_64_", None, [_PTR] * 9))
_GEMM = _bind(
    ("scipy_cblas_zgemm64_", None, [ctypes.c_int] * 3 + [_I64] * 3
     + [_PTR, _PTR, _I64, _PTR, _I64, _PTR, _PTR, _I64]),
)
_HERK = _bind(
    ("scipy_cblas_zherk64_", None, [ctypes.c_int] * 3 + [_I64] * 2
     + [ctypes.c_double, _PTR, _I64, ctypes.c_double, _PTR, _I64]),
)
_TWO_STAGE = _bind(
    ("scipy_zheevd_2stage_64_", None, [_PTR] * 13 + [ctypes.c_size_t] * 2),
)

_log = logging.getLogger(__name__)


@contextmanager
def one_thread():
    """Run the body on one OpenBLAS thread, then restore the caller's count.

    OpenBLAS's blocking, and with it the last bits of a product or a
    factorization, depends on its thread count; pinning it makes the bytes
    independent of OPENBLAS_NUM_THREADS.  The count is process-wide, so a
    caller with worker threads enters this before any worker starts and
    leaves it after all have stopped.  Where numpy's BLAS exports no
    setter, the body runs as it is, after one warning.
    """
    if _BLAS_THREADS is None:
        _log.warning(
            "BLAS thread count not set: numpy's BLAS exports no "
            "scipy_openblas_set_num_threads64_, so the bytes may depend on its thread count"
        )
        yield
        return
    get, set_ = _BLAS_THREADS
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


_ROW_MAJOR, _NO_TRANS, _CONJ_TRANS, _LOWER = 101, 111, 113, 122
_ONE = np.ones(1, dtype=np.complex128)
_ZERO = np.zeros(1, dtype=np.complex128)


def _lapack(routine, name: str, *args) -> None:
    """Call a LAPACK routine; ints go by reference, arrays and characters by address.

    Its last argument is INFO, and a nonzero one raises NoConvergenceError.
    The length of each character argument follows INFO, as gfortran passes it.
    """
    info = _I64(0)
    refs = [
        ctypes.byref(_I64(a)) if isinstance(a, int) else a if isinstance(a, bytes)
        else a.ctypes.data
        for a in args
    ]
    lengths = [len(a) for a in args if isinstance(a, bytes)]
    routine(*refs, ctypes.byref(info), *lengths)
    if info.value != 0:
        raise NoConvergenceError(f"{name} returned info = {info.value}")


def householder_product(z: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Q = H_0 ... H_(c-1) [I; 0] of the reflectors below z's diagonal, in z's own bytes.

    z (rows >= c columns) holds below its diagonal the tails of v_j =
    (1, ...), with H_j = I - tau[j] v_j v_j* on rows j onward, as zgeqrf
    leaves them; z is overwritten by Q and returned.  A Fortran-ordered
    complex128 z is formed in place by zungqr, with the workspace numpy's
    `qr` asks for; any other z, or any z where zungqr is not bound, gets
    the reflectors applied one by one in numpy, as LAPACK's unblocked
    zung2r applies them, which agrees with the blocked zungqr to rounding.
    """
    rows, cols = z.shape
    if rows < cols or tau.shape != (cols,):
        raise DimensionMismatchError(
            f"need rows >= cols and one tau per column, got z {z.shape} and tau {tau.shape}"
        )
    if _UNGQR is None or z.dtype != np.complex128 or not z.flags.f_contiguous:
        for j in reversed(range(cols)):
            v = z[j:, j].copy()
            v[0] = 1.0
            z[j:, j + 1 :] -= np.multiply.outer(tau[j] * v, v.conj() @ z[j:, j + 1 :])
            z[j + 1 :, j] = -tau[j] * v[1:]
            z[j, j] = 1.0 - tau[j]
            z[:j, j] = 0.0
        return z
    args = (rows, cols, cols, z, max(1, rows), np.ascontiguousarray(tau, dtype=np.complex128))
    # numpy's workspace: the optimum a query reports, and at least cols
    query = np.empty(1, dtype=np.complex128)
    _lapack(_UNGQR[0], "zungqr", *args, query, -1)
    work = np.empty(max(1, cols, int(query[0].real)), dtype=np.complex128)
    _lapack(_UNGQR[0], "zungqr", *args, work, work.size)
    return z


def adjoint_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a* b for complex matrices a (r x m) and b (r x n), as a C-ordered m x n array.

    For C-contiguous complex128 operands with every dimension at least 2,
    one zgemm reads a through its 'C' op; numpy's `a.conj().T @ b` makes
    the same call on a conjugated copy of a, and conjugation only flips
    signs, so the two agree bit for bit.  Other operands, for which numpy
    would not call zgemm in that form, take that expression.
    """
    (r, m), n = a.shape, b.shape[1]
    if (
        _GEMM is None
        or a.dtype != np.complex128
        or b.dtype != np.complex128
        or not (a.flags.c_contiguous and b.flags.c_contiguous)
        or b.shape[0] != r  # numpy raises on it; zgemm would read past b
        or min(r, m, n) < 2
    ):
        return a.conj().T @ b
    (gemm,) = _GEMM
    out = np.empty((m, n), dtype=np.complex128)
    gemm(_ROW_MAJOR, _CONJ_TRANS, _NO_TRANS, m, n, r, _ONE.ctypes.data,
         a.ctypes.data, m, b.ctypes.data, n, _ZERO.ctypes.data, out.ctypes.data, n)
    return out


# side of the tiles in which `adjoint_square` mirrors its triangle
_TILE = 64


def adjoint_square(terms) -> np.ndarray:
    """sum_t w_t p_t* p_t, exactly Hermitian, as a C-ordered m x m array.

    `terms` yields one or more (w, p): a real weight w of any sign and an
    (r_p, m) panel p, such as b's row panels with w = 1 for b* b.  One
    zherk per term, alpha w, adds w p* p to the lower triangle of a zeroed
    array, with half the multiplications of a zgemm; the strict upper
    triangle is then mirrored in place, a tile at a time, so no temporary
    is larger than a tile.

    zherk sums in another order than zgemm: each entry is within the
    rounding bound of its inner products, and its last bits depend on the
    CPU's kernels (on SkylakeX's, one panel b gave exactly
    `hermitize(adjoint_product(b, b))` at n = 400 and 800).  Without
    zherk, each w * adjoint_product(p, p) is added instead.
    """
    out = None
    for w, p in terms:
        p = np.ascontiguousarray(p, dtype=np.complex128)
        r, m = p.shape
        if out is None:
            out = np.zeros((m, m), dtype=np.complex128)
        elif m != len(out):
            raise DimensionMismatchError(f"panel width {m} != first panel's {len(out)}")
        if _HERK is None:
            out += w * adjoint_product(p, p)
        else:
            _HERK[0](_ROW_MAJOR, _LOWER, _CONJ_TRANS, m, r, w, p.ctypes.data, max(1, m),
                     1.0, out.ctypes.data, max(1, m))
    if out is None:
        raise DimensionMismatchError("no panels to square")
    del p  # the last panel keeps a caller's panel buffer alive through the mirror
    tiles = [slice(i, i + _TILE) for i in range(0, m, _TILE)]
    for t, rows in enumerate(tiles):
        diag = out[rows, rows]
        upper = np.triu_indices(len(diag), 1)
        diag[upper] = diag.T[upper].conj()
        for cols in tiles[t + 1 :]:
            np.conjugate(out[cols, rows].T, out=out[rows, cols])
    np.fill_diagonal(out.imag, 0.0)  # zherk's diagonal is real; a sum of products' need not be
    return out


def eigenvalues_two_stage(h: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Eigenvalues, ascending, of the Hermitian matrix h, from its lower triangle.

    LAPACK's zheevd_2stage (JOBZ = 'N') runs on a Fortran-ordered copy of
    h and reads its lower triangle, as `eigvalsh` does.  Its reduction to
    a band before the tridiagonal one pays off at large n (0.120 s against
    0.164 s for `eigvalsh` at n = 800, one BLAS thread), not below n = 500,
    and its values agree with `eigvalsh`'s to rounding.  Where the symbol
    is not bound, returns `np.linalg.eigvalsh(h)`.

    With `overwrite`, a C-contiguous complex128 h is solved in its own
    bytes, which the call destroys, and no n x n copy is made.  It is read
    as its transpose; for an exactly Hermitian h that is conj(h), whose
    reduction is the conjugate of h's step for step, so the values are
    the same bytes.
    """
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    if _TWO_STAGE is None:
        return np.linalg.eigvalsh(h)
    (solve,) = _TWO_STAGE
    n = h.shape[0]
    if overwrite and h.dtype == np.complex128 and h.flags.c_contiguous:
        a = h.T
    else:
        a = np.array(h, dtype=np.complex128, order="F")
    w, ld = np.empty(n), max(1, n)
    work, rwork, iwork = (np.empty(1, dtype=t) for t in (np.complex128, np.float64, np.int64))
    # a workspace query, then the solve with the sizes it reports
    _lapack(solve, "zheevd_2stage", b"N", b"L", n, a, ld, w, work, -1, rwork, -1, iwork, -1)
    work, rwork, iwork = (
        np.empty(max(1, int(q[0].real)), dtype=q.dtype) for q in (work, rwork, iwork)
    )
    _lapack(solve, "zheevd_2stage", b"N", b"L", n, a, ld, w,
            work, work.size, rwork, rwork.size, iwork, iwork.size)
    return w
