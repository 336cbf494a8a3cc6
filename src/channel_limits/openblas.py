"""numpy's bundled OpenBLAS, bound once, and the kernels that run on it.

numpy offers no QR that works in place and no product that reads an
operand through its conjugate transpose, so both copy whole matrices.
The kernels below call the OpenBLAS numpy itself runs on, through ctypes:

* `orthonormal_columns` -- Q of a thin QR in place (zgeqrf, zungqr);
* `adjoint_product` -- a* b in one zgemm whose op on a is 'C'.

Each runs LAPACK or BLAS with the arguments numpy's own call would pass,
so its result is the value of the numpy expression it replaces, bit for
bit.  Where numpy's library does not export these symbols, or the operands
are not laid out for the call, each kernel evaluates that expression.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import NoConvergenceError


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

# zgeqrf, zungqr (every argument by reference) and cblas_zgemm
_KERNELS = _bind(
    ("scipy_zgeqrf_64_", None, [_PTR] * 8),
    ("scipy_zungqr_64_", None, [_PTR] * 9),
    ("scipy_cblas_zgemm64_", None, [ctypes.c_int] * 3 + [_I64] * 3
     + [_PTR, _PTR, _I64, _PTR, _I64, _PTR, _PTR, _I64]),
)

_ROW_MAJOR, _NO_TRANS, _CONJ_TRANS = 101, 111, 113
_ONE = np.ones(1, dtype=np.complex128)
_ZERO = np.zeros(1, dtype=np.complex128)


def _lapack(routine, name: str, *args) -> None:
    """Call a LAPACK routine; ints go by reference, arrays by address.

    Its last argument is INFO, and a nonzero one raises NoConvergenceError.
    """
    info = _I64(0)
    refs = [ctypes.byref(_I64(a)) if isinstance(a, int) else a.ctypes.data for a in args]
    routine(*refs, ctypes.byref(info))
    if info.value != 0:
        raise NoConvergenceError(f"{name} returned info = {info.value}")


def _lwork(routine, name: str, cols: int, *args) -> np.ndarray:
    """Workspace of the size numpy allocates: the optimum the query reports, at least `cols`."""
    query = np.empty(1, dtype=np.complex128)
    _lapack(routine, name, *args, query, -1)
    return np.empty(max(1, cols, int(query[0].real)), dtype=np.complex128)


def orthonormal_columns(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q of the thin QR z = QR of a tall complex matrix, and the diagonal of R.

    A Fortran-ordered complex128 `z` with at least as many rows as columns
    is overwritten by Q and returned: zgeqrf, then zungqr, each with the
    workspace numpy's `qr` asks for, give the values of
    `np.linalg.qr(z)` bit for bit, without its four matrix-sized buffers.
    Any other `z` goes through `np.linalg.qr` and Q comes back C-ordered.
    """
    rows, cols = z.shape
    if _KERNELS is None or z.dtype != np.complex128 or not z.flags.f_contiguous or rows < cols:
        q, r = np.linalg.qr(z)
        return q, np.diag(r)
    geqrf, ungqr, _ = _KERNELS
    tau = np.empty(cols, dtype=np.complex128)
    ld = max(1, rows)
    work = _lwork(geqrf, "zgeqrf", cols, rows, cols, z, ld, tau)
    _lapack(geqrf, "zgeqrf", rows, cols, z, ld, tau, work, work.size)
    diag = z.diagonal().copy()
    work = _lwork(ungqr, "zungqr", cols, rows, cols, cols, z, ld, tau)
    _lapack(ungqr, "zungqr", rows, cols, cols, z, ld, tau, work, work.size)
    return z, diag


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
        _KERNELS is None
        or a.dtype != np.complex128
        or b.dtype != np.complex128
        or not (a.flags.c_contiguous and b.flags.c_contiguous)
        or b.shape[0] != r  # numpy raises on it; zgemm would read past b
        or min(r, m, n) < 2
    ):
        return a.conj().T @ b
    gemm = _KERNELS[2]
    out = np.empty((m, n), dtype=np.complex128)
    gemm(_ROW_MAJOR, _CONJ_TRANS, _NO_TRANS, m, n, r, _ONE.ctypes.data,
         a.ctypes.data, m, b.ctypes.data, n, _ZERO.ctypes.data, out.ctypes.data, n)
    return out
