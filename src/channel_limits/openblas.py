"""numpy's bundled OpenBLAS, bound once, and the kernels that run on it.

numpy offers no QR that works in place and no product that reads an
operand through its conjugate transpose, so both copy whole matrices.
The kernels below call the OpenBLAS numpy itself runs on, through ctypes:

* `orthonormal_columns` -- Q of a thin QR in place (zgeqrf, zungqr);
* `adjoint_product` -- a* b in one zgemm whose op on a is 'C';
* `adjoint_square` -- b* b from b's row panels, one zherk each, mirrored
  in place;
* `eigenvalues_two_stage` -- a Hermitian spectrum by zheevd_2stage, in a
  copy or in the caller's bytes.

The first two run LAPACK or BLAS with the arguments numpy's own call
would pass, so their results are the values of the numpy expressions they
replace, bit for bit.  The last two run other algorithms than numpy's:
zherk's triangle equals the zgemm product's at some sizes and not at
others, within a few ulp, and the two-stage spectrum agrees with
`eigvalsh`'s to rounding.  Where numpy's library does not export a
symbol, or the operands are not laid out for the call, each kernel
evaluates the numpy expression (`adjoint_square` leaves it to its caller).
"""

from __future__ import annotations

import ctypes

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

# zgeqrf, zungqr (every argument by reference) and cblas_zgemm
_KERNELS = _bind(
    ("scipy_zgeqrf_64_", None, [_PTR] * 8),
    ("scipy_zungqr_64_", None, [_PTR] * 9),
    ("scipy_cblas_zgemm64_", None, [ctypes.c_int] * 3 + [_I64] * 3
     + [_PTR, _PTR, _I64, _PTR, _I64, _PTR, _PTR, _I64]),
)

# bound apart from _KERNELS, whose fallback gives numpy's bytes: cblas_zherk
# and zheevd_2stage, whose characters go by address, then their lengths
_HERK = _bind(
    ("scipy_cblas_zherk64_", None, [ctypes.c_int] * 3 + [_I64] * 2
     + [ctypes.c_double, _PTR, _I64, ctypes.c_double, _PTR, _I64]),
)
_TWO_STAGE = _bind(
    ("scipy_zheevd_2stage_64_", None, [_PTR] * 13 + [ctypes.c_size_t] * 2),
)

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


# side of the tiles in which `adjoint_square` mirrors its triangle
_TILE = 64


def adjoint_square(panels) -> np.ndarray | None:
    """b* b, exactly Hermitian, as a C-ordered m x m array, for b given by its row panels.

    `panels` yields one or more (r_p, m) complex matrices, b's rows from
    top to bottom; b* b is the sum of their p* p.  One zherk per panel
    adds p* p to the lower triangle, with half the multiplications of a
    zgemm, and the strict upper triangle is then mirrored from it in
    place, a tile at a time, so no temporary is larger than a tile.  A
    caller that forms b a panel at a time never holds all of it.

    zherk sums in another order than zgemm: for one panel, b itself, the
    triangle was that of `hermitize(adjoint_product(b, b))` bit for bit
    at n = 400 and 800, and a few ulp off it at n = 30, 61 and 300; the
    panel sums round a few ulp off it again.  Returns None, consuming no
    panel, where zherk is not bound; the caller then takes that
    expression.
    """
    if _HERK is None:
        return None
    (herk,) = _HERK
    out, beta = None, 0.0
    for p in panels:
        p = np.ascontiguousarray(p, dtype=np.complex128)
        r, m = p.shape
        if out is None:
            out = np.empty((m, m), dtype=np.complex128)
        elif m != len(out):
            raise DimensionMismatchError(f"panel width {m} != first panel's {len(out)}")
        herk(_ROW_MAJOR, _LOWER, _CONJ_TRANS, m, r, 1.0, p.ctypes.data, max(1, m),
             beta, out.ctypes.data, max(1, m))
        beta = 1.0
    tiles = [slice(i, i + _TILE) for i in range(0, m, _TILE)]
    for t, rows in enumerate(tiles):
        diag = out[rows, rows]
        upper = np.triu_indices(len(diag), 1)
        diag[upper] = diag.T[upper].conj()
        for cols in tiles[t + 1 :]:
            np.conjugate(out[cols, rows].T, out=out[rows, cols])
    return out


def eigenvalues_two_stage(h: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Eigenvalues, ascending, of the Hermitian matrix h, from its lower triangle.

    LAPACK's zheevd_2stage (JOBZ = 'N') runs on a Fortran-ordered copy of
    h and reads its lower triangle, as `eigvalsh` does.  Its reduction to
    a band before the tridiagonal one pays off at large n (0.120 s against
    0.164 s for `eigvalsh` at n = 800, one BLAS thread), not below n = 500,
    and its values agree with `eigvalsh`'s to rounding.  Where the symbol
    is not bound, returns `np.linalg.eigvalsh(h)`.

    With `overwrite`, a contiguous complex128 h is solved in its own bytes,
    which the call destroys, and no n x n copy is made.  A C-ordered h is
    then read as its transpose; for an exactly Hermitian h that is conj(h),
    whose reduction is the conjugate of h's step for step, so the values
    are the same bytes.
    """
    if _TWO_STAGE is None:
        return np.linalg.eigvalsh(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {h.shape}")
    (solve,) = _TWO_STAGE
    n = h.shape[0]
    if overwrite and h.dtype == np.complex128 and h.flags.f_contiguous:
        a = h
    elif overwrite and h.dtype == np.complex128 and h.flags.c_contiguous:
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
