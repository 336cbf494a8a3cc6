"""Kernels on numpy's bundled OpenBLAS: the same bytes as the numpy
expressions they replace (or, for zherk, the two-stage solve and the
numpy fallback of zungqr, the same values to rounding), and a trial
working set that stays small."""

import tracemalloc

import numpy as np
import pytest

from channel_limits import channels, experiments, openblas
from channel_limits.config import parse_config_text
from channel_limits.ensembles import (
    _reflectors,
    haar_isometry,
    haar_unitary,
    sample_mixed_unitary_channel,
    stream,
)
from channel_limits.errors import DimensionMismatchError, NoConvergenceError
from channel_limits.linalg import TWO_STAGE_MIN_DIM, hermitian_eigenvalues, hermitize
from channel_limits.openblas import (
    adjoint_product,
    adjoint_square,
    eigenvalues_two_stage,
    householder_product,
)

bound = pytest.mark.skipif(openblas._GEMM is None, reason="no cblas_zgemm bound")
ungqr_bound = pytest.mark.skipif(openblas._UNGQR is None, reason="no zungqr bound")
herk_bound = pytest.mark.skipif(openblas._HERK is None, reason="no cblas_zherk bound")
two_stage_bound = pytest.mark.skipif(openblas._TWO_STAGE is None, reason="no zheevd_2stage bound")

SHAPES = [(4, 4), (37, 37), (200, 200), (800, 240), (800, 800)]

# Q's columns are unit vectors, so its entries are at most 1 in modulus,
# and a few ulp of 1 bounds two roundings of the same product
FEW_ULP = 4 * np.finfo(float).eps


def _ginibre(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _raw_qr(shape, seed, order="F"):
    # zgeqrf's reflectors and tau of a Ginibre matrix, and numpy's Q of it
    z = _ginibre(shape, seed)
    h, tau = np.linalg.qr(z, mode="raw")  # h holds the reflectors transposed
    return np.array(h.T, order=order), tau, np.linalg.qr(z)[0]


@ungqr_bound
@pytest.mark.parametrize("shape", SHAPES)
def test_qr_kernel_matches_numpy_qr_bit_for_bit(shape):
    # zungqr on numpy's own reflectors, with numpy's workspace, is its Q
    work, tau, q = _raw_qr(shape, 1)
    assert householder_product(work, tau) is work  # overwritten in place
    assert np.array_equal(work, q)


@pytest.mark.parametrize("order", ["C", "F"])
def test_qr_fallback_leaves_numpys_q_in_z(monkeypatch, order):
    monkeypatch.setattr(openblas, "_UNGQR", None)
    work, tau, q = _raw_qr((40, 15), 1, order)
    assert householder_product(work, tau) is work
    assert np.abs(work - q).max() <= FEW_ULP


def test_qr_of_a_wide_matrix_raises_on_both_paths(monkeypatch):
    z = np.asfortranarray(_ginibre((3, 5), 1))
    tau = np.zeros(5, dtype=np.complex128)
    with pytest.raises(DimensionMismatchError):
        householder_product(z, tau)
    with pytest.raises(DimensionMismatchError):
        householder_product(z.T, tau[:4])  # tall, with a tau per column but one
    monkeypatch.setattr(openblas, "_UNGQR", None)
    with pytest.raises(DimensionMismatchError):
        householder_product(z, tau)


@ungqr_bound
@pytest.mark.parametrize("rows, cols", [(61, 61), (300, 300), (800, 240)])
def test_zungqr_and_its_numpy_fallback_agree_to_a_few_ulp(monkeypatch, rows, cols):
    # the sampler's own reflectors, formed by the blocked zungqr and by
    # the numpy loop of zung2r's rank-one updates
    z = np.empty((rows, cols), dtype=np.complex128, order="F")
    tau, _ = _reflectors(z, stream(32, rows))
    kernel = householder_product(z.copy(order="F"), tau)
    monkeypatch.setattr(openblas, "_UNGQR", None)
    fallback = householder_product(z, tau)
    assert fallback is z
    assert np.abs(kernel - fallback).max() <= FEW_ULP
    assert np.abs(kernel.conj().T @ kernel - np.eye(cols)).max() <= 1e-13


@bound
@pytest.mark.parametrize("shape", SHAPES)
def test_conjugate_transpose_kernel_matches_numpy_bit_for_bit(shape):
    b = _ginibre(shape, 2)
    assert np.array_equal(adjoint_product(b, b), b.conj().T @ b)


@bound
def test_gram_product_of_two_tall_blocks_matches_numpy_bit_for_bit():
    # the shape of V_i* V_j for a stinespring-peak isometry at n = 400
    a, b = _ginibre((400, 240), 3), _ginibre((400, 240), 4)
    out = adjoint_product(a, b)
    assert out.flags.c_contiguous
    assert np.array_equal(out, a.conj().T @ b)


@pytest.mark.parametrize("shape", [(1, 5), (5, 1)])
def test_operands_numpy_would_not_send_to_zgemm_take_the_expression(shape):
    a = _ginibre(shape, 5)
    f = np.asfortranarray(_ginibre((4, 3), 6))
    assert np.array_equal(adjoint_product(a, a), a.conj().T @ a)
    assert np.array_equal(adjoint_product(f, f), f.conj().T @ f)


def test_operands_of_different_heights_are_refused_as_numpy_refuses_them():
    with pytest.raises(ValueError):
        adjoint_product(_ginibre((4, 3), 8), _ginibre((5, 3), 9))


@pytest.mark.parametrize("rows, cols", [(1, 1), (6, 6), (50, 50), (40, 15)])
def test_haar_samplers_give_the_numpy_reference_values(stewart_reference, rows, cols):
    # the stream spec written out in numpy; a square unitary is built as Q^T
    q = stewart_reference(rows, cols, stream(31, rows))
    if rows == cols:
        assert np.abs(haar_unitary(rows, stream(31, rows)).T - q).max() <= FEW_ULP
    v = haar_isometry(rows, cols, stream(31, rows))
    assert v.flags.c_contiguous
    assert np.abs(v - q).max() <= FEW_ULP


@ungqr_bound
def test_lapack_failure_raises():
    (ungqr,) = openblas._UNGQR
    work, tau, _ = _raw_qr((4, 4), 7)
    lwork = np.empty(64, dtype=np.complex128)
    with pytest.raises(NoConvergenceError, match="info = -5"):
        openblas._lapack(ungqr, "zungqr", 4, 4, 4, work, 1, tau, lwork, lwork.size)  # lda < rows


FALLBACK_CONFIGS = [
    """
experiment = stinespring-peak
k = 2
t = 0.3
nGrid = 40
trials = 2
restarts = 2
iterCap = 15
masterSeed = 12
""",
]


@bound
@pytest.mark.parametrize("text", FALLBACK_CONFIGS, ids=["stinespring-peak"])
def test_numpy_fallback_writes_the_same_bytes(monkeypatch, text):
    cfg = parse_config_text(text)
    kernels = experiments.emit_results(experiments.run_experiment(cfg))
    monkeypatch.setattr(openblas, "_GEMM", None)
    product, calls = openblas.adjoint_product, []

    def counting(a, b):
        calls.append(a.shape)
        return product(a, b)

    # with _GEMM None, adjoint_product has only its numpy expression to run
    monkeypatch.setattr(channels, "adjoint_product", counting)
    assert experiments.emit_results(experiments.run_experiment(cfg)) == kernels
    assert calls  # the numpy path ran


@bound
@ungqr_bound
def test_mixed_unitary_trial_peaks_within_five_and_a_half_n_squared():
    # k = 3: the channel's three blocks, then the lift and one 128-row panel
    # of B, or the lift and eigvalsh's copy; 7.1 n^2 before the kernels
    n = 300
    cfg = parse_config_text(
        "experiment = cm-convergence\nk = 3\nweights = 0.2, 0.3, 0.5\n"
        f"nGrid = {n}\ntrials = 1\nm = 5\nmasterSeed = 3\n"
    )
    experiments._run_cm_convergence(cfg, 0, n, stream(3, 0))  # first-call allocations
    tracemalloc.start()
    try:
        experiments._run_cm_convergence(cfg, 0, n, stream(3, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * n * n) <= 5.5


@bound
@ungqr_bound
@herk_bound
@two_stage_bound
def test_mixed_unitary_trial_from_the_crossover_peaks_within_four_and_a_half_n_squared():
    # k = 3 from n = 500: the three blocks and the lift, with one panel of B
    # during the lift and the two-stage workspace during the in-place solve
    n = 600
    cfg = parse_config_text(
        "experiment = cm-convergence\nk = 3\nweights = 0.2, 0.3, 0.5\n"
        f"nGrid = {n}\ntrials = 1\nm = 5\nmasterSeed = 3\n"
    )
    experiments._run_cm_convergence(cfg, 0, n, stream(3, 0))  # first-call allocations
    tracemalloc.start()
    try:
        experiments._run_cm_convergence(cfg, 0, n, stream(3, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * n * n) <= 4.5


# ------------------------------------------- zherk lift and two-stage solve


def _rounding_bound(terms):
    """Twice the rounding bound of each entry of sum_t w_t p_t* p_t.

    Each entry is a complex inner product of length R, the panels' rows
    together, and a computed one is within gamma_(R+2) |x|^T |y| of its
    value, gamma_j = j u / (1 - j u) (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sections 3.1 and 3.6).  The weights and
    the sum over terms round once more each, so gamma_(R+T+3) for T terms
    bounds one computation, and twice that bounds two computations apart,
    whatever order either sums in.
    """
    u = np.finfo(float).eps / 2
    j = sum(len(p) for _, p in terms) + len(terms) + 3
    scale = sum(abs(w) * (np.abs(p).T @ np.abs(p)) for w, p in terms)
    return 2 * j * u / (1 - j * u) * scale


def _dense_square(terms):
    return hermitize(sum(w * (p.conj().T @ p) for w, p in terms))


def _assert_whole_lift(square, want, bound):
    assert square.flags.c_contiguous
    assert np.array_equal(square, square.conj().T)  # exactly Hermitian
    assert not np.diagonal(square).imag.any()
    assert np.all(np.abs(square - want) <= bound)


def _row_splits(b):
    # b whole, then b in row panels of 128 (a lift's), and of 7
    return [[b], np.split(b, range(128, len(b), 128)), np.split(b, range(7, len(b), 7))]


# the last two are where SkylakeX's zherk kernels gave the zgemm product's
# triangle bit for bit, which other kernels do not
HERK_SHAPES = [(4, 4), (30, 30), (61, 61), (300, 300), (800, 240), (400, 400), (800, 800)]


@herk_bound
@pytest.mark.parametrize("shape", HERK_SHAPES)
def test_herk_triangle_is_within_a_few_ulp_of_the_hermitized_product(shape):
    # a few ulp per term of each inner product: the rounding bound, which
    # holds on any CPU's kernels, not one kernel's bits
    b = _ginibre(shape, 10)
    want = hermitize(adjoint_product(b, b))
    for panels in _row_splits(b):
        terms = [(1.0, p) for p in panels]
        _assert_whole_lift(adjoint_square(terms), want, _rounding_bound(terms))


WEIGHTS = {
    "negative": [-0.7],
    "zero": [0.0],
    "mixed-sign": [1.5, -0.25, 0.0, -2.0],
}


@pytest.mark.parametrize("herk", [True, False], ids=["zherk", "numpy"])
@pytest.mark.parametrize("weights", WEIGHTS.values(), ids=WEIGHTS.keys())
def test_weighted_terms_are_within_the_rounding_bound_of_the_dense_sum(monkeypatch, herk, weights):
    if herk and openblas._HERK is None:
        pytest.skip("no cblas_zherk bound")
    if not herk:
        monkeypatch.setattr(openblas, "_HERK", None)
    # one b per weight, of 200 or 130 rows, in panels of 128 rows and the rest
    terms = []
    for t, w in enumerate(weights):
        b = _ginibre((200 if t % 2 == 0 else 130, 90), 20 + t)
        terms += [(w, p) for p in np.split(b, range(128, len(b), 128))]
    got = adjoint_square(terms)
    _assert_whole_lift(got, _dense_square(terms), _rounding_bound(terms))
    if not any(weights):
        assert not got.any()


@herk_bound
def test_rounding_bound_refuses_an_entry_off_by_1e_10():
    # the negative control: the bound is tight enough to see a wrong entry
    b = _ginibre((300, 300), 10)
    terms = [(1.0, p) for p in np.split(b, range(128, 300, 128))]
    square = adjoint_square(terms)
    want, bound = hermitize(adjoint_product(b, b)), _rounding_bound(terms)
    _assert_whole_lift(square, want, bound)
    square[200, 3] *= 1.0 + 1e-10
    square[3, 200] = square[200, 3].conjugate()
    with pytest.raises(AssertionError):
        _assert_whole_lift(square, want, bound)


@pytest.mark.parametrize("n", [20, 130, 300])
def test_lift_panels_are_the_rows_of_b_bit_for_bit(n):
    ch = sample_mixed_unitary_channel(3, n, [0.2, 0.3, 0.5], stream(12, n))
    c = np.array([[0.6, 0.0, 0.8j], [0.0, 1.0, 0.0]]).conj()
    v = ch.isometry.reshape(3, n, n)
    terms = [(w, p.copy()) for w, p in channels._row_panels([2.0, -1.0], c, v)]
    assert max(len(p) for _, p in terms) == min(n, channels._PANEL_ROWS)
    half = len(terms) // 2  # the panels of B_0, then those of B_1
    for t, w in enumerate([2.0, -1.0]):
        own = terms[t * half : (t + 1) * half]
        assert all(weight == w for weight, _ in own)
        b = np.tensordot(c[t], v, axes=(0, 0))
        assert np.array_equal(np.concatenate([p for _, p in own]), b)


@herk_bound
def test_herk_refuses_panels_of_another_width():
    with pytest.raises(DimensionMismatchError):
        adjoint_square([(1.0, _ginibre((3, 5), 14)), (1.0, _ginibre((3, 4), 15))])


def test_adjoint_square_refuses_no_panels(monkeypatch):
    # with the symbol bound, where it is, and then without it
    for herk in (openblas._HERK, None):
        monkeypatch.setattr(openblas, "_HERK", herk)
        with pytest.raises(DimensionMismatchError):
            adjoint_square([])


def test_two_stage_solve_refuses_a_matrix_that_is_not_square(monkeypatch):
    # with the symbol bound, where it is, and then without it
    for solve in (openblas._TWO_STAGE, None):
        monkeypatch.setattr(openblas, "_TWO_STAGE", solve)
        with pytest.raises(DimensionMismatchError):
            eigenvalues_two_stage(np.zeros((5, 4), dtype=np.complex128))


def test_lift_without_zherk_is_within_a_few_ulp_of_the_hermitized_product(monkeypatch):
    monkeypatch.setattr(openblas, "_HERK", None)
    a = np.array([0.6, 0.0, 0.8j])
    for n in (30, 300):
        ch = sample_mixed_unitary_channel(3, n, [0.2, 0.3, 0.5], stream(12, 0))
        b = np.tensordot(a.conj(), ch.isometry.reshape(3, n, n), axes=(0, 0))
        want = hermitize(adjoint_product(b, b))
        bound = _rounding_bound([(1.0, b)])
        _assert_whole_lift(ch.adjoint_rank_one(a), want, bound)
        for panels in _row_splits(b):
            terms = [(1.0, p) for p in panels]
            _assert_whole_lift(adjoint_square(terms), want, _rounding_bound(terms))


def _probe_lift(n):
    ch = sample_mixed_unitary_channel(3, n, np.full(3, 1 / 3), stream(13, n))
    return ch.adjoint(np.ones(3) / np.sqrt(3))


@two_stage_bound
@pytest.mark.parametrize("n", [500, 650, 800])
def test_two_stage_top_eigenvalues_match_eigvalsh(n):
    lift = _probe_lift(n)
    want = np.linalg.eigvalsh(lift)[::-1][:5]
    got = hermitian_eigenvalues(lift)[:5]
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


@two_stage_bound
def test_two_stage_solve_leaves_its_input():
    lift = _probe_lift(TWO_STAGE_MIN_DIM)
    kept = lift.copy()
    values = eigenvalues_two_stage(lift)
    assert np.array_equal(lift, kept)
    assert np.array_equal(hermitian_eigenvalues(lift), values[::-1])


@two_stage_bound
@pytest.mark.parametrize("n", [TWO_STAGE_MIN_DIM, 800])
def test_two_stage_solve_in_the_callers_bytes_gives_the_same_values(n):
    # the C-ordered lift is read as its transpose, conj(lift), in place
    lift = _probe_lift(n)
    want = eigenvalues_two_stage(lift)
    assert np.array_equal(eigenvalues_two_stage(lift.copy(), overwrite=True), want)
    assert np.array_equal(hermitian_eigenvalues(lift.copy(), overwrite=True), want[::-1])


def test_below_the_crossover_the_values_are_eigvalsh_bytes():
    lift = _probe_lift(TWO_STAGE_MIN_DIM - 1)
    assert np.array_equal(hermitian_eigenvalues(lift), np.linalg.eigvalsh(lift)[::-1])


def test_without_the_two_stage_symbol_the_values_are_eigvalsh_bytes(monkeypatch):
    lift = _probe_lift(TWO_STAGE_MIN_DIM)
    monkeypatch.setattr(openblas, "_TWO_STAGE", None)
    want = np.linalg.eigvalsh(lift)
    assert np.array_equal(eigenvalues_two_stage(lift), want)
    assert np.array_equal(hermitian_eigenvalues(lift), want[::-1])
