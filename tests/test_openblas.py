"""Kernels on numpy's bundled OpenBLAS: the same bytes as the numpy
expressions they replace (or, for zherk and the two-stage solve, the same
values to rounding), and a trial working set that stays small."""

import tracemalloc

import numpy as np
import pytest

from channel_limits import channels, experiments, openblas
from channel_limits.config import parse_config_text
from channel_limits.ensembles import (
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
    orthonormal_columns,
)

bound = pytest.mark.skipif(openblas._KERNELS is None, reason="numpy's OpenBLAS is not bound")
herk_bound = pytest.mark.skipif(openblas._HERK is None, reason="no cblas_zherk bound")
two_stage_bound = pytest.mark.skipif(openblas._TWO_STAGE is None, reason="no zheevd_2stage bound")

SHAPES = [(4, 4), (37, 37), (200, 200), (800, 240), (800, 800)]


def _ginibre(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@bound
@pytest.mark.parametrize("shape", SHAPES)
def test_qr_kernel_matches_numpy_qr_bit_for_bit(shape):
    z = _ginibre(shape, 1)
    q, r = np.linalg.qr(z)
    work = np.asfortranarray(z)
    q_kernel, diag = orthonormal_columns(work)
    assert q_kernel is work  # overwritten in place
    assert np.array_equal(q_kernel, q)
    assert np.array_equal(diag, np.diag(r))


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
def test_haar_samplers_give_the_numpy_reference_values(rows, cols):
    # the draw as it was written before the kernels: C-ordered Ginibre
    # values, numpy's qr and the phase fix
    rng = stream(31, rows)
    re, im = rng.standard_normal((rows, cols)), rng.standard_normal((rows, cols))
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
    d = np.diag(r)
    q *= d / np.abs(d)
    if rows == cols:
        assert np.array_equal(haar_unitary(rows, stream(31, rows)), q)
    v = haar_isometry(rows, cols, stream(31, rows))
    assert v.flags.c_contiguous
    assert np.array_equal(v, q)


@bound
def test_lapack_failure_raises():
    geqrf = openblas._KERNELS[0]
    z = np.asfortranarray(_ginibre((4, 4), 7))
    tau, work = np.empty(4, dtype=np.complex128), np.empty(64, dtype=np.complex128)
    with pytest.raises(NoConvergenceError, match="info = -4"):
        openblas._lapack(geqrf, "zgeqrf", 4, 4, z, 1, tau, work, work.size)  # lda < rows


FALLBACK_CONFIGS = [
    """
experiment = cm-convergence
k = 3
weights = 0.2, 0.3, 0.5
nGrid = 30, 61
trials = 2
m = 4
masterSeed = 11
""",
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
@pytest.mark.parametrize("text", FALLBACK_CONFIGS, ids=["cm-convergence", "stinespring-peak"])
def test_numpy_fallback_writes_the_same_bytes(monkeypatch, text):
    cfg = parse_config_text(text)
    kernels = experiments.emit_results(experiments.run_experiment(cfg))
    monkeypatch.setattr(openblas, "_KERNELS", None)
    assert haar_unitary(3, stream(0)).flags.c_contiguous  # the numpy path runs
    assert experiments.emit_results(experiments.run_experiment(cfg)) == kernels


@bound
def test_mixed_unitary_trial_peaks_within_five_and_a_half_n_squared():
    # k = 3: the channel's three blocks, then B and the lift, or the lift
    # and eigvalsh's copy; 7.1 n^2 before the kernels
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


@herk_bound
@pytest.mark.parametrize("shape", [(4, 4), (30, 30), (61, 61), (300, 300), (800, 240)])
def test_herk_triangle_is_within_a_few_ulp_of_the_hermitized_product(shape):
    b = _ginibre(shape, 10)
    want = hermitize(adjoint_product(b, b))
    # b whole, then b in row panels of 128 (the rank-one lift's), and of 7
    for panels in ([b], np.split(b, range(128, len(b), 128)), np.split(b, range(7, len(b), 7))):
        square = adjoint_square(panels)
        assert square.flags.c_contiguous
        assert np.array_equal(square, square.conj().T)  # mirrored exactly
        assert np.abs(square - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()


@herk_bound
@pytest.mark.parametrize("n", [400, 800])
def test_herk_triangle_is_the_hermitized_product_bit_for_bit(n):
    b = _ginibre((n, n), 11)
    assert np.array_equal(adjoint_square([b]), hermitize(adjoint_product(b, b)))


@pytest.mark.parametrize("n", [20, 130, 300])
def test_lift_panels_are_the_rows_of_b_bit_for_bit(n):
    ch = sample_mixed_unitary_channel(3, n, [0.2, 0.3, 0.5], stream(12, n))
    c = np.array([0.6, 0.0, 0.8j]).conj()
    v = ch.isometry.reshape(3, n, n)
    panels = [p.copy() for p in channels._row_panels(c, v)]
    assert max(len(p) for p in panels) == min(n, channels._PANEL_ROWS)
    assert np.array_equal(np.concatenate(panels), np.tensordot(c, v, axes=(0, 0)))


@herk_bound
def test_herk_refuses_panels_of_another_width():
    with pytest.raises(DimensionMismatchError):
        adjoint_square([_ginibre((3, 5), 14), _ginibre((3, 4), 15)])


@two_stage_bound
def test_two_stage_solve_refuses_a_matrix_that_is_not_square():
    with pytest.raises(DimensionMismatchError):
        eigenvalues_two_stage(np.zeros((5, 4), dtype=np.complex128))


def test_lift_without_zherk_is_the_hermitized_product(monkeypatch):
    ch = sample_mixed_unitary_channel(3, 30, [0.2, 0.3, 0.5], stream(12, 0))
    a = np.array([0.6, 0.0, 0.8j])
    b = np.tensordot(a.conj(), ch.isometry.reshape(3, 30, 30), axes=(0, 0))
    monkeypatch.setattr(openblas, "_HERK", None)
    assert adjoint_square([b]) is None
    assert np.array_equal(ch.adjoint_rank_one(a), hermitize(adjoint_product(b, b)))


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
    assert np.array_equal(eigenvalues_two_stage(np.asfortranarray(lift), overwrite=True), want)
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
