"""Kernels on numpy's bundled OpenBLAS: the same bytes as the numpy
expressions they replace, and a trial working set that stays small."""

import tracemalloc

import numpy as np
import pytest

from channel_limits import experiments, openblas
from channel_limits.config import parse_config_text
from channel_limits.ensembles import haar_isometry, haar_unitary, stream
from channel_limits.errors import NoConvergenceError
from channel_limits.openblas import adjoint_product, orthonormal_columns

bound = pytest.mark.skipif(openblas._KERNELS is None, reason="numpy's OpenBLAS is not bound")

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
    experiments._run_cm_convergence(cfg, 0, n)  # first-call allocations
    tracemalloc.start()
    try:
        experiments._run_cm_convergence(cfg, 0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * n * n) <= 5.5
