"""Dense Hermitian linear algebra: eigensolver, density matrices, entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from channel_limits import (
    DensityMatrix,
    StinespringRegime,
    hermitian_eigenvalues,
    hermitian_eigs,
    hermitize,
    normalize_states,
    sample_pure_state,
    stream,
    von_neumann_entropy,
)
from channel_limits import linalg
from channel_limits.errors import (
    DimensionMismatchError,
    InvalidDensityMatrixError,
    NoConvergenceError,
    NonHermitianError,
    NotUnitVectorError,
)
from channel_limits.linalg import (
    _top_eigenpair,
    _warm_top_eigenpair,
    row_norms,
    unit_rows,
    unit_vector,
)


def _random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _random_unit_vector(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- eigensolver


def test_eigs_identity():
    vals = hermitian_eigenvalues(np.eye(3))
    assert np.allclose(vals, [1.0, 1.0, 1.0], atol=1e-14)


def test_eigs_diagonal_descending():
    vals = hermitian_eigenvalues(np.diag([0.7, 0.3]))
    assert np.allclose(vals, [0.7, 0.3], atol=1e-14)


def test_eigs_reconstruction():
    rng = np.random.default_rng(11)
    m = _random_hermitian(6, rng)
    vals, vecs = hermitian_eigs(m)
    rebuilt = (vecs * vals) @ vecs.conj().T
    assert np.abs(rebuilt - m).max() <= 1e-10
    assert np.abs(vecs.conj().T @ vecs - np.eye(6)).max() <= 1e-12
    assert np.all(np.diff(vals) <= 1e-14)


def test_hermitize_is_exactly_hermitian_and_idempotent():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = hermitize(m)
    assert np.array_equal(h, _random_hermitian(5, np.random.default_rng(2)))
    assert np.array_equal(h, h.conj().T)
    assert np.array_equal(hermitize(h), h)


@pytest.mark.parametrize("shape", [(1, 1), (5, 5), (130, 130), (4, 7, 7)])
@pytest.mark.parametrize("order", ["C", "F"])
def test_hermitize_is_the_two_sided_formula_bit_for_bit_in_c_order(shape, order):
    # an F-ordered result would send later products down other BLAS calls
    rng = np.random.default_rng(3)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m = np.asarray(m, order=order)
    h = hermitize(m)
    assert h.flags.c_contiguous
    assert np.array_equal(h, (m + m.conj().swapaxes(-1, -2)) / 2.0)


@pytest.mark.parametrize("shape", [(1, 1), (63, 63), (64, 64), (65, 65), (200, 200), (3, 130, 130)])
def test_banded_hermiticity_defect_is_the_full_maximum(shape):
    rng = np.random.default_rng(4)
    m = hermitize(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    # one perturbed entry, in the last band of the last matrix
    m[..., -1, 0] += 1e-3 * (1 + 2j)
    full = np.max(np.abs(m - m.conj().swapaxes(-1, -2)))
    assert linalg.hermiticity_defect(m) == full > 0.0
    m[..., -1, -1] = np.nan
    assert np.isnan(linalg.hermiticity_defect(m))
    assert linalg.hermiticity_defect(m[..., :0, :0]) == 0.0


def test_eigs_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _assert_top_pair_matches_eigh(m, start=None):
    want_vals, want_vecs = np.linalg.eigh(m)
    top = _top_eigenpair(m.copy(), start)
    assert top.eigenvalues.shape == (1,) and top.eigenvectors.shape == (len(m), 1)
    lam = want_vals[-1]
    assert abs(top.eigenvalues[0] - lam) <= 1e-13 * max(1.0, abs(lam))
    assert 1.0 - abs(np.vdot(top.eigenvectors[:, 0], want_vecs[:, -1])) <= 1e-12


def _counting(monkeypatch, name):
    # count the calls the kernel makes to np.linalg.<name>
    calls = []
    original = getattr(np.linalg, name)

    def counted(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _perturbed_top_vector(m, rng, size):
    x = np.linalg.eigh(m)[1][:, -1] + size * _random_unit_vector(len(m), rng)
    return x / np.linalg.norm(x)


def test_top_eigenpair_matches_full_solve():
    rng = np.random.default_rng(12)
    for dim in range(2, 61):
        _assert_top_pair_matches_eigh(_random_hermitian(dim, rng))


def test_top_eigenpair_matches_full_solve_on_stinespring_lift():
    # the lift the norm ascent solves at the benchmark size (N = 240)
    rng = stream(3, 0)
    ch = StinespringRegime(2, 0.3).sample(400, rng)
    _assert_top_pair_matches_eigh(ch.adjoint_rank_one(sample_pure_state(2, rng)))


def test_warm_top_eigenpair_matches_full_solve_on_stinespring_lift(monkeypatch):
    # a start near the top vector, as the ascent's Ritz vector is, is
    # certified without the cold path's eigvalsh
    rng = stream(3, 0)
    ch = StinespringRegime(2, 0.3).sample(400, rng)
    lift = ch.adjoint_rank_one(sample_pure_state(2, rng))
    start = _perturbed_top_vector(lift, np.random.default_rng(4), 1e-4)
    eigvalsh = _counting(monkeypatch, "eigvalsh")
    _assert_top_pair_matches_eigh(lift, start)
    assert eigvalsh == []


def test_warm_top_eigenpair_accepts_an_eigenvector_with_no_solve(monkeypatch):
    m = _random_hermitian(30, np.random.default_rng(6))
    start = np.linalg.eigh(m)[1][:, -1]
    solves = _counting(monkeypatch, "solve")
    eigvalsh = _counting(monkeypatch, "eigvalsh")
    _assert_top_pair_matches_eigh(m, start)
    assert solves == [] and eigvalsh == []


def test_warm_top_eigenpair_refuses_a_lower_eigenvector(monkeypatch):
    # Rayleigh quotient iteration from near a lower eigenvector converges
    # there, the Cholesky certificate refuses the pair, and the shifted
    # solves have left the caller's matrix bit for bit for the cold path
    rng = np.random.default_rng(7)
    q = np.linalg.qr(_random_hermitian(12, rng))[0]
    m = hermitize((q * np.linspace(-1.0, 2.0, 12)) @ q.conj().T)
    lower = np.linalg.eigh(m)[1][:, 3] + 1e-4 * _random_unit_vector(12, rng)
    cold = _top_eigenpair(m.copy())
    h = m.copy()
    assert _warm_top_eigenpair(h, lower) is None
    assert np.array_equal(h, m)
    solves = _counting(monkeypatch, "solve")
    cholesky = _counting(monkeypatch, "cholesky")
    eigvalsh = _counting(monkeypatch, "eigvalsh")
    warm = _top_eigenpair(m.copy(), lower)
    assert len(solves) > 2  # the cold path's two and at least one shift
    assert cholesky == ["cholesky"] and eigvalsh == ["eigvalsh"]
    assert np.array_equal(warm.eigenvalues, cold.eigenvalues)
    assert np.array_equal(warm.eigenvectors, cold.eigenvectors)
    _assert_top_pair_matches_eigh(m, lower)


def test_warm_top_eigenpair_falls_back_when_its_solve_fails(monkeypatch):
    m = _random_hermitian(20, np.random.default_rng(8))
    start = _perturbed_top_vector(m, np.random.default_rng(9), 1e-3)
    solve = np.linalg.solve
    calls = []

    def singular_first(a, b):
        calls.append(len(calls))
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_first)
    eigvalsh = _counting(monkeypatch, "eigvalsh")
    _assert_top_pair_matches_eigh(m, start)
    assert eigvalsh == ["eigvalsh"] and len(calls) == 3


_DEGENERATE = {"scalar": 2.5 * np.eye(4), "tied-top": np.diag([0.1, 0.9, -3.0, 0.9, 0.2])}


@pytest.mark.parametrize(
    "m, warm",
    [(m, warm) for warm in (False, True) for m in _DEGENERATE.values()],
    ids=[name + suffix for suffix in ("", "-warm") for name in _DEGENERATE],
)
def test_top_eigenpair_in_degenerate_top_eigenspace(m, warm, monkeypatch):
    # a warm start near a mix of the tied top vectors is certified there
    start = None
    if warm:
        rng = np.random.default_rng(10)
        start = (np.diag(m) == np.max(np.diag(m))) * _random_unit_vector(len(m), rng)
        start += 1e-3 * _random_unit_vector(len(m), rng)
    eigvalsh = _counting(monkeypatch, "eigvalsh")
    vals, vecs = _top_eigenpair(m.astype(np.complex128), start)
    assert len(eigvalsh) == (not warm)
    x = vecs[:, 0]
    lam = np.max(np.diag(m))
    assert vals[0] == pytest.approx(lam, abs=1e-14)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
    assert np.linalg.norm(m @ x - lam * x) <= 1e-12


def test_top_eigenpair_reports_a_failed_solve(monkeypatch):
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.ones_like(b))
    with pytest.raises(NoConvergenceError, match="residual"):
        _top_eigenpair(_random_hermitian(6, np.random.default_rng(5)))


def test_top_eigenpair_reports_a_lapack_failure(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NoConvergenceError, match="Singular"):
        _top_eigenpair(_random_hermitian(6, np.random.default_rng(5)))


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 7))
@settings(max_examples=40, deadline=None)
def test_eigs_trace_and_sum_agree(seed, dim):
    rng = np.random.default_rng(seed)
    m = _random_hermitian(dim, rng)
    vals = hermitian_eigenvalues(m)
    assert abs(vals.sum() - np.trace(m).real) <= 1e-9 * max(1.0, abs(vals).sum())


# ------------------------------------------------------------ density matrix


def test_density_matrix_constructors():
    p = DensityMatrix.pure(np.array([1.0, 1.0]) / np.sqrt(2.0))
    assert abs(np.trace(p.matrix) - 1.0) <= 1e-14
    m = DensityMatrix.maximally_mixed(4)
    assert np.abs(m.matrix - np.eye(4) / 4).max() <= 1e-14
    d = DensityMatrix(np.diag([0.2, 0.8]))
    assert np.abs(d.matrix - np.diag([0.2, 0.8])).max() <= 1e-14


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix(np.eye(2))
    with pytest.raises(InvalidDensityMatrixError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_density_matrix_normalized_recovers_from_roundoff():
    rng = np.random.default_rng(8)
    base = DensityMatrix.pure(_random_unit_vector(3, rng)).matrix
    dirty = base + 1e-13 * _random_hermitian(3, rng)
    state = DensityMatrix.normalized(dirty)
    assert abs(np.trace(state.matrix) - 1.0) <= 1e-12
    assert hermitian_eigenvalues(state.matrix).min() >= -1e-12


# ---------------------------------------------------------------- entropies


def test_von_neumann_entropy_extremes():
    assert abs(von_neumann_entropy(DensityMatrix.maximally_mixed(5)) - np.log(5)) <= 1e-12
    pure = DensityMatrix.pure(np.array([1.0, 0.0, 0.0]))
    assert abs(von_neumann_entropy(pure)) <= 1e-12


def test_pure_state_entropy_is_positive_zero():
    pure = DensityMatrix.pure(np.array([1.0, 0.0]))
    assert math.copysign(1.0, von_neumann_entropy(pure)) == 1.0
    stack = np.stack([pure.matrix, np.diag([0.0, 1.0])])
    assert [math.copysign(1.0, s) for s in von_neumann_entropy(stack)] == [1.0, 1.0]


def test_von_neumann_entropy_two_level():
    state = DensityMatrix(np.diag([0.7, 0.3]))
    expect = -0.7 * np.log(0.7) - 0.3 * np.log(0.3)
    assert abs(von_neumann_entropy(state) - expect) <= 1e-12


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_entropy_bounds(seed, dim):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    state = DensityMatrix.normalized(g @ g.conj().T)
    s = von_neumann_entropy(state)
    assert -1e-12 <= s <= np.log(dim) + 1e-12


# ------------------------------------------------------------------- stacks


def _one_matrix_normalized(m):
    # the one-matrix normalization as it stood before it became stack-aware
    h = (m + m.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(h)
    vals = np.clip(vals, 0.0, None)
    vals /= float(vals.sum())
    out = (vecs * vals) @ vecs.conj().T
    return (out + out.conj().T) / 2.0


def _positives_only_entropy(m):
    # the one-state entropy summed over the positive eigenvalues alone
    vals = np.clip(np.linalg.eigvalsh((m + m.conj().T) / 2.0), 0.0, None)
    pos = vals[vals > 0.0]
    return float(max(0.0, -np.sum(pos * np.log(pos))))


def _mixed_rank_stack(dim, count, rng):
    # states of every rank, so rows differ in how many eigenvalues clip to 0
    stack = []
    for i in range(count):
        rank = 1 + i % dim
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        m = g @ g.conj().T
        stack.append(m / np.trace(m).real)
    return np.array(stack)


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 9, 16, 33])
def test_stacks_match_the_one_matrix_formulas_bit_for_bit(dim):
    # rows of every rank, so the number of clipped zeros differs from row to
    # row; a zero adds an exact 0 term, so a stacked entropy is the state's
    # own double.  From 8 terms on numpy sums pairwise, so against a sum of
    # the positive terms alone it may differ by rounding
    stack = _mixed_rank_stack(dim, 60, np.random.default_rng(dim))
    states = normalize_states(stack)
    entropies = von_neumann_entropy(states)
    assert states.shape == stack.shape and entropies.shape == (60,)
    eps = np.finfo(float).eps
    for m, state, entropy in zip(stack, states, entropies):
        assert np.array_equal(state, _one_matrix_normalized(m))
        assert np.array_equal(DensityMatrix.normalized(m).matrix, state)
        assert entropy == von_neumann_entropy(state)
        positives = _positives_only_entropy(state)
        assert abs(entropy - positives) <= dim * eps * max(1.0, positives)
        if dim < 8:
            assert entropy == positives
    assert von_neumann_entropy(states[:0]).shape == (0,)


def test_stack_checks_reach_every_entry():
    stack = _mixed_rank_stack(3, 5, np.random.default_rng(40))
    with pytest.raises(DimensionMismatchError):
        DensityMatrix.normalized(stack)
    skewed = stack.copy()
    skewed[3, 0, 1] += 1e-9
    with pytest.raises(InvalidDensityMatrixError):
        normalize_states(skewed)
    with pytest.raises(NonHermitianError):
        von_neumann_entropy(skewed)
    negative = stack.copy()
    negative[4] = np.diag([1.0 + 1e-9, 0.0, -1e-9])
    with pytest.raises(InvalidDensityMatrixError):
        normalize_states(negative)
    with pytest.raises(InvalidDensityMatrixError):
        von_neumann_entropy(negative)
    with pytest.raises(InvalidDensityMatrixError):
        normalize_states(np.zeros((2, 3, 3)))
    dirty = stack.copy()
    dirty[1, 2, 2] = np.nan
    with pytest.raises(InvalidDensityMatrixError):
        normalize_states(dirty)


def test_row_norms_match_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(41)
    for dim in (1, 2, 120):
        rows = rng.standard_normal((9, dim)) + 1j * rng.standard_normal((9, dim))
        norms = row_norms(rows)
        assert norms.shape == (9,)
        assert all(norms[i] == np.linalg.norm(rows[i]) for i in range(9))
        assert row_norms(rows[0]) == np.linalg.norm(rows[0])


def test_unit_rows_reject_any_non_unit_row():
    rng = np.random.default_rng(42)
    rows = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    assert unit_rows(rows) is not None
    rows[2] *= 1.0 + 1e-9
    with pytest.raises(NotUnitVectorError):
        unit_rows(rows)
    # a NaN norm compares false against the tolerance either way
    with pytest.raises(NotUnitVectorError, match="nan"):
        unit_vector([np.nan, 1.0])
