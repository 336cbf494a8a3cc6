"""Dense Hermitian linear algebra: eigensolver, partial trace, density
matrices, entropy."""

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
    partial_trace_right,
    sample_pure_state,
    stream,
    von_neumann_entropy,
)
from channel_limits.errors import (
    DimensionMismatchError,
    InvalidDensityMatrixError,
    NoConvergenceError,
    NonHermitianError,
    NotUnitVectorError,
)
from channel_limits.linalg import _top_eigenpair, row_norms, unit_rows, unit_vector


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


def test_eigs_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _assert_top_pair_matches_eigh(m):
    want_vals, want_vecs = np.linalg.eigh(m)
    top = _top_eigenpair(m.copy())
    assert top.eigenvalues.shape == (1,) and top.eigenvectors.shape == (len(m), 1)
    lam = want_vals[-1]
    assert abs(top.eigenvalues[0] - lam) <= 1e-13 * max(1.0, abs(lam))
    assert 1.0 - abs(np.vdot(top.eigenvectors[:, 0], want_vecs[:, -1])) <= 1e-12


def test_top_eigenpair_matches_full_solve():
    rng = np.random.default_rng(12)
    for dim in range(2, 61):
        _assert_top_pair_matches_eigh(_random_hermitian(dim, rng))


def test_top_eigenpair_matches_full_solve_on_stinespring_lift():
    # the lift the norm ascent solves at the benchmark size (N = 240)
    rng = stream(3, 0)
    ch = StinespringRegime(2, 0.3).sample(400, rng)
    _assert_top_pair_matches_eigh(ch.adjoint_rank_one(sample_pure_state(2, rng)))


@pytest.mark.parametrize(
    "m", [2.5 * np.eye(4), np.diag([0.1, 0.9, -3.0, 0.9, 0.2])], ids=["scalar", "tied-top"]
)
def test_top_eigenpair_in_degenerate_top_eigenspace(m):
    vals, vecs = _top_eigenpair(m.astype(np.complex128))
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


# -------------------------------------------------------------- partial trace


def test_partial_trace_product_state():
    rng = np.random.default_rng(3)
    a = _random_hermitian(3, rng)
    b = _random_hermitian(4, rng)
    m = np.kron(a, b)
    assert np.abs(partial_trace_right(m, 3, 4) - np.trace(b) * a).max() <= 1e-12


def test_partial_trace_maximally_entangled():
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1.0 / np.sqrt(2.0)
    proj = np.outer(omega, omega.conj())
    assert np.abs(partial_trace_right(proj, 2, 2) - np.eye(2) / 2).max() <= 1e-14


def test_partial_trace_direct_index_sum():
    # independent oracle: explicit loop over the traced index
    rng = np.random.default_rng(14)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    expect_r = np.zeros((3, 3), dtype=complex)
    for a in range(3):
        for b in range(3):
            for j in range(4):
                expect_r[a, b] += m[a * 4 + j, b * 4 + j]
    assert np.abs(partial_trace_right(m, 3, 4) - expect_r).max() <= 1e-12
    assert abs(np.trace(expect_r) - np.trace(m)) <= 1e-10


def test_partial_trace_reductions_share_spectrum():
    # both reductions of a pure state carry the same nonzero eigenvalues
    rng = np.random.default_rng(5)
    x = _random_unit_vector(15, rng)
    rho = np.outer(x, x.conj())
    # the left reduction is the right reduction of the factor-swapped vector
    swapped = x.reshape(3, 5).T.reshape(-1)
    ev_r = hermitian_eigenvalues(partial_trace_right(rho, 3, 5))
    ev_l = hermitian_eigenvalues(
        partial_trace_right(np.outer(swapped, swapped.conj()), 5, 3)
    )
    assert np.abs(ev_r - ev_l[:3]).max() <= 1e-10
    assert np.abs(ev_l[3:]).max() <= 1e-10


@given(seed=st.integers(0, 2**32 - 1), left=st.integers(2, 4), right=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_partial_trace_preserves_trace(seed, left, right):
    rng = np.random.default_rng(seed)
    d = left * right
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    assert abs(np.trace(partial_trace_right(m, left, right)) - np.trace(m)) <= 1e-9


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


def _one_matrix_entropy(m):
    # the one-state entropy as it stood before it became stack-aware
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


@pytest.mark.parametrize("dim", [1, 2, 3, 9, 16])
def test_stacks_match_the_one_matrix_formulas_bit_for_bit(dim):
    # from 8 terms on numpy sums pairwise, so a row that summed zero terms
    # next to its positive ones would move in the last bit
    stack = _mixed_rank_stack(dim, 60, np.random.default_rng(dim))
    states = normalize_states(stack)
    entropies = von_neumann_entropy(states)
    assert states.shape == stack.shape and entropies.shape == (60,)
    for m, state, entropy in zip(stack, states, entropies):
        assert np.array_equal(state, _one_matrix_normalized(m))
        assert np.array_equal(DensityMatrix.normalized(m).matrix, state)
        assert entropy == _one_matrix_entropy(state) == von_neumann_entropy(state)
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
