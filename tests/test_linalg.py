"""Dense Hermitian linear algebra: eigensolver, partial trace, density
matrices, entropy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from channel_limits import (
    DensityMatrix,
    hermitian_eigenvalues,
    hermitian_eigs,
    hermitize,
    partial_trace_right,
    von_neumann_entropy,
)
from channel_limits.errors import (
    InvalidDensityMatrixError,
    NonHermitianError,
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


def test_eigs_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eigs(np.array([[0.0, 1.0], [0.0, 0.0]]))


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
    d = DensityMatrix.diagonal([0.2, 0.8])
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
    state = DensityMatrix.diagonal([0.7, 0.3])
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
