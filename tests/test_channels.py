"""Channel representations: construction, application, adjoints, rank-one
fast paths, and the mixed-unitary channel as a Stinespring dilation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from channel_limits import (
    DensityMatrix,
    DepolarizingChannel,
    EBChannel,
    MixedUnitaryChannel,
    StinespringChannel,
    eb_limit,
    haar_isometry,
    haar_unitary,
    hermitian_eigenvalues,
    make_pinching,
    sample_density_matrix,
    sample_mixed_unitary_channel,
    sample_projective_povm,
    sample_pure_state,
    sample_stinespring_channel,
    stream,
    validate_povm,
    validate_weights,
)
from channel_limits.errors import (
    BadWeightsError,
    DimensionMismatchError,
    InvalidDensityMatrixError,
    InvalidPOVMError,
    NotUnitaryError,
    NotUnitVectorError,
)


def _random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def _nonzero_spectrum(m, tol=1e-9):
    vals = hermitian_eigenvalues(m)
    return np.sort(vals[np.abs(vals) > tol])[::-1]


def _hs(a, b):
    return complex(np.trace(a.conj().T @ b))


def _dense_adjoint(ch, y):
    """Phi*(y) for any output-side matrix y: V*(y (x) I)V formed densely, or `adjoint_matrix`."""
    if isinstance(ch, StinespringChannel):
        return ch.isometry.conj().T @ np.kron(y, np.eye(ch.env_dim)) @ ch.isometry
    return ch.adjoint_matrix(y)


def _haar_mixed_unitary(weights, n, rng):
    """Channel of len(weights) Haar unitaries on C^n, built by the checking constructor.

    The sampler fixes U_1 = I, under which a kernel fault confined to the
    first block would not show, so kernel checks draw U_1 too.
    """
    return MixedUnitaryChannel(weights, [haar_unitary(n, rng) for _ in weights])


# ------------------------------------------------------------------ builders


def test_validate_weights_rejects_bad_vectors():
    with pytest.raises(BadWeightsError):
        validate_weights([0.5, 0.6])
    with pytest.raises(BadWeightsError):
        validate_weights([1.0, 0.0])
    with pytest.raises(BadWeightsError):
        validate_weights([1.2, -0.2])
    with pytest.raises(BadWeightsError, match="finite"):
        validate_weights([np.nan, np.nan])


def test_validate_povm_rejects_non_resolution():
    with pytest.raises(InvalidPOVMError):
        validate_povm([np.eye(2), np.eye(2)])
    with pytest.raises(InvalidPOVMError):
        validate_povm([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])])


def test_mixed_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        MixedUnitaryChannel([0.5, 0.5], [np.eye(2), np.diag([1.0, 2.0])])
    # the weighted blocks diag(1, 0), diag(0, 1) stack to an isometry, but
    # neither unitary is one, so each must be checked on its own
    blocks = [np.diag([np.sqrt(2.0), 0.0]), np.diag([0.0, np.sqrt(2.0)])]
    StinespringChannel(np.sqrt(0.5) * np.vstack(blocks), 2, 2)
    with pytest.raises(NotUnitaryError):
        MixedUnitaryChannel([0.5, 0.5], blocks)


def test_constructors_reject_tampered_haar_draws():
    rng = stream(17, 0)
    us = [haar_unitary(6, rng) for _ in range(2)]
    us[1][2, 3] += 1e-8
    with pytest.raises(NotUnitaryError):
        MixedUnitaryChannel([0.5, 0.5], us)
    v = np.vstack(us)[:, :4] / np.sqrt(2.0)
    with pytest.raises(NotUnitaryError):
        StinespringChannel(v, 2, 6)


def test_stinespring_rejects_non_isometry():
    with pytest.raises(NotUnitaryError):
        StinespringChannel(np.ones((4, 2)), 2, 2)
    with pytest.raises(NotUnitaryError, match="nan"):
        StinespringChannel(np.full((4, 2), np.nan), 2, 2)
    with pytest.raises(DimensionMismatchError):
        StinespringChannel(np.eye(4), 2, 3)


def test_apply_rejects_wrong_dimension():
    ch = DepolarizingChannel(3, 4)
    with pytest.raises(DimensionMismatchError):
        ch.apply(DensityMatrix.maximally_mixed(3))


# -------------------------------------------------------------- applications


def test_depolarizing_sends_everything_to_maximally_mixed():
    rng = np.random.default_rng(2)
    ch = DepolarizingChannel(3, 5)
    for _ in range(3):
        out = ch.apply(sample_density_matrix(5, rng))
        assert np.abs(out.matrix - np.eye(3) / 3).max() <= 1e-12


def test_trivial_environment_is_identity_map():
    rho = sample_density_matrix(4, np.random.default_rng(0))
    ch = StinespringChannel(np.eye(4), 4, 1)
    assert np.abs(ch.apply(rho).matrix - rho.matrix).max() <= 1e-12


def test_mixed_unitary_entrywise_formula():
    rng = np.random.default_rng(7)
    w = np.array([0.5, 0.3, 0.2])
    us = [haar_unitary(6, rng) for _ in range(3)]
    ch = MixedUnitaryChannel(w, us)
    rho = sample_density_matrix(6, rng)
    out = ch.apply_matrix(rho.matrix)
    for i in range(3):
        for j in range(3):
            direct = np.sqrt(w[i] * w[j]) * np.trace(
                us[i] @ rho.matrix @ us[j].conj().T
            )
            assert abs(out[i, j] - direct) <= 1e-12


def test_mixed_unitary_identity_family_gives_rank_one():
    w = np.array([0.1, 0.2, 0.7])
    ch = MixedUnitaryChannel(w, [np.eye(4)] * 3)
    rho = DensityMatrix.maximally_mixed(4)
    out = ch.apply_matrix(rho.matrix)
    expect = np.sqrt(np.outer(w, w))
    assert np.abs(out - expect).max() <= 1e-12
    assert _nonzero_spectrum(out).size == 1


def test_pinching_keeps_diagonal_kills_off_diagonal():
    rng = np.random.default_rng(4)
    ch = make_pinching(4)
    rho = sample_density_matrix(4, rng)
    out = ch.apply(rho).matrix
    assert np.abs(np.diag(out) - np.diag(rho.matrix)).max() <= 1e-12
    assert np.abs(out - np.diag(np.diag(out))).max() <= 1e-14


def test_single_outcome_eb_channel_is_state_preparation():
    ch = EBChannel([np.eye(3)], [DensityMatrix.maximally_mixed(3)])
    rho = sample_density_matrix(3, np.random.default_rng(1))
    out = ch.apply(rho)
    assert np.abs(out.matrix - np.eye(3) / 3).max() <= 1e-12


@pytest.mark.parametrize(
    "state",
    [np.diag([2.0, 0.0]), np.array([[0.5, 0.5], [0.0, 0.5]]), np.diag([1.5, -0.5])],
    ids=["trace-2", "non-hermitian", "negative-eigenvalue"],
)
def test_prepared_states_are_checked_where_they_enter(state):
    # apply would renormalize the trace-2 output into a valid-looking state
    with pytest.raises(InvalidDensityMatrixError):
        EBChannel([np.eye(2)], [state])
    with pytest.raises(InvalidDensityMatrixError):
        eb_limit(np.eye(2) / 2, [state])


# ------------------------------------------------------------------ adjoints


def test_depolarizing_adjoint():
    ch = DepolarizingChannel(3, 5)
    a = _random_hermitian(3, np.random.default_rng(6))
    expect = np.trace(a) * np.eye(5) / 3
    assert np.abs(ch.adjoint_matrix(a) - expect).max() <= 1e-12


def test_identity_adjoint_is_identity():
    ch = StinespringChannel(np.eye(4), 4, 1)
    a = _random_hermitian(4, np.random.default_rng(9))
    assert np.abs(ch.adjoint(a) - a).max() <= 1e-12


def test_eb_adjoint_closed_form():
    rng = np.random.default_rng(12)
    povm = [np.diag([1.0, 0.3, 0.0]), np.diag([0.0, 0.7, 1.0])]
    states = [sample_density_matrix(4, rng) for _ in range(2)]
    ch = EBChannel(povm, states)
    a = _random_hermitian(4, rng)
    expect = sum(np.trace(a @ s.matrix) * m for m, s in zip(povm, states))
    assert np.abs(ch.adjoint_matrix(a) - expect).max() <= 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_adjoint_duality(seed):
    rng = np.random.default_rng(seed)
    ch = _haar_mixed_unitary([0.2, 0.3, 0.5], 4, rng)
    x = _random_hermitian(4, rng)
    a = _random_hermitian(3, rng)
    lhs = _hs(a, ch.apply_matrix(x))
    rhs = _hs(ch.adjoint(a), x)
    assert abs(lhs - rhs) <= 1e-10


def test_stinespring_adjoint_matches_dense_formula():
    rng = np.random.default_rng(21)
    ch = sample_stinespring_channel(3, 4, 7, rng)
    a = _random_hermitian(3, rng)
    dense = ch.isometry.conj().T @ np.kron(a, np.eye(4)) @ ch.isometry
    assert np.abs(ch.adjoint(a) - dense).max() <= 1e-12


@pytest.mark.parametrize("kind", ["stinespring", "mixed-unitary"])
def test_dilated_channels_say_why_adjoint_matrix_is_missing(kind):
    # their lift takes Hermitian observables only, so the stub points to `adjoint`
    ch = _sample_channel(kind, np.random.default_rng(37))
    name = type(ch).__name__
    with pytest.raises(NotImplementedError, match=f"^{name} has no adjoint_matrix; `adjoint`"):
        ch.adjoint_matrix(np.eye(3))


def _observable(kind, rng):
    if kind == "full-rank-density":
        return sample_density_matrix(3, rng).matrix
    if kind == "indefinite":
        return _random_hermitian(3, rng)
    if kind == "zero-eigenvalue":  # eigh returns the 0 exactly, a zherk pass with alpha 0
        return np.diag([0.7, 0.0, -0.2]).astype(np.complex128)
    if kind == "zero":
        return np.zeros((3, 3), dtype=np.complex128)
    return rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))


@pytest.mark.parametrize("channel", ["stinespring", "mixed-unitary"])
@pytest.mark.parametrize(
    "kind", ["full-rank-density", "indefinite", "zero-eigenvalue", "zero", "non-hermitian"]
)
def test_matrix_lift_matches_the_dense_formula(channel, kind):
    # the eigen-split sum_r l_r B_r* B_r against V*(H (x) I)V, for H the
    # observable's Hermitian part; B_r spans two row panels at env = 130
    rng = np.random.default_rng(36)
    if channel == "stinespring":
        ch = sample_stinespring_channel(3, 130, 50, rng)
    else:
        ch = _haar_mixed_unitary([0.2, 0.3, 0.5], 130, rng)
    y = _observable(kind, rng)
    h = (y + y.conj().T) / 2.0
    dense = _dense_adjoint(ch, h)
    got = ch.adjoint(y)
    assert got.flags.c_contiguous
    assert np.array_equal(got, got.conj().T)
    assert np.all(np.abs(got - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense)))
    if kind == "zero":
        assert not got.any()


def test_explicit_probe_lift_peaks_within_one_and_a_half_n_squared():
    # k = 3: the lift and one 128-row panel buffer, shared by the three
    # terms of the eigen-split; 4.0 n^2 when (A (x) I)V was formed for a zgemm
    n = 300
    rng = stream(37)
    ch = sample_mixed_unitary_channel(3, n, [0.2, 0.3, 0.5], rng)
    rho = sample_density_matrix(3, rng).matrix
    ch.adjoint(rho)  # first-call allocations
    tracemalloc.start()
    try:
        ch.adjoint(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * n * n) <= 1.5


def test_stinespring_forward_map_matches_dense_partial_trace():
    # independent reference: V X V* formed densely, its environment traced
    # out by an index sum
    rng = np.random.default_rng(22)
    ch = sample_stinespring_channel(3, 4, 7, rng)
    x = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    dense = (ch.isometry @ x @ ch.isometry.conj().T).reshape(3, 4, 3, 4)
    assert np.abs(ch.apply_matrix(x) - np.einsum("aebe->ab", dense)).max() <= 1e-12


def test_mixed_unitary_apply_peaks_within_three_and_a_half_n_squared():
    # k = 3: the (kn x n) product VX, conjugated in place, and k x k
    # outputs; 15.0 n^2 when the (kn x kn) V X V* was formed and traced,
    # 6.0 n^2 with a conjugate copy of V
    n = 300
    rng = stream(8)
    ch = sample_mixed_unitary_channel(3, n, [0.2, 0.3, 0.5], rng)
    rho = sample_density_matrix(n, rng)
    ch.apply(rho)  # first-call allocations
    tracemalloc.start()
    try:
        ch.apply(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (16 * n * n) <= 3.5


def test_fortran_ordered_isometry_is_stored_c_ordered():
    rng = np.random.default_rng(24)
    v = haar_isometry(12, 5, rng)
    c_ch = StinespringChannel(v, 3, 4)
    f_ch = StinespringChannel(np.asfortranarray(v), 3, 4)
    assert f_ch.isometry.flags.c_contiguous
    a = sample_pure_state(3, rng)
    assert np.array_equal(f_ch.adjoint(a), c_ch.adjoint(a))
    assert np.array_equal(f_ch.rank_one_lift()(a), c_ch.rank_one_lift()(a))
    y = _random_hermitian(3, rng)
    assert np.array_equal(f_ch.adjoint(y), c_ch.adjoint(y))


def test_rank_one_fast_paths_match_generic():
    rng = np.random.default_rng(30)
    channels = [
        _haar_mixed_unitary([0.2, 0.3, 0.5], 5, rng),
        sample_stinespring_channel(2, 4, 6, rng),
        DepolarizingChannel(3, 4),
    ]
    for ch in channels:
        x = sample_pure_state(ch.input_dim, rng)
        a = sample_pure_state(ch.output_dim, rng)
        assert np.abs(
            ch.apply_pure(x) - ch.apply_matrix(np.outer(x, x.conj()))
        ).max() <= 1e-12
        assert np.abs(
            ch.adjoint_rank_one(a) - _dense_adjoint(ch, np.outer(a, a.conj()))
        ).max() <= 1e-12


def _sample_channel(kind, rng):
    if kind == "stinespring":
        return sample_stinespring_channel(3, 4, 7, rng)
    if kind == "mixed-unitary":
        return _haar_mixed_unitary([0.2, 0.3, 0.5], 5, rng)
    if kind == "eb":
        povm = sample_projective_povm([1, 2, 2], rng)
        return EBChannel(povm, [sample_density_matrix(3, rng) for _ in povm])
    return DepolarizingChannel(3, 4)


@pytest.mark.parametrize("kind", ["stinespring", "mixed-unitary", "eb", "depolarizing"])
def test_vector_forms_match_matrix_forms(kind):
    rng = np.random.default_rng(31)
    ch = _sample_channel(kind, rng)
    for _ in range(3):
        v = sample_pure_state(ch.input_dim, rng)
        pure = ch.apply(v)
        assert isinstance(pure, DensityMatrix)
        assert np.abs(pure.matrix - ch.apply(DensityMatrix.pure(v)).matrix).max() <= 1e-14
        # an observable vector need not be a unit vector
        a = rng.standard_normal(ch.output_dim) + 1j * rng.standard_normal(ch.output_dim)
        lifted = ch.adjoint(a)
        assert np.abs(lifted - ch.adjoint(np.outer(a, a.conj()))).max() <= 1e-14
        assert np.array_equal(lifted, lifted.conj().T)
        if kind in ("eb", "depolarizing"):  # the generic vector lift is the matrix lift
            assert np.array_equal(lifted, ch.adjoint(np.outer(a, a.conj())))


@pytest.mark.parametrize("kind", ["stinespring", "mixed-unitary", "eb", "depolarizing"])
def test_stacked_vectors_match_single_vectors_bit_for_bit(kind):
    rng = np.random.default_rng(33)
    ch = _sample_channel(kind, rng)
    vs = sample_pure_state(ch.input_dim, rng, 9)
    pure = ch.apply_pure(vs)
    states = ch.apply(vs)
    assert pure.shape == states.shape == (9, ch.output_dim, ch.output_dim)
    for v, out, state in zip(vs, pure, states):
        assert np.array_equal(out, ch.apply_pure(v))
        assert np.array_equal(state, ch.apply(v).matrix)
    if kind == "depolarizing":
        v = vs[0]
        reference = np.trace(np.outer(v, v.conj())) / 3 * np.eye(3, dtype=np.complex128)
        assert np.array_equal(pure[0], reference)


def test_stacked_vectors_are_checked_row_by_row():
    rng = np.random.default_rng(34)
    ch = sample_stinespring_channel(3, 4, 7, rng)
    vs = sample_pure_state(ch.input_dim, rng, 4)
    bad = vs.copy()
    bad[2] *= 1.0 + 1e-9
    with pytest.raises(NotUnitVectorError):
        ch.apply(bad)
    bad = vs.copy()
    bad[1, 0] = np.nan
    with pytest.raises(InvalidDensityMatrixError):
        ch.apply(bad)
    with pytest.raises(DimensionMismatchError):
        ch.apply(vs[:, 1:])
    with pytest.raises(DimensionMismatchError):
        ch.apply(vs[None])


@pytest.mark.parametrize("kind", ["stinespring", "mixed-unitary", "eb", "depolarizing"])
def test_raw_matrix_is_read_as_a_stack_of_vectors(kind):
    # a mixed input must come as a DensityMatrix: the rows of a bare
    # density matrix are not unit vectors, so apply refuses it
    rng = np.random.default_rng(35)
    ch = _sample_channel(kind, rng)
    rho = sample_density_matrix(ch.input_dim, rng)
    with pytest.raises(NotUnitVectorError):
        ch.apply(rho.matrix)
    assert isinstance(ch.apply(rho), DensityMatrix)


def test_vector_forms_check_length_and_norm():
    rng = np.random.default_rng(32)
    ch = sample_stinespring_channel(3, 4, 7, rng)
    with pytest.raises(DimensionMismatchError):
        ch.apply(sample_pure_state(ch.input_dim + 1, rng))
    with pytest.raises(DimensionMismatchError):
        ch.adjoint(sample_pure_state(ch.output_dim - 1, rng))
    v = sample_pure_state(ch.input_dim, rng)
    with pytest.raises(NotUnitVectorError):
        ch.apply(v * (1.0 + 1e-9))
    with pytest.raises(InvalidDensityMatrixError):
        ch.adjoint(np.array([np.nan, 0.0, 0.0]))


# ------------------------------------------------ mixed unitary as dilation


def test_mixed_unitary_kernels_match_direct_index_sums():
    rng = np.random.default_rng(24)
    w = np.array([0.2, 0.3, 0.5])
    ch = _haar_mixed_unitary(w, 4, rng)
    draws = np.random.default_rng(24)
    us = [haar_unitary(4, draws) for _ in range(3)]
    assert isinstance(ch, StinespringChannel)
    blocks = ch.isometry.reshape(3, 4, 4)
    for i in range(3):
        assert np.array_equal(blocks[i], np.sqrt(w[i]) * us[i])

    def direct_adjoint(y):
        return sum(
            np.sqrt(w[i] * w[j]) * y[i, j] * us[i].conj().T @ us[j]
            for i in range(3)
            for j in range(3)
        )

    y = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = (y + y.conj().T) / 2.0
    assert np.abs(ch.adjoint(y) - direct_adjoint(y)).max() <= 1e-12
    a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    rank_one = direct_adjoint(np.outer(a, a.conj()))
    assert np.abs(ch.adjoint_rank_one(a) - rank_one).max() <= 1e-12


@pytest.mark.parametrize(
    "kind",
    ["stinespring", "mixed-unitary", "gauged-mixed-unitary", "one-output", "eb", "depolarizing"],
)
def test_gram_lift_matches_the_product_and_the_index_sum(kind):
    rng = np.random.default_rng(25)
    if kind == "stinespring":
        ch = sample_stinespring_channel(3, 4, 7, rng)
    elif kind == "mixed-unitary":
        ch = _haar_mixed_unitary([0.2, 0.3, 0.5], 5, rng)
    elif kind == "gauged-mixed-unitary":
        ch = sample_mixed_unitary_channel(3, 5, [0.2, 0.3, 0.5], rng)
    elif kind == "one-output":
        ch = sample_stinespring_channel(1, 6, 4, rng)
    else:
        ch = _sample_channel(kind, rng)
    k = ch.output_dim
    if isinstance(ch, StinespringChannel):
        blocks = ch.isometry.reshape(k, ch.env_dim, ch.input_dim)

        def unit_lift(i, j):
            return blocks[i].conj().T @ blocks[j]
    else:
        units = np.eye(k, dtype=np.complex128)

        def unit_lift(i, j):
            return ch.adjoint_matrix(np.outer(units[i], units[j]))
    # unit vectors, and one that is not
    vectors = [sample_pure_state(k, rng) for _ in range(3)]
    vectors.append(3.0 * vectors[0] + 1j * rng.standard_normal(k))
    product = [ch.adjoint_rank_one(a) for a in vectors]
    state = {name: (value, np.copy(value)) for name, value in vars(ch).items()}
    lift = ch.rank_one_lift()
    for a, by_product in zip(vectors, product):
        direct = sum(a[i] * np.conj(a[j]) * unit_lift(i, j) for i in range(k) for j in range(k))
        gram = lift(a)
        assert np.array_equal(gram, gram.conj().T)
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.abs(gram - direct).max() <= 1e-12 * scale
        assert np.abs(gram - by_product).max() <= 1e-12 * scale
        if not isinstance(ch, StinespringChannel):
            assert np.array_equal(gram, by_product)
    # the lift function keeps its blocks to itself
    assert vars(ch).keys() == state.keys()
    for name, (value, copied) in state.items():
        assert vars(ch)[name] is value and np.array_equal(value, copied)


def _count_gram_products(monkeypatch):
    """Record the (i, j) of every Gram block formed as a product."""
    products = []
    product_block = StinespringChannel._gram_block

    def counting(self, blocks, i, j):
        products.append((i, j))
        return product_block(self, blocks, i, j)

    monkeypatch.setattr(StinespringChannel, "_gram_block", counting)
    return products


def test_identity_unitary_gram_blocks_equal_the_product_bit_for_bit(monkeypatch):
    # U_2 = I, detected from the unitary: V_2* V_j = sqrt(w_2) V_j takes no
    # product, and equals the product's value bit for bit
    rng = np.random.default_rng(26)
    us = [haar_unitary(6, rng), np.eye(6), haar_unitary(6, rng)]
    ch = MixedUnitaryChannel([0.2, 0.3, 0.5], us)
    v = ch.isometry.reshape(3, 6, 6)
    gram = []
    block = MixedUnitaryChannel._gram_block

    def recording(self, blocks, i, j):
        gram.append((i, j, block(self, blocks, i, j)))
        return gram[-1][2]

    monkeypatch.setattr(MixedUnitaryChannel, "_gram_block", recording)
    products = _count_gram_products(monkeypatch)
    lift = ch.rank_one_lift()
    assert products == [(0, 1), (0, 2)]
    for i, j, g in gram:
        if i != j:
            assert np.array_equal(g, v[i].conj().T @ v[j])
    # the lifts are those of the product blocks
    vectors = [sample_pure_state(3, rng) for _ in range(3)]
    lifts = [lift(a) for a in vectors]
    by_product = {(i, j): g if i == j else v[i].conj().T @ v[j] for i, j, g in gram}
    monkeypatch.setattr(MixedUnitaryChannel, "_gram_block", lambda self, _, i, j: by_product[i, j])
    product_lift = ch.rank_one_lift()
    for a, got in zip(vectors, lifts):
        assert np.array_equal(got, product_lift(a))


def test_sampled_first_unitary_takes_no_gram_product(monkeypatch):
    ch = sample_mixed_unitary_channel(3, 5, [0.2, 0.3, 0.5], np.random.default_rng(27))
    products = _count_gram_products(monkeypatch)
    ch.rank_one_lift()
    assert products == [(1, 2)]


@pytest.mark.parametrize("kind", ["stinespring", "mixed-unitary", "eb", "depolarizing"])
def test_adjoint_matrix_units_match_the_lifted_units(kind):
    rng = np.random.default_rng(28)
    ch = _sample_channel(kind, rng)
    x = sample_pure_state(ch.input_dim, rng)
    got = ch.adjoint_matrix_units(x)
    k = ch.output_dim
    assert got.shape == (k, k, ch.input_dim)
    for i in range(k):
        for j in range(k):
            unit = np.zeros((k, k), dtype=np.complex128)
            unit[i, j] = 1.0
            assert np.abs(got[i, j] - _dense_adjoint(ch, unit) @ x).max() <= 1e-12


def _complement(ch):
    """The complementary channel: the isometry with its two factors swapped."""
    v = ch.isometry.reshape(ch.output_dim, ch.env_dim, ch.input_dim)
    swapped = v.transpose(1, 0, 2).reshape(-1, ch.input_dim)
    return StinespringChannel(swapped, ch.env_dim, ch.output_dim)


def test_complement_of_identity_is_trace():
    ch = StinespringChannel(np.eye(4), 4, 1)
    comp = _complement(ch)
    rho = sample_density_matrix(4, np.random.default_rng(3))
    out = comp.apply_matrix(rho.matrix)
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - 1.0) <= 1e-12


def test_complement_shares_nonzero_spectrum_on_pure_inputs():
    rng = np.random.default_rng(17)
    ch = sample_stinespring_channel(3, 5, 8, rng)
    comp = _complement(ch)
    for _ in range(4):
        rho = DensityMatrix.pure(sample_pure_state(8, rng)).matrix
        s1 = _nonzero_spectrum(ch.apply_matrix(rho))
        s2 = _nonzero_spectrum(comp.apply_matrix(rho))
        m = min(s1.size, s2.size)
        assert np.abs(s1[:m] - s2[:m]).max() <= 1e-10


def test_mixed_unitary_complement_entrywise_form():
    rng = np.random.default_rng(19)
    w = np.array([0.4, 0.6])
    us = [haar_unitary(5, rng) for _ in range(2)]
    comp = _complement(MixedUnitaryChannel(w, us))
    rho = sample_density_matrix(5, rng).matrix
    expect = sum(wi * u @ rho @ u.conj().T for wi, u in zip(w, us))
    assert np.abs(comp.apply_matrix(rho) - expect).max() <= 1e-12


def test_projection_compression_shares_spectrum_with_adjoint():
    # compressing A (x) I by the projection VV* onto the isometry's range
    # leaves the nonzero spectrum of V*(A (x) I)V
    rng = np.random.default_rng(23)
    ch = sample_stinespring_channel(3, 4, 5, rng)
    a = _random_hermitian(3, rng)
    p = ch.isometry @ ch.isometry.conj().T
    compressed = p @ np.kron(a, np.eye(4)) @ p
    s1 = _nonzero_spectrum(compressed)
    s2 = _nonzero_spectrum(ch.adjoint(a))
    m = min(s1.size, s2.size)
    assert np.abs(s1[:m] - s2[:m]).max() <= 1e-9


# ---------------------------------------------------------------- invariants


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_trace_preservation(seed):
    rng = np.random.default_rng(seed)
    channels = [
        _haar_mixed_unitary([0.5, 0.5], 3, rng),
        sample_stinespring_channel(2, 3, 4, rng),
        DepolarizingChannel(2, 3),
        make_pinching(3),
    ]
    for ch in channels:
        rho = sample_density_matrix(ch.input_dim, rng)
        assert abs(np.trace(ch.apply(rho).matrix) - 1.0) <= 1e-10


def test_complete_positivity_witness():
    # apply ch (x) id to a maximally entangled projector column by column
    rng = np.random.default_rng(31)
    for ch in (
        _haar_mixed_unitary([0.4, 0.6], 3, rng),
        sample_stinespring_channel(3, 2, 3, rng),
        make_pinching(3),
    ):
        n = ch.input_dim
        k = ch.output_dim
        choi = np.zeros((k * n, k * n), dtype=complex)
        for i in range(n):
            for j in range(n):
                unit = np.zeros((n, n), dtype=complex)
                unit[i, j] = 1.0
                block = ch.apply_matrix(unit)
                choi[
                    np.arange(k)[:, None] * n + i, np.arange(k)[None, :] * n + j
                ] = block
        assert hermitian_eigenvalues((choi + choi.conj().T) / 2).min() >= -1e-8


def test_same_seed_reproduces_channel():
    a = sample_mixed_unitary_channel(3, 4, [0.2, 0.3, 0.5], stream(9, 2))
    b = sample_mixed_unitary_channel(3, 4, [0.2, 0.3, 0.5], stream(9, 2))
    assert np.array_equal(a.isometry, b.isometry)
