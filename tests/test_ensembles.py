"""Seeded random sampling: Haar unitaries and isometries, random channels,
pure states, POVM families."""

import numpy as np
import pytest

from channel_limits import ensembles
from channel_limits import (
    MixedUnitaryChannel,
    StinespringChannel,
    StinespringRegime,
    haar_isometry,
    haar_unitary,
    sample_density_matrix,
    sample_mixed_unitary_channel,
    sample_projective_povm,
    sample_pure_state,
    sample_stinespring_channel,
    sample_unit_norm_povm,
    stream,
    validate_povm,
)
from channel_limits.errors import DimensionMismatchError, OutOfRangeError
from channel_limits.geometry import probe_top_eigenvalues


# ------------------------------------------------------------------- streams


def test_stream_is_reproducible():
    a = stream(123, 4).standard_normal(16)
    b = stream(123, 4).standard_normal(16)
    assert np.array_equal(a, b)


def test_streams_are_distinct_across_indices():
    a = stream(123, 0).standard_normal(16)
    b = stream(123, 1).standard_normal(16)
    assert not np.allclose(a, b)


@pytest.mark.parametrize("seed", [-5, 2**64])
def test_stream_refuses_a_seed_outside_64_bits(seed):
    # masked to 64 bits, -5, 2^64 - 5 and 2^65 - 5 would all be one stream
    with pytest.raises(OutOfRangeError, match="master_seed"):
        stream(seed, 0)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_stream_draws_at_both_ends_of_the_seed_range(seed):
    assert np.array_equal(stream(seed, 3).random(4), stream(seed, 3).random(4))
    assert not np.array_equal(stream(seed, 3).random(4), stream(seed ^ 1, 3).random(4))


# ---------------------------------------------------------------------- haar


def test_haar_unitary_is_unitary():
    rng = stream(0, 0)
    for n in (1, 2, 5, 12):
        u = haar_unitary(n, rng)
        assert np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-10


def test_haar_unitary_dimension_one_is_phase():
    u = haar_unitary(1, stream(0, 1))
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_first_entry_moment():
    # E|U_11|^2 = 1/n for Haar measure; 2000 samples at n=10
    rng = stream(42, 0)
    samples = np.array([abs(haar_unitary(10, rng)[0, 0]) ** 2 for _ in range(2000)])
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - 0.1) <= 3.0 * se


def test_haar_trace_moment():
    # E|Tr U|^2 = 1 for Haar measure on any dimension
    rng = stream(42, 1)
    samples = np.array(
        [abs(np.trace(haar_unitary(6, rng))) ** 2 for _ in range(1500)]
    )
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - 1.0) <= 5.0 * se


def test_haar_isometry_properties():
    rng = stream(3, 0)
    v = haar_isometry(8, 3, rng)
    assert v.shape == (8, 3)
    assert np.abs(v.conj().T @ v - np.eye(3)).max() <= 1e-10
    square = haar_isometry(4, 4, rng)
    assert np.abs(square.conj().T @ square - np.eye(4)).max() <= 1e-10
    with pytest.raises(DimensionMismatchError):
        haar_isometry(3, 5, rng)


def test_isometry_span_is_rotation_invariant():
    # statistics of Tr[P (A (x) I) P] match when A is conjugated by a fixed
    # unitary, because the column span is rotation invariant
    k, n, samples = 2, 6, 500
    rng = stream(11, 0)
    a = np.diag(np.linspace(0.0, 1.0, k))
    q = haar_unitary(k, rng)
    rotated = q @ a @ q.conj().T
    lifted = np.kron(a, np.eye(n))
    lifted_rot = np.kron(rotated, np.eye(n))
    vals = np.empty(samples)
    vals_rot = np.empty(samples)
    for i in range(samples):
        v = haar_isometry(k * n, n, rng)
        p = v @ v.conj().T
        vals[i] = np.trace(p @ lifted @ p).real
        v2 = haar_isometry(k * n, n, rng)
        p2 = v2 @ v2.conj().T
        vals_rot[i] = np.trace(p2 @ lifted_rot @ p2).real
    se = np.hypot(
        vals.std(ddof=1) / np.sqrt(samples), vals_rot.std(ddof=1) / np.sqrt(samples)
    )
    assert abs(vals.mean() - vals_rot.mean()) <= 5.0 * se


def _mean_and_se(samples):
    samples = np.asarray(samples)
    return samples.mean(axis=0), samples.std(axis=0, ddof=1) / np.sqrt(len(samples))


def _assert_cue_trace_moments(draw):
    # E|Tr U^j|^2 = min(j, n) under Haar measure (Diaconis and Shahshahani);
    # 4000 unitaries at n = 20, moments j = 1..4
    powers = np.arange(1, 5)
    samples = []
    for _ in range(4000):
        eig = np.linalg.eigvals(draw(20))
        samples.append(np.abs((eig[:, None] ** powers).sum(axis=0)) ** 2)
    mean, se = _mean_and_se(samples)
    assert np.all(np.abs(mean - powers) <= 4.0 * se), mean


def test_cue_trace_moments():
    rng = stream(44, 0)
    _assert_cue_trace_moments(lambda n: haar_unitary(n, rng))


@pytest.mark.parametrize("rows, cols", [(20, 20), (20, 7)])
def test_haar_entries_have_mean_square_one_over_rows(rows, cols):
    # E|U_ij|^2 = 1/rows for every entry; the first and last corners meet
    # the first reflector alone and every reflector
    rng = stream(45, cols)
    samples = []
    for _ in range(4000):
        u = haar_unitary(rows, rng) if rows == cols else haar_isometry(rows, cols, rng)
        samples.append(rows * np.abs([u[0, 0], u[-1, -1]]) ** 2)
    mean, se = _mean_and_se(samples)
    assert np.all(np.abs(mean - 1.0) <= 4.0 * se), mean


def _ginibre_qr_unitary(n, rng):
    # the sampler before Stewart's reflectors: numpy's QR of a Ginibre
    # matrix, and R's diagonal phases moved into Q
    re, im = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
    d = np.diag(r)
    return q * (d / np.abs(d))


def test_flat_probe_top_eigenvalue_keeps_the_ginibre_qr_law():
    # two samples of the k = 3 flat-probe top eigenvalue at n = 40, from
    # the sampler and from the Ginibre QR, on independent streams
    k, n, count = 3, 40, 300
    w, a = np.full(k, 1.0 / k), np.ones(k) / np.sqrt(k)
    stewart, ginibre = stream(46, 0), stream(46, 1)
    top = lambda ch: probe_top_eigenvalues(ch, a, 1)[0]
    drawn = [top(sample_mixed_unitary_channel(k, n, w, stewart)) for _ in range(count)]
    reference = [
        top(MixedUnitaryChannel(w, [np.eye(n), *(_ginibre_qr_unitary(n, ginibre) for _ in w[1:])]))
        for _ in range(count)
    ]
    (m1, se1), (m2, se2) = _mean_and_se(drawn), _mean_and_se(reference)
    assert abs(m1 - m2) <= 4.0 * np.hypot(se1, se2), (m1, m2)


# -------------------------------------------------------------------- states


def test_pure_state_norm_and_scalar_case():
    rng = stream(5, 0)
    x = sample_pure_state(7, rng)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
    z = sample_pure_state(1, rng)
    assert abs(abs(z[0]) - 1.0) <= 1e-14


def _single_draw(dim, rng):
    # one draw as the sampler made it before it drew stacks
    re = rng.standard_normal((dim, 1))
    im = rng.standard_normal((dim, 1))
    v = ((re + 1j * im) / np.sqrt(2.0)).reshape(-1)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("count", [1, 7, 1000])
@pytest.mark.parametrize("dim", [1, 2, 120])
def test_stacked_pure_states_are_the_single_draws(dim, count):
    stacked_rng, single_rng, reference_rng = stream(14, dim), stream(14, dim), stream(14, dim)
    stack = sample_pure_state(dim, stacked_rng, count)
    singles = np.array([sample_pure_state(dim, single_rng) for _ in range(count)])
    reference = np.array([_single_draw(dim, reference_rng) for _ in range(count)])
    assert stack.shape == (count, dim)
    assert np.array_equal(stack, singles)
    assert np.array_equal(stack, reference)
    # the generator is left where the single draws leave it
    after = stacked_rng.standard_normal(3)
    assert np.array_equal(after, single_rng.standard_normal(3))
    assert np.array_equal(after, reference_rng.standard_normal(3))


def test_pure_state_coordinate_moment():
    # E|x_1|^2 = 1/dim on the uniform sphere; 4000 samples at dim 8
    rng = stream(13, 0)
    samples = np.array([abs(sample_pure_state(8, rng)[0]) ** 2 for _ in range(4000)])
    se = samples.std(ddof=1) / np.sqrt(samples.size)
    assert abs(samples.mean() - 0.125) <= 3.0 * se


def test_density_matrix_sampler_is_valid():
    rng = stream(6, 0)
    rho = sample_density_matrix(5, rng)
    assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12


# ------------------------------------------------------------------ channels


def _cmv(n, rng):
    c = np.zeros((n, n), dtype=np.complex128)
    ensembles._cmv_band(c, rng, 1.0)
    return c


def _sampled_unitaries(k, n, rng):
    # the sampler's stream: U_1 = I, the CMV matrix, then Haar draws
    return [np.eye(n), _cmv(n, rng), *(haar_unitary(n, rng) for _ in range(k - 2))]


def test_mixed_unitary_sampler_consistency():
    rng = stream(9, 0)
    w = np.full(3, 1.0 / 3.0)
    ch = sample_mixed_unitary_channel(3, 4, w, rng)
    us = _sampled_unitaries(3, 4, stream(9, 0))
    assert np.array_equal(ch.isometry, MixedUnitaryChannel(w, us).isometry)
    rho = sample_density_matrix(4, stream(9, 1))
    out = ch.apply(rho)
    assert abs(np.trace(out.matrix) - 1.0) <= 1e-12
    for i in range(3):
        direct = w[i] * np.trace(us[i] @ rho.matrix @ us[i].conj().T)
        assert abs(out.matrix[i, i] - direct) <= 1e-12


def test_gauged_sampler_fixes_the_first_unitary_and_draws_the_rest():
    w = np.array([0.2, 0.3, 0.5])
    ch = sample_mixed_unitary_channel(3, 4, w, stream(9, 0))
    # U_1 = I, then k - 1 unitaries in order from the stream it is given
    us = _sampled_unitaries(3, 4, stream(9, 0))
    assert np.array_equal(ch.isometry, MixedUnitaryChannel(w, us).isometry)
    with pytest.raises(DimensionMismatchError):
        sample_mixed_unitary_channel(2, 4, w, stream(9, 0))


@pytest.mark.parametrize("k, n, weights", [(0, 4, [1.0]), (2, 0, [0.5, 0.5]), (2, -1, [0.5, 0.5])])
def test_mixed_unitary_sampler_refuses_bad_dimensions_before_any_draw(k, n, weights):
    rng = stream(9, 0)
    with pytest.raises(DimensionMismatchError, match="dimensions must be positive"):
        sample_mixed_unitary_channel(k, n, weights, rng)
    assert rng.random() == stream(9, 0).random()


@pytest.mark.parametrize("k, n", [(2, 6), (3, 40), (4, 25)])
def test_gauged_channel_keeps_lift_spectra_and_outputs(k, n):
    # the channel of Haar U_1..U_k and that of I, U_1* U_2, ..., U_1* U_k
    # are one map, since Tr[U_i X U_j*] = Tr[(U_1* U_i) X (U_1* U_j)*]
    rng = stream(19, k)
    w = rng.dirichlet(np.ones(k))
    us = [haar_unitary(n, rng) for _ in range(k)]
    haar = MixedUnitaryChannel(w, us)
    gauged = MixedUnitaryChannel(w, [np.eye(n), *(us[0].conj().T @ u for u in us[1:])])

    def agree(f):
        assert np.abs(f(haar) - f(gauged)).max() <= 1e-12

    rho = sample_density_matrix(n, rng)
    agree(lambda ch: ch.apply(rho).matrix)
    xs = sample_pure_state(n, rng, 4)
    agree(lambda ch: ch.apply_pure(xs))
    y = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    agree(lambda ch: ch.adjoint((y + y.conj().T) / 2.0))
    vectors = [sample_pure_state(k, rng) for _ in range(3)]
    for a in vectors:
        agree(lambda ch: ch.adjoint_rank_one(a))
        agree(lambda ch: ch.rank_one_lift()(a))


@pytest.mark.parametrize("k, n", [(3, 800)])
def test_sampled_unitaries_meet_the_isometry_tolerance(k, n):
    # the sampler skips the unitarity checks; the public constructor, which
    # makes them, accepts the same draws and builds the same isometry
    w = np.full(k, 1.0 / k)
    ch = sample_mixed_unitary_channel(k, n, w, stream(15, n))
    us = _sampled_unitaries(k, n, stream(15, n))
    assert np.array_equal(ch.isometry, MixedUnitaryChannel(w, us).isometry)


@pytest.mark.parametrize("k, env, cols", [(2, 400, 240)])
def test_sampled_isometries_meet_the_isometry_tolerance(k, env, cols):
    # the 800 x 240 isometry of the ascent benchmark
    ch = sample_stinespring_channel(k, env, cols, stream(16, cols))
    v = haar_isometry(k * env, cols, stream(16, cols))
    assert np.array_equal(ch.isometry, StinespringChannel(v, k, env).isometry)


def test_stinespring_sampler_shapes():
    rng = stream(10, 0)
    ch = sample_stinespring_channel(3, 5, 7, rng)
    assert ch.isometry.shape == (15, 7)
    assert ch.output_dim == 3 and ch.env_dim == 5 and ch.input_dim == 7


def test_stinespring_regime_input_dim():
    regime = StinespringRegime(k=2, t=0.3)
    assert regime.input_dim(400) == 240
    assert 1 <= regime.input_dim(2) <= 2 * 2
    ch = regime.sample(100, stream(1, 0))
    assert ch.isometry.shape == (200, 60)


# --------------------------------------------------------------------- povms


def test_projective_povm_sampler():
    rng = stream(15, 0)
    povm = sample_projective_povm((2, 3, 1), rng)
    stacked = validate_povm(povm)
    for m, d in zip(stacked, (2, 3, 1)):
        vals = np.linalg.eigvalsh(m)
        assert abs(vals.max() - 1.0) <= 1e-10
        assert np.sum(vals > 0.5) == d
        assert np.abs(m @ m - m).max() <= 1e-10


def test_unit_norm_povm_sampler():
    rng = stream(16, 0)
    povm = sample_unit_norm_povm((2, 1), 3, rng)
    stacked = validate_povm(povm)
    assert stacked.shape == (2, 6, 6)
    for m, d in zip(stacked, (2, 1)):
        vals = np.linalg.eigvalsh(m)
        assert abs(vals.max() - 1.0) <= 1e-10
        assert np.sum(vals > 1.0 - 1e-8) == d
    with pytest.raises(DimensionMismatchError):
        sample_unit_norm_povm([], 2, rng)


# ------------------------------------------------------- the CMV matrix, U_2


FEW_ULP = 4 * np.finfo(float).eps  # a unitary's entries are at most 1 in modulus


def _cmv_reference(n, rng):
    # Killip and Nenciu's C = LM from its definition, dense: n - 1 uniforms
    # for the moduli, then n for the phases; L holds T_j of even j, M a
    # leading 1 and T_j of odd j, and T_(n-1) is cut to [conj alpha_(n-1)]
    u = 1.0 - rng.random(n - 1)
    alpha = np.exp(2j * np.pi * rng.random(n))
    dof = n - 1.0 - np.arange(n - 1)
    alpha[:-1] *= np.sqrt(-np.expm1(np.log(u) / dof))
    rho = np.append(u ** (0.5 / dof), 0.0)
    lm = [np.zeros((n, n), dtype=np.complex128), np.eye(n, dtype=np.complex128)]
    for j in range(n):
        t = np.array([[alpha[j].conj(), rho[j]], [rho[j], -alpha[j]]])
        size = min(2, n - j)
        lm[j % 2][j : j + size, j : j + size] = t[:size, :size]
    return lm[0] @ lm[1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 801])
def test_cmv_matrix_is_unitary_and_five_diagonal(n):
    c = _cmv(n, stream(47, n))
    assert np.abs(c.conj().T @ c - np.eye(n)).max() <= 1e-15
    rows, cols = np.indices((n, n))
    assert np.all(c[np.abs(rows - cols) > 2] == 0.0)
    assert np.abs(c - _cmv_reference(n, stream(47, n))).max() <= FEW_ULP


def test_cmv_trace_moments():
    rng = stream(48, 0)
    _assert_cue_trace_moments(lambda n: _cmv(n, rng))


@pytest.mark.parametrize("n", [20, 130, 300])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_sampler_follows_the_stream_spec(stewart_reference, k, n):
    # block i is sqrt(w_i) U_i: U_1 = I, U_2 the CMV matrix of the first
    # uniforms, then U_3..U_k the transposes of the stream spec's Q, in order
    w = np.arange(1.0, k + 1.0) / (k * (k + 1) / 2)
    drawn = sample_mixed_unitary_channel(k, n, w, stream(41, n)).isometry
    rng = stream(41, n)
    want = [np.sqrt(w[0]) * np.eye(n), np.sqrt(w[1]) * _cmv_reference(n, rng)]
    want += [s * stewart_reference(n, n, rng).T for s in np.sqrt(w[2:])]
    assert np.abs(drawn - np.concatenate(want)).max() <= FEW_ULP


def test_probe_spectra_see_the_second_unitary_only_through_its_eigenvalues():
    # U_2 = V D V*: the channel of (I, D, V* U_3 V) is that of (I, U_2, U_3)
    # after the input unitary V, so the adjoint's spectra agree
    n, w = 60, np.array([0.2, 0.3, 0.5])
    rng = stream(49, 0)
    u2, u3 = haar_unitary(n, rng), haar_unitary(n, rng)
    d, v = np.linalg.eig(u2)
    drawn = MixedUnitaryChannel(w, [np.eye(n), u2, u3])
    conjugated = MixedUnitaryChannel(w, [np.eye(n), np.diag(d), v.conj().T @ u3 @ v])
    for a in (np.ones(3) / np.sqrt(3.0), sample_pure_state(3, rng)):
        top = [probe_top_eigenvalues(ch, a, 5) for ch in (drawn, conjugated)]
        assert np.abs(top[0] - top[1]).max() <= 1e-12


def test_haar_unitary_built_in_a_block_is_the_returned_unitary():
    u = haar_unitary(70, stream(42, 0))
    block = np.empty((70, 70), dtype=np.complex128)
    assert haar_unitary(70, stream(42, 0), out=block) is block
    assert np.array_equal(block, u)
    with pytest.raises(DimensionMismatchError):
        haar_unitary(70, stream(42, 0), out=np.empty((70, 70), dtype=np.complex128).T)
