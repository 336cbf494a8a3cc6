"""Seeded random sampling: Haar unitaries and isometries, random channels,
pure states, POVM families."""

import numpy as np
import pytest

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
from channel_limits.errors import DimensionMismatchError


# ------------------------------------------------------------------- streams


def test_stream_is_reproducible():
    a = stream(123, 4).standard_normal(16)
    b = stream(123, 4).standard_normal(16)
    assert np.array_equal(a, b)


def test_streams_are_distinct_across_indices():
    a = stream(123, 0).standard_normal(16)
    b = stream(123, 1).standard_normal(16)
    assert not np.allclose(a, b)


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


def test_mixed_unitary_sampler_consistency():
    rng = stream(9, 0)
    w = np.full(3, 1.0 / 3.0)
    ch = sample_mixed_unitary_channel(3, 4, w, rng)
    draws = stream(9, 0)
    us = [np.eye(4), *(haar_unitary(4, draws) for _ in range(2))]
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
    draws = stream(9, 0)
    us = [np.eye(4), *(haar_unitary(4, draws) for _ in range(2))]
    assert np.array_equal(ch.isometry, MixedUnitaryChannel(w, us).isometry)
    with pytest.raises(DimensionMismatchError):
        sample_mixed_unitary_channel(2, 4, w, stream(9, 0))


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
    agree(lambda ch: ch.adjoint_matrix(y))
    vectors = [sample_pure_state(k, rng) for _ in range(3)]
    for cached in (False, True):
        if cached:
            haar.cache_lifts()
            gauged.cache_lifts()
        for a in vectors:
            agree(lambda ch: ch.adjoint_rank_one(a))


@pytest.mark.parametrize("k, n", [(3, 800)])
def test_sampled_unitaries_meet_the_isometry_tolerance(k, n):
    # the sampler skips the unitarity checks; the public constructor, which
    # makes them, accepts the same draws and builds the same isometry
    w = np.full(k, 1.0 / k)
    ch = sample_mixed_unitary_channel(k, n, w, stream(15, n))
    draws = stream(15, n)
    us = [np.eye(n), *(haar_unitary(n, draws) for _ in range(k - 1))]
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
