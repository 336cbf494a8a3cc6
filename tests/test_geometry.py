"""Output-set probes: spectral probes, the sphere norm ascent, Weyl
operators, entropy summaries."""

from pathlib import Path

import numpy as np
import pytest

from channel_limits import (
    DensityMatrix,
    DepolarizingChannel,
    EBChannel,
    StinespringChannel,
    StinespringRegime,
    eb_limit,
    estimate_smin,
    hermitian_eigenvalues,
    holevo_from_smin,
    mixed_unitary_norm_limit,
    norm_ascent,
    probe_top_eigenvalues,
    sample_density_matrix,
    sample_mixed_unitary_channel,
    sample_pure_state,
    sample_unit_norm_povm,
    stream,
    von_neumann_entropy,
    weyl_operator,
    weyl_twirl,
)
from channel_limits import geometry, linalg
from channel_limits.cli import main as cli_main
from channel_limits.errors import (
    EmptySampleError,
    OutOfRangeError,
)


# ------------------------------------------------------------ spectral probe


def test_probe_depolarizing_is_exactly_flat():
    ch = DepolarizingChannel(4, 6)
    a = sample_density_matrix(4, stream(0, 0)).matrix
    vals = probe_top_eigenvalues(ch, a, 5)
    assert np.abs(vals - 0.25).max() <= 1e-12
    assert vals[0] - vals[-1] <= 1e-12


def test_probe_matches_adjoint_spectrum():
    rng = stream(1, 0)
    ch = sample_mixed_unitary_channel(3, 8, np.full(3, 1 / 3), rng)
    a = sample_density_matrix(3, rng).matrix
    vals = probe_top_eigenvalues(ch, a, 4)
    direct = hermitian_eigenvalues(ch.adjoint_matrix(a))
    assert np.abs(vals - direct[:4]).max() <= 1e-12
    assert vals[0] == pytest.approx(direct[0], abs=1e-12)


def test_probe_eb_channel_hits_limit_with_multiplicity():
    rng = stream(2, 0)
    povm = sample_unit_norm_povm((2, 3), 3, rng)
    states = [sample_density_matrix(4, rng) for _ in range(2)]
    ch = EBChannel(povm, states)
    a = sample_density_matrix(4, rng).matrix
    want = eb_limit(a, states)
    vals = probe_top_eigenvalues(ch, a, 3)
    assert vals[0] == pytest.approx(want, abs=1e-10)
    # eigenvalue multiplicity at least the smallest norm-one eigenspace
    assert vals[1] == pytest.approx(want, abs=1e-8)


# ------------------------------------------------------------- norm ascent


def test_ascent_depolarizing_converges_immediately():
    ch = DepolarizingChannel(4, 5)
    res = norm_ascent(ch, stream(5, 0), restarts=2, iter_cap=10)
    assert res.value == pytest.approx(0.25, abs=1e-12)
    assert res.best.trajectory[0] == pytest.approx(0.25, abs=1e-12)
    # the output is flat for every input, so the gradient vanishes at once
    assert tuple(r.evaluations for r in res.restarts) == (1, 1)
    assert tuple(r.converged for r in res.restarts) == (True, True)
    assert max(r.gradient_norm for r in res.restarts) <= 1e-8


def test_ascent_best_is_the_first_restart_with_the_largest_value():
    # every restart on a depolarizing channel ends at exactly 1/k, so the
    # tie goes to the first
    ch = DepolarizingChannel(4, 5)
    res = norm_ascent(ch, stream(5, 0), restarts=3, iter_cap=10)
    assert [r.value for r in res.restarts] == [0.25] * 3
    assert res.best is res.restarts[0]
    assert res.value == res.restarts[0].value


def test_ascent_leaves_the_callers_channel_lifting_as_before():
    # the ascent's Gram blocks live in its lift function: the caller's
    # adjoint keeps its own bits
    stinespring = StinespringRegime(2, 0.3).sample(100, stream(12, 0))
    mixed = sample_mixed_unitary_channel(3, 200, np.full(3, 1 / 3), stream(12, 2))
    for ch in (stinespring, mixed):
        a = sample_pure_state(ch.output_dim, stream(12, 3))
        before = ch.adjoint(a)
        norm_ascent(ch, stream(12, 1), restarts=1, iter_cap=3)
        assert np.array_equal(ch.adjoint(a), before)


def test_ascent_identity_channel_reaches_one():
    ch = StinespringChannel(np.eye(3), 3, 1)
    res = norm_ascent(ch, stream(5, 1), restarts=2, iter_cap=20)
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_ascent_trajectory_is_monotone():
    rng = stream(6, 0)
    ch = sample_mixed_unitary_channel(3, 12, np.full(3, 1 / 3), rng)
    res = norm_ascent(ch, rng, restarts=3, iter_cap=60)
    traj = np.asarray(res.best.trajectory)
    assert np.all(np.diff(traj) >= -1e-12)
    assert abs(np.linalg.norm(res.best.input_vector) - 1.0) <= 1e-10
    # the reported value is attained by the reported input
    out = ch.apply_pure(res.best.input_vector)
    assert hermitian_eigenvalues(out).max() == pytest.approx(res.value, abs=1e-10)


def _assert_attained(channel, res):
    # accepted values rise strictly; the final top eigenvalue can sit a
    # rounding error below the last of them
    traj = np.asarray(res.best.trajectory)
    assert np.all(np.diff(traj[:-1]) > 0.0)
    assert traj[-1] >= traj[-2] - 1e-12
    assert traj[-1] == res.value
    assert abs(np.linalg.norm(res.best.input_vector) - 1.0) <= 1e-10
    out = channel.apply_pure(res.best.input_vector)
    assert hermitian_eigenvalues(out).max() == pytest.approx(res.value, abs=1e-10)


def test_ascent_reports_a_capped_restart():
    ch = StinespringRegime(2, 0.3).sample(100, stream(12, 0))
    res = norm_ascent(ch, stream(12, 1), restarts=1, iter_cap=3)
    assert tuple(r.evaluations for r in res.restarts) == (3,)
    assert tuple(r.converged for r in res.restarts) == (False,)
    assert res.restarts[0].gradient_norm > 1e-8
    _assert_attained(ch, res)


def test_ascent_converges_on_the_benchmark_isometry_config():
    # the stinespring-peak trial of the ascent-isometry benchmark workload:
    # k = 2, t = 0.3, n = 400, 4 restarts capped at 60 evaluations
    regime = StinespringRegime(2, 0.3)
    for seed in (901, 902, 903):
        rng = stream(seed, 0)
        ch = regime.sample(400, rng)
        res = norm_ascent(ch, rng, restarts=4, iter_cap=60)
        evaluations = [r.evaluations for r in res.restarts]
        assert all(r.converged for r in res.restarts), (seed, evaluations)
        assert max(evaluations) < 60
        assert max(r.gradient_norm for r in res.restarts) <= 1e-8
        assert len(res.restarts) == 4
        _assert_attained(ch, res)


def test_ascent_solves_cold_once_per_restart_on_the_benchmark_isometry_config(monkeypatch):
    # every full evaluation after a restart's first starts from its Ritz
    # vector, and only the first and the fallbacks run the cold path's
    # eigvalsh: a slide back to the cold path on every evaluation would
    # make about ten times the eigvalsh calls at this size
    eigvalsh_calls, warm = [], []
    eigvalsh = np.linalg.eigvalsh
    warm_pair = linalg._warm_top_eigenpair

    def counted_eigvalsh(*args, **kwargs):
        eigvalsh_calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    def counted_warm_pair(h, start):
        warm.append(warm_pair(h, start))
        return warm[-1]

    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(linalg, "_warm_top_eigenpair", counted_warm_pair)
    regime = StinespringRegime(2, 0.3)
    for seed in (901, 902, 903):
        rng = stream(seed, 0)
        ch = regime.sample(400, rng)
        eigvalsh_calls.clear()
        warm.clear()
        res = norm_ascent(ch, rng, restarts=4, iter_cap=60)
        assert len(warm) == sum(r.evaluations for r in res.restarts) - 4
        fallbacks = sum(pair is None for pair in warm)
        assert fallbacks <= len(warm) // 10  # measured: none at N = 240
        assert len(eigvalsh_calls) == 4 + fallbacks


def _top_vector(m):
    return np.linalg.eigh(m)[1][:, -1]


def _alternating_step(channel, a):
    # one pair of exact half-steps by full eigh: the top lift vector x for
    # a, then the top eigenpair of Phi(xx*)
    x = _top_vector(channel.adjoint_rank_one(a))
    vals, vecs = np.linalg.eigh(channel.apply_pure(x))
    return vecs[:, -1], float(vals[-1])


def _reference_ascent_value(channel, rng, iter_cap=5000, tol=1e-12):
    # one restart of the alternating ascent from the same start vector,
    # run until an increment falls to tol
    a = sample_pure_state(channel.output_dim, rng)
    prev = -np.inf
    for _ in range(iter_cap):
        a, value = _alternating_step(channel, a)
        if value <= prev + tol:
            break
        prev = value
    return value


def test_ascent_is_certified_by_the_full_eigh_alternation():
    # k = 2, t = 0.3, n = 100: the lift is 60 x 60.  Each restart runs alone
    # from the same start vector as the test-local alternation.
    regime = StinespringRegime(2, 0.3)
    together = 0
    for seed in range(5):
        ch = regime.sample(100, stream(40 + seed, 0))
        for restart in range(4):
            res = norm_ascent(ch, stream(40 + seed, 1 + restart), restarts=1)
            assert tuple(r.converged for r in res.restarts) == (True,)
            # certificate: one more alternating step gains nothing
            a = _top_vector(ch.apply_pure(res.best.input_vector))
            assert _alternating_step(ch, a)[1] - res.value <= 1e-10
            want = _reference_ascent_value(ch, stream(40 + seed, 1 + restart))
            if abs(res.value - want) <= 1e-6:
                together += 1
                assert abs(res.value - want) <= 1e-10, (seed, restart)
    assert together >= 10


def test_subspace_restarts_reach_the_alternation_maxima(monkeypatch):
    # the restarts of the test above, now checked step by step: every
    # reduced value is a Rayleigh quotient of the full lift at the same a,
    # so it never exceeds the full f there
    reduced = []
    evaluate = geometry._RitzSpace.evaluate

    def recording(space, a):
        result = evaluate(space, a)
        reduced.append((a, result[0]))
        return result

    monkeypatch.setattr(geometry._RitzSpace, "evaluate", recording)
    regime = StinespringRegime(2, 0.3)
    same = 0
    for seed in range(5):
        ch = regime.sample(100, stream(40 + seed, 0))
        for restart in range(4):
            reduced.clear()
            res = norm_ascent(ch, stream(40 + seed, 1 + restart), restarts=1)
            assert tuple(r.converged for r in res.restarts) == (True,)
            _assert_attained(ch, res)
            assert reduced
            for a, value in reduced:
                assert value <= np.linalg.eigvalsh(ch.adjoint_rank_one(a))[-1] + 1e-12
            want = _reference_ascent_value(ch, stream(40 + seed, 1 + restart))
            same += abs(res.value - want) <= 1e-10
    # measured: all 20 restarts reach the alternation's maximum (the
    # full-space BFGS reached it in 15)
    assert same >= 18


def test_ascent_passes_the_maximum_a_full_space_search_stalls_below():
    # the full-space BFGS stops converged at f = 0.95815 on this restart;
    # the Ritz steps reach 0.96036, where a new top lift vector barely
    # leaves span P, and must still end converged well below the cap
    ch = StinespringRegime(2, 0.3).sample(100, stream(12, 0))
    res = norm_ascent(ch, stream(12, 1), restarts=1, iter_cap=60)
    assert tuple(r.converged for r in res.restarts) == (True,)
    assert res.restarts[0].evaluations <= 20
    assert res.value >= 0.9603
    _assert_attained(ch, res)


def test_a_restart_whose_ritz_space_stops_growing_ends_stalled(monkeypatch, tmp_path, capsys):
    # with every new top lift vector taken to lie in span P, the Ritz space
    # keeps only the first one, and the restart ends unconverged below the
    # cap, where its Ritz steps end
    monkeypatch.setattr(geometry, "_SPAN_TOL", 0.999)
    grown = []
    grow = geometry._RitzSpace.grow

    def recording(space, x):
        grown.append(grow(space, x))
        return grown[-1]

    monkeypatch.setattr(geometry._RitzSpace, "grow", recording)
    ch = StinespringRegime(2, 0.3).sample(100, stream(12, 0))
    res = norm_ascent(ch, stream(12, 1), restarts=1, iter_cap=60)
    assert grown == [True, False]
    assert tuple(r.converged for r in res.restarts) == (False,)
    assert res.restarts[0].evaluations < 60
    _assert_attained(ch, res)
    # the CLI counts such restarts as stalled, apart from the capped ones
    cfg = Path(__file__).parent / "golden" / "stinespring_peak.cfg"
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "peak.csv")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert "[channel-limits] ascent: 0 of 8 restarts capped, 8 stalled" in err


def test_ascent_tracks_limit_at_large_dimension():
    # flat three-unitary mix at n = 800: the largest output eigenvalue of a
    # flat rank-one probe concentrates near 8/9
    rng = stream(7, 0)
    ch = sample_mixed_unitary_channel(3, 800, np.full(3, 1 / 3), rng)
    res = norm_ascent(ch, rng, restarts=10, iter_cap=12)
    want = mixed_unitary_norm_limit(np.full(3, 1 / 3))
    assert abs(res.value - want) <= 0.1 * want
    assert len(res.restarts) == 10


# ------------------------------------------------------------ weyl operators


def test_weyl_identity_element():
    assert np.array_equal(weyl_operator(0, 0, 3), np.eye(3))


def test_weyl_pairwise_orthogonal_for_qubits():
    ops = [weyl_operator(a, b, 2) for a in range(2) for b in range(2)]
    for i, u in enumerate(ops):
        for j, v in enumerate(ops):
            inner = np.trace(u.conj().T @ v)
            want = 2.0 if i == j else 0.0
            assert abs(inner - want) <= 1e-12


def test_weyl_unitarity():
    for k in range(2, 7):
        for a in range(k):
            for b in range(k):
                w = weyl_operator(a, b, k)
                assert np.abs(w.conj().T @ w - np.eye(k)).max() <= 1e-12


def test_weyl_twirl_collapses_to_maximally_mixed():
    rng = stream(9, 0)
    assert np.abs(weyl_twirl(np.eye(4) / 4) - np.eye(4) / 4).max() <= 1e-14
    a = sample_density_matrix(5, rng).matrix
    assert np.abs(weyl_twirl(a) - np.eye(5) / 5).max() <= 1e-12


def test_probe_statistics_invariant_under_weyl_rotation():
    # top adjoint eigenvalues for A and WAW* share a law; compare sample
    # means across independent channels at n = 600 within five joint
    # standard errors.  A needs off-diagonal entries: for a diagonal A,
    # Phi*(A) = (sum_i w_i A_ii) I and every sample is the same constant.
    k, n, samples = 2, 600, 50
    w = weyl_operator(1, 1, k)
    v = np.array([0.6, 0.8j])
    a = np.outer(v, v.conj())
    rotated = w @ a @ w.conj().T
    assert np.abs(np.diag(rotated) - [0.64, 0.36]).max() <= 1e-15
    rng = stream(10, 0)
    vals = np.empty(samples)
    vals_rot = np.empty(samples)
    for i in range(samples):
        ch = sample_mixed_unitary_channel(k, n, np.full(k, 1 / k), rng)
        vals[i] = probe_top_eigenvalues(ch, a, 1)[0]
        ch2 = sample_mixed_unitary_channel(k, n, np.full(k, 1 / k), rng)
        vals_rot[i] = probe_top_eigenvalues(ch2, rotated, 1)[0]
    assert min(vals.std(), vals_rot.std()) > 1e-9
    se = np.hypot(
        vals.std(ddof=1) / np.sqrt(samples), vals_rot.std(ddof=1) / np.sqrt(samples)
    )
    assert abs(vals.mean() - vals_rot.mean()) <= 5.0 * se


# ------------------------------------------------------- entropy summaries


def test_smin_and_capacity_extremes():
    flat = [DensityMatrix.maximally_mixed(3)] * 4
    assert estimate_smin(flat) == pytest.approx(np.log(3), abs=1e-12)
    assert holevo_from_smin(3, estimate_smin(flat)) == pytest.approx(0.0, abs=1e-12)
    with_pure = flat + [DensityMatrix.pure(np.eye(3)[0])]
    assert estimate_smin(with_pure) == pytest.approx(0.0, abs=1e-12)
    assert holevo_from_smin(3, 0.0) == pytest.approx(np.log(3), abs=1e-14)


def test_smin_requires_samples():
    with pytest.raises(EmptySampleError):
        estimate_smin([])


def test_holevo_from_smin_domain():
    with pytest.raises(OutOfRangeError):
        holevo_from_smin(2, -0.5)
    with pytest.raises(OutOfRangeError):
        holevo_from_smin(2, 5.0)
    with pytest.raises(OutOfRangeError):
        holevo_from_smin(2, np.nan)


def test_entropy_sandwich_on_sampled_outputs():
    # the Holevo quantity of a sampled output ensemble stays below the
    # capacity value ln k - smin that output-cloud reports
    rng = stream(11, 0)
    ch = sample_mixed_unitary_channel(3, 6, np.full(3, 1 / 3), rng)
    outs = [ch.apply(DensityMatrix.pure(sample_pure_state(6, rng))) for _ in range(8)]
    smin = estimate_smin(outs)
    average = sum(o.matrix for o in outs) / len(outs)
    chi = von_neumann_entropy(average) - np.mean([von_neumann_entropy(o) for o in outs])
    assert 0.0 < chi <= holevo_from_smin(3, smin) + 1e-9


