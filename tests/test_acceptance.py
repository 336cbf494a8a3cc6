"""End-to-end acceptance checks.

Each test is one verifiable claim about the laboratory, with the stated
numerical tolerance and a wall-clock budget asserted inside the test.
The conftest plugin prints a one-line PASS/FAIL summary per test at the
end of the run.
"""

import time

import numpy as np
import pytest

from channel_limits import (
    DensityMatrix,
    DepolarizingChannel,
    EBChannel,
    StinespringRegime,
    eb_limit,
    eb_tensor_decompose,
    eb_tensor_output,
    estimate_smin,
    evaluate_subset,
    free_unitary_sum_norm,
    hermitian_eigenvalues,
    holevo_from_smin,
    make_pinching,
    maximize_over_sphere,
    mixed_unitary_norm_limit,
    norm_ascent,
    one_heavy_sup_value,
    one_heavy_weights,
    probe_top_eigenvalues,
    sample_density_matrix,
    sample_projective_povm,
    sample_pure_state,
    sample_stinespring_channel,
    sample_unit_norm_povm,
    sphere_sup,
    stinespring_peak_eigenvalue,
    stream,
    uniform_mixing_positivity_probe,
    weyl_operator,
    weyl_twirl,
)
from channel_limits.config import parse_config_text
from channel_limits.experiments import render_csv, render_json, run_experiment

CM_SEED = 3


class _Budget:
    """Context manager asserting a wall-clock limit on exit."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, (
                f"runtime {elapsed:.1f}s exceeds budget {self.seconds:.0f}s"
            )
        return False


def test_01_flat_vector_norm_closed_forms():
    """1. variational norm at flat vectors matches 2*sqrt(k-1)/k and /sqrt(k)"""
    with _Budget(1.0):
        for k in range(3, 9):
            simplex = free_unitary_sum_norm(np.full(k, 1.0 / k))
            assert abs(simplex - 2.0 * np.sqrt(k - 1.0) / k) <= 1e-9
            sphere = free_unitary_sum_norm(np.full(k, 1.0 / np.sqrt(k)))
            assert abs(sphere - 2.0 * np.sqrt(k - 1.0) / np.sqrt(k)) <= 1e-9


def test_02_flat_weight_supremum_closed_forms():
    """2. sphere supremum and its square at flat weights, k = 2..10"""
    with _Budget(1.0):
        for k in range(2, 11):
            w = np.full(k, 1.0 / k)
            assert abs(sphere_sup(w).value - 2.0 * np.sqrt(k - 1.0) / k) <= 1e-10
            assert abs(
                mixed_unitary_norm_limit(w) - 4.0 * (k - 1.0) / k**2
            ) <= 1e-10


def test_03_one_light_family_piecewise_curve():
    """3. k=4 weight family follows the piecewise curve, kink exactly at r=0.1"""
    with _Budget(1.0):
        for r in (0.02, 0.05, 0.08, 0.12, 0.2, 0.24):
            res = sphere_sup(one_heavy_weights(4, r))
            want = (
                (2.0 * r + 1.0) / np.sqrt(8.0 * r + 1.0)
                if r >= 0.1
                else (2.0 * np.sqrt(2.0) / 3.0) * np.sqrt(1.0 - r)
            )
            assert abs(res.value - want) <= 1e-10
            assert abs(res.value - one_heavy_sup_value(r)) <= 1e-10
            expect_subset = (0, 1, 2, 3) if r >= 0.1 else (1, 2, 3)
            assert res.argmax_subset == expect_subset
        # the switch happens exactly at the branch point
        assert sphere_sup(one_heavy_weights(4, 0.1)).argmax_subset == (0, 1, 2, 3)


def test_04_supremum_matches_gradient_ascent():
    """4. sphere_sup agrees with 50-start sphere ascent on 100 random weights"""
    with _Budget(60.0):
        rng = stream(2024, 0)
        counts = {2: 34, 3: 33, 4: 33}
        for k, count in counts.items():
            for _ in range(count):
                w = rng.random(k) + 0.01
                w /= w.sum()
                enumerated = sphere_sup(w).value
                ascended, _ = maximize_over_sphere(np.sqrt(w), rng)
                assert abs(enumerated - ascended) <= 1e-6


def test_05_subset_value_monotonicity_and_validity():
    """5. subset values are monotone under inclusion; small subsets always valid"""
    with _Budget(5.0):
        rng = stream(505, 0)
        for _ in range(1000):
            k = int(rng.integers(3, 9))
            w = rng.random(k) + 1e-3
            w /= w.sum()
            big_size = int(rng.integers(2, k + 1))
            big = tuple(sorted(rng.choice(k, size=big_size, replace=False)))
            small_size = int(rng.integers(1, big_size + 1))
            small = tuple(sorted(rng.choice(big, size=small_size, replace=False)))
            ev_small = evaluate_subset(small, w)
            ev_big = evaluate_subset(big, w)
            assert ev_small.value <= ev_big.value + 1e-12
            for ev in (ev_small, ev_big):
                if len(ev.subset) <= 3:
                    assert ev.valid


def test_06_measure_and_prepare_spectra():
    """6. adjoint spectra of measure-and-prepare channels match the max-overlap value"""
    with _Budget(10.0):
        rng = stream(606, 0)
        for _ in range(50):
            l = int(rng.integers(2, 4))
            dims = tuple(int(rng.integers(1, 3)) for _ in range(l))
            slack = int(rng.integers(1, 3))
            povm = sample_unit_norm_povm(dims, slack, rng)
            input_dim = int(rng.integers(3, 6))
            states = [sample_density_matrix(input_dim, rng) for _ in range(l)]
            ch = EBChannel(povm, states)
            a = sample_density_matrix(input_dim, rng).matrix
            want = eb_limit(a, states)
            vals = hermitian_eigenvalues(ch.adjoint_matrix(a))
            assert abs(vals[0] - want) <= 1e-10
            multiplicity = int(np.sum(vals >= want - 1e-8))
            assert multiplicity >= min(dims)
        for k in (2, 3, 5):
            # the observable lives on the output side, C^k
            ch = DepolarizingChannel(k, 4)
            a = sample_density_matrix(k, rng).matrix
            vals = hermitian_eigenvalues(ch.adjoint_matrix(a))
            assert np.abs(vals - 1.0 / k).max() <= 1e-12


def test_07_monte_carlo_spectral_convergence():
    """7. top adjoint eigenvalues concentrate on the flat-probe limit as n grows"""
    with _Budget(600.0):
        cfg = parse_config_text(
            "experiment = cm-convergence\n"
            "k = 3\n"
            "weights = 0.333333333333333333, 0.333333333333333333, 0.333333333333333333\n"
            "nGrid = 100, 200, 400, 800\n"
            "trials = 20\n"
            "m = 5\n"
            f"masterSeed = {CM_SEED}\n"
        )
        records = run_experiment(cfg, threads=4)
        med = lambda n, f: float(np.median([f(r) for r in records if r.n == n]))
        target = 8.0 / 9.0
        top800 = med(800, lambda r: r.values[0])
        assert abs(top800 - target) <= 0.1 * target
        errors = [med(n, lambda r: r.error) for n in (100, 200, 400, 800)]
        assert all(errors[i] >= errors[i + 1] for i in range(3))
        spread100 = med(100, lambda r: r.values[-1])
        spread800 = med(800, lambda r: r.values[-1])
        assert spread800 < 0.5 * spread100


def test_08_peak_eigenvalue_of_random_isometries():
    """8. sphere ascent at k=2, t=0.3, n=400 lands within 5% of the peak value"""
    with _Budget(300.0):
        regime = StinespringRegime(k=2, t=0.3)
        assert regime.input_dim(400) == 240
        target = stinespring_peak_eigenvalue(2, 0.3)
        values = []
        for trial in range(10):
            rng = stream(123, trial)
            ch = regime.sample(400, rng)
            values.append(norm_ascent(ch, rng, restarts=4, iter_cap=120).value)
        median = float(np.median(values))
        assert abs(median - target) <= 0.05 * target
        assert stinespring_peak_eigenvalue(2, 0.5) == 1.0
        assert stinespring_peak_eigenvalue(2, 0.7) == 1.0
        assert stinespring_peak_eigenvalue(4, 0.9) == 1.0


def test_09_weyl_machinery():
    """9. Weyl operators are unitary, twirls flatten, entropy map hits both ends"""
    with _Budget(5.0):
        rng = stream(909, 0)
        for k in range(2, 7):
            for a in range(k):
                for b in range(k):
                    w = weyl_operator(a, b, k)
                    assert np.abs(w.conj().T @ w - np.eye(k)).max() <= 1e-12
            for _ in range(20):
                obs = sample_density_matrix(k, rng).matrix
                assert np.abs(weyl_twirl(obs) - np.eye(k) / k).max() <= 1e-12
        for k in (2, 3, 5):
            pure_cloud = [DensityMatrix.pure(sample_pure_state(k, rng))]
            assert abs(
                holevo_from_smin(k, estimate_smin(pure_cloud)) - np.log(k)
            ) <= 1e-9
            flat_cloud = [DensityMatrix.maximally_mixed(k)]
            assert abs(holevo_from_smin(k, estimate_smin(flat_cloud))) <= 1e-12


def test_10_tensor_decomposition():
    """10. joint outputs split into product points; uniform mixing is obstructed"""
    with _Budget(30.0):
        rng = stream(1010, 0)
        for _ in range(50):
            l = int(rng.integers(2, 4))
            dims = tuple(int(rng.integers(1, 3)) for _ in range(l))
            povm = sample_projective_povm(dims, rng)
            states_dim = int(rng.integers(2, 4))
            eb = EBChannel(
                povm, [sample_density_matrix(states_dim, rng) for _ in range(l)]
            )
            psi = sample_stinespring_channel(2, 2, int(rng.integers(2, 4)), rng)
            b = sample_pure_state(psi.input_dim * eb.input_dim, rng)
            dec = eb_tensor_decompose(eb, psi, b)
            want = eb_tensor_output(eb, psi, b).matrix
            assert np.abs(dec.reconstruct(eb, psi) - want).max() <= 1e-10
        # pinching factors are exactly block diagonal
        for _ in range(5):
            dim = int(rng.integers(2, 5))
            eb = make_pinching(dim)
            psi = sample_stinespring_channel(2, 2, 3, rng)
            b = sample_pure_state(3 * dim, rng)
            out = eb_tensor_output(eb, psi, b).matrix
            kp = psi.output_dim
            for i in range(dim):
                for j in range(dim):
                    if i != j:
                        block = out[kp * i : kp * (i + 1), kp * j : kp * (j + 1)]
                        assert np.abs(block).max() <= 1e-12
        # any non-flat POVM breaks the uniform-mixing ansatz
        for _ in range(10):
            l = int(rng.integers(2, 4))
            dims = tuple(int(rng.integers(1, 3)) for _ in range(l))
            povm = sample_projective_povm(dims, rng)
            report = uniform_mixing_positivity_probe(povm, 1.0 / l)
            assert report.has_negative_block


def test_11_end_to_end_determinism():
    """11. identical config and seed give byte-identical output at any thread count"""
    norm_cfg = parse_config_text(
        "experiment = norm-limit\nk = 2\nweights = 0.5, 0.5\n"
        "nGrid = 6, 10\ntrials = 3\nrestarts = 2\niterCap = 30\nmasterSeed = 3\n"
    )
    eb_cfg = parse_config_text(
        "experiment = eb-tensor\nk = 2\nnGrid = 3, 4\ntrials = 4\nmasterSeed = 9\n"
    )
    for cfg in (norm_cfg, eb_cfg):
        first = run_experiment(cfg, threads=1)
        again = run_experiment(cfg, threads=1)
        pooled = run_experiment(cfg, threads=8)
        assert render_csv(first) == render_csv(again)
        assert render_csv(first) == render_csv(pooled)
        assert render_json(first) == render_json(pooled)
