"""Experiment harness: config parsing, runners, serialization, CLI."""

import ctypes
import functools
import importlib.util
import json
import logging
import os
import subprocess
import sys
import threading
from concurrent.futures import Executor, Future
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from channel_limits.cli import main as cli_main
from channel_limits.config import (
    ExperimentConfig,
    load_config,
    parse_config_text,
    validate_config,
)
from channel_limits import config, experiments, openblas
from channel_limits.channels import DepolarizingChannel
from channel_limits.ensembles import (
    sample_mixed_unitary_channel,
    sample_pure_state,
    sample_stinespring_channel,
    stream,
)
from channel_limits.errors import (
    ConfigError,
    EmptyResultsError,
    InvalidDensityMatrixError,
    NotUnitVectorError,
)
from channel_limits.experiments import (
    emit_results,
    render_csv,
    render_json,
    run_experiment,
)
from channel_limits.geometry import estimate_smin, probe_top_eigenvalues, weyl_operator
from channel_limits.linalg import DensityMatrix, von_neumann_entropy

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "psistar_sweep.csv"

# tiny configs of the Monte-Carlo experiments; the CSVs next to them were
# written by `channel-limits run`, which runs every trial on one OpenBLAS thread
MONTE_CARLO_GOLDENS = (
    "cm_convergence",
    "norm_limit",
    "stinespring_peak",
    "weyl_invariance",
    "eb_tensor",
    "output_cloud",
)
ID_COLUMNS = 6

SWEEP_TEXT = """
# supremum sweep over the one-light weight family
experiment = psistar-sweep
k = 4
rGrid = 0.05, 0.1, 0.2
masterSeed = 7
"""

CM_TEXT = """
experiment = cm-convergence
k = 3
channel = depolarizing
nGrid = 4, 8
trials = 2
m = 3
masterSeed = 5
"""


# ------------------------------------------------------------------- parsing


def test_parse_config_round_trip():
    cfg = parse_config_text(SWEEP_TEXT)
    assert cfg.experiment == "psistar-sweep"
    assert cfg.k == 4
    assert cfg.r_grid == (0.05, 0.1, 0.2)
    assert cfg.master_seed == 7
    validate_config(cfg)


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError):
        parse_config_text("experiment = norm-limit\nk = 2\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("experiment = norm-limit\nk = 2\nk = 3\n")


def test_parse_requires_experiment_and_k():
    with pytest.raises(ConfigError):
        parse_config_text("k = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("experiment = norm-limit\n")


def test_parse_rejects_malformed_lines():
    with pytest.raises(ConfigError):
        parse_config_text("experiment norm-limit\nk = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("experiment = bogus-experiment\nk = 2\n")


def test_parse_probe_matrix():
    text = (
        "experiment = cm-convergence\nk = 2\nnGrid = 4\n"
        "channel = depolarizing\nprobe = explicit\n"
        "probeMatrix = 0.7,0 ; 0,0 ; 0,0 ; 0.3,0\n"
    )
    cfg = parse_config_text(text)
    mat = cfg.probe_array()
    assert np.abs(mat - np.diag([0.7, 0.3])).max() <= 1e-12
    validate_config(cfg)


def test_validate_rejects_incomplete_configs():
    with pytest.raises(ConfigError):
        validate_config(parse_config_text("experiment = norm-limit\nk = 2\n"))
    with pytest.raises(ConfigError):
        validate_config(
            parse_config_text("experiment = psistar-sweep\nk = 4\nrGrid = 1.5\n")
        )
    with pytest.raises(ConfigError):
        validate_config(
            parse_config_text(
                "experiment = stinespring-peak\nk = 2\nnGrid = 40\n"
            )
        )


def test_load_config_and_overrides(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(SWEEP_TEXT + f"outputPath = {tmp_path / 'config.csv'}\n")
    cfg = load_config(str(path))
    assert cfg.k == 4
    # the CLI replaces only the settings it is given
    assert cli_main(["run", str(path)]) == 0
    assert cli_main(["run", str(path), "--seed", "99", "--out", str(tmp_path / "out.csv")]) == 0
    seeds = [
        {row.split(",")[2] for row in (tmp_path / name).read_text().splitlines()[1:]}
        for name in ("config.csv", "out.csv")
    ]
    assert seeds == [{"7"}, {"99"}]


# ------------------------------------------------------------------- runners


def test_depolarizing_probe_is_exact():
    cfg = parse_config_text(CM_TEXT)
    records = run_experiment(cfg)
    assert len(records) == 4
    for rec in records:
        assert rec.error <= 1e-12
        spread = rec.values[-1]
        assert spread <= 1e-12
        assert rec.target == pytest.approx(1.0 / 3.0, abs=1e-15)


def _k2_lift_spectra(channel, vectors):
    """Spectrum of Phi*(aa*), descending, per vector a, for a k = 2 mixed-unitary channel.

    The sampler sets U_1 = I and U_2 = C, so Phi*(A) = (w_1 A_11 + w_2 A_22) I
    + sqrt(w_1 w_2)(A_12 C + conj(A_12) C*), whose eigenvalues are
    c + 2 sqrt(w_1 w_2) Re(A_12 l) over the eigenvalues l of C, those of
    block 1 divided by sqrt(w_2).
    """
    w1, w2 = channel.weights
    n = channel.input_dim
    lam = np.linalg.eigvals(channel.isometry[n:] / np.sqrt(w2))

    def spectrum(a):
        c = w1 * abs(a[0]) ** 2 + w2 * abs(a[1]) ** 2
        return np.sort(c + 2.0 * np.sqrt(w1 * w2) * (a[0] * np.conj(a[1]) * lam).real)[::-1]

    return [spectrum(a) for a in vectors]


def test_committed_weyl_invariance_rows_meet_the_exact_k2_spectrum():
    cfg = load_config(str(REPO / "configs" / "weyl_invariance.cfg"))
    assert (cfg.k, cfg.probe) == (2, "flat-rank-one")
    flat = np.ones(2, dtype=np.complex128) / np.sqrt(2.0)
    orbit = [weyl_operator(s, p, 2) @ flat for s in range(2) for p in range(2)]
    rows = (REPO / "results" / "weyl_invariance.csv").read_text().splitlines()[1:]
    assert len(rows) == cfg.trials * len(cfg.n_grid)
    for row in rows:
        cells = row.split(",")
        trial, seed, n = int(cells[1]), int(cells[2]), int(cells[3])
        channel = sample_mixed_unitary_channel(cfg.k, n, cfg.weights, stream(seed, trial))
        exact = [spectrum[0] for spectrum in _k2_lift_spectra(channel, orbit)]
        values = [float(v) for v in cells[ID_COLUMNS : ID_COLUMNS + len(orbit)]]
        assert np.abs(np.subtract(values, exact)).max() <= 1e-12


def test_k2_random_pure_probe_spectra_meet_the_exact_spectrum():
    text = (
        "experiment = cm-convergence\nk = 2\nweights = 0.3, 0.7\nnGrid = 50, 300, 600\n"
        "trials = 1\nm = 5\nprobe = random-pure\nmasterSeed = 5\n"
    )
    records = run_experiment(parse_config_text(text))
    assert [rec.n for rec in records] == [50, 300, 600]
    for rec in records:
        # the trial's stream draws the channel, then the probe
        rng = stream(rec.seed, rec.trial)
        channel = sample_mixed_unitary_channel(2, rec.n, [0.3, 0.7], rng)
        (spectrum,) = _k2_lift_spectra(channel, [sample_pure_state(2, rng)])
        assert np.abs(np.subtract(rec.values[:5], spectrum[:5])).max() <= 1e-12


def test_explicit_rank_one_probe_lifts_its_matrix():
    # the probe is aa* for a = (0.6, 0.8i); the runner lifts the matrix it
    # was given, not the eigenvector it recovers for the target
    text = (
        "experiment = cm-convergence\nk = 2\nweights = 0.25, 0.75\n"
        "probe = explicit\nprobeMatrix = 0.36,0 ; 0,-0.48 ; 0,0.48 ; 0.64,0\n"
        "nGrid = 12\ntrials = 1\nm = 3\nmasterSeed = 4\n"
    )
    cfg = parse_config_text(text)
    (record,) = run_experiment(cfg)
    channel = sample_mixed_unitary_channel(2, 12, cfg.weights, stream(4, 0))
    matrix = DensityMatrix(cfg.probe_array()).matrix
    vals = probe_top_eigenvalues(channel, matrix, 3)
    assert record.values == (*vals, vals[0] - vals[-1])
    assert record.target is not None


def test_explicit_probe_bytes_do_not_depend_on_threads_and_it_is_not_rank_one():
    text = (
        "experiment = weyl-invariance\nk = 2\nweights = 0.25, 0.75\n"
        "probe = explicit\nprobeMatrix = 0.7,0 ; 0.1,0.2 ; 0.1,-0.2 ; 0.3,0\n"
        "nGrid = 8, 12\ntrials = 4\nmasterSeed = 6\n"
    )
    cfg = parse_config_text(text)
    serial = render_csv(run_experiment(cfg, threads=1))
    assert render_csv(run_experiment(cfg, threads=4)) == serial
    # every trial resolves its own probe; this one is not rank one
    matrix, coeff = experiments._build_probe(cfg, stream(6, 0))
    assert coeff is None and np.array_equal(matrix, cfg.probe_array())


def test_psistar_sweep_tracks_piecewise_curve():
    cfg = parse_config_text(SWEEP_TEXT)
    records = run_experiment(cfg)
    assert [rec.probe for rec in records] == ["r=0.05", "r=0.1", "r=0.2"]
    assert [rec.trial for rec in records] == [0, 1, 2]
    # the sweep runs on the trial pool like every other experiment
    assert render_csv(run_experiment(cfg, threads=2)) == render_csv(records)
    sizes = [rec.values[1] for rec in records]
    assert sizes == [3.0, 4.0, 4.0]
    for rec in records:
        assert rec.error <= 1e-10


def test_trial_order_is_schedule_independent():
    cfg = parse_config_text(CM_TEXT)
    serial = run_experiment(cfg, threads=1)
    pooled = run_experiment(cfg, threads=4)
    assert render_csv(serial) == render_csv(pooled)


# ------------------------------------------------------------- serialization


def test_csv_schema():
    cfg = parse_config_text(CM_TEXT)
    records = run_experiment(cfg)
    text = render_csv(records)
    header = text.splitlines()[0]
    fields = header.split(",")
    assert fields[:6] == ["experiment", "trial", "seed", "n", "k", "probe"]
    assert fields[-2:] == ["target", "error"]
    assert all(f.startswith("value") for f in fields[6:-2])
    assert len(text.splitlines()) == len(records) + 1


def test_csv_floats_round_trip():
    cfg = parse_config_text(SWEEP_TEXT)
    records = run_experiment(cfg)
    line = render_csv(records).splitlines()[1]
    value = float(line.split(",")[6])
    assert value == records[0].values[0]


def test_json_round_trip():
    cfg = parse_config_text(CM_TEXT)
    records = run_experiment(cfg)
    back = json.loads(render_json(records))
    assert back == [{**asdict(r), "values": list(r.values)} for r in records]


def test_emit_results_validation():
    with pytest.raises(EmptyResultsError):
        emit_results([])
    cfg = parse_config_text(SWEEP_TEXT)
    records = run_experiment(cfg)
    with pytest.raises(ConfigError):
        emit_results(records, "xml")
    assert emit_results(records, "json") == render_json(records)


def test_golden_file_schema_is_stable():
    cfg = parse_config_text(SWEEP_TEXT)
    records = run_experiment(cfg)
    assert render_csv(records) == GOLDEN.read_text()


def _assert_csv_within_golden_tolerance(got_text, golden_text):
    # identifying columns exactly; each float x within 1e-12 * max(1, |x|),
    # the agreement promised across machines and BLAS thread settings
    got = [line.split(",") for line in got_text.splitlines()]
    want = [line.split(",") for line in golden_text.splitlines()]
    assert len(got) == len(want)
    assert got[0] == want[0]
    for row, golden in zip(got[1:], want[1:]):
        assert row[:ID_COLUMNS] == golden[:ID_COLUMNS]
        for cell, expect in zip(row[ID_COLUMNS:], golden[ID_COLUMNS:]):
            if expect == "":
                assert cell == ""
                continue
            bound = 1e-12 * max(1.0, abs(float(expect)))
            assert abs(float(cell) - float(expect)) <= bound, (row[1], cell, expect)


@pytest.mark.parametrize("stem", MONTE_CARLO_GOLDENS)
def test_monte_carlo_runs_match_golden_files(stem):
    cfg = load_config(str(GOLDEN_DIR / f"{stem}.cfg"))
    _assert_csv_within_golden_tolerance(
        render_csv(run_experiment(cfg)), (GOLDEN_DIR / f"{stem}.csv").read_text()
    )


# each pinned ascent config with the restarts that reach their trial's best
# value within 1e-9, as measured; the others end at lower local maxima
GOLDEN_ASCENTS = {"norm_limit": 4, "stinespring_peak": 5, "output_cloud": 5}


@pytest.mark.parametrize("stem", GOLDEN_ASCENTS)
def test_golden_ascent_restarts_all_converge(stem, tmp_path, capsys):
    # a capped restart pins the optimizer's path, not a local maximum, so
    # every restart of the pinned ascent configs reaches its gradient tol
    cfg = load_config(str(GOLDEN_DIR / f"{stem}.cfg"))
    restarts = len(cfg.n_grid) * cfg.trials * cfg.restarts
    out = tmp_path / f"{stem}.csv"
    assert cli_main(["run", str(GOLDEN_DIR / f"{stem}.cfg"), "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert f"[channel-limits] ascent: 0 of {restarts} restarts capped" in err
    covered = GOLDEN_ASCENTS[stem]
    assert (
        f"[channel-limits] ascent: {covered} of {restarts} restarts within 1e-9 "
        "of their trial's best" in err
    )
    _assert_csv_within_golden_tolerance(
        out.read_text(), (GOLDEN_DIR / f"{stem}.csv").read_text()
    )


def test_cli_reports_capped_restarts_only_for_ascent_runs(tmp_path, capsys):
    capped = _golden_text("norm_limit").replace("iterCap = 50", "iterCap = 2")
    assert cli_main(["run", _write(tmp_path, "capped.cfg", capped), "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert "[channel-limits] ascent: 8 of 8 restarts capped" in captured.err.splitlines()
    assert captured.out.startswith("experiment,")
    assert cli_main(["run", _write(tmp_path, "cm.cfg", CM_TEXT), "--out", "-"]) == 0
    assert "ascent:" not in capsys.readouterr().err


def test_cli_reports_no_coverage_for_one_restart_per_trial(tmp_path, capsys):
    # a trial's only restart is its best, so a full count would say nothing
    single = _golden_text("norm_limit").replace("restarts = 2", "restarts = 1")
    assert cli_main(["run", _write(tmp_path, "single.cfg", single), "--out", "-"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert "[channel-limits] ascent: 0 of 4 restarts capped" in err
    assert "[channel-limits] ascent: coverage not measured, one restart per trial" in err
    assert not any("within 1e-9" in line for line in err)


def test_fast_configs_reproduce_committed_results():
    # the configs that run in seconds; the closed-form sweep is exact, the
    # Monte-Carlo runs are held to the golden tolerance
    def regenerate(stem):
        return render_csv(run_experiment(load_config(str(REPO / "configs" / f"{stem}.cfg"))))

    committed = REPO / "results"
    assert regenerate("psistar_sweep") == (committed / "psistar_sweep.csv").read_text()
    for stem in ("eb_tensor", "weyl_invariance", "output_cloud"):
        _assert_csv_within_golden_tolerance(
            regenerate(stem), (committed / f"{stem}.csv").read_text()
        )


# the committed configs that run in seconds, with their results
FAST_RUNS = ("psistar_sweep", "eb_tensor", "weyl_invariance", "output_cloud")


@pytest.mark.parametrize(
    "config, result",
    [
        *((GOLDEN_DIR / stem, GOLDEN_DIR / stem) for stem in MONTE_CARLO_GOLDENS),
        *((REPO / "configs" / stem, REPO / "results" / stem) for stem in FAST_RUNS),
    ],
    ids=[*(f"golden-{stem}" for stem in MONTE_CARLO_GOLDENS), *FAST_RUNS],
)
def test_runs_without_native_kernels_stay_within_golden_tolerance(monkeypatch, config, result):
    # a numpy (>= 1.24, as the package allows) whose library exports none
    # of the symbols: every kernel takes its numpy fallback
    for kernels in ("_GEMM", "_UNGQR", "_HERK", "_TWO_STAGE"):
        monkeypatch.setattr(openblas, kernels, None)
    _assert_csv_within_golden_tolerance(
        render_csv(run_experiment(load_config(f"{config}.cfg"))), Path(f"{result}.csv").read_text()
    )


def _openblas_core():
    """The core type whose kernels numpy's OpenBLAS picked, or None if it does not say."""
    corename = openblas._bind(("scipy_openblas_get_corename64_", ctypes.c_char_p, []))
    return None if corename is None else corename[0]().decode()


# OpenBLAS core types of CPUs that also run its Haswell kernels (AVX2 and FMA);
# a child process is never sent to a newer core than the host's, whose
# kernels could raise SIGILL
RUNS_HASWELL_KERNELS = {"SkylakeX", "Cooperlake", "SapphireRapids", "Zen"}

# a k = 3 mixed-unitary run at sizes the golden configs stay below: n = 520
# takes the two-stage solve (n >= linalg.TWO_STAGE_MIN_DIM)
REALISTIC_TEXT = (
    "experiment = cm-convergence\nk = 3\nweights = 0.2, 0.3, 0.5\n"
    "nGrid = 100, 520\ntrials = 1\nmasterSeed = 17\n"
)


@pytest.fixture(scope="module")
def realistic_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("realistic") / "realistic.cfg"
    path.write_text(REALISTIC_TEXT)
    return str(path)


@functools.cache
def _in_process_run(cfg_path):
    return render_csv(run_experiment(load_config(cfg_path)))


_CHILD_RUN = """
import ctypes, json, sys
from channel_limits import openblas
from channel_limits.config import load_config
from channel_limits.experiments import render_csv, run_experiment
(corename,) = openblas._bind(("scipy_openblas_get_corename64_", ctypes.c_char_p, []))
runs = {path: render_csv(run_experiment(load_config(path))) for path in sys.argv[1:]}
print(json.dumps({"core": corename().decode(), "runs": runs}))
"""


@pytest.mark.skipif(
    _openblas_core() not in RUNS_HASWELL_KERNELS,
    reason="OpenBLAS picked no core type newer than Haswell on this CPU",
)
def test_golden_configs_under_other_kernels_stay_within_golden_tolerance(realistic_config):
    # another CPU's kernels, as OpenBLAS would pick them there: the promise
    # across machines is the golden tolerance, not the committed bytes
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    configs = [str(GOLDEN_DIR / f"{stem}.cfg") for stem in MONTE_CARLO_GOLDENS]
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_RUN, *configs, realistic_config],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout)
    assert child["core"] == "Haswell"
    for stem, cfg in zip(MONTE_CARLO_GOLDENS, configs):
        _assert_csv_within_golden_tolerance(
            child["runs"][cfg], (GOLDEN_DIR / f"{stem}.csv").read_text()
        )
    # the realistic run has no committed file: it is held to this machine's run
    _assert_csv_within_golden_tolerance(
        child["runs"][realistic_config], _in_process_run(realistic_config)
    )


# ----------------------------------------------------------------------- cli


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_writes_csv(tmp_path, capsys):
    cfg_path = _write(tmp_path, "sweep.cfg", SWEEP_TEXT)
    out_path = tmp_path / "out.csv"
    code = cli_main(["run", cfg_path, "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert out_path.read_text().startswith("experiment,")


def test_cli_stdout_mode(tmp_path, capsys):
    cfg_path = _write(tmp_path, "sweep.cfg", SWEEP_TEXT)
    code = cli_main(["run", cfg_path, "--out", "-", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    parsed = json.loads(captured.out)
    assert len(parsed) == 3


def test_cli_pins_mmap_threshold_only_for_a_worker_pool(tmp_path, monkeypatch):
    from channel_limits import cli

    calls = []
    monkeypatch.setattr(cli, "_pin_mmap_threshold", lambda: calls.append(1))
    cfg_path = _write(tmp_path, "sweep.cfg", SWEEP_TEXT)
    assert cli_main(["run", cfg_path, "--out", str(tmp_path / "a.csv"), "--threads", "1"]) == 0
    assert calls == []
    assert cli_main(["run", cfg_path, "--out", str(tmp_path / "b.csv"), "--threads", "2"]) == 0
    assert calls == [1]


def test_cli_threads_default_to_the_usable_cores():
    from channel_limits import cli

    args = cli._build_parser().parse_args(["run", "any.cfg"])
    assert args.threads == experiments.usable_cores() >= 1


def test_cli_seed_override_changes_nothing_for_closed_form_sweep(tmp_path):
    # the sweep is deterministic, so a seed override leaves values intact
    cfg_path = _write(tmp_path, "sweep.cfg", SWEEP_TEXT)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli_main(["run", cfg_path, "--out", str(a)]) == 0
    assert cli_main(["run", cfg_path, "--out", str(b), "--seed", "123"]) == 0
    col_a = [line.split(",")[6] for line in a.read_text().splitlines()[1:]]
    col_b = [line.split(",")[6] for line in b.read_text().splitlines()[1:]]
    assert col_a == col_b


def test_cli_large_k_sweep_runs(tmp_path):
    # a valid config at any k runs: the supremum scans k prefixes only
    text = "experiment = psistar-sweep\nk = 24\nrGrid = 0.01, 0.3\nmasterSeed = 0\n"
    out_path = tmp_path / "sweep24.csv"
    assert cli_main(["run", _write(tmp_path, "k24.cfg", text), "--out", str(out_path)]) == 0
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    assert [float(row[7]) for row in rows] == [23.0, 24.0]


def test_cli_config_error_is_exit_one(tmp_path, capsys):
    bad = _write(tmp_path, "bad.cfg", "experiment = norm-limit\n")
    code = cli_main(["run", bad, "--out", "-"])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error" in captured.err


@pytest.mark.parametrize(
    "weights, message",
    [
        # the sum 0.9999999999 misses 1 by more than the weight tolerance
        ("0.3333333333, 0.3333333333, 0.3333333333", "weights sum to 0.9999999999, not 1"),
        ("nan, nan, nan", "weights: weights must be finite"),
    ],
    ids=["rounding", "nan"],
)
def test_cli_weights_off_by_rounding_are_exit_one(tmp_path, capsys, weights, message):
    text = f"experiment = norm-limit\nk = 3\nweights = {weights}\nnGrid = 4\n"
    code = cli_main(["run", _write(tmp_path, "w.cfg", text), "--out", "-"])
    captured = capsys.readouterr()
    assert code == 1
    assert message in captured.err


def _golden_text(stem):
    return (GOLDEN_DIR / f"{stem}.cfg").read_text()


@pytest.mark.parametrize(
    "base, extra, key",
    [
        (_golden_text("stinespring_peak"), "channel = depolarizing\nweights = 0.25, 0.75\n",
         "weights"),
        (SWEEP_TEXT, "weights = 0.1, 0.2, 0.3, 0.4\n", "weights"),
        (_golden_text("cm_convergence"), "t = 0.5\n", "t"),
        (_golden_text("cm_convergence"), "samples = 50\n", "samples"),
        (_golden_text("cm_convergence"), "restarts = 3\n", "restarts"),
        (CM_TEXT, "weights = 0.2, 0.3, 0.5\n", "weights"),
        (CM_TEXT, "probeMatrix = 1,0 ; 0,0 ; 0,0 ; 0,0\n", "probeMatrix"),
        (_golden_text("norm_limit"), "m = 3\n", "m"),
        (SWEEP_TEXT, "nGrid = 4\n", "nGrid"),
        (SWEEP_TEXT, "trials = 3\n", "trials"),
        (_golden_text("stinespring_peak"), "probe = random-pure\n", "probe"),
        (_golden_text("weyl_invariance"), "channel = mixed-unitary\n", "channel"),
        (_golden_text("weyl_invariance"), "iterCap = 30\n", "iterCap"),
        (_golden_text("eb_tensor"), "channel = depolarizing\n", "channel"),
        (_golden_text("output_cloud"), "m = 2\n", "m"),
        # weights select the mixed-unitary channel, which reads no t
        (_golden_text("output_cloud"), "weights = 0.5, 0.5\n", "t"),
    ],
    ids=[
        "stinespring-peak-channel-weights",
        "psistar-sweep-weights",
        "cm-convergence-weights-and-t",
        "cm-convergence-samples",
        "cm-convergence-restarts",
        "cm-convergence-depolarizing-weights",
        "cm-convergence-probe-matrix-without-explicit",
        "norm-limit-m",
        "psistar-sweep-n-grid",
        "psistar-sweep-trials",
        "stinespring-peak-probe",
        "weyl-invariance-channel",
        "weyl-invariance-iter-cap",
        "eb-tensor-channel",
        "output-cloud-m",
        "output-cloud-weights-and-t",
    ],
)
def test_cli_unread_keys_are_exit_one(tmp_path, capsys, base, extra, key):
    # a key the run never reads would describe a run the config does not get
    code = cli_main(["run", _write(tmp_path, "x.cfg", base + extra), "--out", "-"])
    captured = capsys.readouterr()
    assert code == 1
    experiment = parse_config_text(base).experiment
    assert f"config error: {key}: not used by {experiment}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "matrix, problem",
    [
        ("1,0 ; 0,0 ; 0,0 ; 1,0", "trace"),
        ("0.5,0 ; 0.1,0 ; 0.2,0 ; 0.5,0", "not Hermitian"),
        ("1.5,0 ; 0,0 ; 0,0 ; -0.5,0", "minimum eigenvalue"),
    ],
    ids=["trace-two", "non-hermitian", "negative"],
)
def test_cli_explicit_probe_that_is_not_a_state_is_exit_one(tmp_path, capsys, matrix, problem):
    text = (
        "experiment = cm-convergence\nk = 2\nchannel = depolarizing\nnGrid = 4\n"
        f"probe = explicit\nprobeMatrix = {matrix}\n"
    )
    code = cli_main(["run", _write(tmp_path, "probe.cfg", text), "--out", "-"])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error: probeMatrix:" in captured.err
    assert problem in captured.err


def _shipped_configs():
    """Every config the repository runs, by name: configs/, the goldens, the benchmark's."""
    configs = {
        str(path.relative_to(REPO)): path.read_text()
        for path in sorted([*(REPO / "configs").glob("*.cfg"), *GOLDEN_DIR.glob("*.cfg")])
    }
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        configs[f"perfbench {name}"] = workloads.render(workload.config(1))
    return configs


SHIPPED_CONFIGS = _shipped_configs()


@pytest.mark.parametrize("name", SHIPPED_CONFIGS)
def test_shipped_configs_load(name):
    # every config the repository runs sets only keys its run reads
    parse_config_text(SHIPPED_CONFIGS[name])


@pytest.mark.parametrize(
    "text",
    [
        "experiment = stinespring-peak\nk = 1\nt = 0.5\nnGrid = 4\n",
        "experiment = norm-limit\nk = 1\nweights = 1\nnGrid = 4\n",
        "experiment = norm-limit\nk = 1\nt = 0.5\nnGrid = 4\n",
        "experiment = output-cloud\nk = 1\nt = 0.5\nnGrid = 4\nsamples = 3\n",
    ],
    ids=["stinespring-peak", "norm-limit-weights", "norm-limit-t", "output-cloud-t"],
)
def test_cli_k1_without_a_target_is_exit_one(tmp_path, capsys, text):
    # the closed-form limit these runs compare against needs k >= 2
    code = cli_main(["run", _write(tmp_path, "k1.cfg", text), "--out", "-"])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error: k:" in captured.err


@pytest.mark.parametrize(
    "text",
    [
        "experiment = norm-limit\nk = 1\nchannel = depolarizing\nnGrid = 4\n",
        "experiment = cm-convergence\nk = 1\nweights = 1\nnGrid = 4\n",
        "experiment = weyl-invariance\nk = 1\nweights = 1\nnGrid = 4\n",
        "experiment = output-cloud\nk = 1\nweights = 1\nnGrid = 4\nsamples = 3\n",
    ],
    ids=["norm-limit-depolarizing", "cm-convergence", "weyl-invariance", "output-cloud-weights"],
)
def test_cli_k1_with_a_target_runs(tmp_path, capsys, text):
    assert cli_main(["run", _write(tmp_path, "k1.cfg", text), "--out", "-"]) == 0
    assert capsys.readouterr().out.startswith("experiment,")


def test_cli_missing_output_is_exit_one(tmp_path, capsys, monkeypatch):
    from channel_limits import cli

    cfg_path = _write(tmp_path, "sweep.cfg", SWEEP_TEXT)
    assert cli_main(["run", cfg_path]) == 1
    # a destination whose directory is missing fails before the first trial
    monkeypatch.setattr(cli, "run_experiment", lambda cfg, threads=1: pytest.fail("ran"))
    capsys.readouterr()
    code = cli_main(["run", cfg_path, "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error: outputPath:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("where", ["outputPath", "--out"])
def test_cli_output_path_that_is_a_directory_is_exit_one(tmp_path, capsys, monkeypatch, where):
    from channel_limits import cli

    outdir = tmp_path / "outdir"
    outdir.mkdir()
    text = SWEEP_TEXT + (f"outputPath = {outdir}\n" if where == "outputPath" else "")
    extra = ["--out", str(outdir)] if where == "--out" else []
    # refused before the first trial, not when the results are written
    monkeypatch.setattr(cli, "run_experiment", lambda cfg, threads=1: pytest.fail("ran"))
    code = cli_main(["run", _write(tmp_path, "sweep.cfg", text), *extra])
    captured = capsys.readouterr()
    assert code == 1
    assert f"config error: outputPath: {str(outdir)!r} is a directory" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, m",
    [
        ("experiment = cm-convergence\nk = 2\nweights = 0.5, 0.5\nnGrid = 3, 8\n", 3),
        ("experiment = cm-convergence\nk = 2\nt = 0.3\nnGrid = 4, 6\n", 2),
    ],
    ids=["mixed-unitary", "stinespring"],
)
def test_m_at_the_lift_dimension_runs(text, m):
    records = run_experiment(parse_config_text(text + f"m = {m}\ntrials = 2\n"))
    assert len(records) == 4
    for rec in records:
        assert len(rec.values) == m + 1


def test_cli_runtime_failure_is_exit_two(tmp_path, capsys, monkeypatch):
    from channel_limits import cli

    cfg_path = _write(tmp_path, "sweep.cfg", SWEEP_TEXT)
    taken = tmp_path / "taken.csv"

    def run_then_take(cfg, threads=1):
        taken.mkdir()  # the destination turns into a directory during the run
        return run_experiment(cfg, threads)

    # the run succeeds and the write fails
    monkeypatch.setattr(cli, "run_experiment", run_then_take)
    assert cli_main(["run", cfg_path, "--out", str(taken)]) == 2
    assert "error: cannot write" in capsys.readouterr().err

    def failing(cfg, threads=1):
        raise RuntimeError("trial failed")

    monkeypatch.setattr(cli, "run_experiment", failing)
    out = tmp_path / "kept.csv"
    out.write_text("earlier results\n")
    assert cli_main(["run", cfg_path, "--out", str(out)]) == 2
    assert "error: trial failed" in capsys.readouterr().err
    # a run that fails leaves an existing destination as it was
    assert out.read_text() == "earlier results\n"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("experiment = psistar-sweep\nk = four\nrGrid = 0.1\n", "k:"),
        ("experiment = stinespring-peak\nk = 2\nt = half\nnGrid = 4\n", "t:"),
        (
            "experiment = cm-convergence\nk = 2\nchannel = depolarizing\nnGrid = 4\n"
            "probe = explicit\nprobeMatrix = 1,0,0 ; 0,0 ; 0,0 ; 0,0\n",
            "probeMatrix:",
        ),
        (
            "experiment = cm-convergence\nk = 2\nchannel = depolarizing\nnGrid = 4\n"
            "probe = explicit\nprobeMatrix = 1,0 ; 0,0 ; 0,0\n",
            "probeMatrix:",
        ),
        (None, "config file"),
        ("experiment = norm-limit\nk = 2\nchannel = depolarizing\nnGrid = 4\ntrials = 0\n",
         "trials:"),
        ("experiment = norm-limit\nk = 2\nchannel = depolarizing\nnGrid = 4, -2\n", "nGrid:"),
        ("experiment = stinespring-peak\nk = 2\nt = 1.5\nnGrid = 4\n", "t:"),
        ("experiment = norm-limit\nk = 3\nweights = 0.5, 0.5\nnGrid = 4\n", "weights:"),
        (
            "experiment = cm-convergence\nk = 3\nchannel = depolarizing\nnGrid = 4\n"
            "probe = explicit\nprobeMatrix = 1,0 ; 0,0 ; 0,0 ; 0,0\n",
            "probeMatrix:",
        ),
        # the lift is 3 x 3 at n = 3, though 8 x 8 at n = 8
        ("experiment = cm-convergence\nk = 2\nweights = 0.5, 0.5\nnGrid = 3, 8\nm = 5\n", "m:"),
        # the Stinespring lift at n = 4, t = 0.3 is 2 x 2
        ("experiment = cm-convergence\nk = 2\nt = 0.3\nnGrid = 4\nm = 3\n", "m:"),
        # the stream keys on 64 bits: -5 and 2^64 - 5 would draw alike
        (SWEEP_TEXT.replace("masterSeed = 7", "masterSeed = -5"), "masterSeed:"),
        (SWEEP_TEXT.replace("masterSeed = 7", f"masterSeed = {2**64}"), "masterSeed:"),
    ],
    ids=[
        "not-an-integer",
        "not-a-number",
        "matrix-entry-not-a-pair",
        "matrix-not-square",
        "missing-file",
        "non-positive-count",
        "negative-n-grid-entry",
        "t-outside-unit-interval",
        "wrong-weights-count",
        "probe-dimension-not-k",
        "m-above-the-lift-dimension",
        "m-above-the-stinespring-lift-dimension",
        "negative-seed",
        "seed-past-64-bits",
    ],
)
def test_cli_config_rejections_are_exit_one(tmp_path, capsys, monkeypatch, text, fragment):
    from channel_limits import cli

    monkeypatch.setattr(cli, "run_experiment", lambda cfg, threads=1: pytest.fail("ran"))
    path = str(tmp_path / "absent.cfg") if text is None else _write(tmp_path, "x.cfg", text)
    code = cli_main(["run", path, "--out", "-"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"config error: {fragment}" in captured.err


@pytest.mark.parametrize("seed, code", [(-5, 1), (2**64, 1), (2**64 - 1, 0), (0, 0)])
def test_cli_seed_flag_is_held_to_the_seed_range(tmp_path, capsys, seed, code):
    # --seed replaces masterSeed after the file's checks, and is checked again
    path = _write(tmp_path, "sweep.cfg", SWEEP_TEXT)
    assert cli_main(["run", path, "--out", "-", "--seed", str(seed)]) == code
    err = capsys.readouterr().err
    assert ("config error: masterSeed:" in err) == (code == 1)


def test_cli_module_invocation(tmp_path):
    cfg_path = _write(tmp_path, "sweep.cfg", SWEEP_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "channel_limits", "run", cfg_path, "--out", "-"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("experiment,")
    assert "[channel-limits]" in proc.stderr


# --------------------------------------------------------------- output cloud

CLOUD_N = 200


def _cloud_channel(kind, rng):
    # the channels output-cloud builds, at the benchmark's n = 200, k = 2
    if kind == "stinespring":
        return sample_stinespring_channel(2, CLOUD_N, 120, rng)
    if kind == "mixed-unitary":
        return sample_mixed_unitary_channel(2, CLOUD_N, [0.3, 0.7], rng)
    return DepolarizingChannel(2, CLOUD_N)


def _per_sample_cloud(channel, samples, rng):
    # the output-cloud loop as it stood before the blocked pass
    return [channel.apply(sample_pure_state(channel.input_dim, rng)) for _ in range(samples)]


@pytest.mark.parametrize("offset", ["1", "block-1", "block", "block+1", "1000"])
@pytest.mark.parametrize("kind", ["stinespring", "mixed-unitary", "depolarizing"])
def test_cloud_pass_matches_the_per_sample_loop_bit_for_bit(kind, offset):
    channel = _cloud_channel(kind, stream(50, 0))
    block = experiments._CLOUD_BLOCK_ROWS
    samples = {"1": 1, "block-1": block - 1, "block": block,
               "block+1": block + 1, "1000": 1000}[offset]
    loop_rng, pass_rng = stream(50, 1), stream(50, 1)
    reference = _per_sample_cloud(channel, samples, loop_rng)
    blocks = experiments._cloud_outputs(channel, samples, pass_rng)
    assert [len(b) for b in blocks][:1] == [min(block, samples)]
    states = np.concatenate(blocks)
    assert np.array_equal(states, np.array([s.matrix for s in reference]))
    entropies = np.concatenate([von_neumann_entropy(b) for b in blocks])
    assert np.array_equal(entropies, [von_neumann_entropy(s) for s in reference])
    assert estimate_smin(blocks) == estimate_smin(reference) == min(entropies)
    assert pass_rng.standard_normal() == loop_rng.standard_normal()


def test_depolarizing_output_cloud_targets_log_k():
    # every output of the completely depolarizing channel is I/k
    text = (
        "experiment = output-cloud\nk = 3\nchannel = depolarizing\nnGrid = 4, 6\n"
        "samples = 20\nrestarts = 2\niterCap = 10\nmasterSeed = 2\n"
    )
    records = run_experiment(parse_config_text(text))
    assert len(records) == 2
    for rec in records:
        assert rec.target == np.log(3)
        assert rec.error <= 1e-12


def test_cloud_pass_keeps_the_unit_norm_and_hermiticity_checks(monkeypatch):
    channel = _cloud_channel("stinespring", stream(51, 0))
    draw = experiments.sample_pure_state

    def stretched(dim, rng, count=None):
        rows = draw(dim, rng, count)
        rows[-1] *= 1.0 + 1e-9
        return rows

    monkeypatch.setattr(experiments, "sample_pure_state", stretched)
    with pytest.raises(NotUnitVectorError):
        experiments._cloud_outputs(channel, 100, stream(51, 1))
    monkeypatch.undo()

    apply_pure = channel.apply_pure

    def skewed(vectors):
        out = apply_pure(vectors)
        out[-1, 0, 1] += 1e-9
        return out

    monkeypatch.setattr(channel, "apply_pure", skewed)
    with pytest.raises(InvalidDensityMatrixError):
        experiments._cloud_outputs(channel, 100, stream(51, 1))


# ---------------------------------------------------------------- determinism


def test_reruns_are_byte_identical_across_thread_counts(tmp_path):
    text = (
        "experiment = norm-limit\nk = 2\nweights = 0.5, 0.5\n"
        "nGrid = 6, 10\ntrials = 3\nrestarts = 2\niterCap = 30\nmasterSeed = 3\n"
    )
    cfg = parse_config_text(text)
    first = render_csv(run_experiment(cfg, threads=1))
    second = render_csv(run_experiment(cfg, threads=1))
    pooled = render_csv(run_experiment(cfg, threads=8))
    assert first == second
    assert first == pooled


K4_TEXT = (
    "experiment = cm-convergence\nk = 4\nweights = 0.1, 0.2, 0.3, 0.4\n"
    "nGrid = 20, 60, 130\ntrials = 2\nm = 3\nmasterSeed = 13\n"
)


def test_k4_mixed_unitary_csv_bytes_do_not_depend_on_the_worker_count():
    # k = 4: a CMV matrix and two Haar draws a trial; 8 workers is more than
    # the 6 trials and the cores, and a short switch interval interleaves
    # them more often
    cfg = parse_config_text(K4_TEXT)
    serial = render_csv(run_experiment(cfg, threads=1))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for threads in (2, 3, 8):
            assert render_csv(run_experiment(cfg, threads=threads)) == serial, threads
    finally:
        sys.setswitchinterval(interval)


def test_output_cloud_is_byte_identical_across_worker_threads():
    # the size of one benchmark output-cloud trial, two trials per run
    text = (
        "experiment = output-cloud\nk = 2\nt = 0.3\nnGrid = 200\ntrials = 2\n"
        "samples = 1000\nrestarts = 1\niterCap = 20\nmasterSeed = 5\n"
    )
    cfg = parse_config_text(text)
    serial = render_csv(run_experiment(cfg, threads=1))
    pooled = render_csv(run_experiment(cfg, threads=2))
    assert serial == pooled


@pytest.mark.parametrize(
    "blas_threads, workers", [(None, "2"), ("2", "1")], ids=["blas-unset", "blas-2"]
)
def test_committed_bytes_do_not_depend_on_openblas_threads(
    tmp_path, realistic_config, blas_threads, workers
):
    # a fresh process reads OPENBLAS_NUM_THREADS when numpy loads; unset, OpenBLAS
    # takes one thread per core, and its blocking changes the last bits at n = 300.
    # Its bytes are held to this process's run on the same machine, since
    # another CPU's kernels may round the committed file's last digits otherwise
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    # the committed n = 300, k = 2 run, then the realistic config at two
    # workers, whose two-stage solve that run never reaches
    runs = [(str(REPO / "configs" / "weyl_invariance.cfg"), workers), (realistic_config, "2")]
    for cfg_path, threads in runs:
        out = tmp_path / "out.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "channel_limits", "run", cfg_path, "--out", str(out),
             "--threads", threads],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_text() == _in_process_run(cfg_path), cfg_path


@pytest.mark.skipif(openblas._BLAS_THREADS is None, reason="numpy has no bundled OpenBLAS")
@pytest.mark.parametrize("threads", [1, 2])
def test_trials_run_on_one_blas_thread_and_the_callers_count_returns(monkeypatch, threads):
    get, set_ = openblas._BLAS_THREADS
    seen = []

    def failing(cfg, trial, n, rng):
        seen.append(get())
        raise RuntimeError(f"trial {trial} failed")

    monkeypatch.setitem(experiments._TRIAL_RUNNERS, "cm-convergence", failing)
    before = get()
    set_(2)
    try:
        with pytest.raises(RuntimeError, match="failed"):
            run_experiment(parse_config_text(CM_TEXT), threads=threads)
        assert get() == 2
    finally:
        set_(before)
    assert seen and set(seen) == {1}


def test_run_without_the_blas_setter_warns_once_and_keeps_its_records(monkeypatch, caplog):
    cfg = parse_config_text(CM_TEXT)
    pinned = run_experiment(cfg, threads=2)
    monkeypatch.setattr(openblas, "_BLAS_THREADS", None)
    with caplog.at_level(logging.WARNING, logger="channel_limits"):
        unpinned = run_experiment(cfg, threads=2)
    assert unpinned == pinned
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "thread count not set" in warnings[0].getMessage()


# one small config per experiment, each with more than one trial
_TINY_TEXTS = {
    "cm-convergence": CM_TEXT,
    "norm-limit": "experiment = norm-limit\nk = 2\nchannel = depolarizing\n"
    "nGrid = 3, 4\ntrials = 2\nrestarts = 2\niterCap = 5\n",
    "psistar-sweep": SWEEP_TEXT,
    "stinespring-peak": "experiment = stinespring-peak\nk = 2\nt = 0.5\nnGrid = 4\n"
    "trials = 3\nrestarts = 2\niterCap = 5\n",
    "weyl-invariance": "experiment = weyl-invariance\nk = 2\nweights = 0.4, 0.6\n"
    "nGrid = 3\ntrials = 2\n",
    "eb-tensor": "experiment = eb-tensor\nk = 2\nnGrid = 2, 3\ntrials = 2\n",
    "output-cloud": "experiment = output-cloud\nk = 2\nchannel = depolarizing\n"
    "nGrid = 3\ntrials = 2\nrestarts = 2\niterCap = 5\nsamples = 4\n",
}


@pytest.mark.parametrize("threads", [1, 2])
def test_the_driver_keys_each_trials_stream_exactly_once(monkeypatch, threads):
    # no experiment is accepted without a runner
    assert set(experiments._TRIAL_RUNNERS) == set(config._READS["experiment"])
    assert set(_TINY_TEXTS) == set(experiments._TRIAL_RUNNERS)
    keyed = []

    def recording(master_seed, stream_index=0):
        keyed.append((stream_index, threading.get_ident()))
        return stream(master_seed, stream_index)

    monkeypatch.setattr(experiments, "stream", recording)
    for name, text in _TINY_TEXTS.items():
        keyed.clear()
        records = run_experiment(parse_config_text(text), threads=threads)
        assert len(records) > 1
        # the closed-form sweep draws nothing, so none of its trials is keyed
        trials = [] if name == "psistar-sweep" else list(range(len(records)))
        assert sorted(index for index, _ in keyed) == trials, name
        if threads > 1:  # keyed on the worker that runs the trial
            assert threading.main_thread().ident not in {ident for _, ident in keyed}


def test_the_sweep_runs_without_importing_numpy_random():
    # numpy imports numpy.random on first use; it adds 5.7 MB of resident
    # memory to a sweep that draws nothing
    code = (
        "import sys\n"
        "from channel_limits import parse_config_text, run_experiment\n"
        f"run_experiment(parse_config_text({SWEEP_TEXT!r}))\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_pool_takes_the_largest_trials_first_and_emits_in_trial_order(monkeypatch):
    class InOrder(Executor):
        """An executor that runs each task as it is submitted, on the caller's thread."""

        def __init__(self, max_workers):
            pass

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    started = []

    def runner(cfg, trial, n, rng):
        started.append(trial)
        return experiments._record(cfg, trial, n, "p", (float(n),), None), None

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", InOrder)
    monkeypatch.setitem(experiments._TRIAL_RUNNERS, "cm-convergence", runner)
    cfg = parse_config_text(CM_TEXT.replace("nGrid = 4, 8", "nGrid = 4, 8, 6"))
    records = run_experiment(cfg, threads=2)
    # trials 0-1 have n = 4, 2-3 have n = 8 and 4-5 have n = 6
    assert started == [2, 3, 4, 5, 0, 1]
    assert [r.trial for r in records] == list(range(6))
    assert [r.n for r in records] == [4, 4, 8, 8, 6, 6]
