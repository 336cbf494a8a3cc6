"""Experiment harness: config parsing, runners, serialization, CLI."""

import importlib.util
import json
import subprocess
import sys
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
    with_overrides,
)
from channel_limits import experiments
from channel_limits.channels import make_depolarizing
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
from channel_limits.geometry import estimate_smin, probe_top_eigenvalues
from channel_limits.linalg import DensityMatrix, von_neumann_entropy

REPO = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "psistar_sweep.csv"

# tiny configs of the Monte-Carlo experiments; the CSVs next to them were
# written by `channel-limits run` with --threads 1 and OPENBLAS_NUM_THREADS=1
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
    path.write_text(SWEEP_TEXT)
    cfg = load_config(str(path))
    assert cfg.k == 4
    bumped = with_overrides(cfg, master_seed=99, output_path="out.csv")
    assert bumped.master_seed == 99
    assert bumped.output_path == "out.csv"
    assert cfg.master_seed == 7


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
    probe = probe_top_eigenvalues(channel, matrix, 3)
    assert record.values == (*probe.eigenvalues, probe.spread)
    assert record.target is not None


def test_explicit_probe_is_resolved_once_and_shared_read_only():
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


GOLDEN_ASCENTS = ("norm_limit", "stinespring_peak", "output_cloud")


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
    assert cli_main(["run", cfg_path, "--out", str(tmp_path / "a.csv")]) == 0
    assert calls == []
    assert cli_main(["run", cfg_path, "--out", str(tmp_path / "b.csv"), "--threads", "2"]) == 0
    assert calls == [1]


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


def test_cli_missing_output_is_exit_one(tmp_path):
    cfg_path = _write(tmp_path, "sweep.cfg", SWEEP_TEXT)
    assert cli_main(["run", cfg_path]) == 1


def test_cli_runtime_failure_is_exit_two(tmp_path):
    cfg_path = _write(tmp_path, "sweep.cfg", SWEEP_TEXT)
    code = cli_main(["run", cfg_path, "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == 2


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
    return make_depolarizing(2, CLOUD_N)


def _per_sample_cloud(channel, samples, rng):
    # the output-cloud loop as it stood before the blocked pass
    return [channel.apply(sample_pure_state(channel.input_dim, rng)) for _ in range(samples)]


@pytest.mark.parametrize("offset", ["1", "block-1", "block", "block+1", "1000"])
@pytest.mark.parametrize("kind", ["stinespring", "mixed-unitary", "depolarizing"])
def test_cloud_pass_matches_the_per_sample_loop_bit_for_bit(kind, offset):
    channel = _cloud_channel(kind, stream(50, 0))
    block = experiments._cloud_block_rows(channel, CLOUD_N)
    assert 40 <= block <= 80
    samples = {"1": 1, "block-1": block - 1, "block": block,
               "block+1": block + 1, "1000": 1000}[offset]
    loop_rng, pass_rng = stream(50, 1), stream(50, 1)
    reference = _per_sample_cloud(channel, samples, loop_rng)
    blocks = experiments._cloud_outputs(channel, samples, CLOUD_N, pass_rng)
    assert [len(b) for b in blocks][:1] == [min(block, samples)]
    states = np.concatenate(blocks)
    assert np.array_equal(states, np.array([s.matrix for s in reference]))
    entropies = np.concatenate([von_neumann_entropy(b) for b in blocks])
    assert np.array_equal(entropies, [von_neumann_entropy(s) for s in reference])
    assert estimate_smin(blocks) == estimate_smin(reference) == min(entropies)
    assert pass_rng.standard_normal() == loop_rng.standard_normal()


def test_cloud_pass_keeps_the_unit_norm_and_hermiticity_checks(monkeypatch):
    channel = _cloud_channel("stinespring", stream(51, 0))
    draw = experiments.sample_pure_state

    def stretched(dim, rng, count=None):
        rows = draw(dim, rng, count)
        rows[-1] *= 1.0 + 1e-9
        return rows

    monkeypatch.setattr(experiments, "sample_pure_state", stretched)
    with pytest.raises(NotUnitVectorError):
        experiments._cloud_outputs(channel, 100, CLOUD_N, stream(51, 1))
    monkeypatch.undo()

    apply_pure = channel.apply_pure

    def skewed(vectors):
        out = apply_pure(vectors)
        out[-1, 0, 1] += 1e-9
        return out

    monkeypatch.setattr(channel, "apply_pure", skewed)
    with pytest.raises(InvalidDensityMatrixError):
        experiments._cloud_outputs(channel, 100, CLOUD_N, stream(51, 1))


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
