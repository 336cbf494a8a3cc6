"""Experiment harness: config parsing, runners, serialization, CLI."""

import json
import subprocess
import sys
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
from channel_limits.errors import ConfigError, EmptyResultsError
from channel_limits.experiments import (
    emit_results,
    parse_records_json,
    render_csv,
    render_json,
    run_experiment,
)

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
    back = parse_records_json(render_json(records))
    assert back == records


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


@pytest.mark.parametrize("stem", MONTE_CARLO_GOLDENS)
def test_monte_carlo_runs_match_golden_files(stem):
    # identifying columns exactly; floats within 1e-12 relative, the
    # agreement promised across machines and BLAS thread settings
    cfg = load_config(str(GOLDEN_DIR / f"{stem}.cfg"))
    got = [line.split(",") for line in render_csv(run_experiment(cfg)).splitlines()]
    golden_text = (GOLDEN_DIR / f"{stem}.csv").read_text()
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


def test_stinespring_peak_ignores_channel_and_weights():
    text = (GOLDEN_DIR / "stinespring_peak.cfg").read_text()
    plain = render_csv(run_experiment(parse_config_text(text)))
    extra = text + "channel = depolarizing\nweights = 0.25, 0.75\n"
    assert render_csv(run_experiment(parse_config_text(extra))) == plain


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


def test_cli_config_error_is_exit_one(tmp_path, capsys):
    bad = _write(tmp_path, "bad.cfg", "experiment = norm-limit\n")
    code = cli_main(["run", bad, "--out", "-"])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error" in captured.err


def test_cli_weights_off_by_rounding_are_exit_one(tmp_path, capsys):
    # the sum 0.9999999999 misses 1 by more than the weight tolerance
    text = (
        "experiment = norm-limit\nk = 3\n"
        "weights = 0.3333333333, 0.3333333333, 0.3333333333\nnGrid = 4\n"
    )
    code = cli_main(["run", _write(tmp_path, "w.cfg", text), "--out", "-"])
    captured = capsys.readouterr()
    assert code == 1
    assert "weights sum to 0.9999999999, not 1" in captured.err


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
