"""Command-line helpers under scripts/."""

import csv
import importlib.util
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = sorted((ROOT / "results").glob("*.csv"))


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summarize_prints_one_line_per_experiment_and_dimension(monkeypatch, capsys):
    summarize = _load_script("summarize")
    monkeypatch.setattr(sys, "argv", ["summarize.py", *map(str, RESULTS)])
    assert summarize.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(RESULTS) == 7
    assert [line for line in lines if not line.startswith("  ")] == list(map(str, RESULTS))
    groups = []
    for path in RESULTS:
        with open(path, newline="") as handle:
            keys = {(row["experiment"], int(row["n"])) for row in csv.DictReader(handle)}
        groups += [f"  {e:20s} n={n:5d}" for e, n in sorted(keys)]
    body = [line for line in lines if line.startswith("  ")]
    assert len(body) == len(groups)
    assert all(line.startswith(group) for line, group in zip(body, groups))


def test_summarize_without_paths_is_exit_one(monkeypatch, capsys):
    summarize = _load_script("summarize")
    monkeypatch.setattr(sys, "argv", ["summarize.py"])
    assert summarize.main() == 1
    assert "Usage" in capsys.readouterr().err


def test_run_all_ends_with_the_total_wall_time(tmp_path, monkeypatch, capsys):
    run_all = _load_script("run_all")
    stems = ["eb_tensor", "psistar_sweep"]
    (tmp_path / "configs").mkdir()
    for stem in stems:
        shutil.copy(ROOT / "configs" / f"{stem}.cfg", tmp_path / "configs")
    monkeypatch.setattr(run_all, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["run_all.py", "--threads", "1"])
    assert run_all.main() == 0
    lines = [line.split() for line in capsys.readouterr().err.splitlines()]
    timed = [line for line in lines if line[0] in stems]
    assert [line[:2] for line in timed] == [[stem, "ok"] for stem in stems]
    assert lines[-1][:3] == ["total", "2", "configs"]
    seconds = [float(line[-1].rstrip("s")) for line in (*timed, lines[-1])]
    assert seconds[-1] >= sum(seconds[:-1]) - 0.1
    # the closed-form sweep is exact; the Monte-Carlo run is only written
    sweep = "psistar_sweep.csv"
    assert (tmp_path / "results" / sweep).read_text() == (ROOT / "results" / sweep).read_text()
    assert (tmp_path / "results" / "eb_tensor.csv").is_file()
