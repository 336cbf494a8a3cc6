"""Command-line helpers under scripts/."""

import csv
import importlib.util
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
