#!/usr/bin/env python3
"""Benchmark of the channel-limits CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One operation is one `channel-limits run <generated config> --out <file>`
in a fresh child process (perfbench/child.py).  The load is a closed loop
with one client: children run one after another until S seconds have
passed, and at least one runs.  Without tracing, each child is preceded
by a set-up probe, a child that exits once its config is loaded, so that
setup_s is the median of twice as many set-ups.  Each child's CSV is
checked after it exits, outside its timing.  Every trial counts as one
attempt; a trial fails when its child exits non-zero or the trial fails
its check.

With --trace 0 the last stdout line reports the end-to-end metrics of
BENCHMARK.json, each the median over the run's children.  With --trace 1
untraced and traced children alternate; it reports the per-layer
metrics, each the median over the traced children, and
trace.overhead_ratio, the median traced wall time over the median
untraced one.  The line before it is the environment manifest.

Exit code 0 when every trial passed, 1 when any failed, 2 when the
program cannot be found.  Scratch files live in .perfbench_work/ under
the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from checks import Checker  # noqa: E402
from layers import layer_metrics  # noqa: E402
from workloads import WORKLOADS, render  # noqa: E402


@dataclass
class ChildRun:
    traced: bool
    code: int
    setup_s: float
    wall_s: float
    run_s: float
    records: int
    peak_rss_mb: float
    csv: str
    spans: list | None


def _child(work: Path, index: int, flags: list[str], args: list[str]) -> tuple[int, float, float]:
    """Run child.py to its exit; (exit code, spawn time, exit time)."""
    cmd = [sys.executable, str(HERE / "child.py"), str(work / f"stamps-{index}.json")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    stderr_path = work / f"stderr-{index}.txt"
    with open(stderr_path, "wb") as stderr:
        start = time.monotonic()
        code = subprocess.run(
            cmd + flags + ["run"] + args, stdout=subprocess.DEVNULL, stderr=stderr, env=env
        ).returncode
        end = time.monotonic()
    if code != 0:
        sys.stderr.write(stderr_path.read_text(errors="replace")[-2000:])
    return code, start, end


def setup_probe(work: Path, config_path: Path, index: int) -> float | None:
    """Set-up time of a child that exits once its config is loaded."""
    _, start, _ = _child(work, index, ["--setup-only"], [str(config_path)])
    try:
        return json.loads((work / f"stamps-{index}.json").read_text())["ready"] - start
    except (OSError, ValueError, KeyError):
        return None


def spawn(work: Path, config_path: Path, threads: int, index: int, traced: bool) -> ChildRun:
    """Run one child to its exit and collect its stamps and outputs."""
    out = work / f"out-{index}.csv"
    stamps_path = work / f"stamps-{index}.json"
    spans_path = work / f"spans-{index}.json"
    code, start, end = _child(
        work, index, ["--spans", str(spans_path)] if traced else [],
        [str(config_path), "--out", str(out), "--threads", str(threads)],
    )
    try:
        stamps = json.loads(stamps_path.read_text())
        csv_text = out.read_text(encoding="utf-8")
        spans = json.loads(spans_path.read_text()) if traced else None
    except (OSError, ValueError):
        return ChildRun(traced, code or 2, 0.0, end - start, 0.0, 0, 0.0, "", None)
    run_s = stamps["run_end"] - stamps["run_start"]
    return ChildRun(
        traced,
        code,
        stamps["ready"] - start,
        end - start,
        run_s,
        stamps["records"],
        stamps["peak_rss_kib"] * 1024 / 1e6,
        csv_text,
        spans,
    )


def manifest(seed: int, threads: int) -> dict:
    import numpy

    import channel_limits

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), None)
    except OSError:
        pass
    commit = None  # the benchmark may run from an export, not a clone
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "channel_limits": channel_limits.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "blas": f"{deps['blas']['name']} {deps['blas'].get('version')}",
        "lapack": f"{deps['lapack']['name']} {deps['lapack'].get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "threads": threads,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "channel_limits" / "__init__.py").is_file():
        print(f"error: no channel_limits package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed)
    checker = Checker(args.workload, config)
    print(json.dumps({"manifest": manifest(args.seed, workload.threads)}), flush=True)

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        config_path = work / "workload.cfg"
        config_path.write_text(render(config), encoding="utf-8")
        children: list[ChildRun] = []
        attempted = failed = 0
        abs_errors: list[float] = []
        setups: list[float] = []
        deadline = time.monotonic() + args.seconds
        while True:
            index = 2 * len(children)
            setup = None if args.trace else setup_probe(work, config_path, index + 1)
            if setup is not None:
                setups.append(setup)
            traced = bool(args.trace) and len(children) % 2 == 1
            child = spawn(work, config_path, workload.threads, index, traced)
            children.append(child)
            outcome = checker.check(child.csv)
            if child.code != 0:
                outcome.fail_all(f"child exited with code {child.code}")
            attempted += outcome.attempted
            failed += len(outcome.failed)
            abs_errors += outcome.abs_errors
            for problem in outcome.problems[:5]:
                print(f"check failed: {problem}", file=sys.stderr)
            kinds = {c.traced for c in children}
            if time.monotonic() >= deadline and len(kinds) == 1 + args.trace:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [c for c in children if not c.traced]
    if args.trace:
        per_child = [layer_metrics(c.spans or []) for c in children if c.traced]
        values = {name: statistics.median(m[name] for m in per_child) for name in per_child[0]}
        values["experiments.mean_abs_error"] = (
            statistics.fmean(abs_errors) if abs_errors else 0.0
        )
        values["trace.overhead_ratio"] = statistics.median(
            c.wall_s for c in children if c.traced
        ) / statistics.median(c.wall_s for c in plain)
        kind = "per_layer"
    else:
        ok = [c for c in plain if c.code == 0 and c.run_s > 0] or plain
        values = {
            "setup_s": statistics.median(setups + [c.setup_s for c in ok]),
            "trials_per_s": statistics.median(
                c.records / c.run_s if c.run_s else 0.0 for c in ok
            ),
            "wall_s": statistics.median(c.wall_s for c in ok),
            "peak_rss_mb": statistics.median(c.peak_rss_mb for c in ok),
        }
        kind = "end_to_end"
    units = declared_metrics(kind)
    if set(values) != set(units):
        raise SystemExit(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
