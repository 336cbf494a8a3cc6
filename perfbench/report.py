#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric.

    python3 perfbench/report.py [--workload NAME ...] [--seeds N] [--first-seed S]
                                [--trace] [--write FILE]

For each workload, runs `run.py` once per seed for BENCHMARK.json's
run_seconds and prints each end-to-end metric by name and unit with its
median, quartiles (statistics.quantiles, n=4), sample count, and spread
(interquartile distance over median) against the metric's bound.  With
--trace it adds one traced run per workload and prints the per-layer
metrics and the largest self-time layer next to its predicted share.
--write stores all of it, with the environment manifest, as JSON; the
worker thread count is kept per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from layers import SELF_TIME_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# largest self-time layer per workload and its share of all layer self
# time, from one outside-in profile of each workload at the seed commit
PREDICTED = {
    "ascent-isometry": ("linalg.eig_s", 0.81),
    "spectral-unitary": ("ensembles.haar_s", 0.52),
    "cloud-apply": ("channels.apply_s", 0.88),
    "oracle-sweep": ("oracles.sup_s", None),
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: {result['failed']} failed trials\n{proc.stderr}",
              file=sys.stderr)
    return json.loads(lines[-2])["manifest"], result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def largest_layer(metrics: dict) -> tuple[str, float]:
    times = {name: metrics[name]["value"] for name in SELF_TIME_METRICS}
    name = max(times, key=times.get)
    total = sum(times.values())
    return name, times[name] / total if total else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    sys.stdout.reconfigure(line_buffering=True)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": seconds, "workloads": {}}
    for workload in args.workload or names:
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        runs = []
        for seed in seeds:
            manifest, result = run_once(workload, seed, seconds, 0)
            runs.append(result)
        threads = manifest.pop("threads")
        manifest.pop("seed")
        report["manifest"] = manifest
        entry = {
            "threads": threads,
            "seeds": seeds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {},
        }
        print(f"\n{workload}: {len(runs)} runs of {seconds}s, "
              f"{entry['failed']}/{entry['attempted']} trials failed")
        print(f"  {'metric':16s} {'unit':6s} {'n':>3s} {'median':>11s} {'q1':>11s} "
              f"{'q3':>11s} {'spread':>7s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            stats = summarize(values)
            stats.update(unit=m["unit"], values=values)
            entry["end_to_end"][m["name"]] = stats
            verdict = "ok" if stats["spread"] <= bounds[m["name"]] / 3 else (
                "wide" if stats["spread"] <= bounds[m["name"]] else "OVER")
            print(f"  {m['name']:16s} {m['unit']:6s} {stats['n']:3d} {stats['median']:11.5g} "
                  f"{stats['q1']:11.5g} {stats['q3']:11.5g} {stats['spread']:7.3f} "
                  f"{bounds[m['name']]:6.2f} {verdict}")
        if args.trace:
            _, traced = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            print(f"  per-layer (traced run, seed {seeds[0]}):")
            for name, metric in traced["metrics"].items():
                print(f"    {name:36s} {metric['unit']:6s} {metric['value']:.6g}")
            layer, share = largest_layer(traced["metrics"])
            predicted, predicted_share = PREDICTED[workload]
            expect = f"{predicted_share:.0%}" if predicted_share is not None else "n/a"
            print(f"  largest self time: {layer} {share:.0%} of layer self time "
                  f"(predicted {predicted}, {expect})")
            entry["largest_layer"] = {"name": layer, "share": share,
                                      "predicted": predicted, "predicted_share": predicted_share}
        report["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
