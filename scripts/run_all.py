#!/usr/bin/env python3
"""Run every experiment config under configs/ and collect CSV results.

Usage: python scripts/run_all.py [--threads T] [--seed S] [--only NAME]

Results land in results/<config-stem>.csv relative to the repository
root.  Passing --only selects configs whose stem contains NAME.  Trials
run on --threads workers, by default one per usable core; the worker
count never changes the bytes.

OPENBLAS_NUM_THREADS defaults to 1, the setting the committed results/
were written with, so regenerated files compare byte for byte with them.
A value already set in the environment wins.
"""

import argparse
import os
import sys
import time
from pathlib import Path

# must precede the numpy import that channel_limits makes
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from channel_limits.cli import main as cli_main  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def usable_cores() -> int:
    """Cores this process may run on, or the machine's count where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=usable_cores())
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--only", default=None)
    args = parser.parse_args()

    configs = sorted((ROOT / "configs").glob("*.cfg"))
    if args.only is not None:
        configs = [c for c in configs if args.only in c.stem]
    if not configs:
        print("no matching configs", file=sys.stderr)
        return 1
    (ROOT / "results").mkdir(exist_ok=True)

    failures = 0
    for cfg in configs:
        out = ROOT / "results" / f"{cfg.stem}.csv"
        argv = ["run", str(cfg), "--out", str(out), "--threads", str(args.threads)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        start = time.perf_counter()
        code = cli_main(argv)
        elapsed = time.perf_counter() - start
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{cfg.stem:24s} {status:8s} {elapsed:7.1f}s", file=sys.stderr)
        failures += code != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
