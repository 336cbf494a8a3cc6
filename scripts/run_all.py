#!/usr/bin/env python3
"""Run every experiment config under configs/ and collect CSV results.

Usage: python scripts/run_all.py [--threads T] [--seed S] [--only NAME]

Results land in results/<config-stem>.csv relative to the repository
root.  Passing --only selects configs whose stem contains NAME.  Trials
run on --threads workers, by default the CLI's one per usable core; the
worker count never changes the bytes.  Each config's wall time goes to
stderr, then the total over all of them.
"""

import argparse
import sys
import time
from pathlib import Path

from channel_limits.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=None)
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
    total = time.perf_counter()
    for cfg in configs:
        out = ROOT / "results" / f"{cfg.stem}.csv"
        argv = ["run", str(cfg), "--out", str(out)]
        if args.threads is not None:
            argv += ["--threads", str(args.threads)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        start = time.perf_counter()
        code = cli_main(argv)
        elapsed = time.perf_counter() - start
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{cfg.stem:24s} {status:8s} {elapsed:7.1f}s", file=sys.stderr)
        failures += code != 0
    elapsed = time.perf_counter() - total
    print(f"{'total':24s} {len(configs):2d} configs {elapsed:7.1f}s", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
