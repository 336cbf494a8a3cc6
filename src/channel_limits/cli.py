"""Command-line entry point.

    channel-limits run <config> [--seed S] [--out PATH] [--format csv|json]
                                [--threads T]

Results go to the path from the config's outputPath key unless --out
overrides it ('-' writes to stdout); a destination that is a directory,
or whose directory does not exist, is a configuration error, raised
before the first trial.  Trials run on --threads workers, by default one
per usable core; the worker count never changes the bytes.  Progress,
and the package's INFO log (such as how many ascent restarts were
capped), is printed on stderr so piped output stays clean.  Exit codes:
0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import ctypes
import logging
import os
import sys
from dataclasses import replace

from .config import load_config, validate_config
from .errors import ConfigError
from .experiments import emit_results, run_experiment, usable_cores


# glibc's mallopt parameter M_MMAP_THRESHOLD, and glibc's default value for it
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 128 * 1024


def _pin_mmap_threshold() -> None:
    """Stop glibc's mmap threshold from rising while trials share the process.

    glibc serves a request of at least the threshold with a mapping of its
    own, returned to the OS when freed, and raises the threshold to the
    size of each such block that is freed.  Blocks below the new threshold
    then come from per-thread arenas, which keep freed pages.  With several
    workers, which n x n temporaries land in an arena depends on how the
    workers interleave, and the peak resident memory with it: two
    cm-convergence workers up to n = 800 peaked at 129 MB in one run and
    145 MB in the next.  Setting the threshold once keeps it at glibc's
    default, so a freed temporary goes back at once and the peak follows
    the live arrays.  A single worker keeps the sliding threshold: its
    arena reuse repeats from run to run and spares the ascent's repeated
    temporaries their page faults.  Pinned for one worker on a 2-vCPU Xeon,
    the ascent-isometry benchmark fell from 2.55-2.63 to 1.78-1.83 trials/s
    and cloud-apply from 13.9-14.0 to 11.0-11.3, for 0.55 MB less peak
    resident memory.  Does nothing outside Linux or without `mallopt`.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="channel-limits",
        description="Run channel output-set experiments from a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("config", help="path to a flat key-value config file")
    run.add_argument("--seed", type=int, default=None, help="override masterSeed")
    run.add_argument("--out", default=None, help="override outputPath ('-' = stdout)")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument(
        "--threads",
        type=int,
        default=usable_cores(),
        help="worker thread count (default: one per usable core)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    log = logging.getLogger("channel_limits")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("[channel-limits] %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _run(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
        overrides = {"master_seed": args.seed, "output_path": args.out}
        cfg = replace(cfg, **{key: v for key, v in overrides.items() if v is not None})
        validate_config(cfg)
        if args.threads < 1:
            raise ConfigError(f"threads: must be positive, got {args.threads}")
        dest = cfg.output_path
        if dest is None:
            raise ConfigError("outputPath: not set in config and no --out given")
        if dest != "-" and not os.path.isdir(os.path.dirname(dest) or "."):
            raise ConfigError(f"outputPath: directory of {dest!r} does not exist")
        if dest != "-" and os.path.isdir(dest):
            raise ConfigError(f"outputPath: {dest!r} is a directory")
        print(
            f"[channel-limits] {cfg.experiment}: k={cfg.k} seed={cfg.master_seed}",
            file=sys.stderr,
        )
        if args.threads > 1:
            _pin_mmap_threshold()
        records = run_experiment(cfg, threads=args.threads)
        text = emit_results(records, args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if dest == "-":
            sys.stdout.write(text)
        else:
            with open(dest, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            print(
                f"[channel-limits] wrote {len(records)} records to {dest}",
                file=sys.stderr,
            )
    except OSError as exc:
        print(f"error: cannot write {dest!r}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
