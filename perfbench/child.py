"""One `channel-limits run` in this process, stamped from outside the package.

    python3 child.py STAMPS [--spans SPANS | --setup-only] run CONFIG [OPTIONS]

Runs the CLI's `main` on the arguments after the sidecar paths and exits
with its code; with --setup-only it exits once the config is loaded.
STAMPS receives, as JSON, CLOCK_MONOTONIC readings (`time.monotonic`,
shared by every process on Linux) taken when `load_config` returns
(`ready`) and around `run_experiment`, the record count and the
process's peak RSS.  With --spans the tracer is installed first and its
spans are written to SPANS at exit.
"""

from __future__ import annotations

import json
import resource
import sys
import time


class SetupDone(BaseException):
    """Ends a --setup-only child; passes the CLI's `except Exception`."""


def _peak_rss_kib() -> int:
    # VmHWM is the high-water mark of this process's own address space;
    # ru_maxrss would also count the parent's pages from before exec
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    stamps_path, rest = argv[0], argv[1:]
    spans_path = None
    setup_only = rest[:1] == ["--setup-only"]
    if setup_only:
        rest = rest[1:]
    elif rest[:1] == ["--spans"]:
        spans_path, rest = rest[1], rest[2:]

    from channel_limits import cli

    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    stamps: dict[str, float] = {}
    load_config, run_experiment = cli.load_config, cli.run_experiment

    def stamped_load(path):
        cfg = load_config(path)
        stamps["ready"] = time.monotonic()
        if setup_only:
            raise SetupDone
        return cfg

    def stamped_run(cfg, threads=1):
        stamps["run_start"] = time.monotonic()
        records = run_experiment(cfg, threads=threads)
        stamps["run_end"] = time.monotonic()
        stamps["records"] = len(records)
        return records

    cli.load_config, cli.run_experiment = stamped_load, stamped_run
    try:
        code = cli.main(rest)
    except SetupDone:
        code = 0
    stamps["peak_rss_kib"] = _peak_rss_kib()
    with open(stamps_path, "w", encoding="utf-8") as handle:
        json.dump(stamps, handle)
    if tracer is not None:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
