#!/usr/bin/env python3
"""Print per-grid-point medians from one or more result files.

Usage: python scripts/summarize.py results/*.csv

For each (experiment, n, probe) group, one grid point (psistar-sweep's
probe names its r), the script reports the median of the first value
column, and of the error column where targets exist.
"""

import csv
import sys
from collections import defaultdict
from statistics import median


def summarize(path: str) -> None:
    groups = defaultdict(lambda: {"value": [], "error": []})
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            key = (row["experiment"], int(row["n"]), row["probe"])
            groups[key]["value"].append(float(row["value1"]))
            if row["error"]:
                groups[key]["error"].append(float(row["error"]))
    print(path)
    for (experiment, n, probe), cols in sorted(groups.items()):
        med_val = median(cols["value"])
        line = f"  {experiment:20s} n={n:5d}  {probe:15s} median value {med_val:.6f}"
        if cols["error"]:
            line += f"  median error {median(cols['error']):.2e}"
        line += f"  trials {len(cols['value'])}"
        print(line)


def main() -> int:
    paths = sys.argv[1:]
    if not paths:
        print(__doc__, file=sys.stderr)
        return 1
    for path in paths:
        summarize(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
