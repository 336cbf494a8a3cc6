"""Correctness checks on one child's CSV output, run outside the timed region.

Every workload: the CSV schema, the record count and trial order, the
identifying columns, and finite values.  Then each workload's accuracy
contract, per trial:

* ascent-isometry: value1 within 5% of the closed-form peak eigenvalue
  (the tolerance of acceptance test #8);
* spectral-unitary: eigenvalues descending and at most 1; the median top
  eigenvalue at the largest n within 10% of 8/9 (acceptance test #7);
* cloud-apply: 0 <= smin <= ln k, value2 = ln k - smin, ascent value <= 1;
* oracle-sweep: each supremum within 1e-6 of the independent
  `maximize_over_sphere`, and an argmax of all k coordinates exactly
  when the full subset is valid.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass, field

from workloads import expected_records

EPS = 1e-12


@dataclass
class Outcome:
    """Check result for one child: failed trial indices and per-trial errors."""

    attempted: int
    failed: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    abs_errors: list[float] = field(default_factory=list)

    def fail(self, trial: int, problem: str) -> None:
        self.failed.add(trial)
        self.problems.append(f"trial {trial}: {problem}")

    def fail_all(self, problem: str) -> None:
        self.failed.update(range(self.attempted))
        self.problems.append(problem)


def _float(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


class Checker:
    """Checks the CSV of one generated config; references are computed once."""

    def __init__(self, workload: str, config: dict[str, str]):
        self.workload = workload
        self.config = config
        self.records = expected_records(config)
        self.k = int(config["k"])
        self.seed = int(config["masterSeed"])
        self.probe = None
        if workload == "ascent-isometry":
            from channel_limits import stinespring_peak_eigenvalue

            self.width, self.probe = 1, "ascent"
            self.peak = stinespring_peak_eigenvalue(self.k, float(config["t"]))
        elif workload == "spectral-unitary":
            self.width, self.probe = int(config["m"]) + 1, config["probe"]
        elif workload == "cloud-apply":
            self.width, self.probe = 3, "cloud"
        else:
            self.width = 2
            self.r_grid = [float(r) for r in config["rGrid"].split(",")]
            self.sup_reference = [
                self._independent_sup(i, r) for i, r in enumerate(self.r_grid)
            ]

    def _weights(self, r: float) -> list[float]:
        return [r] + [(1.0 - r) / (self.k - 1)] * (self.k - 1)

    def _independent_sup(self, index: int, r: float) -> float:
        import numpy as np

        from channel_limits import maximize_over_sphere, stream

        scale = np.sqrt(self._weights(r))
        value, _ = maximize_over_sphere(scale, stream(self.seed, index))
        return value

    def _full_subset_valid(self, r: float) -> bool:
        # min w_j >= gamma (k - 2), gamma the harmonic scale of all weights
        weights = self._weights(r)
        gamma = 1.0 / sum(1.0 / w for w in weights)
        return min(weights) >= gamma * (self.k - 2)

    def _n_for(self, trial: int) -> int:
        if self.workload == "oracle-sweep":
            return 0
        grid = [int(n) for n in self.config["nGrid"].split(",")]
        return grid[trial // int(self.config["trials"])]

    def check(self, text: str) -> Outcome:
        out = Outcome(self.records)
        rows = list(csv.reader(io.StringIO(text)))
        header = ["experiment", "trial", "seed", "n", "k", "probe"]
        header += [f"value{i + 1}" for i in range(self.width)] + ["target", "error"]
        if not rows or rows[0] != header:
            out.fail_all(f"header {rows[0] if rows else None} != {header}")
            return out
        if len(rows) - 1 != self.records:
            out.fail_all(f"{len(rows) - 1} records, expected {self.records}")
            return out
        parsed = []
        for i, row in enumerate(rows[1:]):
            try:
                parsed.append(self._check_row(i, row, out))
            except ValueError as exc:
                out.fail(i, str(exc))
                parsed.append(None)
        getattr(self, "_check_" + self.workload.replace("-", "_"))(parsed, out)
        return out

    def _check_row(self, i: int, row: list[str], out: Outcome):
        if len(row) != 6 + self.width + 2:
            raise ValueError(f"{len(row)} cells")
        ident = (row[0], int(row[1]), int(row[2]), int(row[3]), int(row[4]))
        want = (self.config["experiment"], i, self.seed, self._n_for(i), self.k)
        if ident != want:
            raise ValueError(f"columns {ident} != {want}")
        if self.workload == "oracle-sweep":
            if not row[5].startswith("r=") or float(row[5][2:]) != self.r_grid[i]:
                raise ValueError(f"probe {row[5]!r} != r={self.r_grid[i]!r}")
        elif row[5] != self.probe:
            raise ValueError(f"probe {row[5]!r} != {self.probe!r}")
        values = [_float(cell) for cell in row[6 : 6 + self.width]]
        target = _float(row[-2]) if row[-2] else None
        error = _float(row[-1]) if row[-1] else None
        if self.workload != "oracle-sweep" and (target is None or error is None):
            raise ValueError("missing target or error")
        if error is not None:
            out.abs_errors.append(error)
        return values

    def _check_ascent_isometry(self, parsed, out: Outcome) -> None:
        for i, values in enumerate(parsed):
            if values is not None and abs(values[0] - self.peak) > 0.05 * self.peak:
                out.fail(i, f"peak {values[0]} not within 5% of {self.peak}")

    def _check_spectral_unitary(self, parsed, out: Outcome) -> None:
        m = self.width - 1
        for i, values in enumerate(parsed):
            if values is None:
                continue
            eig = values[:m]
            if any(a < b for a, b in zip(eig, eig[1:])) or eig[0] > 1.0 + EPS:
                out.fail(i, f"eigenvalues {eig} not descending and <= 1")
        top_n = max(self._n_for(i) for i in range(self.records))
        at_top = [i for i in range(self.records) if self._n_for(i) == top_n]
        tops = [parsed[i][0] for i in at_top if parsed[i] is not None]
        target = 8.0 / 9.0
        if not tops or abs(statistics.median(tops) - target) > 0.1 * target:
            for i in at_top:
                out.fail(i, f"median top eigenvalue at n={top_n} not within 10% of 8/9")

    def _check_cloud_apply(self, parsed, out: Outcome) -> None:
        cap = math.log(self.k)
        for i, values in enumerate(parsed):
            if values is None:
                continue
            smin, holevo, peak = values
            if not (-EPS <= smin <= cap + EPS):
                out.fail(i, f"smin {smin} outside [0, ln {self.k}]")
            if abs(holevo - (cap - smin)) > EPS:
                out.fail(i, f"value2 {holevo} != ln {self.k} - smin")
            if peak > 1.0 + EPS:
                out.fail(i, f"ascent value {peak} above 1")

    def _check_oracle_sweep(self, parsed, out: Outcome) -> None:
        for i, values in enumerate(parsed):
            if values is None:
                continue
            value, size = values
            reference = self.sup_reference[i]
            out.abs_errors.append(abs(value - reference))
            if abs(value - reference) > 1e-6:
                out.fail(i, f"supremum {value} differs from ascent {reference}")
            if (size == self.k) != self._full_subset_valid(self.r_grid[i]):
                out.fail(i, f"argmax size {size} disagrees with full-set validity")
