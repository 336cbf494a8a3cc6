"""Per-layer metrics of one traced child, derived from its spans.

A span's self time is its duration minus the part of it covered by its
child spans.  Times named `_s` are self times, except `config.load_s`,
`experiments.run_s`, `experiments.emit_s` and `geometry.smin_s`, which
are inclusive.  A metric of a layer the workload does not exercise
reads 0.
"""

from __future__ import annotations

from collections import defaultdict

# layers below the run call; their summed self time over experiments.run_s
# is trace.coverage (it can exceed 1 when a trial pool runs threads)
PROGRAM_LAYERS = ("ensembles", "channels", "linalg", "geometry", "oracles")

USEFUL_STEP_TOL = 1e-9


class Span:
    __slots__ = ("id", "parent", "group", "name", "thread", "trial", "start", "end",
                 "attrs", "children")

    def __init__(self, row):
        (self.id, self.parent, self.group, self.name, self.thread, self.trial,
         self.start, self.end, self.attrs) = row
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        covered, reach = 0.0, self.start
        for child in sorted(self.children, key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration - covered


def build(rows) -> list[Span]:
    spans = [Span(row) for row in rows]
    by_id = {span.id: span for span in spans}
    for span in spans:
        if span.parent is not None:
            by_id[span.parent].children.append(span)
    return spans


def _ascent_restarts(ascent: Span):
    """(steps, values) per restart, read from the ascent span's children.

    A restart begins with the state span that draws its output vector; each
    step makes one lift, and the step's value is the top eigenvalue of the
    output-side eigensolve (dimension output_dim).
    """
    dim = ascent.attrs["output_dim"]
    restarts: list[list] = []
    for child in sorted(ascent.children, key=lambda c: c.start):
        if child.group == "ensembles.state" and child.attrs["dim"] == dim:
            restarts.append([0, []])
        elif not restarts:
            continue
        elif child.group == "channels.lift":
            restarts[-1][0] += 1
        elif child.group == "linalg.eig" and child.attrs["n"] == dim:
            restarts[-1][1].append(child.attrs["top"])
    return restarts


def _useful_steps(values: list[float]) -> int:
    final = values[-1]
    for step, value in enumerate(values, start=1):
        if abs(value - final) <= USEFUL_STEP_TOL * abs(final):
            return step
    return len(values)


def layer_metrics(rows) -> dict[str, float]:
    """Every per-layer metric except mean_abs_error and overhead_ratio."""
    spans = build(rows)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for span in spans:
        calls[span.group] += 1
        self_s[span.group] += span.self_time
        inclusive[span.group] += span.duration

    def attr_sum(group: str, key: str) -> float:
        return sum(s.attrs[key] for s in spans if s.group == group and s.attrs)

    ascents = [s for s in spans if s.group == "geometry.ascent"]
    restarts = [
        (steps, values, s.attrs["iter_cap"])
        for s in ascents
        for steps, values in _ascent_restarts(s)
    ]
    steps = sum(r[0] for r in restarts)
    capped = sum(1 for r in restarts if r[0] == r[2])
    useful = sum(_useful_steps(r[1]) for r in restarts if r[1])
    evaluated = attr_sum("oracles.sup", "evaluated")
    run_s = inclusive["experiments.run"]
    covered = sum(v for g, v in self_s.items() if g.split(".")[0] in PROGRAM_LAYERS)

    return {
        "config.load_s": inclusive["config.load"],
        "ensembles.haar_calls": calls["ensembles.haar"],
        "ensembles.haar_s": self_s["ensembles.haar"],
        "ensembles.state_calls": calls["ensembles.state"],
        "ensembles.state_s": self_s["ensembles.state"],
        "channels.build_calls": calls["channels.build"],
        "channels.build_s": self_s["channels.build"],
        "channels.lift_calls": calls["channels.lift"],
        "channels.lift_s": self_s["channels.lift"],
        "channels.apply_calls": calls["channels.apply"],
        "channels.apply_s": self_s["channels.apply"],
        "linalg.eig_calls": calls["linalg.eig"],
        "linalg.eig_s": self_s["linalg.eig"],
        "linalg.eig_work_n3": float(
            sum(s.attrs["n"] ** 3 for s in spans if s.group == "linalg.eig")
        ),
        "linalg.entropy_calls": calls["linalg.entropy"],
        "linalg.entropy_s": self_s["linalg.entropy"],
        "geometry.ascent_restarts": len(restarts),
        "geometry.ascent_steps": steps,
        "geometry.ascent_self_s": self_s["geometry.ascent"],
        "geometry.ascent_capped_ratio": capped / len(restarts) if restarts else 0.0,
        "geometry.ascent_useful_step_ratio": useful / steps if steps else 0.0,
        "geometry.ascent_value_mean": (
            attr_sum("geometry.ascent", "value") / len(ascents) if ascents else 0.0
        ),
        "geometry.probe_calls": calls["geometry.probe"],
        "geometry.probe_self_s": self_s["geometry.probe"],
        "geometry.smin_s": inclusive["geometry.smin"],
        "oracles.sup_calls": calls["oracles.sup"],
        "oracles.sup_s": self_s["oracles.sup"],
        "oracles.subsets_evaluated": evaluated,
        "oracles.valid_subset_ratio": (
            attr_sum("oracles.sup", "valid") / evaluated if evaluated else 0.0
        ),
        "oracles.target_s": self_s["oracles.target"],
        "experiments.run_s": run_s,
        "experiments.emit_s": inclusive["experiments.emit"],
        "trace.coverage": covered / run_s if run_s else 0.0,
    }


# self-time metrics compared to find a workload's largest layer
SELF_TIME_METRICS = (
    "ensembles.haar_s", "ensembles.state_s", "channels.build_s", "channels.lift_s",
    "channels.apply_s", "linalg.eig_s", "linalg.entropy_s", "geometry.ascent_self_s",
    "geometry.probe_self_s", "oracles.sup_s", "oracles.target_s",
)
