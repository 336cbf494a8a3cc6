"""The four benchmark workloads: one generated config and a thread count each.

A workload's config is built from the workload seed alone and written
as the config's masterSeed; the program sees nothing but the config
file.  Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

FLAT3 = "0.333333333333333333, 0.333333333333333333, 0.333333333333333333"

# psistar-sweep weights are (r, (1-r)/(k-1), ...).  For k = 16 every subset
# keeps the same validity for r < 1/46, so each such r costs one identical
# enumeration of all 2^16 - 1 subsets; for r >= 13/238 (about 0.0546) the
# full subset is valid and sphere_sup returns at once.
SWEEP_K = 16
SWEEP_BELOW = (0.005, 0.02)
SWEEP_ABOVE = (0.08, 0.5)


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    keys: Callable[[int], dict[str, str]]

    def config(self, seed: int) -> dict[str, str]:
        """Config keys in file order, masterSeed last."""
        return {**self.keys(seed), "masterSeed": str(seed)}


def _sweep_r_grid(seed: int) -> str:
    # two enumerating r values, then one shortcut; a fixed order keeps the
    # same sweep results alive together, so peak memory does not depend on it
    rng = random.Random(seed)
    grid = [rng.uniform(*SWEEP_BELOW), rng.uniform(*SWEEP_BELOW), rng.uniform(*SWEEP_ABOVE)]
    return ", ".join(repr(r) for r in grid)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ascent-isometry",
            1,
            lambda seed: {
                "experiment": "stinespring-peak",
                "k": "2",
                "t": "0.3",
                "nGrid": "400",
                "trials": "1",
                "restarts": "4",
                "iterCap": "60",
            },
        ),
        Workload(
            "spectral-unitary",
            2,
            lambda seed: {
                "experiment": "cm-convergence",
                "k": "3",
                "weights": FLAT3,
                "probe": "flat-rank-one",
                "m": "5",
                "nGrid": "200, 400, 800",
                "trials": "1",
            },
        ),
        Workload(
            "cloud-apply",
            1,
            lambda seed: {
                "experiment": "output-cloud",
                "k": "2",
                "t": "0.3",
                "nGrid": "200",
                "trials": "1",
                "samples": "1000",
                "restarts": "1",
                "iterCap": "20",
            },
        ),
        Workload(
            "oracle-sweep",
            1,
            lambda seed: {
                "experiment": "psistar-sweep",
                "k": str(SWEEP_K),
                "rGrid": _sweep_r_grid(seed),
            },
        ),
    )
}


def render(config: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in config.items())


def expected_records(config: dict[str, str]) -> int:
    if config["experiment"] == "psistar-sweep":
        return len(config["rGrid"].split(","))
    return len(config["nGrid"].split(",")) * int(config["trials"])
