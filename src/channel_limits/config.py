"""Flat key-value experiment configuration.

A config file holds one experiment: blank lines and '#' comments are
ignored, every other line is `key = value`.  Lists are comma separated;
explicit matrices are row-major, entries as 're,im' pairs separated by
semicolons.  Unknown keys and malformed values raise ConfigError with
the offending field named.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channels import validate_weights
from .errors import BadWeightsError, ConfigError

EXPERIMENTS = (
    "cm-convergence",
    "norm-limit",
    "psistar-sweep",
    "stinespring-peak",
    "weyl-invariance",
    "eb-tensor",
    "output-cloud",
)

PROBES = ("flat-rank-one", "random-pure", "explicit")

CHANNEL_KINDS = ("mixed-unitary", "stinespring", "depolarizing")

# channel keys these experiments never read: a config that set one would
# name a channel the run does not measure
_UNUSED_CHANNEL_KEYS = {
    "stinespring-peak": ("weights", "channel"),
    "psistar-sweep": ("weights", "t", "channel"),
    "eb-tensor": ("weights", "t", "channel"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    k: int
    weights: tuple[float, ...] | None = None
    t: float | None = None
    n_grid: tuple[int, ...] = field(default_factory=tuple)
    r_grid: tuple[float, ...] = field(default_factory=tuple)
    trials: int = 1
    master_seed: int = 0
    m: int = 1
    probe: str = "flat-rank-one"
    probe_matrix: tuple[tuple[complex, ...], ...] | None = None
    channel: str | None = None
    restarts: int = 10
    iter_cap: int = 200
    samples: int = 100
    output_path: str | None = None

    def channel_kind(self) -> str:
        if self.channel is not None:
            return self.channel
        if self.weights is not None:
            return "mixed-unitary"
        if self.t is not None:
            return "stinespring"
        raise ConfigError("channel: cannot infer kind (set weights, t, or channel)")

    def probe_array(self) -> np.ndarray | None:
        if self.probe_matrix is None:
            return None
        return np.asarray(self.probe_matrix, dtype=np.complex128)


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int_list(key: str, raw: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, part.strip()) for part in raw.split(",") if part.strip())


def _parse_float_list(key: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(key, part.strip()) for part in raw.split(",") if part.strip())


def _parse_matrix(key: str, raw: str) -> tuple[tuple[complex, ...], ...]:
    entries = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{key}: entry {chunk!r} is not a 're,im' pair")
        re = _parse_float(key, parts[0].strip())
        im = _parse_float(key, parts[1].strip())
        entries.append(complex(re, im))
    dim = int(round(np.sqrt(len(entries))))
    if dim * dim != len(entries) or dim == 0:
        raise ConfigError(f"{key}: {len(entries)} entries do not fill a square matrix")
    return tuple(
        tuple(entries[i * dim : (i + 1) * dim]) for i in range(dim)
    )


_PARSERS = {
    "experiment": lambda k, v: v,
    "k": _parse_int,
    "weights": _parse_float_list,
    "t": _parse_float,
    "nGrid": _parse_int_list,
    "rGrid": _parse_float_list,
    "trials": _parse_int,
    "masterSeed": _parse_int,
    "m": _parse_int,
    "probe": lambda k, v: v,
    "probeMatrix": _parse_matrix,
    "channel": lambda k, v: v,
    "restarts": _parse_int,
    "iterCap": _parse_int,
    "samples": _parse_int,
    "outputPath": lambda k, v: v,
}

_FIELD_NAMES = {
    "nGrid": "n_grid",
    "rGrid": "r_grid",
    "masterSeed": "master_seed",
    "probeMatrix": "probe_matrix",
    "iterCap": "iter_cap",
    "outputPath": "output_path",
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate config file contents."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[_FIELD_NAMES.get(key, key)] = _PARSERS[key](key, raw)
    if "experiment" not in values:
        raise ConfigError("experiment: missing")
    if "k" not in values:
        raise ConfigError("k: missing")
    cfg = ExperimentConfig(**values)  # type: ignore[arg-type]
    validate_config(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from None
    return parse_config_text(text)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment: {cfg.experiment!r} not one of {', '.join(EXPERIMENTS)}"
        )
    for key in _UNUSED_CHANNEL_KEYS.get(cfg.experiment, ()):
        if getattr(cfg, key) is not None:
            raise ConfigError(f"{key}: not used by {cfg.experiment}")
    if cfg.k < 1:
        raise ConfigError(f"k: must be positive, got {cfg.k}")
    if cfg.trials < 1:
        raise ConfigError(f"trials: must be positive, got {cfg.trials}")
    if cfg.probe not in PROBES:
        raise ConfigError(f"probe: {cfg.probe!r} not one of {', '.join(PROBES)}")
    if cfg.probe == "explicit" and cfg.probe_matrix is None:
        raise ConfigError("probeMatrix: required when probe = explicit")
    if cfg.probe_matrix is not None and len(cfg.probe_matrix) != cfg.k:
        raise ConfigError(
            f"probeMatrix: dimension {len(cfg.probe_matrix)} != k = {cfg.k}"
        )
    if cfg.weights is not None:
        if len(cfg.weights) != cfg.k:
            raise ConfigError(f"weights: expected {cfg.k} entries, got {len(cfg.weights)}")
        try:
            validate_weights(cfg.weights)
        except BadWeightsError as exc:
            raise ConfigError(f"weights: {exc}") from None
    if cfg.t is not None and not (0.0 < cfg.t <= 1.0):
        raise ConfigError(f"t: {cfg.t} outside (0, 1]")
    if cfg.channel is not None and cfg.channel not in CHANNEL_KINDS:
        raise ConfigError(
            f"channel: {cfg.channel!r} not one of {', '.join(CHANNEL_KINDS)}"
        )
    if cfg.m < 1:
        raise ConfigError(f"m: must be positive, got {cfg.m}")
    if cfg.restarts < 1 or cfg.iter_cap < 1:
        raise ConfigError("restarts/iterCap: must be positive")
    if cfg.samples < 1:
        raise ConfigError(f"samples: must be positive, got {cfg.samples}")
    if any(n < 1 for n in cfg.n_grid):
        raise ConfigError("nGrid: entries must be positive")
    if cfg.experiment == "psistar-sweep":
        if not cfg.r_grid:
            raise ConfigError("rGrid: required for psistar-sweep")
        if any(not (0.0 < r < 1.0) for r in cfg.r_grid):
            raise ConfigError("rGrid: entries must lie in (0, 1)")
        if cfg.k < 2:
            raise ConfigError("k: psistar-sweep needs k >= 2")
    else:
        if not cfg.n_grid:
            raise ConfigError(f"nGrid: required for {cfg.experiment}")
    kind_needed = cfg.experiment in (
        "cm-convergence",
        "norm-limit",
        "weyl-invariance",
        "output-cloud",
    )
    if kind_needed:
        kind = cfg.channel_kind()
        if kind == "mixed-unitary" and cfg.weights is None:
            raise ConfigError("weights: required for mixed-unitary channels")
        if kind == "stinespring" and cfg.t is None:
            raise ConfigError("t: required for stinespring channels")
        if cfg.experiment == "weyl-invariance" and kind != "mixed-unitary":
            raise ConfigError("channel: weyl-invariance needs mixed-unitary")
    if cfg.experiment == "stinespring-peak" and cfg.t is None:
        raise ConfigError("t: required for stinespring-peak")
    # the peak-eigenvalue and norm limits these runs compare against are
    # defined only for k >= 2
    if cfg.k < 2 and (
        cfg.experiment == "stinespring-peak"
        or (cfg.experiment == "norm-limit" and cfg.channel_kind() != "depolarizing")
        or (cfg.experiment == "output-cloud" and cfg.channel_kind() == "stinespring")
    ):
        raise ConfigError(f"k: {cfg.experiment} needs k >= 2 for its target")


def with_overrides(
    cfg: ExperimentConfig,
    master_seed: int | None = None,
    output_path: str | None = None,
) -> ExperimentConfig:
    out = cfg
    if master_seed is not None:
        out = replace(out, master_seed=master_seed)
    if output_path is not None:
        out = replace(out, output_path=output_path)
    return out
