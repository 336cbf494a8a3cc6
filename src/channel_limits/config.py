"""Flat key-value experiment configuration.

A config file holds one experiment: blank lines and '#' comments are
ignored, every other line is `key = value`.  Lists are comma separated;
explicit matrices are row-major, entries as 're,im' pairs separated by
semicolons.  Unknown keys and malformed values raise ConfigError with
the offending field named.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .channels import validate_weights
from .ensembles import StinespringRegime
from .errors import BadWeightsError, ConfigError, InvalidDensityMatrixError
from .linalg import DensityMatrix

# The keys each run reads besides experiment, k, masterSeed and outputPath,
# by the value of the key that selects them: an experiment whose keys list
# "channel" or "probe" also reads the keys of the channel kind and probe it
# gets.  stinespring-peak and weyl-invariance each measure one channel kind,
# so they read its parameter and not `channel`.
_READS = {
    "experiment": {
        "cm-convergence": ("nGrid", "trials", "channel", "probe", "m"),
        "norm-limit": ("nGrid", "trials", "channel", "restarts", "iterCap"),
        "psistar-sweep": ("rGrid",),
        "stinespring-peak": ("nGrid", "trials", "t", "restarts", "iterCap"),
        "weyl-invariance": ("nGrid", "trials", "weights", "probe"),
        "eb-tensor": ("nGrid", "trials"),
        "output-cloud": ("nGrid", "trials", "channel", "restarts", "iterCap", "samples"),
    },
    "channel": {
        "mixed-unitary": ("weights",),
        "stinespring": ("t",),
        "depolarizing": (),
    },
    "probe": {
        "flat-rank-one": (),
        "random-pure": (),
        "explicit": ("probeMatrix",),
    },
}

_COMMON_KEYS = ("experiment", "k", "masterSeed", "outputPath")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    k: int
    weights: tuple[float, ...] | None = None
    t: float | None = None
    n_grid: tuple[int, ...] = ()
    r_grid: tuple[float, ...] = ()
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

    def probe_array(self) -> np.ndarray:
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


def _parse_list(parse):
    """Parser of a comma-separated list whose entries `parse` reads."""
    return lambda key, raw: tuple(parse(key, p.strip()) for p in raw.split(",") if p.strip())


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
    "weights": _parse_list(_parse_float),
    "t": _parse_float,
    "nGrid": _parse_list(_parse_int),
    "rGrid": _parse_list(_parse_float),
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

# a field left at its default counts as unset
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def _field(key: str) -> str:
    """Dataclass field of a config key: nGrid -> n_grid."""
    return "".join(f"_{c.lower()}" if c.isupper() else c for c in key)


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
        if _field(key) in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[_field(key)] = _PARSERS[key](key, raw)
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


def _readers(cfg: ExperimentConfig) -> dict[str, str]:
    """Each key `_READS` gives the run of `cfg`, with the setting that reads it."""
    readers = {"experiment": "every run"}
    for selector, table in _READS.items():
        if selector in readers:
            value = cfg.channel_kind() if selector == "channel" else getattr(cfg, selector)
            readers.update(dict.fromkeys(table[value], f"{selector} = {value}"))
    return readers


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError naming the first key that `_READS` or a value range rejects.

    A key whose run never reads it must be left at its default, and a key
    the run reads that has no default value (a grid, a channel parameter,
    the explicit probe) must be set.
    """
    for selector, table in _READS.items():
        value = getattr(cfg, selector)
        if value is not None and value not in table:
            raise ConfigError(f"{selector}: {value!r} not one of {', '.join(table)}")
    readers = _readers(cfg)
    for key in _PARSERS:
        if key not in readers and key not in _COMMON_KEYS:
            if getattr(cfg, _field(key)) != _DEFAULTS[_field(key)]:
                raise ConfigError(f"{key}: not used by {cfg.experiment}")
    for key, reader in readers.items():
        if key not in _READS and getattr(cfg, _field(key)) in (None, ()):
            raise ConfigError(f"{key}: required by {reader}")
    for key in ("k", "trials", "m", "restarts", "iterCap", "samples"):
        value = getattr(cfg, _field(key))
        if value < 1:
            raise ConfigError(f"{key}: must be positive, got {value}")
    if any(n < 1 for n in cfg.n_grid):
        raise ConfigError("nGrid: entries must be positive")
    if any(not (0.0 < r < 1.0) for r in cfg.r_grid):
        raise ConfigError("rGrid: entries must lie in (0, 1)")
    if cfg.t is not None and not (0.0 < cfg.t <= 1.0):
        raise ConfigError(f"t: {cfg.t} outside (0, 1]")
    if cfg.experiment == "cm-convergence":
        # the probe's lift is N x N, N the channel's input dimension, which
        # grows with n
        n = min(cfg.n_grid)
        if cfg.channel_kind() == "stinespring":
            lift_dim = StinespringRegime(cfg.k, cfg.t).input_dim(n)
        else:
            lift_dim = n
        if cfg.m > lift_dim:
            raise ConfigError(f"m: {cfg.m} exceeds the lift dimension {lift_dim} at n = {n}")
    if cfg.weights is not None:
        if len(cfg.weights) != cfg.k:
            raise ConfigError(f"weights: expected {cfg.k} entries, got {len(cfg.weights)}")
        try:
            validate_weights(cfg.weights)
        except BadWeightsError as exc:
            raise ConfigError(f"weights: {exc}") from None
    if cfg.probe_matrix is not None:
        if len(cfg.probe_matrix) != cfg.k:
            raise ConfigError(
                f"probeMatrix: dimension {len(cfg.probe_matrix)} != k = {cfg.k}"
            )
        try:
            DensityMatrix(cfg.probe_array())
        except InvalidDensityMatrixError as exc:
            raise ConfigError(f"probeMatrix: {exc}") from None
    # the sweep's one-light weight family, and the peak-eigenvalue and norm
    # limits these runs compare against, are defined only for k >= 2
    if cfg.k < 2 and (
        cfg.experiment in ("psistar-sweep", "stinespring-peak")
        or (cfg.experiment == "norm-limit" and cfg.channel_kind() != "depolarizing")
        or (cfg.experiment == "output-cloud" and cfg.channel_kind() == "stinespring")
    ):
        raise ConfigError(f"k: {cfg.experiment} needs k >= 2")

