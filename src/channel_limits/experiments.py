"""Experiment drivers and result emission.

Every experiment expands into a list of independent trials; trial i
draws all of its randomness from the stream keyed by (master_seed, i),
so results are identical no matter how trials are scheduled across
threads.  Records are emitted in trial order as CSV or JSON with a
stable schema:

    experiment,trial,seed,n,k,probe,value1..valueM,target,error
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import Channel, EBChannel, make_depolarizing
from .config import ExperimentConfig
from .ensembles import (
    StinespringRegime,
    sample_density_matrix,
    sample_mixed_unitary_channel,
    sample_projective_povm,
    sample_pure_state,
    sample_stinespring_channel,
    stream,
)
from .errors import ConfigError, EmptyResultsError
from .geometry import (
    estimate_smin,
    holevo_from_smin,
    norm_ascent,
    probe_top_eigenvalues,
    weyl_operator,
)
from .linalg import DensityMatrix, hermitian_eigs
from .oracles import (
    mixed_unitary_norm_limit,
    one_heavy_sup_value,
    one_heavy_weights,
    rank_one_limit,
    sphere_sup,
    stinespring_peak_eigenvalue,
)
from .tensor_lab import eb_tensor_decompose, eb_tensor_output


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured trial with its oracle target, when one exists."""

    experiment: str
    trial: int
    seed: int
    n: int
    k: int
    probe: str
    values: tuple[float, ...]
    target: float | None
    error: float | None


def _build_channel(cfg: ExperimentConfig, n: int, rng: np.random.Generator) -> Channel:
    kind = cfg.channel_kind()
    if kind == "mixed-unitary":
        return sample_mixed_unitary_channel(cfg.k, n, cfg.weights, rng)
    if kind == "stinespring":
        return StinespringRegime(cfg.k, cfg.t).sample(n, rng)
    return make_depolarizing(cfg.k, n)


def _build_probe(
    cfg: ExperimentConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None]:
    """Probe state and, when it is rank one, its unit coefficient vector."""
    if cfg.probe == "flat-rank-one":
        a = np.ones(cfg.k, dtype=np.complex128) / np.sqrt(cfg.k)
        return np.outer(a, a.conj()), a
    if cfg.probe == "random-pure":
        a = sample_pure_state(cfg.k, rng)
        return np.outer(a, a.conj()), a
    mat = DensityMatrix(cfg.probe_array()).matrix
    vals, vecs = hermitian_eigs(mat)
    if vals[0] >= 1.0 - 1e-10:
        return mat, vecs[:, 0]
    return mat, None


def _rank_one_target(cfg: ExperimentConfig, coeff: np.ndarray | None) -> float | None:
    kind = cfg.channel_kind()
    if kind == "depolarizing":
        return 1.0 / cfg.k
    if kind == "mixed-unitary" and coeff is not None:
        return rank_one_limit(coeff, cfg.weights)
    return None


def _record(cfg, trial, n, probe, values, target):
    error = None if target is None else abs(values[0] - target)
    return ExperimentRecord(
        cfg.experiment,
        trial,
        cfg.master_seed,
        n,
        cfg.k,
        probe,
        tuple(float(v) for v in values),
        target,
        error,
    )


def _run_cm_convergence(cfg, trial, n):
    rng = stream(cfg.master_seed, trial)
    channel = _build_channel(cfg, n, rng)
    state, coeff = _build_probe(cfg, rng)
    target = _rank_one_target(cfg, coeff)
    count = min(cfg.m, channel.input_dim)
    probe = probe_top_eigenvalues(channel, state, count, target)
    return _record(
        cfg, trial, n, cfg.probe, (*probe.eigenvalues, probe.spread), target
    )


def _run_norm_limit(cfg, trial, n):
    rng = stream(cfg.master_seed, trial)
    channel = _build_channel(cfg, n, rng)
    kind = cfg.channel_kind()
    if kind == "mixed-unitary":
        target = mixed_unitary_norm_limit(cfg.weights)
    elif kind == "stinespring":
        target = stinespring_peak_eigenvalue(cfg.k, cfg.t)
    else:
        target = 1.0 / cfg.k
    estimate = norm_ascent(channel, rng, cfg.restarts, cfg.iter_cap).value
    return _record(cfg, trial, n, "ascent", (estimate,), target)


def _run_weyl_invariance(cfg, trial, n):
    rng = stream(cfg.master_seed, trial)
    channel = _build_channel(cfg, n, rng)
    state, coeff = _build_probe(cfg, rng)
    target = _rank_one_target(cfg, coeff)
    values = []
    for shift in range(cfg.k):
        for phase in range(cfg.k):
            w = weyl_operator(shift, phase, cfg.k)
            conjugated = w @ state @ w.conj().T
            probe = probe_top_eigenvalues(channel, conjugated, 1)
            values.append(probe.top)
    return _record(cfg, trial, n, cfg.probe, tuple(values), target)


def _run_eb_tensor(cfg, trial, n):
    rng = stream(cfg.master_seed, trial)
    povm = sample_projective_povm([1] * cfg.k, rng)
    states = [sample_density_matrix(cfg.k, rng) for _ in range(cfg.k)]
    eb = EBChannel(povm, states)
    psi = sample_stinespring_channel(cfg.k, n, n, rng)
    vector = sample_pure_state(psi.input_dim * eb.input_dim, rng)
    joint = eb_tensor_output(eb, psi, vector)
    split = eb_tensor_decompose(eb, psi, vector)
    residual = float(np.max(np.abs(joint.matrix - split.reconstruct(eb, psi))))
    return _record(cfg, trial, n, "reconstruction", (residual,), 0.0)


def _run_output_cloud(cfg, trial, n):
    rng = stream(cfg.master_seed, trial)
    channel = _build_channel(cfg, n, rng)
    ascent = norm_ascent(channel, rng, cfg.restarts, cfg.iter_cap)
    cloud = list(ascent.outputs)
    for _ in range(cfg.samples):
        v = sample_pure_state(channel.input_dim, rng)
        cloud.append(channel.apply(DensityMatrix.pure(v)))
    smin = estimate_smin(cloud)
    holevo = holevo_from_smin(cfg.k, smin)
    kind = cfg.channel_kind()
    target = None
    if kind == "stinespring":
        peak = stinespring_peak_eigenvalue(cfg.k, cfg.t)
        if peak >= 1.0:
            target = 0.0
        else:
            rest = (1.0 - peak) / (cfg.k - 1)
            target = float(-peak * np.log(peak) - (cfg.k - 1) * rest * np.log(rest))
    elif kind == "depolarizing":
        target = float(np.log(cfg.k))
    return _record(cfg, trial, n, "cloud", (smin, holevo, ascent.value), target)


_TRIAL_RUNNERS = {
    "cm-convergence": _run_cm_convergence,
    "norm-limit": _run_norm_limit,
    "stinespring-peak": _run_norm_limit,
    "weyl-invariance": _run_weyl_invariance,
    "eb-tensor": _run_eb_tensor,
    "output-cloud": _run_output_cloud,
}


def _run_psistar_sweep(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    records = []
    for i, r in enumerate(cfg.r_grid):
        result = sphere_sup(one_heavy_weights(cfg.k, r))
        target = one_heavy_sup_value(r) if cfg.k == 4 else None
        records.append(
            _record(
                cfg,
                i,
                0,
                f"r={r!r}",
                (result.value, float(len(result.argmax_subset))),
                target,
            )
        )
    return records


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[ExperimentRecord]:
    """All records for one config, in trial order regardless of scheduling."""
    if cfg.experiment == "psistar-sweep":
        return _run_psistar_sweep(cfg)
    runner = _TRIAL_RUNNERS[cfg.experiment]
    specs = [
        (trial, n)
        for trial, n in enumerate(
            n for n in cfg.n_grid for _ in range(cfg.trials)
        )
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(lambda s: runner(cfg, *s), specs))
    else:
        records = [runner(cfg, *s) for s in specs]
    records.sort(key=lambda r: r.trial)
    return records


def _format_value(v: float | None) -> str:
    if v is None:
        return ""
    return repr(float(v))


def render_csv(records: list[ExperimentRecord]) -> str:
    width = max(len(r.values) for r in records)
    header = ["experiment", "trial", "seed", "n", "k", "probe"]
    header += [f"value{i + 1}" for i in range(width)]
    header += ["target", "error"]
    lines = [",".join(header)]
    for r in records:
        cells = [r.experiment, str(r.trial), str(r.seed), str(r.n), str(r.k), r.probe]
        cells += [_format_value(v) for v in r.values]
        cells += [""] * (width - len(r.values))
        cells += [_format_value(r.target), _format_value(r.error)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_json(records: list[ExperimentRecord]) -> str:
    payload = [
        {
            "experiment": r.experiment,
            "trial": r.trial,
            "seed": r.seed,
            "n": r.n,
            "k": r.k,
            "probe": r.probe,
            "values": list(r.values),
            "target": r.target,
            "error": r.error,
        }
        for r in records
    ]
    return json.dumps(payload, indent=2) + "\n"


def parse_records_json(text: str) -> list[ExperimentRecord]:
    """Inverse of render_json, for round-trip checks and downstream reads."""
    return [
        ExperimentRecord(
            d["experiment"],
            d["trial"],
            d["seed"],
            d["n"],
            d["k"],
            d["probe"],
            tuple(d["values"]),
            d["target"],
            d["error"],
        )
        for d in json.loads(text)
    ]


def emit_results(records: list[ExperimentRecord], fmt: str = "csv") -> str:
    """Render records deterministically; raises on an empty list."""
    if not records:
        raise EmptyResultsError("no records to emit")
    if fmt == "csv":
        return render_csv(records)
    if fmt == "json":
        return render_json(records)
    raise ConfigError(f"format: {fmt!r} not one of csv, json")
