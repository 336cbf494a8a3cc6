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
import logging
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
    NormAscent,
    estimate_smin,
    holevo_from_smin,
    norm_ascent,
    probe_top_eigenvalues,
    weyl_operator,
)
from .linalg import hermitian_eigs
from .oracles import (
    flat_tail_entropy,
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


_log = logging.getLogger(__name__)


def _build_channel(cfg: ExperimentConfig, n: int, rng: np.random.Generator) -> Channel:
    # Tr[U_i X U_j*] = Tr[(U_1* U_i) X (U_1* U_j)*], so the sampler's U_1 = I
    # gives the same random map as k i.i.d. Haar unitaries
    kind = cfg.channel_kind()
    if kind == "mixed-unitary":
        return sample_mixed_unitary_channel(cfg.k, n, cfg.weights, rng)
    if kind == "stinespring":
        return StinespringRegime(cfg.k, cfg.t).sample(n, rng)
    return make_depolarizing(cfg.k, n)


def _build_probe(
    cfg: ExperimentConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None]:
    """Probe to lift and, when it is rank one, its unit coefficient vector.

    A probe built from a vector a is lifted as that vector (the rank-one
    observable aa*); an explicit probe is lifted as its matrix even when
    it is rank one, since its top eigenvector only matches it to 1e-10.
    """
    if cfg.probe == "flat-rank-one":
        a = np.ones(cfg.k, dtype=np.complex128) / np.sqrt(cfg.k)
        return a, a
    if cfg.probe == "random-pure":
        a = sample_pure_state(cfg.k, rng)
        return a, a
    mat = cfg.probe_array()
    vals, vecs = hermitian_eigs(mat)
    return mat, (vecs[:, 0] if vals[0] >= 1.0 - 1e-10 else None)


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
    observable, coeff = _build_probe(cfg, rng)
    target = _rank_one_target(cfg, coeff)
    count = min(cfg.m, channel.input_dim)
    probe = probe_top_eigenvalues(channel, observable, count)
    return _record(cfg, trial, n, cfg.probe, (*probe.eigenvalues, probe.spread), target), None


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
    ascent = norm_ascent(channel, rng, cfg.restarts, cfg.iter_cap)
    return _record(cfg, trial, n, "ascent", (ascent.value,), target), ascent


def _run_weyl_invariance(cfg, trial, n):
    rng = stream(cfg.master_seed, trial)
    channel = _build_channel(cfg, n, rng)
    observable, coeff = _build_probe(cfg, rng)
    target = _rank_one_target(cfg, coeff)
    values = []
    for shift in range(cfg.k):
        for phase in range(cfg.k):
            w = weyl_operator(shift, phase, cfg.k)
            # W aa* W* is the rank-one observable on W a
            if observable.ndim == 1:
                conjugated = w @ observable
            else:
                conjugated = w @ observable @ w.conj().T
            probe = probe_top_eigenvalues(channel, conjugated, 1)
            values.append(probe.top)
    return _record(cfg, trial, n, cfg.probe, tuple(values), target), None


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
    return _record(cfg, trial, n, "reconstruction", (residual,), 0.0), None


# bytes of input vectors and their images that one block of the output
# cloud holds at once: 63 rows at n = 200, k = 2, N = 120
_CLOUD_BLOCK_BYTES = 1 << 19


def _cloud_block_rows(channel: Channel, env_dim: int) -> int:
    """Rows per cloud block: each holds an input and its image in C^k (x) C^env."""
    row_bytes = 16 * (channel.input_dim + channel.output_dim * env_dim)
    return max(1, _CLOUD_BLOCK_BYTES // row_bytes)


def _cloud_outputs(channel: Channel, samples: int, env_dim: int, rng) -> list[np.ndarray]:
    """Outputs of `samples` uniform pure inputs, as (b, k, k) stacks in draw order.

    Each block draws, maps and normalizes its rows in one pass; row i is
    the state `channel.apply(sample_pure_state(N, rng))` would give as the
    i-th single draw, bit for bit.
    """
    rows = _cloud_block_rows(channel, env_dim)
    return [
        channel.apply(sample_pure_state(channel.input_dim, rng, min(rows, samples - start)))
        for start in range(0, samples, rows)
    ]


def _run_output_cloud(cfg, trial, n):
    rng = stream(cfg.master_seed, trial)
    channel = _build_channel(cfg, n, rng)
    ascent = norm_ascent(channel, rng, cfg.restarts, cfg.iter_cap)
    smin = estimate_smin([*ascent.outputs, *_cloud_outputs(channel, cfg.samples, n, rng)])
    holevo = holevo_from_smin(cfg.k, smin)
    kind = cfg.channel_kind()
    target = None
    if kind == "stinespring":
        target = flat_tail_entropy(cfg.k, stinespring_peak_eigenvalue(cfg.k, cfg.t))
    elif kind == "depolarizing":
        target = float(np.log(cfg.k))
    return _record(cfg, trial, n, "cloud", (smin, holevo, ascent.value), target), ascent


# each runner maps (cfg, trial, n) to the trial's record and its NormAscent,
# or None for a trial without an ascent
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


def _log_ascents(cfg: ExperimentConfig, ascents: list[NormAscent]) -> None:
    """Log one line on the restarts of the config's ascents that did not converge.

    Such a restart is capped when it used all `iterCap` full evaluations, and
    stalled when it stopped before.
    """
    restarts = [(n, done) for a in ascents for n, done in zip(a.evaluations, a.converged)]
    capped = sum(1 for n, done in restarts if not done and n >= cfg.iter_cap)
    stalled = sum(1 for _, done in restarts if not done) - capped
    _log.info(
        "ascent: %d of %d restarts capped%s",
        capped,
        len(restarts),
        f", {stalled} stalled" if stalled else "",
    )


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[ExperimentRecord]:
    """All records for one config, in trial order regardless of scheduling.

    A config whose trials run the norm ascent also logs, at INFO, how many
    of their restarts stopped without converging.
    """
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
            results = list(pool.map(lambda s: runner(cfg, *s), specs))
    else:
        results = [runner(cfg, *s) for s in specs]
    ascents = [ascent for _, ascent in results if ascent is not None]
    if ascents:
        _log_ascents(cfg, ascents)
    return [record for record, _ in results]


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


def emit_results(records: list[ExperimentRecord], fmt: str = "csv") -> str:
    """Render records deterministically; raises on an empty list."""
    if not records:
        raise EmptyResultsError("no records to emit")
    if fmt == "csv":
        return render_csv(records)
    if fmt == "json":
        return render_json(records)
    raise ConfigError(f"format: {fmt!r} not one of csv, json")
