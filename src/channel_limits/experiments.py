"""Experiment drivers and result emission.

Every experiment expands into a list of independent trials; trial i
draws all of its randomness from the stream keyed by (master_seed, i),
so results are identical no matter how trials are scheduled across
threads.  Records are emitted in trial order as CSV or JSON with a
stable schema:

    experiment,trial,seed,n,k,probe,value1..valueM,target,error
"""

from __future__ import annotations

import itertools
import json
import logging
import os
from concurrent.futures import FIRST_COMPLETED, Executor, ThreadPoolExecutor, wait
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass

import numpy as np

from . import openblas
from .channels import Channel, DepolarizingChannel, EBChannel
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


def usable_cores() -> int:
    """Cores this process may run on, or the machine's count where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, then restore the caller's count.

    OpenBLAS's blocking, and with it the last bits of a product or a
    factorization, depends on its thread count; pinning it makes the bytes
    independent of OPENBLAS_NUM_THREADS and leaves the cores to the trial
    pool.  The count is process-wide, so it is set before any worker
    starts and restored after all have stopped.
    """
    if openblas._BLAS_THREADS is None:
        _log.warning(
            "BLAS thread count not set: numpy's BLAS exports no "
            "scipy_openblas_set_num_threads64_, so the bytes may depend on its thread count"
        )
        yield
        return
    get, set_ = openblas._BLAS_THREADS
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


# the trial pool of the trial running in this context, to which its sampler
# hands helper tasks; None when the trials run one after another
_TRIAL_POOL: ContextVar[Executor | None] = ContextVar("trial_pool", default=None)


def _build_channel(cfg: ExperimentConfig, n: int, rng: np.random.Generator) -> Channel:
    kind = cfg.channel_kind()
    if kind == "mixed-unitary":
        return sample_mixed_unitary_channel(cfg.k, n, cfg.weights, rng, _TRIAL_POOL.get())
    if kind == "stinespring":
        return StinespringRegime(cfg.k, cfg.t).sample(n, rng)
    return DepolarizingChannel(cfg.k, n)


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


def _run_cm_convergence(cfg, trial, n, rng):
    channel = _build_channel(cfg, n, rng)
    observable, coeff = _build_probe(cfg, rng)
    target = _rank_one_target(cfg, coeff)
    vals = probe_top_eigenvalues(channel, observable, cfg.m)
    # the spread, largest minus smallest reported eigenvalue, measures how
    # far the spectrum edge is from collapsing to its limit value
    return _record(cfg, trial, n, cfg.probe, (*vals, vals[0] - vals[-1]), target), None


def _run_norm_limit(cfg, trial, n, rng):
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


def _run_weyl_invariance(cfg, trial, n, rng):
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
            values.append(probe_top_eigenvalues(channel, conjugated, 1)[0])
    return _record(cfg, trial, n, cfg.probe, tuple(values), target), None


def _run_eb_tensor(cfg, trial, n, rng):
    povm = sample_projective_povm([1] * cfg.k, rng)
    states = [sample_density_matrix(cfg.k, rng) for _ in range(cfg.k)]
    eb = EBChannel(povm, states)
    psi = sample_stinespring_channel(cfg.k, n, n, rng)
    vector = sample_pure_state(psi.input_dim * eb.input_dim, rng)
    joint = eb_tensor_output(eb, psi, vector)
    split = eb_tensor_decompose(eb, psi, vector)
    residual = float(np.max(np.abs(joint.matrix - split.reconstruct(eb, psi))))
    return _record(cfg, trial, n, "reconstruction", (residual,), 0.0), None


# pure inputs the output cloud draws and maps in one pass
_CLOUD_BLOCK_ROWS = 64


def _cloud_outputs(channel: Channel, samples: int, rng) -> list[np.ndarray]:
    """Outputs of `samples` uniform pure inputs, as (b, k, k) stacks in draw order.

    Each block draws, maps and normalizes its rows in one pass; row i is
    the state `channel.apply(sample_pure_state(N, rng))` would give as the
    i-th single draw, bit for bit.
    """
    rows = _CLOUD_BLOCK_ROWS
    return [
        channel.apply(sample_pure_state(channel.input_dim, rng, min(rows, samples - start)))
        for start in range(0, samples, rows)
    ]


def _run_output_cloud(cfg, trial, n, rng):
    channel = _build_channel(cfg, n, rng)
    ascent = norm_ascent(channel, rng, cfg.restarts, cfg.iter_cap)
    outputs = [r.output for r in ascent.restarts]
    smin = estimate_smin([*outputs, *_cloud_outputs(channel, cfg.samples, rng)])
    holevo = holevo_from_smin(cfg.k, smin)
    kind = cfg.channel_kind()
    target = None
    if kind == "stinespring":
        target = flat_tail_entropy(cfg.k, stinespring_peak_eigenvalue(cfg.k, cfg.t))
    elif kind == "depolarizing":
        target = float(np.log(cfg.k))
    return _record(cfg, trial, n, "cloud", (smin, holevo, ascent.value), target), ascent


def _run_psistar_sweep(cfg, trial, r, rng):
    result = sphere_sup(one_heavy_weights(cfg.k, r))
    target = one_heavy_sup_value(r) if cfg.k == 4 else None
    values = (result.value, float(len(result.argmax_subset)))
    return _record(cfg, trial, 0, f"r={r!r}", values, target), None


# each runner maps (cfg, trial, point, rng) to the trial's record and its
# NormAscent, or None for a trial without an ascent; the point is the
# trial's n, or psistar-sweep's r, and rng is the trial's stream (None
# for psistar-sweep)
_TRIAL_RUNNERS = {
    "cm-convergence": _run_cm_convergence,
    "norm-limit": _run_norm_limit,
    "psistar-sweep": _run_psistar_sweep,
    "stinespring-peak": _run_norm_limit,
    "weyl-invariance": _run_weyl_invariance,
    "eb-tensor": _run_eb_tensor,
    "output-cloud": _run_output_cloud,
}


def _log_ascents(cfg: ExperimentConfig, ascents: list[NormAscent]) -> None:
    """Log two lines on the restarts of the config's ascents.

    The first counts those that did not converge: capped when they used all
    `iterCap` full evaluations, stalled when they stopped before.  The second
    counts those whose value is within 1e-9 of their trial's best, or says that
    coverage is not measured when each trial's one restart is its best.
    """
    restarts = [r for a in ascents for r in a.restarts]
    capped = sum(1 for r in restarts if not r.converged and r.evaluations >= cfg.iter_cap)
    stalled = sum(1 for r in restarts if not r.converged) - capped
    _log.info(
        "ascent: %d of %d restarts capped%s",
        capped,
        len(restarts),
        f", {stalled} stalled" if stalled else "",
    )
    if cfg.restarts == 1:
        _log.info("ascent: coverage not measured, one restart per trial")
        return
    best = sum(1 for a in ascents for r in a.restarts if r.value >= a.value - 1e-9)
    _log.info("ascent: %d of %d restarts within 1e-9 of their trial's best", best, len(restarts))


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[ExperimentRecord]:
    """All records for one config, in trial order regardless of scheduling.

    Every trial runs on one OpenBLAS thread, whatever `threads` is, so the
    records are the same bytes for any worker count and any
    OPENBLAS_NUM_THREADS.  A pool of `threads` workers takes the trials
    largest n (or r) first, so the longest trials do not start last, and
    a worker that comes free runs the pending Haar QRs of running trials
    before it starts the next trial.  A config whose trials run the norm
    ascent also logs, at INFO, how many of their restarts stopped without
    converging and how many reached their trial's best value.
    """
    with _one_blas_thread():
        results = _run_trials(cfg, threads)
    ascents = [ascent for _, ascent in results if ascent is not None]
    if ascents:
        _log_ascents(cfg, ascents)
    return [record for record, _ in results]


def _run_trials(cfg: ExperimentConfig, threads: int) -> list:
    """(record, ascent) of every trial, in trial order."""
    runner = _TRIAL_RUNNERS[cfg.experiment]
    points = cfg.r_grid or cfg.n_grid
    specs = list(enumerate(p for p in points for _ in range(cfg.trials)))

    def run(spec, pool=None):
        # keyed on the worker through the module global, so a wrapper of
        # `stream` (perfbench's trial marker) sees each thread's trial; the
        # closed-form sweep draws nothing, and its first Generator would
        # import numpy.random, 5.7 MB of resident memory, into its run
        trial, point = spec
        rng = None if cfg.experiment == "psistar-sweep" else stream(cfg.master_seed, trial)
        token = _TRIAL_POOL.set(pool)
        try:
            return runner(cfg, trial, point, rng)
        finally:
            _TRIAL_POOL.reset(token)

    if threads <= 1:
        return [run(s) for s in specs]
    # sorted is stable, so trials of one n keep their index order
    largest_first = iter(sorted(specs, key=lambda s: -s[1]))
    done = {}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        # at most `threads` trials are queued or running, and the next one
        # is submitted when one ends: a helper task that a trial submits
        # then queues ahead of every trial not yet started, and a trial
        # that cancels a helper leaves it in the queue only until the next
        # worker comes free
        first = itertools.islice(largest_first, threads)
        running = {pool.submit(run, s, pool): s for s in first}
        while running:
            finished, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in finished:
                done[running.pop(future)] = future.result()
                spec = next(largest_first, None)
                if spec is not None:
                    running[pool.submit(run, spec, pool)] = spec
    return [done[s] for s in specs]


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
    return json.dumps([asdict(r) for r in records], indent=2) + "\n"


def emit_results(records: list[ExperimentRecord], fmt: str = "csv") -> str:
    """Render records deterministically; raises on an empty list."""
    if not records:
        raise EmptyResultsError("no records to emit")
    if fmt == "csv":
        return render_csv(records)
    if fmt == "json":
        return render_json(records)
    raise ConfigError(f"format: {fmt!r} not one of csv, json")
