"""Outside-in tracer for the channel_limits package.

`Tracer.install` replaces each entry of WRAPPED at the name where the
package looks it up: a module attribute for functions imported by name
(experiments and geometry bind `norm_ascent`, `hermitian_eigs` and
others at import time), a class attribute for methods.  Every call then
records one span:

    (id, parent id, group, name, thread, trial, start, end, attrs)

Each thread keeps its own span stack, so calls from a trial pool nest
per thread.  The trial index is the `stream_index` of the last
`stream(master_seed, trial)` call made by experiments on that thread.
Spans stay in memory until `dump` writes them once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time


def _eig_attrs(fn, args, kwargs, result):
    return {"n": len(args[0]), "top": float(result[0][0])}


def _eigenvalues_attrs(fn, args, kwargs, result):
    return {"n": len(args[0]), "top": float(result[0])}


def _state_attrs(fn, args, kwargs, result):
    return {"dim": int(args[0])}


def _ascent_attrs(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return {
        "restarts": bound.arguments["restarts"],
        "iter_cap": bound.arguments["iter_cap"],
        "output_dim": bound.arguments["channel"].output_dim,
        "value": float(result.value),
    }


def _sup_attrs(fn, args, kwargs, result):
    return {
        "evaluated": len(result.evaluations),
        "valid": sum(1 for ev in result.evaluations if ev.valid),
    }


# (group, module, attribute, attrs); "Class.method" names patch the class
WRAPPED = (
    ("config.load", "channel_limits.cli", "load_config", None),
    ("experiments.run", "channel_limits.cli", "run_experiment", None),
    ("experiments.emit", "channel_limits.cli", "emit_results", None),
    ("ensembles.haar", "channel_limits.ensembles", "haar_unitary", None),
    ("ensembles.haar", "channel_limits.ensembles", "haar_isometry", None),
    ("ensembles.state", "channel_limits.experiments", "sample_pure_state", _state_attrs),
    ("ensembles.state", "channel_limits.geometry", "sample_pure_state", _state_attrs),
    ("channels.build", "channel_limits.channels", "StinespringChannel.__init__", None),
    ("channels.build", "channel_limits.channels", "MixedUnitaryChannel.__init__", None),
    ("channels.lift", "channel_limits.channels", "Channel.adjoint", None),
    ("channels.lift", "channel_limits.channels", "StinespringChannel.adjoint_rank_one", None),
    ("channels.apply", "channel_limits.channels", "Channel.apply", None),
    ("channels.apply", "channel_limits.channels", "StinespringChannel.apply_pure", None),
    ("linalg.eig", "channel_limits.geometry", "hermitian_eigs", _eig_attrs),
    ("linalg.eig", "channel_limits.geometry", "hermitian_eigenvalues", _eigenvalues_attrs),
    ("linalg.entropy", "channel_limits.geometry", "von_neumann_entropy", None),
    ("geometry.ascent", "channel_limits.experiments", "norm_ascent", _ascent_attrs),
    ("geometry.probe", "channel_limits.experiments", "probe_top_eigenvalues", None),
    ("geometry.smin", "channel_limits.experiments", "estimate_smin", None),
    ("oracles.sup", "channel_limits.experiments", "sphere_sup", _sup_attrs),
    ("oracles.target", "channel_limits.experiments", "stinespring_peak_eigenvalue", None),
    ("oracles.target", "channel_limits.experiments", "rank_one_limit", None),
)

TRIAL_MARKER = ("channel_limits.experiments", "stream")

_RAISED = object()


def span_name(module: str, attribute: str) -> str:
    """Span name of a wrapped entry: its lookup site."""
    return f"{module.rsplit('.', 1)[-1]}:{attribute}"


class Tracer:
    """Records spans from every thread into one in-memory list."""

    def __init__(self):
        # next() on a count and list.append are each one step under the
        # GIL, so threads share them without a lock
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.trial = None
        return local

    def wrap(self, group: str, name: str, fn, attrs=None):
        """Return `fn` wrapped so that each call records one span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            span_id = next(tracer._ids)
            parent = local.stack[-1] if local.stack else None
            trial = local.trial
            local.stack.append(span_id)
            start = time.monotonic()
            result = _RAISED
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                local.stack.pop()
                extra = None
                if attrs is not None and result is not _RAISED:
                    extra = attrs(fn, args, kwargs, result)
                tracer.spans.append(
                    (span_id, parent, group, name, threading.get_ident(),
                     trial, start, end, extra)
                )

        return traced

    def mark_trial(self, fn):
        """Wrap `stream(master_seed, stream_index)` to set this thread's trial."""
        tracer = self

        @functools.wraps(fn)
        def marked(master_seed, stream_index=0):
            tracer._state().trial = stream_index
            return fn(master_seed, stream_index)

        return marked

    def install(self) -> None:
        """Patch every WRAPPED entry and the trial marker in place."""
        for group, module, attribute, attrs in WRAPPED:
            owner = importlib.import_module(module)
            *cls, fname = attribute.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                fn = owner.__dict__[fname]  # KeyError: method moved or renamed
            else:
                fn = getattr(owner, fname)
            setattr(owner, fname, self.wrap(group, span_name(module, attribute), fn, attrs))
        module, fname = TRIAL_MARKER
        owner = importlib.import_module(module)
        setattr(owner, fname, self.mark_trial(getattr(owner, fname)))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([list(span) for span in self.spans], handle)
