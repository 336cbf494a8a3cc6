"""Tests of the benchmark itself: tracer, layer metrics, checks and entry point.

    python3 -m pytest perfbench/tests -q
"""

import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import run
from checks import Checker
from layers import build, layer_metrics
from tracer import WRAPPED, Tracer, span_name
from workloads import WORKLOADS, render

ALL = tuple(WORKLOADS)

# which workload exercises each wrapped name, after the per-layer table
EXERCISED_BY = {
    "cli:load_config": ALL,
    "cli:run_experiment": ALL,
    "cli:emit_results": ALL,
    "ensembles:haar_unitary": ("spectral-unitary",),
    "ensembles:haar_isometry": ("ascent-isometry", "cloud-apply"),
    "experiments:sample_pure_state": ("cloud-apply",),
    "geometry:sample_pure_state": ("ascent-isometry", "cloud-apply"),
    "channels:StinespringChannel.__init__": ("ascent-isometry", "cloud-apply"),
    "channels:MixedUnitaryChannel.__init__": ("spectral-unitary",),
    "channels:Channel.adjoint": ("spectral-unitary",),
    "channels:StinespringChannel.adjoint_rank_one": ("ascent-isometry", "cloud-apply"),
    "channels:Channel.apply": ("cloud-apply",),
    "channels:StinespringChannel.apply_pure": ("ascent-isometry", "cloud-apply"),
    "geometry:hermitian_eigs": ("ascent-isometry", "cloud-apply"),
    "geometry:hermitian_eigenvalues": ("spectral-unitary",),
    "geometry:von_neumann_entropy": ("cloud-apply",),
    "experiments:norm_ascent": ("ascent-isometry", "cloud-apply"),
    "experiments:probe_top_eigenvalues": ("spectral-unitary",),
    "experiments:estimate_smin": ("cloud-apply",),
    "experiments:sphere_sup": ("oracle-sweep",),
    "experiments:stinespring_peak_eigenvalue": ("ascent-isometry", "cloud-apply"),
    "experiments:rank_one_limit": ("spectral-unitary",),
}

# the same code paths as each workload at a fraction of its size
SMALL = {
    "ascent-isometry": {"nGrid": "40", "restarts": "2", "iterCap": "10"},
    "spectral-unitary": {"nGrid": "20, 40", "trials": "2"},
    "cloud-apply": {"nGrid": "20", "samples": "20", "iterCap": "5"},
    "oracle-sweep": {"k": "8", "rGrid": "0.01, 0.3"},
}


def test_every_wrapped_name_has_an_exercising_workload():
    assert {span_name(m, a) for _, m, a, _ in WRAPPED} == set(EXERCISED_BY)


@pytest.mark.parametrize("workload", ALL)
def test_traced_run_keeps_csv_bytes_and_records_every_name(workload, tmp_path):
    config = {**WORKLOADS[workload].config(7), **SMALL[workload]}
    path = tmp_path / "small.cfg"
    path.write_text(render(config))
    threads = WORKLOADS[workload].threads
    plain = run.spawn(tmp_path, path, threads, 0, traced=False)
    traced = run.spawn(tmp_path, path, threads, 1, traced=True)
    assert plain.code == traced.code == 0
    assert plain.csv and traced.csv == plain.csv

    names = {span[3] for span in traced.spans}
    for name, workloads in EXERCISED_BY.items():
        if workload in workloads:
            assert name in names, f"{name} recorded no call on {workload}"
    if workload != "oracle-sweep":
        haar_trials = {s[5] for s in traced.spans if s[2] == "ensembles.haar"}
        assert haar_trials == set(range(plain.records))
    assert 0 < layer_metrics(traced.spans)["trace.coverage"] <= threads


def test_tracer_nests_spans_per_thread():
    tracer = Tracer()
    inner = tracer.wrap("g.inner", "inner", lambda: None)

    def outer_body():
        for _ in range(50):
            inner()

    outer = tracer.wrap("g.outer", "outer", outer_body)
    stream = tracer.mark_trial(lambda seed, index=0: index)

    def worker(trial):
        stream(0, trial)
        for _ in range(20):
            outer()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)

    spans = build(tracer.spans)
    assert len(spans) == 8 * 20 * 51
    assert len({s.id for s in spans}) == len(spans)
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.group == "g.inner":
            parent = by_id[s.parent]
            assert parent.group == "g.outer"
            assert (parent.thread, parent.trial) == (s.thread, s.trial)
            assert parent.start <= s.start <= s.end <= parent.end
        else:
            assert s.parent is None and len(s.children) == 50


def test_self_time_subtracts_covered_child_time():
    rows = [
        (0, None, "a.x", "x", 1, None, 0.0, 10.0, None),
        (1, 0, "b.y", "y", 1, None, 1.0, 3.0, None),
        (2, 0, "b.y", "y", 1, None, 2.0, 4.0, None),
        (3, 0, "b.y", "y", 1, None, 8.0, 12.0, None),
    ]
    assert build(rows)[0].self_time == pytest.approx(5.0)


def test_ascent_metrics_from_spans():
    ascent = {"restarts": 1, "iter_cap": 3, "output_dim": 2, "value": 0.7}
    rows = [(0, None, "experiments.run", "run", 1, None, 0.0, 100.0, None),
            (1, 0, "geometry.ascent", "ascent", 1, 0, 1.0, 99.0, ascent),
            (2, 1, "ensembles.state", "state", 1, 0, 2.0, 3.0, {"dim": 2})]
    t = 4.0
    for value in (0.5, 0.7, 0.7):
        for group, attrs in (("channels.lift", None), ("linalg.eig", {"n": 5, "top": 9.0}),
                             ("channels.apply", None), ("linalg.eig", {"n": 2, "top": value})):
            rows.append((len(rows), 1, group, group, 1, 0, t, t + 1.0, attrs))
            t += 2.0
    m = layer_metrics(rows)
    assert m["geometry.ascent_restarts"] == 1
    assert m["geometry.ascent_steps"] == 3
    assert m["geometry.ascent_capped_ratio"] == 1.0
    assert m["geometry.ascent_useful_step_ratio"] == pytest.approx(2 / 3)
    assert m["linalg.eig_calls"] == 6
    assert m["linalg.eig_work_n3"] == 3 * 125 + 3 * 8
    assert m["experiments.run_s"] == 100.0


def test_checker_flags_wrong_cloud_output():
    config = WORKLOADS["cloud-apply"].config(1)
    checker = Checker("cloud-apply", config)
    header = "experiment,trial,seed,n,k,probe,value1,value2,value3,target,error\n"
    good = "output-cloud,0,1,200,2,cloud,0.1,0.5931471805599453,0.95,0.1,0.0\n"
    assert checker.check(header + good).failed == set()
    assert checker.check(header + good.replace(",0.1,0.59", ",0.8,0.59")).failed == {0}
    assert checker.check(header + good.replace("0.95", "nan")).failed == {0}
    assert checker.check(header + good + good).failed == {0}
    assert checker.check("").failed == {0}


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cloud-apply", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
