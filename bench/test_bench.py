"""Tests for the benchmark's own code: generators, oracle, gate, spans and
the printed result.  Run with ``python -m pytest bench`` from the root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import beliefnet as bn
import corpus
import oracle
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_networks_are_valid_dags_within_the_guard(seed):
    rng = np.random.default_rng(seed)
    for n in sorted({n for n, _ in workloads.LibraryQueries.GROUPS}):
        net = corpus.polytree(rng, n, f"poly{n}").build()
        assert net.topological_order() is not None
        assert bn.is_polytree(net)
        assert bn.validate(net) == []
        assert all(np.all(c.table > 0) for c in net.cpts)
        assert max(len(c.parents) for c in net.cpts) <= corpus.MAX_PARENTS
    for rows, cols in workloads.LibraryQueries.SHAPES:
        net = corpus.grid(rng, rows, cols).build()
        assert net.topological_order() is not None
        assert not bn.is_polytree(net)
        assert bn.validate(net) == []
        assert net.joint_state_count <= bn.MAX_JOINT_STATES
        assert all(np.all(c.table > 0) for c in net.cpts)


def test_same_seed_same_corpus():
    a = workloads.LibraryQueries(ROOT, 7)
    b = workloads.LibraryQueries(ROOT, 7)
    for (sa, qa), (sb, qb) in zip(a.plan, b.plan):
        assert sa.parents == sb.parents and sa.arities == sb.arities
        assert all(np.array_equal(x, y) for x, y in zip(sa.tables, sb.tables))
        assert qa == qb


def test_grid_cutset_queries_put_hard_evidence_on_cutset_nodes():
    wl = workloads.LibraryQueries(ROOT, 3)
    for spec, queries in wl.plan[len(wl.GROUPS):]:
        cut = set(bn.select_cutset(spec.build()).nodes)
        assert cut & {v for v, _ in queries[1].hard}


def test_variable_elimination_matches_enumeration():
    rng = np.random.default_rng(11)
    specs = [corpus.polytree(rng, n, "p") for n in (5, 8, 12)] + [corpus.grid(rng, 3, 4)]
    for spec in specs:
        net = spec.build()
        for count in (0, 2, 4):
            q = corpus.query(rng, spec.ids, spec.arities, "x", count)
            e = q.evidence()
            got = oracle.variable_elimination(net, q.target, e)
            want = bn.posterior(net, q.target, e).probabilities
            assert np.max(np.abs(got - want)) < 1e-12


def test_tracer_self_times_subtract_direct_children():
    tr = Tracer()
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("b"):
                pass
        with tr.span("c"):
            pass
    own = tr.self_times_ns()
    dur = [s["end_ns"] - s["start_ns"] for s in tr.spans]
    assert [s["parent"] for s in tr.spans] == [None, 0, 1, 0]
    assert own[0] == dur[0] - dur[1] - dur[3]
    assert own[1] == dur[1] - dur[2]
    assert sum(own) == dur[0]


def test_instrumented_infer_records_the_calls_it_makes_and_restores_them():
    from beliefnet import cutset, query

    wl = workloads.LibraryQueries(ROOT, 4)
    case = next(c for c in wl.setup() if c.grid and not c.evidence.is_empty())
    real = (query.is_polytree, query.d_separated, cutset.select_cutset)
    tr = Tracer()
    with workloads.Instrumented(tr), tr.span("query.infer"):
        result = case.infer()
    assert (query.is_polytree, query.d_separated, cutset.select_cutset) == real
    names = [s["name"] for s in tr.spans]
    parent = {s["name"]: names[s["parent"]] for s in tr.spans if s["parent"] is not None}
    assert parent["structure.select_cutset"] == "cutset.run_cutset_conditioning"
    assert parent["cutset.run_cutset_conditioning"] == "query.infer"
    assert parent["structure.d_separated"] == "query.classify_query"
    assert names.count("structure.select_cutset") == 1
    assert tr.counts["structure.dsep_calls"] == names.count("structure.d_separated")
    assert tr.counts["cutset.queries"] == 1
    assert result.classification == bn.classify_query(case.net, case.query.target, case.evidence)
    metrics = workloads.layer_metrics(tr, untraced_infer_ms=1.0)
    parts = ("structure.is_polytree_ms", "structure.select_cutset_ms", "structure.d_separated_ms",
             "query.classify_query_ms", "propagation.propagate_ms",
             "cutset.conditioning_self_ms", "query.unattributed_ms")
    assert all(metrics[k] >= 0 for k in parts)
    assert sum(metrics[k] for k in parts) == pytest.approx(metrics["query.infer_ms"])


def test_enumeration_is_timed_on_every_grid_query_and_nothing_else():
    wl = workloads.LibraryQueries(ROOT, 6)
    cases = wl.setup()
    calls = workloads.timed_calls(wl, cases)
    enumerated = [i for kind, i, _ in calls if kind == "enum"]
    assert sorted(set(enumerated)) == [i for i, c in enumerate(cases) if c.grid]
    assert len(set(enumerated)) == 3 * len(wl.SHAPES)
    assert max(map(enumerated.count, enumerated)) == workloads.ENUM_MAX_REPEATS
    assert sum(kind == "setup" for kind, _, _ in calls) == wl.setups


def test_injected_wrong_answer_is_counted_as_failed(monkeypatch):
    wl = workloads.LibraryQueries(ROOT, 5)
    spec, queries = wl.plan[3]
    victim = queries[1].target
    hits = sum(q.target == victim for q in queries)
    real = bn.infer

    def wrong(net, target, e=bn.Evidence.empty(), method=bn.Method.AUTO):
        res = real(net, target, e, method)
        if (net.name, target) != (spec.name, victim):
            return res
        p = res.belief.probabilities.copy()
        p[0] += 1e-6
        return bn.InferResult(bn.Belief(target, p / p.sum()), res.method, res.classification)

    monkeypatch.setattr(bn, "infer", wrong)
    try:
        metrics, attempted, failed, facts = workloads.measure(wl, seconds=0)
    finally:
        wl.close()
    assert failed == hits * facts["passes"]
    assert metrics["correct_frac"] == pytest.approx(1 - failed / attempted)


def test_cli_stdout_must_match_in_process_answer():
    wl = workloads.CliOneshot(ROOT, 2)
    try:
        cases = wl.setup()[:3]
        refs = [oracle.reference_posterior(c.net, c.query.target, c.evidence) for c in cases]
        expected = wl.expected(cases, refs)
        assert all(e is not None for e in expected)
        good = wl.call(cases[0])
        assert wl.answer_ok(cases[0], good, refs[0], expected[0])
        bad = subprocess.CompletedProcess(good.args, 0, good.stdout.replace("0", "1", 1), "")
        assert not wl.answer_ok(cases[0], bad, refs[0], expected[0])
        failed = subprocess.CompletedProcess(good.args, 1, good.stdout, "")
        assert not wl.answer_ok(cases[0], failed, refs[0], expected[0])
    finally:
        wl.close()


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(workload, trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "library_queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
