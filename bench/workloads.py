"""The benchmark's workloads, closed loop, traced run and correctness gate.

The library is driven only from outside: public functions in-process,
and ``python -m beliefnet`` as a fresh process.  One caller runs a
closed loop, so the next call starts only after the previous one
returned.  A pass makes every call of the workload once, and the loop
runs whole passes until the next would overrun the time budget.

Workloads, and why each was chosen:

* ``library_queries``: library ``infer`` under AUTO.  On polytrees of 10
  to 1000 nodes, with no, sparse, medium and dense evidence, it picks
  message passing: the sweep and d-separation inside query
  classification do the work.  On grid DAGs from 3x3 to 4x5 plus 3x7,
  with hard evidence on cutset nodes in some queries, it picks cutset
  conditioning: cutset selection (exhaustive up to 20 nodes, greedy on
  3x7) and the per-instantiation sweeps do the work.  Parsing does none.
  Every grid query is also answered by enumeration, timed on its own.
* ``cli_oneshot``: one fresh ``python -m beliefnet query`` process per
  query, on the fixtures, small grids and large polytrees, a fixed share
  of them with ``--trace``.  Interpreter start-up, parsing and
  validation dominate; nothing is reused between queries.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import beliefnet as bn
from beliefnet import cli as bn_cli
from beliefnet import cutset as bn_cutset
from beliefnet import propagation as bn_propagation
from beliefnet import query as bn_query

import corpus
import oracle
from tracing import Tracer

PROB_TOL = 1e-9
# A probability printed with six decimals is within this of the value.
PRINT_TOL = 5e-7 + 1e-12
CHILD_TIMEOUT_S = 120
# A grid query's enumeration repeats in a pass until it has covered about
# this many joint states, at most ENUM_MAX_REPEATS times, because one call
# on a small grid is short and its time varies with what ran before it.
ENUM_STATES_PER_PASS = 1 << 21
ENUM_MAX_REPEATS = 32
SPAWNER = Path(__file__).resolve().parent / "spawner.py"


@dataclass
class Case:
    """One query ready to run."""

    label: str
    net: bn.BayesianNetwork
    query: corpus.QuerySpec
    evidence: bn.Evidence
    argv: list[str] | None = None
    # Grid queries are also answered by enumeration, timed on its own.
    grid: bool = False

    def infer(self) -> bn.InferResult:
        return bn.infer(self.net, self.query.target, self.evidence)

    def enumerate(self) -> np.ndarray:
        return bn.posterior(self.net, self.query.target, self.evidence).probabilities


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Workload:
    """A seeded plan of networks and queries; ``setup`` makes the library
    objects the timed calls use."""

    # Set-ups and fresh-interpreter start-ups per pass; set-ups lowered
    # and start-ups raised where passes are few.
    setups = 2
    startups = 2

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.rng = np.random.default_rng(seed)
        self._spawner: subprocess.Popen | None = None
        self.child_maxrss_kb = 0

    def close(self) -> None:
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait(timeout=CHILD_TIMEOUT_S)
            self._spawner.stdout.close()
            self._spawner = None

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process the workload's calls run in."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def setup(self, tracer: Tracer | None = None) -> list[Case]:
        raise NotImplementedError

    def call(self, case: Case):
        """The timed end-to-end call for one query."""
        return case.infer()

    def startup(self) -> subprocess.CompletedProcess:
        """A fresh interpreter that imports the library and does nothing else."""
        return self._child(["-c", "import beliefnet"])

    def _child(self, args) -> subprocess.CompletedProcess:
        """Run a fresh interpreter through the spawner, started on first use."""
        if self._spawner is None:
            self._spawner = subprocess.Popen(
                [sys.executable, str(SPAWNER), str(CHILD_TIMEOUT_S)], cwd=self.root, env=self.env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        argv = [sys.executable, *args]
        self._spawner.stdin.write(json.dumps(argv) + "\n")
        self._spawner.stdin.flush()
        answer = json.loads(self._spawner.stdout.readline())
        self.child_maxrss_kb = answer["maxrss_kb"]
        if "error" in answer:
            raise RuntimeError(answer["error"])
        return subprocess.CompletedProcess(argv, answer["returncode"], answer["stdout"], answer["stderr"])

    def expected(self, cases, refs) -> list:
        """Per case, what a correct answer must equal, or None if the
        in-process chain behind it is already wrong."""
        return [None] * len(cases)

    @staticmethod
    def answer_ok(case: Case, answer, ref: np.ndarray, expected) -> bool:
        return isinstance(answer, bn.InferResult) and _close(answer.belief.probabilities, ref)


class LibraryQueries(Workload):
    """Library ``infer`` under AUTO on polytrees and on grid DAGs.

    Polytrees of 10 to 1000 nodes take message passing.  Twenty like
    100-node queries, which the sweep dominates, hold the median, so it
    measures a group rather than the gap between two neighbours; the
    heaviest tenth are the 1000-node polytree and the 4x4 to 4x5 grids.

    Grids take cutset conditioning.  Their targets and evidence nodes are
    placed by a generator seeded with the shape, so every seed asks the
    same structural questions, whose cost (instantiations skipped, paths
    d-separation walks) varies by orders of magnitude between placements;
    the seed draws the CPTs, the ternary cells, the observed states and
    the soft weights.
    """

    LEVELS = {"none": 0.0, "sparse": 0.01, "medium": 0.05, "dense": 0.10}
    # (nodes, evidence levels) per polytree.
    GROUPS = (
        [(n, (lv, lv2)) for n, lv, lv2 in zip(
            (10,) * 10 + (13, 17, 22, 28, 36, 46),
            ("none", "sparse", "medium", "dense") * 4,
            ("medium", "dense", "none", "sparse") * 4)]
        + [(100, ("none", "sparse"))] * 10
        + [(200, ("medium", "dense"))] * 6
        + [(300, ("dense",))] * 10
        + [(1000, ("none", "sparse", "dense"))]
    )
    SHAPES = ((3, 3), (3, 4), (4, 4), (3, 5), (3, 6), (4, 5), (3, 7))

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.plan: list[tuple[corpus.NetSpec, list[corpus.QuerySpec]]] = []
        for i, (n, levels) in enumerate(self.GROUPS):
            spec = corpus.polytree(self.rng, n, f"poly{n}_{i}")
            self.plan.append((spec, [
                corpus.query(self.rng, spec.ids, spec.arities, level,
                             corpus.evidence_count(n, self.LEVELS[level]))
                for level in levels]))
        for rows, cols in self.SHAPES:
            spec = corpus.grid(self.rng, rows, cols)
            cut = bn.select_cutset(spec.build()).nodes
            placement = np.random.default_rng([rows, cols])
            q = functools.partial(corpus.query, self.rng, spec.ids, spec.arities,
                                  placement=placement)
            self.plan.append((spec, [
                q("none", 0),
                q("cutset", 3, must_hard=cut[:2], soft_share=0.0),
                q("mixed", rows * cols // 4, must_hard=cut[:1]),
            ]))

    def setup(self, tracer=None):
        cases = []
        for spec, queries in self.plan:
            net = spec.build()
            with _span(tracer, "model.validate"):
                problems = bn.validate(net)
            if problems:
                raise RuntimeError(f"generated network {spec.name} is invalid: {problems[0]}")
            group = spec.name.split("_")[0]
            cases += [Case(f"{group}/{q.level}", net, q, q.evidence(), grid=group.startswith("grid"))
                      for q in queries]
        return cases


class CliOneshot(Workload):
    """One query per network file: the fixtures, two small grids, nine
    150-node, six 500-node and one 1000-node polytree, every fourth query
    with ``--trace``.  The median falls in the middle of the 150-node
    group and the 90th percentile in the 500-node one."""

    GRIDS = ((3, 3), (4, 4))
    POLYTREES = (150,) * 9 + (500,) * 6 + (1000,)
    EVIDENCE_SHARE = 0.02
    TRACE_EVERY = 4
    setups = 1
    startups = 6

    def __init__(self, root, seed):
        super().__init__(root, seed)
        out = root / ".bench_out"
        out.mkdir(exist_ok=True)
        self._dir = tempfile.TemporaryDirectory(prefix="cli-", dir=out)
        self.specs = ([corpus.grid(self.rng, r, c) for r, c in self.GRIDS]
                      + [corpus.polytree(self.rng, n, f"poly{n}_{i}")
                         for i, n in enumerate(self.POLYTREES)])
        self.paths = sorted((root / "fixtures").glob("*.bn"))
        if not self.paths:
            raise FileNotFoundError(f"no fixtures under {root / 'fixtures'}")
        shapes = [(tuple(v.id for v in net.variables), tuple(net.dims))
                  for net in map(bn.load_network, self.paths)]
        for spec in self.specs:
            self.paths.append(Path(self._dir.name) / f"{spec.name}.bn")
            shapes.append((spec.ids, spec.arities))
        self.queries = [
            corpus.query(self.rng, ids, arities, "cli", corpus.evidence_count(len(ids), self.EVIDENCE_SHARE))
            for ids, arities in shapes]

    def close(self):
        super().close()
        self._dir.cleanup()

    def peak_rss_mb(self):
        """The largest child's peak: a query process, since a start-up loads less."""
        return self.child_maxrss_kb / 1024.0

    def setup(self, tracer=None):
        for spec in self.specs:
            (Path(self._dir.name) / f"{spec.name}.bn").write_text(bn.serialize_network(spec.build()))
        cases = []
        for i, (path, q) in enumerate(zip(self.paths, self.queries)):
            text = path.read_text()
            with _span(tracer, "netfile.parse_network"):
                net = bn.parse_network(text)
            if tracer is not None:
                # parse_network validates inside; time the same check on a
                # fresh copy so the parse's own share can be told apart.
                fresh = bn.BayesianNetwork(net.variables, net.cpts, name=net.name)
                with tracer.span("model.validate"):
                    bn.validate(fresh)
            argv = _cli_argv(path, q, net) + (["--trace"] if i % self.TRACE_EVERY == 3 else [])
            label = path.stem.split("_")[0]
            cases.append(Case(label, net, q, q.evidence(), argv, grid=label.startswith("grid")))
        return cases

    def call(self, case):
        return self._child(["-m", "beliefnet", *case.argv])

    def expected(self, cases, refs):
        out = []
        for case, ref in zip(cases, refs):
            belief = case.infer().belief.probabilities
            code, stdout, _ = cli_in_process(_untraced(case.argv))
            printed = _printed_belief(stdout, case.net.var(case.query.target))
            good = (code == 0 and _close(belief, ref) and printed is not None
                    and bool(np.all(np.abs(printed - belief) <= PRINT_TOL)))
            out.append(stdout if good else None)
        return out

    @staticmethod
    def answer_ok(case, answer, ref, expected):
        return (isinstance(answer, subprocess.CompletedProcess) and answer.returncode == 0
                and expected is not None and answer.stdout == expected)


WORKLOADS = {"library_queries": LibraryQueries, "cli_oneshot": CliOneshot}


def _cli_argv(path: Path, q: corpus.QuerySpec, net: bn.BayesianNetwork) -> list[str]:
    argv = ["query", str(path), "--target", q.target]
    if q.hard:
        argv += ["--evidence", ",".join(f"{v}={net.var(v).states[s]}" for v, s in q.hard)]
    if q.soft:
        argv += ["--soft", ",".join(f"{v}=" + ":".join(repr(w) for w in ws) for v, ws in q.soft)]
    return argv


def _untraced(argv: list[str]) -> list[str]:
    return [a for a in argv if a != "--trace"]


def cli_in_process(argv: list[str]) -> tuple[int, str, str]:
    """Run the command line front end in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = bn_cli.run(argv)
    return code, out.getvalue(), err.getvalue()


_PROB_LINE = re.compile(r"P\((?P<var>[^=]+)=(?P<state>[^)]+)\) = (?P<p>\S+)")


def _printed_belief(stdout: str, var: bn.Variable) -> np.ndarray | None:
    """The probabilities a ``query`` printed, in state order, or None."""
    found = {}
    for line in stdout.splitlines():
        m = _PROB_LINE.fullmatch(line)
        if m and m["var"] == var.id and m["state"] in var.states:
            found[var.states.index(m["state"])] = float(m["p"])
    if sorted(found) != list(range(var.arity)):
        return None
    return np.array([found[i] for i in range(var.arity)])


def _close(answer: np.ndarray, ref: np.ndarray) -> bool:
    return answer.shape == ref.shape and bool(np.max(np.abs(answer - ref)) <= PROB_TOL)


# -- closed loop -------------------------------------------------------------


def closed_loop(calls, seconds: float, rng) -> list[list[tuple[str, int, int, object]]]:
    """Run whole passes over ``calls`` until the next would overrun.

    ``calls`` holds (kind, case index, function); each pass makes them in
    a fresh order drawn from ``rng``, so a slow spell of the machine is
    not always met by the same queries.  Returns one list per pass with
    one entry per call: kind, case index, duration in ns, and the answer
    or the exception the call raised.
    """
    passes = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        log = []
        for k in rng.permutation(len(calls)):
            kind, idx, fn = calls[k]
            t0 = time.perf_counter_ns()
            try:
                answer = fn()
            except Exception as exc:  # a failed call is counted, not fatal
                answer = exc
            log.append((kind, idx, time.perf_counter_ns() - t0, answer))
        passes.append(log)
        now = time.perf_counter()
        if (now - start) + (now - begun) > seconds:
            return passes


def timed_calls(wl: Workload, cases: list[Case]) -> list:
    """One pass: every query, the enumeration of every grid query, and
    set-ups and fresh-interpreter start-ups spread among them.

    A set-up in the loop answers with the number of cases it made, so
    what it built is freed at once, inside its timing, rather than held
    by the log for the rest of the run.
    """
    calls = []
    for i, case in enumerate(cases):
        for kind, per_pass, fn in (("setup", wl.setups, lambda: len(wl.setup())),
                                   ("startup", wl.startups, wl.startup)):
            if i * per_pass // len(cases) != (i - 1) * per_pass // len(cases):
                calls.append((kind, -1, fn))
        calls.append(("query", i, lambda c=case: wl.call(c)))
        if case.grid:
            repeats = ENUM_STATES_PER_PASS // case.net.joint_state_count
            calls += [("enum", i, case.enumerate)] * min(max(repeats, 1), ENUM_MAX_REPEATS)
    return calls


def count_failures(wl: Workload, cases, log, refs, expected) -> int:
    """Calls in ``log`` that raised, exited non-zero or answered wrongly."""
    failed = 0
    for kind, idx, _, answer in log:
        if kind == "setup":
            ok = answer == len(cases)
        elif kind == "startup":
            ok = isinstance(answer, subprocess.CompletedProcess) and answer.returncode == 0
        elif kind == "enum":
            ok = isinstance(answer, np.ndarray) and _close(answer, refs[idx])
        else:
            ok = wl.answer_ok(cases[idx], answer, refs[idx], expected[idx])
        failed += not ok
    return failed


def _quantile(values, q: float) -> float:
    """Linear interpolation between order statistics (numpy's default)."""
    return float(np.quantile(np.asarray(values, dtype=float), q))


def _median_per_case(log, kind: str) -> list[float]:
    """Each case's median duration in ms over the passes, for one kind."""
    ns = defaultdict(list)
    for k, idx, d, _ in log:
        if k == kind:
            ns[idx].append(d)
    return [statistics.median(v) / 1e6 for v in ns.values()]


def measure(wl: Workload, seconds: float) -> tuple[dict, int, int, dict]:
    """The untraced run: end-to-end metrics, attempted, failed, facts.

    Latency percentiles are taken over each query's median across the
    passes and throughput is the median pass's, so a slow spell of the
    host that covers a few passes moves neither.  Set-up runs once before
    the loop and again inside every pass, so its median, too, spans the
    whole run; the cases of the first set-up serve every call.
    """
    t0 = time.perf_counter_ns()
    cases = wl.setup()
    setup_ns = [time.perf_counter_ns() - t0]
    passes = closed_loop(timed_calls(wl, cases), seconds, wl.rng)
    rss = wl.peak_rss_mb()

    log = [entry for p in passes for entry in p]
    refs = [oracle.reference_posterior(c.net, c.query.target, c.evidence) for c in cases]
    failed = count_failures(wl, cases, log, refs, wl.expected(cases, refs))
    query_ms = _median_per_case(log, "query")
    pass_s = [sum(d for k, _, d, _ in p if k == "query") / 1e9 for p in passes]
    setup_ns += [d for k, _, d, _ in log if k == "setup"]
    metrics = {
        "query_p50_ms": _quantile(query_ms, 0.5),
        "query_p90_ms": _quantile(query_ms, 0.9),
        "queries_per_s": statistics.median(len(cases) / s for s in pass_s),
        "enum_query_p50_ms": _quantile(_median_per_case(log, "enum"), 0.5),
        "startup_ms": statistics.median(d for k, _, d, _ in log if k == "startup") / 1e6,
        "correct_frac": 1.0 - failed / len(log),
        "setup_s": statistics.median(setup_ns) / 1e9,
        "peak_rss_mb": rss,
    }
    print(grid_report(cases, log), file=sys.stderr)
    facts = {"passes": len(passes), "queries": len(cases), "setup_repeats": len(setup_ns),
             "calls": len(log)}
    return metrics, len(log), failed, facts


def grid_report(cases: list[Case], log) -> str:
    """Per grid shape: the median query against the median enumeration."""
    ms = defaultdict(lambda: defaultdict(list))
    for kind in ("query", "enum"):
        ns = defaultdict(list)
        for k, idx, d, _ in log:
            if k == kind and cases[idx].grid:
                ns[idx].append(d)
        for idx, ds in ns.items():
            ms[cases[idx].label.split("/")[0]][kind].append(statistics.median(ds) / 1e6)
    lines = ["grid queries per shape: median ms of the query, then of enumeration"]
    for shape, by_kind in ms.items():
        lines.append(f"  {shape:<10} query {statistics.median(by_kind['query']):9.2f}"
                     f"  enumeration {statistics.median(by_kind['enum']):9.2f}")
    return "\n".join(lines)


# -- traced run --------------------------------------------------------------


def _count_messages(tr: Tracer, store) -> None:
    tr.count("propagation.messages", len(store.trace))


def _count_cutset(tr: Tracer, run) -> None:
    tr.count("cutset.queries")
    tr.count("cutset.size", len(run.cutset))
    tr.count("cutset.instantiations", run.instantiation_count)
    tr.count("cutset.zero_weight", sum(w == 0 for w in run.weights.values()))
    tr.count("propagation.messages", sum(len(t) for t in run.traces.values()))


def _count_dsep(tr: Tracer, verdict) -> None:
    tr.count("structure.dsep_calls")
    tr.count("structure.dsep_paths", len(verdict.blocks) if verdict else 1)


# The library functions ``infer`` reaches, by the module attribute its
# callers look up at call time: (module, attribute, span, counter).
# ``query.infer`` calls is_polytree, propagation.propagate,
# cutset.conditioned_posterior and classify_query; conditioning calls
# select_cutset and run_cutset_conditioning, classification d_separated.
PROBED = (
    (bn_query, "is_polytree", "structure.is_polytree", None),
    (bn_propagation, "propagate", "propagation.propagate", _count_messages),
    (bn_cutset, "run_cutset_conditioning", "cutset.run_cutset_conditioning", _count_cutset),
    (bn_cutset, "select_cutset", "structure.select_cutset", None),
    (bn_query, "classify_query", "query.classify_query", None),
    (bn_query, "d_separated", "structure.d_separated", _count_dsep),
)
QUERY_TREE = tuple(span for _, _, span, _ in PROBED)


class Instrumented:
    """While entered, each function in PROBED records a span around every
    call and counts from its result; leaving restores the originals.  A
    name a module no longer has is skipped, and its layer reads 0."""

    def __init__(self, tr: Tracer):
        self.swaps = []
        for module, name, span, counter in PROBED:
            if hasattr(module, name):
                real = getattr(module, name)
                self.swaps.append((module, name, real, self._wrap(tr, real, span, counter)))

    @staticmethod
    def _wrap(tr, fn, span, counter):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            with tr.span(span):
                out = fn(*args, **kwargs)
            if counter is not None:
                counter(tr, out)
            return out
        return probed

    def __enter__(self):
        for module, name, _, probed in self.swaps:
            setattr(module, name, probed)

    def __exit__(self, *exc):
        for module, name, real, _ in self.swaps:
            setattr(module, name, real)


def _probes(tr: Tracer, case: Case, ref: np.ndarray, sweep: dict | None) -> list[bool]:
    """Layer calls timed on their own, each as a root span; returns
    whether each answered correctly.  ``sweep`` is the cutset
    instantiation to weigh, None on a polytree."""
    ok = []
    if case.grid:
        with tr.span("enumeration.posterior"):
            ok.append(_close(case.enumerate(), ref))
        tr.count("enumeration.joint_states", case.net.joint_state_count)
    if sweep is not None:
        with tr.span("cutset.instantiation_weight"):
            ok.append(bn.instantiation_weight(case.net, sweep, case.evidence) > 0)
    if case.argv is not None:
        with tr.span("cli.run"):
            code, stdout, _ = cli_in_process(_untraced(case.argv))
        with tr.span("cli.run_trace"):
            tcode, tstdout, _ = cli_in_process(_untraced(case.argv) + ["--trace"])
        ok.append(code == 0 and tcode == 0 and stdout == tstdout)
    return ok


def traced(wl: Workload, seconds: float, out_path: Path) -> tuple[dict, int, int, dict]:
    """The traced run: per-layer metrics, attempted, failed, facts.

    Each query is answered twice per pass, by a plain ``infer`` call and
    by the same call under a ``query.infer`` root span with the library
    functions it reaches instrumented; the difference is the tracing
    overhead.
    """
    tr = Tracer()
    cases = wl.setup(tr)
    # One sweep per loopy query: the cutset instantiation that agrees with
    # the evidence.
    sweeps = [None if bn.is_polytree(c.net)
              else {v: c.evidence.hard_state(v) or 0 for v in bn.select_cutset(c.net)}
              for c in cases]
    refs = [oracle.reference_posterior(c.net, c.query.target, c.evidence) for c in cases]
    instrumented = Instrumented(tr)

    def traced_infer(i):
        tr.query = cases[i].label
        with instrumented, tr.span("query.infer"):
            result = cases[i].infer()
        return result, _probes(tr, cases[i], refs[i], sweeps[i])

    calls = []
    for i, case in enumerate(cases):
        case.infer()  # warm lazily built network state before either side is timed
        calls += [("plain", i, case.infer), ("traced", i, functools.partial(traced_infer, i))]
    log = [entry for p in closed_loop(calls, seconds, wl.rng) for entry in p]

    plain_ns, checks = [], []
    for kind, i, ns, answer in log:
        if isinstance(answer, Exception):
            checks.append(False)
        elif kind == "plain":
            plain_ns.append(ns)
            checks.append(_close(answer.belief.probabilities, refs[i]))
        else:
            result, probes = answer
            checks += [_close(result.belief.probabilities, refs[i]), *probes]

    metrics = layer_metrics(tr, statistics.fmean(plain_ns) / 1e6)
    out_path.parent.mkdir(exist_ok=True)
    tr.write(out_path)
    print(split_report(tr), file=sys.stderr)
    facts = {"passes": len(log) // len(calls), "queries": len(cases), "spans": len(tr.spans),
             "spans_file": str(out_path)}
    return metrics, len(checks), checks.count(False), facts


def _by_name(tr: Tracer) -> tuple[dict, dict]:
    own = tr.self_times_ns()
    dur, self_ = defaultdict(list), defaultdict(int)
    for s, o in zip(tr.spans, own):
        dur[s["name"]].append(s["end_ns"] - s["start_ns"])
        self_[s["name"]] += o
    return dur, self_


def layer_metrics(tr: Tracer, untraced_infer_ms: float) -> dict:
    """Per-layer metrics from the spans and counts of a traced run.

    Layer times below ``query.infer`` are self times per traced query, so
    they add up to ``query.infer_ms`` together with
    ``query.unattributed_ms``, the root's own time.  Probe times are per
    call; parse and validate are per network loaded.
    """
    dur, own = _by_name(tr)
    c = tr.counts
    n = len(dur["query.infer"])

    def per_query(ns):
        return ns / n / 1e6

    def mean_ms(name):
        xs = dur[name]
        return sum(xs) / len(xs) / 1e6 if xs else 0.0

    def ratio(a, b):
        return c[a] / c[b] if c[b] else 0.0

    infer_ms = per_query(sum(dur["query.infer"]))
    parses = len(dur["netfile.parse_network"])
    return {
        "netfile.parse_ms": (sum(dur["netfile.parse_network"]) - sum(dur["model.validate"])) / parses / 1e6
        if parses else 0.0,
        "model.validate_ms": mean_ms("model.validate"),
        "structure.is_polytree_ms": per_query(own["structure.is_polytree"]),
        "structure.select_cutset_ms": per_query(own["structure.select_cutset"]),
        "structure.d_separated_ms": per_query(own["structure.d_separated"]),
        "structure.dsep_calls": c["structure.dsep_calls"] / n,
        "structure.dsep_paths": c["structure.dsep_paths"] / n,
        "query.classify_query_ms": per_query(own["query.classify_query"]),
        "propagation.propagate_ms": per_query(own["propagation.propagate"]),
        "propagation.messages": c["propagation.messages"] / n,
        "cutset.conditioning_self_ms": per_query(own["cutset.run_cutset_conditioning"]),
        "cutset.sweep_ms": mean_ms("cutset.instantiation_weight"),
        "cutset.size": ratio("cutset.size", "cutset.queries"),
        "cutset.instantiations": ratio("cutset.instantiations", "cutset.queries"),
        "cutset.zero_weight_frac": ratio("cutset.zero_weight", "cutset.instantiations"),
        "enumeration.posterior_ms": mean_ms("enumeration.posterior"),
        "enumeration.joint_states": c["enumeration.joint_states"] / len(dur["enumeration.posterior"])
        if dur["enumeration.posterior"] else 0.0,
        "cli.run_ms": mean_ms("cli.run"),
        "cli.trace_extra_ms": mean_ms("cli.run_trace") - mean_ms("cli.run") if dur["cli.run"] else 0.0,
        "query.infer_ms": infer_ms,
        "query.unattributed_ms": per_query(own["query.infer"]),
        "trace.overhead_frac": infer_ms / untraced_infer_ms - 1.0,
    }


def split_report(tr: Tracer) -> str:
    """Per query group: traced infer time and each layer's share of it.

    ``query.classify_query`` is shown with its d_separated calls included.
    """
    own = tr.self_times_ns()
    groups: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    roots: dict[str, int] = defaultdict(int)
    for s, o in zip(tr.spans, own):
        g = groups[s["query"]]
        if s["name"] == "query.infer":
            roots[s["query"]] += 1
            g["unattributed"] += o
        elif s["name"] == "structure.d_separated":
            g["query.classify_query"] += o
        elif s["name"] in QUERY_TREE:
            g[s["name"]] += o
    lines = ["traced split per query group: ms per query, then each layer's share"]
    for label, parts in groups.items():
        if not roots[label]:
            continue
        total = sum(parts.values())
        shares = sorted(parts.items(), key=lambda kv: -kv[1])
        lines.append(f"  {label:<22} {total / roots[label] / 1e6:9.2f} ms  " + "  ".join(
            f"{name} {100 * ns / total:.0f}%" for name, ns in shares if ns > 0.01 * total))
    return "\n".join(lines)
