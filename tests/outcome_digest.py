"""Hash what the library answers, family by family, to show that a change
keeps every bit of every outcome.

Usage::

    python tests/outcome_digest.py <checkout>/src

The library is imported from the given ``src``; the inputs come from this
checkout, read only: seeds 9-11 of the benchmark's ``library_queries``
(``bench/workloads.py``), and every file in ``fixtures/`` with empty
evidence and with each single hard finding.  Queries run on every target
under every method.  Outside queries, ``dsep`` holds ``d_separated``'s
verdicts and active paths on every ordered pair of fixture nodes, and of
ten 12-node ``netgen.random_loopy`` networks under one hard and one soft
finding; ``connections`` ``classify_connection`` on every ordered triple
of each fixture's ids and one unknown id, and of ``loopy8.bn`` with a
self-loop, a 2-cycle or a repeated parent added; ``structure`` the
``is_polytree`` witnesses, ``select_cutset`` and ``instantiation_weight``
of every cutset instantiation, on the fixtures and the benchmark's
networks, and the witnesses and cutsets of those three variants and of
``random_loopy`` networks of 25 and 40 nodes, seeds 0-99 each;
``enumeration`` ``marginal_joint`` of every ordered pair,
``most_probable_assignment``, ``evidence_probability`` and
``serialize_network`` on every fixture, and on every benchmark grid query
``evidence_probability``, ``most_probable_assignment`` and the SHA-256 of
``weighted_joint``'s bytes; and ``cli_tools`` the ``dsep``,
``cutset``, ``validate`` and ``joint`` commands on every fixture.  One line
per family gives how many outcomes it hashed and their SHA-256, so two
checkouts answer alike when ``diff`` of their outputs is empty.
``misuse`` holds the outcomes of calls that pass the wrong kind of
argument: evidence that is not an ``Evidence``, and a message store of
another network.  The file name does not match ``test_*.py``, so pytest
does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(Path(sys.argv[1]).resolve()), str(ROOT / "bench"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import beliefnet as bn  # noqa: E402
from beliefnet import cli  # noqa: E402

import netgen  # noqa: E402
import workloads  # noqa: E402

SEEDS = (9, 10, 11)
hashes: dict = {}
counts: Counter = Counter()


def record(family: str, key: str, value) -> None:
    """Hash one outcome under its key; an array by its bytes, anything else by its repr."""
    data = value.tobytes() if hasattr(value, "tobytes") else repr(value).encode()
    hashes.setdefault(family, hashlib.sha256()).update(f"{key}\0{len(data)}\0".encode() + data)
    counts[family] += 1


def attempt(key: str, call, family: str = "errors"):
    """``call()``, or None after hashing the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 - every error is an outcome
        record(family, key, f"{type(exc).__name__}: {exc}")
        return None


def outcome(family: str, key: str, call):
    """Hash ``call()``, or the type and message of what it raised."""
    value = attempt(key, call, family)
    if value is not None:
        record(family, key, value)


def query(key: str, net, target: str, e, method=bn.Method.AUTO) -> None:
    """A query's belief twice (its plan cold, then warm), its classification, its trace."""
    for rep in ("cold", "warm"):
        r = attempt(f"{key}/{rep}", lambda: bn.infer(net, target, e, method))
        if r is not None:
            record("beliefs", f"{key}/{rep}", r.belief.probabilities)
            record("classifications", key, r.classification)
    r = attempt(f"{key}/traced", lambda: bn.infer(net, target, e, method, trace=True))
    if r is not None:
        record("beliefs", f"{key}/traced", r.belief.probabilities)
        record("traces", key, r.trace)


def separation(net, x: str, z: str, e):
    """``d_separated``'s verdict and active path."""
    verdict = bn.d_separated(net, x, z, e)
    return verdict.separated, verdict.active_path


def cutset(key: str, net, findings) -> None:
    """The polytree witness, the cutset and, under each of ``findings``,
    the weight of every instantiation of the cutset."""
    record("structure", f"{key}/polytree", bn.is_polytree(net))
    cut = bn.select_cutset(net)
    record("structure", f"{key}/cutset", cut)
    for finding, e in findings:
        for states in itertools.product(*(range(net.arity(v)) for v in cut.nodes)):
            c = dict(zip(cut.nodes, states))
            outcome("structure", f"{key}/{finding}/{states}",
                    lambda: bn.instantiation_weight(net, c, e))


def connections(key: str, net, ids) -> None:
    """``classify_connection``'s kind, or its error, on every ordered triple of ``ids``."""
    for a, v, b in itertools.product(ids, repeat=3):
        outcome("connections", f"{key}/{a}/{v}/{b}", lambda: bn.classify_connection(net, a, v, b))


def graphs() -> None:
    """Structure outside the fixtures and the benchmark: cycles and repeated
    parents, the greedy cutset search, and d-separation with soft findings."""
    loopy = bn.load_network(ROOT / "fixtures" / "loopy8.bn")
    p, c = loopy.edges[0]
    for name, net in (("selfloop", netgen.with_parent(loopy, c, c)),
                      ("twocycle", netgen.with_parent(loopy, p, c)),
                      ("repeated", netgen.with_parent(loopy, c, p))):
        connections(name, net, [v.id for v in net.variables])
        outcome("structure", f"{name}/polytree", lambda: bn.is_polytree(net))
        outcome("structure", f"{name}/cutset", lambda: bn.select_cutset(net))
    for n in (25, 40):
        for seed in range(100):
            net = netgen.random_loopy(np.random.default_rng(seed), n)
            record("structure", f"loopy{n}/{seed}/polytree", bn.is_polytree(net))
            record("structure", f"loopy{n}/{seed}/cutset", bn.select_cutset(net))
    for seed in range(10):
        rng = np.random.default_rng(seed)
        net = netgen.random_loopy(rng, 12)
        ids = [v.id for v in net.variables]
        hard, soft = (ids[i] for i in rng.choice(len(ids), size=2, replace=False))
        e = bn.Evidence({hard: bn.HardEvidence(0),
                         soft: bn.SoftEvidence(rng.uniform(0.1, 1.0, net.arity(soft)))})
        for x, z in itertools.permutations(ids, 2):
            outcome("dsep", f"loopy12/{seed}/{x}/{z}", lambda: separation(net, x, z, e))


def library_queries(seed: int) -> None:
    findings: dict = {}     # by the network's id: the network and its cases' evidence
    for i, case in enumerate(workloads.LibraryQueries(ROOT, seed).setup()):
        key, net, target, e = f"lq{seed}/{i}/{case.label}", case.net, case.query.target, case.evidence
        query(key, net, target, e)
        run = attempt(f"{key}/weights", lambda: bn.run_cutset_conditioning(net, target, e))
        if run is not None:
            record("weights", key, list(run.weights.items()))
        if case.grid:
            record("beliefs", f"{key}/enum", case.enumerate())
            outcome("enumeration", f"{key}/mass", lambda: bn.evidence_probability(net, e))
            outcome("enumeration", f"{key}/mpa", lambda: bn.most_probable_assignment(net, e))
            outcome("enumeration", f"{key}/joint",
                    lambda: hashlib.sha256(bn.weighted_joint(net, e).tobytes()).hexdigest())
        findings.setdefault(id(net), (net, []))[1].append((i, e))
    for net, cases in findings.values():
        cutset(f"lq{seed}/{cases[0][0]}", net, cases)


def cli_run(key: str, argv: list[str], family: str = "cli") -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    record(family, key, (code, out.getvalue(), err.getvalue()))


def fixture(path: Path) -> None:
    net = bn.load_network(path)
    ids = [v.id for v in net.variables]
    findings = [((), bn.Evidence.empty())] + [
        ((v.id, s), bn.Evidence({v.id: bn.HardEvidence(s)}))
        for v in net.variables for s in range(v.arity)]
    cutset(path.name, net, findings)
    connections(path.name, net, [*ids, "unknown"])
    record("enumeration", f"{path.name}/serialized", bn.serialize_network(net))
    for command in (["validate"], ["cutset"]):
        cli_run(f"{path.name}/{command}", [command[0], str(path)], "cli_tools")
    for states in itertools.product(*(v.states for v in net.variables)):
        cli_run(f"{path.name}/joint/{states}",
                ["joint", str(path), "--assign", ",".join(map("=".join, zip(ids, states)))],
                "cli_tools")
    for x, z in itertools.permutations(ids, 2):
        for given in ["", *ids]:
            cli_run(f"{path.name}/dsep/{x}/{z}/{given}",
                    ["dsep", str(path), x, z, *(["--given", given] if given else [])], "cli_tools")
    for finding, e in findings:
        key = f"{path.name}/{finding}"
        for x, z in itertools.permutations(ids, 2):
            outcome("dsep", f"{key}/{x}/{z}", lambda: separation(net, x, z, e))
            outcome("enumeration", f"{key}/{x}/{z}", lambda: bn.marginal_joint(net, [x, z], e))
        outcome("enumeration", f"{key}/mpa", lambda: bn.most_probable_assignment(net, e))
        outcome("enumeration", f"{key}/mass", lambda: bn.evidence_probability(net, e))
        store = attempt(f"{key}/propagate", lambda: bn.propagate(net, e))
        if store is not None:
            record("propagate", key, (store.evidence_mass, store.trace,
                                      [store.beliefs[v].probabilities.tobytes() for v in store.beliefs],
                                      bn.fixed_point_delta(net, e, store)))
        flag = ["--evidence", f"{finding[0]}={net.var(finding[0]).states[finding[1]]}"] \
            if finding else []
        for v in net.variables:
            attempt(f"{key}/{v.id}/classify", lambda: record(
                "classifications", f"{key}/{v.id}/direct", bn.classify_query(net, v.id, e)))
            for method in bn.Method:
                query(f"{key}/{v.id}/{method.value}", net, v.id, e, method)
                for trace in ([], ["--trace"]):
                    cli_run(f"{key}/{v.id}/{method.value}{trace}",
                            ["query", str(path), "--target", v.id, "--method", method.value,
                             *flag, *trace])
            cli_run(f"{key}/{v.id}/classify", ["classify", str(path), "--target", v.id, *flag])


def misuse() -> None:
    serial = bn.load_network(ROOT / "fixtures" / "serial.bn")
    for name, e in (("dict", {"X": bn.HardEvidence(0)}), ("none", None)):
        for engine, call in (
                ("infer", lambda: bn.infer(serial, "Z", e)),
                ("classify_query", lambda: bn.classify_query(serial, "Z", e)),
                ("posterior", lambda: bn.posterior(serial, "Z", e)),
                ("propagate", lambda: bn.propagate(serial, e)),
                ("instantiation_weight", lambda: bn.instantiation_weight(serial, {"Y": 0}, e)),
                ("d_separated", lambda: bn.d_separated(serial, "X", "Z", e))):
            attempt(f"{name}/{engine}", call, "misuse")
    for net, other in (("serial", "converging"), ("loopy8", "serial")):
        store = bn.propagate(bn.load_network(ROOT / "fixtures" / f"{other}.bn"))
        attempt(f"{net}/{other}", lambda: bn.fixed_point_delta(
            bn.load_network(ROOT / "fixtures" / f"{net}.bn"), bn.Evidence.empty(), store), "misuse")
    # Copies of serial.bn: Y with three states, other tables of the same
    # shapes, and the same variables and tables.
    x, _, z = serial.variables
    three = bn.BayesianNetwork(
        (x, bn.Variable("Y", ("a", "b", "c")), z),
        (serial.cpt("X"), bn.Cpt("Y", ("X",), [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]),
         bn.Cpt("Z", ("Y",), [[0.5, 0.5], [0.2, 0.8], [0.7, 0.3]])))
    other = bn.BayesianNetwork(serial.variables,
                               (bn.Cpt("X", (), [0.5, 0.5]), serial.cpt("Y"), serial.cpt("Z")))
    equal = bn.BayesianNetwork(serial.variables, serial.cpts)
    for name, net, store in (("three/serial", three, serial), ("serial/three", serial, three),
                             ("serial/other", serial, other), ("serial/equal", serial, equal)):
        outcome("misuse", name,
                lambda: bn.fixed_point_delta(net, bn.Evidence.empty(), bn.propagate(store)))


def main() -> None:
    for seed in SEEDS:
        library_queries(seed)
    for path in sorted((ROOT / "fixtures").glob("*.bn")):
        fixture(path)
    misuse()
    graphs()
    for family in sorted(hashes):
        print(f"{family:16} {counts[family]:7} {hashes[family].hexdigest()}")


if __name__ == "__main__":
    main()
