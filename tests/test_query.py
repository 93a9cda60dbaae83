import sys
from pathlib import Path

import numpy as np
import pytest

import netgen
from beliefnet import (
    BayesianNetwork,
    Cpt,
    Evidence,
    HardEvidence,
    InvalidQueryError,
    MAX_JOINT_STATES,
    Method,
    NetworkValidationError,
    NotAPolytreeError,
    QueryClass,
    SoftEvidence,
    Variable,
    classify_query,
    infer,
    load_network,
    marginal_joint,
    posterior,
    propagate,
    run_cutset_conditioning,
    select_cutset,
)
from beliefnet import model, propagation, structure


def test_forward_serial(serial_net):
    c = classify_query(serial_net, "Z", Evidence({"X": HardEvidence(0)}))
    assert c.kind is QueryClass.FORWARD
    assert c.sub_verdicts == {"X": QueryClass.FORWARD}


def test_backward_diverging(diverging_net):
    # evidence below the target pulls belief against the arrows
    c = classify_query(diverging_net, "Y", Evidence({"X": HardEvidence(0)}))
    assert c.kind is QueryClass.BACKWARD
    assert c.sub_verdicts == {"X": QueryClass.BACKWARD}


def test_intercausal_diverging(diverging_net):
    # X and Z share the unobserved parent Y; X is neither ancestor
    # nor descendant of Z yet still moves it
    c = classify_query(diverging_net, "Z", Evidence({"X": HardEvidence(0)}))
    assert c.kind is QueryClass.INTERCAUSAL
    assert c.sub_verdicts == {"X": QueryClass.INTERCAUSAL}


def test_mixed_sprinkler(sprinkler_net):
    e = Evidence({"X2": HardEvidence(0), "X5": HardEvidence(0)})
    c = classify_query(sprinkler_net, "X3", e)
    assert c.kind is QueryClass.MIXED
    assert c.sub_verdicts == {"X2": QueryClass.INTERCAUSAL,
                              "X5": QueryClass.BACKWARD}


def test_separated_evidence_is_skipped(sprinkler_net):
    # X4 screens X1 off from X5, so only X4 is counted
    e = Evidence({"X4": HardEvidence(0), "X1": HardEvidence(0)})
    c = classify_query(sprinkler_net, "X5", e)
    assert c.kind is QueryClass.FORWARD
    assert c.sub_verdicts == {"X4": QueryClass.FORWARD}


def test_screened_descendant_is_skipped(serial_net):
    e = Evidence({"Y": HardEvidence(0), "Z": HardEvidence(0)})
    c = classify_query(serial_net, "X", e)
    assert c.kind is QueryClass.BACKWARD
    assert c.sub_verdicts == {"Y": QueryClass.BACKWARD}


def test_all_evidence_separated_is_mixed(converging_net):
    # the collider is unobserved, so the other parent carries nothing
    c = classify_query(converging_net, "X", Evidence({"Z": HardEvidence(0)}))
    assert c.kind is QueryClass.MIXED
    assert c.sub_verdicts == {}


def test_a_shared_classification_is_read_only(sprinkler_net):
    # Every query observing the same nodes gets the classification its
    # plan keeps, so no caller may change it for the others.
    net = netgen.twin(sprinkler_net)
    want = {"X2": QueryClass.INTERCAUSAL, "X5": QueryClass.BACKWARD}
    c = classify_query(net, "X3", Evidence({"X2": HardEvidence(0), "X5": HardEvidence(0)}))
    with pytest.raises(TypeError):
        c.sub_verdicts["X2"] = QueryClass.FORWARD
    with pytest.raises(TypeError):
        del c.sub_verdicts["X5"]
    again = infer(net, "X3", Evidence({"X5": HardEvidence(1), "X2": HardEvidence(1)}))
    assert again.classification is c
    assert c.kind is QueryClass.MIXED
    assert c.sub_verdicts == want and list(c.sub_verdicts) == list(want)


def test_soft_evidence_participates(serial_net):
    c = classify_query(serial_net, "X", Evidence({"Z": SoftEvidence([0.9, 0.1])}))
    assert c.kind is QueryClass.BACKWARD


def test_classify_argument_checks(serial_net):
    with pytest.raises(InvalidQueryError):
        classify_query(serial_net, "Z", Evidence.empty())
    with pytest.raises(InvalidQueryError):
        classify_query(serial_net, "Z", Evidence({"Z": HardEvidence(0)}))
    with pytest.raises(ValueError):
        classify_query(serial_net, "nope", Evidence({"X": HardEvidence(0)}))


def test_infer_auto_on_polytree(serial_net):
    r = infer(serial_net, "Z", Evidence({"X": HardEvidence(0)}))
    assert r.method is Method.POLYTREE
    assert r.belief[0] == pytest.approx(0.809, abs=1e-12)
    assert r.classification.kind is QueryClass.FORWARD


def test_infer_auto_on_loopy(sprinkler_net):
    r = infer(sprinkler_net, "X3", Evidence({"X4": HardEvidence(0)}))
    assert r.method is Method.CUTSET
    assert r.belief[0] == pytest.approx(0.41380598176216116, abs=1e-12)


def test_infer_explicit_methods_agree(sprinkler_net):
    e = Evidence({"X5": HardEvidence(0)})
    by_enum = infer(sprinkler_net, "X2", e, Method.ENUMERATION)
    by_cut = infer(sprinkler_net, "X2", e, Method.CUTSET)
    assert by_enum.method is Method.ENUMERATION
    assert by_cut.method is Method.CUTSET
    assert np.allclose(by_enum.belief.probabilities,
                       by_cut.belief.probabilities, atol=1e-9)


def test_infer_polytree_method_rejects_loops(sprinkler_net):
    with pytest.raises(NotAPolytreeError):
        infer(sprinkler_net, "X3", Evidence({"X4": HardEvidence(0)}),
              Method.POLYTREE)


def test_infer_dispatches_on_a_method_value_and_rejects_an_unknown_one(sprinkler_net):
    e = Evidence({"X5": HardEvidence(0)})
    by_value = infer(sprinkler_net, "X2", e, "enum")
    assert by_value.method is Method.ENUMERATION
    assert np.array_equal(by_value.belief.probabilities,
                          posterior(sprinkler_net, "X2", e).probabilities)
    with pytest.raises(NotAPolytreeError):
        infer(sprinkler_net, "X2", e, "bp")
    with pytest.raises(ValueError, match="bogus"):
        infer(sprinkler_net, "X2", e, "bogus")


def test_infer_without_evidence(serial_net):
    r = infer(serial_net, "Y")
    assert r.classification is None
    assert np.allclose(r.belief.probabilities,
                       posterior(serial_net, "Y").probabilities, atol=1e-12)


def test_infer_rejects_hard_target(serial_net):
    with pytest.raises(InvalidQueryError):
        infer(serial_net, "Z", Evidence({"Z": HardEvidence(0)}))


def test_infer_formats_a_trace_only_when_asked(monkeypatch, serial_net, sprinkler_net):
    formatted = []
    real = propagation._Sweep.trace
    monkeypatch.setattr(propagation._Sweep, "trace",
                        lambda sweep, k: formatted.append(k) or real(sweep, k))
    cases = [(serial_net, "Z", Evidence({"X": HardEvidence(0)}), 4),
             (sprinkler_net, "X3", Evidence({"X4": HardEvidence(0)}), 20)]
    for net, target, e, lines in cases:
        assert infer(net, target, e).trace == ()
        assert formatted == []
        traced = infer(net, target, e, trace=True).trace
        assert len(traced) == lines and all(line.startswith("MSG ") for line in traced)
        formatted.clear()


def test_structure_is_searched_once_per_network(monkeypatch, fixture_dir):
    calls = []
    for name in ("_check_polytree", "_search_cutset"):
        real = getattr(structure, name)
        monkeypatch.setattr(structure, name,
                            lambda net, real=real, name=name: calls.append(name) or real(net))
    net = load_network(fixture_dir / "loopy8.bn")
    infer(net, "H", Evidence({"A": HardEvidence(0)}))
    infer(net, "D", Evidence({"H": HardEvidence(1)}), Method.CUTSET)
    assert sorted(calls) == ["_check_polytree", "_search_cutset"]



def _spy(monkeypatch, owner, name, counts):
    """Count the calls of ``owner.name`` under every name the library
    binds it to."""
    real = getattr(owner, name)
    counts[name] = 0

    def spy(*args, **kwargs):
        counts[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("beliefnet.") and \
                getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, spy)


def test_classification_is_one_walk_from_the_target(monkeypatch):
    # A ball from the target, given all of the evidence, reaches every
    # influencing evidence node at once: no d-separation test and no
    # evidence copy per node.  The classification depends on which nodes
    # are observed, not on their values, so a later query observing the
    # same nodes makes no walk at all, though it still binds its evidence.
    rng = np.random.default_rng(300)
    tree = netgen.random_polytree(rng, 300)
    e_tree = netgen.random_evidence(rng, tree, p_node=0.1, soft_ratio=0.3)
    target = next(v.id for v in tree.variables if not e_tree.has(v.id))
    grid = netgen.grid(rng, 4, 4)
    e_grid = Evidence({"G0": HardEvidence(0), "G5": SoftEvidence([0.2, 0.7]),
                       "G10": HardEvidence(1), "G15": HardEvidence(0)})
    assert 20 <= len(e_tree) <= 40
    assert {e_tree.is_hard(v) for v in e_tree} == {True, False}
    cases = ((tree, target, e_tree), (grid, "G6", e_grid))
    want = [classify_query(net, t, e) for net, t, e in cases]
    assert all(w.sub_verdicts for w in want)

    counts: dict[str, int] = {}
    _spy(monkeypatch, structure, "d_separated", counts)
    _spy(monkeypatch, Evidence, "without", counts)
    _spy(monkeypatch, structure, "_reached", counts)
    _spy(monkeypatch, model, "_closure", counts)
    _spy(monkeypatch, model, "_bind_evidence", counts)
    for (net, t, e), w in zip(cases, want):
        for classify in (classify_query, lambda *query: infer(*query, trace=False).classification):
            fresh = netgen.twin(net)
            counts.update(dict.fromkeys(counts, 0))
            assert classify(fresh, t, e) == w
            assert counts["d_separated"] == counts["without"] == 0
            assert counts["_reached"] == counts["_bind_evidence"] == 1
            counts.update(dict.fromkeys(counts, 0))
            assert classify(fresh, t, netgen.revalued(rng, fresh, e)) == w
            assert counts == {"d_separated": 0, "without": 0, "_reached": 0, "_closure": 0,
                              "_bind_evidence": 1}


def _forest(rng, n):
    """A random polytree with about a third of its tree links left out."""
    parent_idx = [[] for _ in range(n)]
    for i in range(1, n):
        j = int(rng.integers(0, i))
        if rng.random() < 1 / 3:
            continue
        child, parent = (i, j) if rng.random() < 0.5 else (j, i)
        parent_idx[child].append(parent)
    return netgen.assemble(rng, parent_idx, [int(rng.integers(2, 5)) for _ in range(n)])


def test_bp_and_cutset_agree_bit_for_bit_on_polytrees(monkeypatch):
    # On a polytree the driver conditions on the empty cutset with no
    # search, and that is the one sweep message passing runs: the same
    # belief bits, the same log, through ``infer`` or the driver itself.
    counts: dict[str, int] = {}
    _spy(monkeypatch, structure, "select_cutset", counts)
    rng = np.random.default_rng(1990)
    queries = 0
    for k in range(60):
        n = int(rng.integers(4, 30))
        net = netgen.random_polytree(rng, n) if k % 2 else _forest(rng, n)
        e = netgen.random_evidence(rng, net, p_node=0.3, soft_ratio=0.5)
        for v in net.variables:
            if e.is_hard(v.id):
                continue
            bp = infer(net, v.id, e, Method.POLYTREE, trace=True)
            cut = infer(net, v.id, e, Method.CUTSET, trace=True)
            run = run_cutset_conditioning(net, v.id, e)
            bits = bp.belief.probabilities.tobytes()
            assert bits == cut.belief.probabilities.tobytes() == run.belief.probabilities.tobytes()
            assert bp.trace == cut.trace == run.traces[()]
            queries += 1
    assert queries > 600
    assert counts["select_cutset"] == 0


def _chain(n, drop=()):
    """Binary chain V0 -> V1 -> ... with uniform tables, leaving out the
    CPTs of the nodes numbered in ``drop``."""
    vs = tuple(Variable(f"V{i}", ("a", "b")) for i in range(n))
    cpts = tuple(Cpt(f"V{i}", (f"V{i - 1}",) if i else (), np.full((2 if i else 1, 2), 0.5))
                 for i in range(n) if i not in drop)
    return BayesianNetwork(vs, cpts)


# Inputs with two faults at once.  Every query entry checks the target,
# then the network, then the evidence, then hard evidence on the target.
MULTI_FAULT = {
    # The network fails ``validate`` before the target's finding is looked at.
    "hard-target-on-an-invalid-network": (
        lambda fixtures: _chain(3, drop=(2,)), "V1",
        Evidence({"V1": HardEvidence(0), "V0": HardEvidence(0)}), NetworkValidationError),
    # A malformed finding elsewhere is found while the evidence is bound.
    "hard-target-and-a-malformed-finding": (
        lambda fixtures: load_network(fixtures / "serial.bn"), "Z",
        Evidence({"Z": HardEvidence(0), "X": HardEvidence(5)}), ValueError),
    # Under ``bp`` the evidence is checked before the polytree test.
    "malformed-evidence-on-a-loopy-network": (
        lambda fixtures: load_network(fixtures / "sprinkler.bn"), "X1",
        Evidence({"X5": HardEvidence(7)}), ValueError),
    # Under ``enum`` the network is checked before the size guard.
    "an-invalid-network-too-large-to-enumerate": (
        lambda fixtures: _chain(23, drop=(22,)), "V0",
        Evidence({"V1": HardEvidence(0)}), NetworkValidationError),
}

QUERY_ENTRIES = {
    **{f"infer-{m.value}": (lambda net, t, e, m=m: infer(net, t, e, m)) for m in Method},
    "run_cutset_conditioning": run_cutset_conditioning,
    "classify_query": classify_query,
    "posterior": posterior,
    "marginal_joint": lambda net, t, e: marginal_joint(net, [t], e),
}


@pytest.mark.parametrize("entry", QUERY_ENTRIES)
@pytest.mark.parametrize("case", MULTI_FAULT)
def test_every_query_entry_reports_the_first_fault_in_one_order(fixture_dir, entry, case):
    build, target, e, error = MULTI_FAULT[case]
    net = build(fixture_dir)
    with pytest.raises(Exception) as exc:
        QUERY_ENTRIES[entry](net, target, e)
    assert type(exc.value) is error


def _bytes(result):
    return result.belief.probabilities.tobytes(), result.classification, result.trace


def test_a_query_is_checked_once_per_call_and_planned_once_per_pattern(monkeypatch, fixture_dir):
    # Nothing of a query is kept between calls but its plan: every call of
    # a query entry checks and binds its evidence once, a repeat with the
    # same ``Evidence`` object too.  Equal findings in another object, and
    # new values on the same nodes, share the plan of their target and pattern.
    net = load_network(fixture_dir / "sprinkler.bn")
    e = Evidence({"X5": HardEvidence(0), "X2": SoftEvidence([0.3, 0.9])})
    counts: dict[str, int] = {}
    _spy(monkeypatch, model, "_bind_evidence", counts)
    first, bound = model._relevance(net, "X1", e)
    assert counts["_bind_evidence"] == 1
    assert (first.target, first.hard, first.observed) == ("X1", {"X5"}, {"X5", "X2"})
    assert bound.keys() == {"X5", "X2"} and bound["X2"] is e.entries["X2"].likelihood
    twin = Evidence(dict(e.entries))
    revalued = Evidence({"X5": HardEvidence(1), "X2": SoftEvidence([0.8, 0.1])})
    for again in (e, twin, revalued):
        assert model._relevance(net, "X1", again)[0] is first
    other = model._relevance(net, "X3", e)[0]
    assert model._relevance(net, "X3", twin)[0] is other
    assert counts["_bind_evidence"] == 6
    assert other is not first and other.target == "X3"
    assert other.opened == first.opened and other.above != first.above

    def run(t):
        r = run_cutset_conditioning(net, t, e)
        return r.belief.probabilities.tobytes(), r.weights, r.traces

    entries = {
        **{m.value: (lambda t, m=m: _bytes(infer(net, t, e, m, trace=True)))
           for m in (Method.AUTO, Method.ENUMERATION, Method.CUTSET)},
        "run_cutset_conditioning": run,
        "classify_query": lambda t: classify_query(net, t, e),
        "posterior": lambda t: posterior(net, t, e).probabilities.tobytes(),
        "marginal_joint": lambda t: marginal_joint(net, [t], e).tobytes(),
    }
    for name, entry in entries.items():
        for target in ("X1", "X4"):
            answers = []
            for _ in range(2):
                counts["_bind_evidence"] = 0
                answers.append(entry(target))
                assert counts["_bind_evidence"] == 1, name
            assert answers[1] == answers[0], name


def test_a_network_keeps_a_bounded_number_of_query_plans(monkeypatch):
    # Each evidence pattern a network is asked about gets one plan, which
    # every evidence object of that pattern shares; past the bound the first
    # one kept is dropped, and asking about its pattern again builds it anew,
    # with the same answer bits.  Every query binds its evidence once.
    rng = np.random.default_rng(19)
    net = netgen.random_polytree(rng, 9)
    target, *others = [v.id for v in net.variables]
    patterns = [Evidence({v: HardEvidence(int(rng.integers(net.arity(v))))
                          for j, v in enumerate(others) if i >> j & 1})
                for i in range(1, model._PLANS + 17)]
    counts: dict[str, int] = {}
    _spy(monkeypatch, model, "_bind_evidence", counts)
    plans = []
    for e in patterns:
        counts["_bind_evidence"] = 0
        first = infer(net, target, e, trace=True)
        assert counts["_bind_evidence"] == 1
        plans.append(model._relevance(net, target, Evidence(dict(e.entries)))[0])
        assert model._relevance(net, target, e)[0] is plans[-1]
        assert len(net._memo[model._Plan]) <= model._PLANS
    assert len(net._memo[model._Plan]) == model._PLANS
    store = model._once(net, propagation._Compiled).schedules
    for e in patterns:
        propagate(net, e)
        assert len(store) <= model._PLANS
    assert len(store) == model._PLANS
    cold = netgen.twin(net)
    for e, plan in zip(patterns[:2], plans):
        counts["_bind_evidence"] = 0
        again = infer(net, target, Evidence(dict(e.entries)), trace=True)
        assert counts["_bind_evidence"] == 1
        assert model._relevance(net, target, e)[0] is not plan
        assert _bytes(again) == _bytes(infer(cold, target, e, trace=True))
    assert _bytes(infer(net, target, patterns[-1], trace=True)) == _bytes(first)
    assert model._relevance(net, target, patterns[-1])[0] is plans[-1]


def test_networks_never_share_a_query_check(monkeypatch, fixture_dir):
    path = fixture_dir / "serial.bn"
    first, second = load_network(path), load_network(path)
    sprinkler = load_network(fixture_dir / "sprinkler.bn")
    e = Evidence({"X": HardEvidence(1)})
    counts: dict[str, int] = {}
    _spy(monkeypatch, model, "_bind_evidence", counts)
    for _ in range(2):
        counts["_bind_evidence"] = 0
        (plan_a, a), (plan_b, b) = model._relevance(first, "Z", e), model._relevance(second, "Z", e)
        assert counts["_bind_evidence"] == 2
        assert plan_a is not plan_b and a["X"] is not b["X"]
        assert first._memo[model._Plan] is not second._memo[model._Plan]
        assert infer(first, "Z", e).belief.probabilities.tobytes() == \
            infer(second, "Z", e).belief.probabilities.tobytes()
        assert counts["_bind_evidence"] == 4
        # The same findings name no variable of another network.
        with pytest.raises(ValueError, match="unknown variable"):
            infer(sprinkler, "X1", e)
    assert sprinkler._memo.get(model._Plan, {}) == {}


def _library_queries(seed):
    """The benchmark's ``library_queries`` cases with evidence for ``seed``."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    sys.path.insert(0, str(bench))
    try:
        import workloads
    finally:
        sys.path.remove(str(bench))
    cases = workloads.LibraryQueries(bench.parent, seed).setup()
    return [(c.net, c.query.target, c.evidence) for c in cases if not c.evidence.is_empty()]


def test_one_query_binds_its_evidence_once_and_walks_each_ancestry_once(monkeypatch):
    # ``infer``, the conditioning driver, enumeration and ``classify_query``
    # share one checked and bound query.  The first query of an evidence
    # pattern makes one binding, one Bayes ball and at most one upward walk
    # each from the target, from the evidence and from the cut nodes that
    # neither walk reached.  Each of the target and the evidence nodes
    # seeds one walk, and none starts again from the target's parents.  A
    # repeat of the pattern with new values binds once and walks nothing.
    queries = _library_queries(9)
    assert len(queries) > 60
    rng = np.random.default_rng(367)
    counts: dict[str, int] = {}
    _spy(monkeypatch, model, "_bind_evidence", counts)
    _spy(monkeypatch, structure, "_reached", counts)
    walks = []
    real = model._closure

    def record(seeds, step):
        seeds = list(seeds)
        walks.append((step, frozenset(seeds)))
        return real(seeds, step)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("beliefnet") and \
                getattr(module, "_closure", None) is real:
            monkeypatch.setattr(module, "_closure", record)
    checked = dict.fromkeys(Method, 0)
    for net, target, e in queries:
        loopy = not structure.is_polytree(net)
        for method in Method:
            if method is Method.POLYTREE and loopy or \
                    method is Method.ENUMERATION and net.joint_state_count > MAX_JOINT_STATES:
                continue
            # A network that has answered nothing, so no earlier query's check is reused.
            fresh = netgen.twin(net)
            counts.update(dict.fromkeys(counts, 0))
            walks.clear()
            infer(fresh, target, Evidence(dict(e.entries)), method)
            checked[method] += 1
            assert counts == {"_bind_evidence": 1, "_reached": 1}
            up = [s for step, s in walks if step is fresh._parents and s]
            parents = set(fresh._parents[target])
            assert len(up) <= 3
            assert all(sum(v in s for s in up) == 1 for v in {target, *e})
            assert not any(s == parents != set(e) for s in up)
            counts.update(dict.fromkeys(counts, 0))
            walks.clear()
            infer(fresh, target, netgen.revalued(rng, fresh, e), method)
            assert counts == {"_bind_evidence": 1, "_reached": 0} and walks == []
    assert min(checked.values()) > 20 and checked[Method.CUTSET] == len(queries)
