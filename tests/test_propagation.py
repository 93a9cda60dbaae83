import re

import numpy as np
import pytest

import netgen
from beliefnet import (
    BayesianNetwork,
    Cpt,
    Evidence,
    HardEvidence,
    ImpossibleEvidenceError,
    Method,
    NotAPolytreeError,
    SoftEvidence,
    Variable,
    fixed_point_delta,
    infer,
    load_network,
    posterior,
    propagate,
    run_cutset_conditioning,
    select_cutset,
)
from beliefnet import propagation

TRACE_LINE = re.compile(r"^MSG \S+ \S+ (pi|lambda) [0-9.e+-]+(,[0-9.e+-]+)*$")


def test_propagate_no_evidence_gives_priors(serial_net):
    store = propagate(serial_net)
    assert store.evidence_mass == pytest.approx(1.0, abs=1e-12)
    assert store.beliefs["X"][0] == pytest.approx(0.9, abs=1e-12)
    assert store.beliefs["Y"][0] == pytest.approx(0.768, abs=1e-12)
    assert store.beliefs["Z"][0] == pytest.approx(0.73192, abs=1e-12)


def test_propagate_forward(serial_net):
    store = propagate(serial_net, Evidence({"X": HardEvidence(0)}))
    assert store.beliefs["Z"][0] == pytest.approx(0.809, abs=1e-12)
    assert store.evidence_mass == pytest.approx(0.9, abs=1e-12)
    # observed node reports an indicator belief
    assert np.array_equal(store.beliefs["X"].probabilities, [1.0, 0.0])


def test_propagate_backward(serial_net):
    store = propagate(serial_net, Evidence({"Z": HardEvidence(0)}))
    assert store.evidence_mass == pytest.approx(0.73192, abs=1e-12)
    assert store.beliefs["X"][0] == pytest.approx(0.7281 / 0.73192, abs=1e-12)


def test_propagate_diverging(diverging_net):
    store = propagate(diverging_net, Evidence({"Z": HardEvidence(0)}))
    assert store.evidence_mass == pytest.approx(0.8826, abs=1e-12)
    assert store.beliefs["X"][0] == pytest.approx(0.837906 / 0.8826, abs=1e-12)
    assert store.beliefs["Y"][0] == pytest.approx(0.882 / 0.8826, abs=1e-12)


def test_propagate_converging_matches_enumeration(converging_net):
    e = Evidence({"Y": HardEvidence(0)})
    store = propagate(converging_net, e)
    assert store.beliefs["X"][0] == pytest.approx(0.335 / 0.4475, abs=1e-12)
    for v in ("X", "Z"):
        want = posterior(converging_net, v, e).probabilities
        assert np.allclose(store.beliefs[v].probabilities, want, atol=1e-12)


def test_propagate_soft_evidence(serial_net):
    e = Evidence({"Y": SoftEvidence([0.5, 0.2])})
    store = propagate(serial_net, e)
    assert store.evidence_mass == pytest.approx(0.4304, abs=1e-12)
    for v in ("X", "Y", "Z"):
        want = posterior(serial_net, v, e).probabilities
        assert np.allclose(store.beliefs[v].probabilities, want, atol=1e-12)


def test_propagate_mixed_evidence_mass(serial_net):
    e = Evidence({"X": HardEvidence(0), "Z": HardEvidence(1)})
    store = propagate(serial_net, e)
    assert store.evidence_mass == pytest.approx(0.1719, abs=1e-12)
    want = posterior(serial_net, "Y", e).probabilities
    assert np.allclose(store.beliefs["Y"].probabilities, want, atol=1e-12)


def test_trace_covers_each_edge_both_ways(serial_net):
    store = propagate(serial_net, Evidence({"X": HardEvidence(0)}))
    assert len(store.trace) == 2 * len(serial_net.edges)
    for line in store.trace:
        assert TRACE_LINE.match(line), line
    kinds = {}
    for line in store.trace:
        frm, to, kind = line.split()[1:4]
        kinds.setdefault(kind, set()).add((frm, to))
    assert kinds["pi"] == set(serial_net.edges)
    assert kinds["lambda"] == {(v, u) for (u, v) in serial_net.edges}


def test_pi_messages_are_normalized(diverging_net, converging_net):
    for net, e in (
        (diverging_net, Evidence({"X": HardEvidence(1)})),
        (converging_net, Evidence({"Y": SoftEvidence([0.9, 0.4])})),
    ):
        store = propagate(net, e)
        for vec in store.pi_messages.values():
            assert float(vec.sum()) == pytest.approx(1.0, abs=1e-12)


def test_belief_proportional_to_node_values(diverging_net):
    e = Evidence({"Z": SoftEvidence([0.7, 0.1])})
    store = propagate(diverging_net, e)
    for v in ("X", "Y", "Z"):
        raw = store.pi_node[v] * store.lambda_node[v]
        assert np.allclose(raw / raw.sum(), store.beliefs[v].probabilities, atol=1e-12)


def test_node_values_read_first_equal_the_completed_sweep(converging_net, polytree_corpus):
    # Reading a node value first sends every message still missing;
    # the value must not depend on what else was read before.
    cases = [(converging_net, Evidence({"Z": HardEvidence(0)}))] + polytree_corpus[:100]
    for net, e in cases:
        lazy, done = propagate(net, e), propagate(net, e)
        assert len(done.trace) == 2 * len(net.edges)
        for v in reversed(net.variables):
            x = v.id
            assert np.array_equal(lazy.lambda_node[x], done.lambda_node[x])
            assert np.array_equal(lazy.pi_node[x], done.pi_node[x])
            want = np.ones(v.arity) if not e.has(x) else (
                np.eye(v.arity)[e.hard_state(x)] if e.is_hard(x) else e.entries[x].likelihood)
            for c in net.children(x):
                want = want * done.lambda_messages[(x, c)]
            assert np.allclose(done.lambda_node[x], want, atol=1e-12)


def test_pivot_invariance(diverging_net):
    e = Evidence({"X": HardEvidence(0), "Z": SoftEvidence([0.3, 0.9])})
    stores = [propagate(diverging_net, e, pivot=p) for p in ("Y", "X", "Z")]
    for s in stores[1:]:
        assert s.evidence_mass == pytest.approx(stores[0].evidence_mass, abs=1e-12)
        for v in ("X", "Y", "Z"):
            assert np.allclose(s.beliefs[v].probabilities,
                               stores[0].beliefs[v].probabilities, atol=1e-12)


def test_propagate_unknown_pivot(serial_net):
    with pytest.raises(ValueError):
        propagate(serial_net, pivot="Q")


def test_fixed_point(serial_net, converging_net):
    e = Evidence({"X": HardEvidence(0)})
    assert fixed_point_delta(serial_net, e, propagate(serial_net, e)) < 1e-12
    e = Evidence({"Y": SoftEvidence([0.9, 0.2])})
    assert fixed_point_delta(converging_net, e, propagate(converging_net, e)) < 1e-12


def test_propagate_rejects_loopy_network(sprinkler_net):
    with pytest.raises(NotAPolytreeError) as exc:
        propagate(sprinkler_net)
    assert "loop X1-X2-X4-X3-X1" in str(exc.value)
    # instantiating a loop node does not lift the structural requirement
    with pytest.raises(NotAPolytreeError):
        propagate(sprinkler_net, Evidence({"X1": HardEvidence(0)}))


def test_propagate_impossible_evidence():
    net = BayesianNetwork(
        (Variable("A", ("a", "b")), Variable("B", ("a", "b"))),
        (Cpt("A", (), [0.3, 0.7]), Cpt("B", ("A",), [[1.0, 0.0], [0.0, 1.0]])))
    with pytest.raises(ImpossibleEvidenceError):
        propagate(net, Evidence({"A": HardEvidence(0), "B": HardEvidence(1)}))
    with pytest.raises(ImpossibleEvidenceError):
        propagate(net, Evidence({"A": SoftEvidence([0.0, 0.0001]),
                                 "B": HardEvidence(0)}))


def test_propagate_forest():
    net = BayesianNetwork(
        (Variable("A", ("a", "b")), Variable("B", ("a", "b")),
         Variable("C", ("a", "b")), Variable("D", ("a", "b"))),
        (Cpt("A", (), [0.9, 0.1]), Cpt("B", ("A",), [[0.8, 0.2], [0.5, 0.5]]),
         Cpt("C", (), [0.6, 0.4]), Cpt("D", ("C",), [[0.7, 0.3], [0.2, 0.8]])))
    e = Evidence({"B": HardEvidence(0), "D": HardEvidence(1)})
    store = propagate(net, e)
    # components contribute independent factors
    mass_ab = 0.9 * 0.8 + 0.1 * 0.5
    mass_cd = 0.6 * 0.3 + 0.4 * 0.8
    assert store.evidence_mass == pytest.approx(mass_ab * mass_cd, abs=1e-12)
    assert store.beliefs["A"][0] == pytest.approx(0.72 / mass_ab, abs=1e-12)
    assert store.beliefs["C"][0] == pytest.approx(0.18 / mass_cd, abs=1e-12)


def test_propagate_single_node():
    net = BayesianNetwork((Variable("A", ("a", "b", "c")),),
                          (Cpt("A", (), [0.2, 0.5, 0.3]),))
    store = propagate(net)
    assert np.allclose(store.beliefs["A"].probabilities, [0.2, 0.5, 0.3])
    assert store.trace == ()
    store = propagate(net, Evidence({"A": HardEvidence(1)}))
    assert store.evidence_mass == pytest.approx(0.5)
    assert np.array_equal(store.beliefs["A"].probabilities, [0, 1, 0])


def _relevant(net, target, e, cut=()):
    """The target, the evidence nodes, the cut nodes and all their ancestors."""
    roots = {target, *e.entries, *cut}
    return roots.union(*(net.ancestors(v) for v in roots))


def test_a_target_run_sends_only_the_relevant_messages_until_more_is_read(
        monkeypatch, polytree_corpus):
    sent = []
    real = propagation._Sweep.send
    monkeypatch.setattr(propagation._Sweep, "send",
                        lambda sweep, is_pi, e: sent.append((is_pi, e)) or real(sweep, is_pi, e))
    pruned = 0
    for net, e in polytree_corpus[:100]:
        free = [v.id for v in net.variables if not e.is_hard(v.id)]
        if not free:
            continue
        target = free[-1]
        keep = _relevant(net, target, e)
        outside = [v.id for v in net.variables if v.id not in keep]
        pruned += bool(outside)
        every = sorted((is_pi, i) for i in range(len(net.edges)) for is_pi in (True, False))

        sent.clear()
        infer(net, target, e)
        assert all(set(net.edges[i]) <= keep for _, i in sent)

        # Reading the log or a value outside the relevant part sends every
        # message still missing, each message once over the whole run.
        for read in ("trace", *outside[:1]):
            sent.clear()
            store = propagate(net, e, target=target)
            assert all(set(net.edges[i]) <= keep for _, i in sent)
            if read == "trace":
                assert len(store.trace) == 2 * len(net.edges)
            else:
                store.beliefs[read]
            assert sorted(sent) == every
    assert pruned > 10


def _cutset_queries(fixture_dir):
    """Every target of sprinkler, loopy8 and four grids, each with random evidence."""
    rng = np.random.default_rng(31)
    nets = [load_network(fixture_dir / f"{name}.bn") for name in ("sprinkler", "loopy8")]
    nets += [netgen.grid(rng, rows, cols) for rows, cols in ((3, 3), (3, 4), (4, 4), (4, 5))]
    for net in nets:
        for v in net.variables:
            yield net, v.id, netgen.random_evidence(rng, net, exclude=(v.id,))


def test_a_cutset_run_sends_only_the_pruned_collect_pass_until_traces_are_read(
        monkeypatch, fixture_dir):
    sent = []
    real = propagation._Sweep.send
    monkeypatch.setattr(propagation._Sweep, "send",
                        lambda sweep, is_pi, e: sent.append((is_pi, e)) or real(sweep, is_pi, e))
    pruned = 0
    for net, target, e in _cutset_queries(fixture_dir):
        keep = _relevant(net, target, e, select_cutset(net).nodes)
        inside = [i for i, (_, w) in enumerate(net.edges) if w in keep]
        pruned += len(inside) < len(net.edges)

        sent.clear()
        infer(net, target, e, Method.CUTSET)
        # One collect message per edge inside the kept part, and no other.
        assert sorted(i for _, i in sent) == inside

        sent.clear()
        run_cutset_conditioning(net, target, e).traces
        assert sorted(sent) == sorted((is_pi, i) for i in range(len(net.edges))
                                      for is_pi in (True, False))
    assert pruned > 20


def _zero_branch_net():
    """T's only ancestor is A; the branch A -> B -> C is not an ancestor
    of T, and C is never in state 1 when B is in state 0."""
    two = ("s0", "s1")
    return BayesianNetwork(
        tuple(Variable(v, two) for v in "ATDBC"),
        (Cpt("A", (), [0.4, 0.6]),
         Cpt("T", ("A",), [[0.7, 0.3], [0.2, 0.8]]),
         Cpt("D", ("T",), [[0.5, 0.5], [0.1, 0.9]]),
         Cpt("B", ("A",), [[0.9, 0.1], [0.3, 0.7]]),
         Cpt("C", ("B",), [[1.0, 0.0], [0.4, 0.6]])))


def test_impossible_evidence_away_from_the_target_is_still_impossible():
    net = _zero_branch_net()
    for e in (Evidence({"B": HardEvidence(0), "C": HardEvidence(1)}),
              Evidence({"B": HardEvidence(0), "C": SoftEvidence([0.0, 2.0])})):
        with pytest.raises(ImpossibleEvidenceError):
            infer(net, "T", e)
        with pytest.raises(ImpossibleEvidenceError):
            propagate(net, e, target="T")
    for e in (Evidence({"C": HardEvidence(1)}),
              Evidence({"B": HardEvidence(1), "C": SoftEvidence([0.0, 2.0])})):
        full = propagate(net, e)
        store = propagate(net, e, target="T")
        assert store.evidence_mass == pytest.approx(full.evidence_mass, rel=1e-15, abs=0)
        assert np.allclose(store.beliefs["T"].probabilities,
                           posterior(net, "T", e).probabilities, atol=1e-12)
        assert store.trace == full.trace
