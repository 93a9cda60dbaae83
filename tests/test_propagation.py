import re
import tracemalloc

import networkx as nx
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
    is_polytree,
    load_network,
    posterior,
    propagate,
    run_cutset_conditioning,
    select_cutset,
)
from beliefnet import propagation
from beliefnet.model import _once

TRACE_LINE = re.compile(r"^MSG \S+ \S+ (pi|lambda) [0-9.e+-]+(,[0-9.e+-]+)*$")


def test_propagate_no_evidence_gives_priors(serial_net):
    store = propagate(serial_net)
    assert store.evidence_mass == pytest.approx(1.0, abs=1e-12)
    assert store.beliefs["X"][0] == pytest.approx(0.9, abs=1e-12)
    assert store.beliefs["Y"][0] == pytest.approx(0.768, abs=1e-12)
    assert store.beliefs["Z"][0] == pytest.approx(0.73192, abs=1e-12)
    assert len(store.beliefs) == len(serial_net.variables)


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


def test_fixed_point_delta_rejects_a_loopy_network_and_a_store_of_another(
        serial_net, converging_net, loopy8_net):
    # A loopy network is named by its witness loop, as ``propagate`` names it.
    with pytest.raises(NotAPolytreeError, match="multiply connected"):
        fixed_point_delta(loopy8_net, Evidence.empty(), propagate(serial_net))
    with pytest.raises(ValueError, match="edges"):
        fixed_point_delta(serial_net, Evidence.empty(), propagate(converging_net))
    # Y with three states: the same edges, other table shapes.
    x, _, z = serial_net.variables
    three = BayesianNetwork(
        (x, Variable("Y", ("a", "b", "c")), z),
        (serial_net.cpt("X"), Cpt("Y", ("X",), [[0.5, 0.3, 0.2], [0.1, 0.1, 0.8]]),
         Cpt("Z", ("Y",), [[0.5, 0.5], [0.2, 0.8], [0.7, 0.3]])))
    for net, other in ((serial_net, three), (three, serial_net)):
        with pytest.raises(ValueError, match="table shapes are not the network's"):
            fixed_point_delta(net, Evidence.empty(), propagate(other))
    # A store of an equal copy is accepted; one of other tables of the same
    # shapes measures how far it is from this network's fixed point.
    equal = BayesianNetwork(serial_net.variables, serial_net.cpts)
    assert fixed_point_delta(serial_net, Evidence.empty(), propagate(equal)) < 1e-12
    other = BayesianNetwork(serial_net.variables,
                            (Cpt("X", (), [0.5, 0.5]), serial_net.cpt("Y"), serial_net.cpt("Z")))
    assert fixed_point_delta(serial_net, Evidence.empty(),
                             propagate(other)) == pytest.approx(0.4, abs=1e-12)


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


def _spy_sends(monkeypatch):
    """Record every message any sweep sends, as (is a pi message, edge)."""
    sent = []
    real = propagation._Sweep.send
    monkeypatch.setattr(propagation._Sweep, "send",
                        lambda sweep, is_pi, e: sent.append((is_pi, e)) or real(sweep, is_pi, e))
    return sent


def _every_message(net):
    return sorted((is_pi, i) for i in range(len(net.edges)) for is_pi in (True, False))


def _prior_only(net, target, e, cut=()):
    """The prior-only nodes of a query, by their definition: in the kept
    set, not the target, an evidence or a cut node, with one child in
    the kept set and only prior-only parents."""
    keep = _relevant(net, target, e, cut)
    seeds = {target, *e.entries, *cut}
    found = set()
    for v in net.topological_order():
        if (v in keep and v not in seeds and len(keep.intersection(net.children(v))) == 1
                and found.issuperset(net.parents(v))):
            found.add(v)
    return found


def test_a_target_run_sends_only_the_relevant_messages_until_more_is_read(
        monkeypatch, polytree_corpus):
    sent = _spy_sends(monkeypatch)
    pruned = cached = 0
    for net, e in polytree_corpus[:100]:
        free = [v.id for v in net.variables if not e.is_hard(v.id)]
        if not free:
            continue
        target = free[-1]
        keep = _relevant(net, target, e)
        prior_only = _prior_only(net, target, e)
        # A prior-only node's pi message to its one child in the kept set
        # is preset from the network's cache of priors.
        preset = [(True, i) for i, (u, w) in enumerate(net.edges) if u in prior_only and w in keep]
        pruned += len(keep) < len(net.variables)
        cached += bool(preset)

        def relevant(i):
            u, w = net.edges[i]
            return {u, w} <= keep and u not in prior_only

        sent.clear()
        infer(net, target, e)
        assert all(relevant(i) for _, i in sent)

        # Reading the log sends every message still missing: with the
        # preset pi messages, each message once over the whole run.  On
        # a polytree the driver conditions on the empty cutset, as
        # ``bp`` does.
        sent.clear()
        run = run_cutset_conditioning(net, target, e)
        assert run.cutset.nodes == ()
        assert all(relevant(i) for _, i in sent)
        assert len(run.traces[()]) == 2 * len(net.edges)
        assert sorted(sent + preset) == _every_message(net)
    assert pruned > 10
    assert cached > 10


def test_a_second_query_computes_no_prior_again(monkeypatch, polytree_corpus):
    # A query computes the priors that feed the components it sweeps;
    # reading the weights sweeps the rest and computes every other prior
    # of the query, and a second query computes none of them again.
    contracted = []
    real = propagation._Compiled.contract_pi
    monkeypatch.setattr(propagation._Compiled, "contract_pi",
                        lambda comp, x, msgs: contracted.append(x) or real(comp, x, msgs))
    cached = deferred = 0
    for shared, e in polytree_corpus[100:200]:
        # A copy, whose cache no other test has filled.
        net = BayesianNetwork(shared.variables, shared.cpts)
        free = [v.id for v in net.variables if not e.is_hard(v.id)]
        if not free:
            continue
        target = free[0]
        comp = _once(net, propagation._Compiled)
        prior_only = _prior_only(net, target, e)
        needed = set().union(*(nodes for nodes, _, need in _split_components(net, target, e, ())
                               if need))
        feeding = {u for v in needed for u in net.parents(v) if u in prior_only}
        feeding = {comp.index[v] for v in feeding.union(*(net.ancestors(u) for u in feeding))}
        prior_only = {comp.index[v] for v in prior_only}
        cached += bool(feeding)
        deferred += feeding < prior_only

        contracted.clear()
        first = infer(net, target, e).belief.probabilities
        assert set(comp.priors) == feeding and feeding <= set(contracted)
        run_cutset_conditioning(net, target, e).weights
        assert set(comp.priors) == prior_only
        priors = dict(comp.priors)

        contracted.clear()
        second = infer(net, target, e).belief.probabilities
        assert prior_only.isdisjoint(contracted)
        assert comp.priors.keys() == priors.keys()
        assert all(comp.priors[x] is vec for x, vec in priors.items())
        assert np.array_equal(first, second)
    assert cached > 10
    assert deferred > 5


def test_compiling_shares_one_ones_row_per_arity_and_one_subscript_set_per_parent_count():
    # The subscripts are those a per-node and per-edge formula gives.
    nets = [netgen.random_polytree(np.random.default_rng(5), 60),
            netgen.random_loopy(np.random.default_rng(6), 12),
            netgen.grid(np.random.default_rng(7), 3, 3)]
    for net in nets:
        comp = propagation._Compiled(net)
        by_arity = {}
        for x, v in enumerate(net.variables):
            ones = by_arity.setdefault(v.arity, comp.ones[x])
            assert comp.ones[x] is ones
            assert np.array_equal(ones, np.ones((1, v.arity))) and not ones.flags.writeable
            ins = comp.in_edges[x]
            letters, child = "abcdefghij"[:len(ins)], "abcdefghij"[len(ins)]
            assert comp.pi_subs[x] == (",".join([f"...{a}" for a in letters] + [letters + child])
                                       + f"->...{child}")
            for i, e in enumerate(ins):
                rest = "".join(f",...{a}" for j, a in enumerate(letters) if j != i)
                assert comp.lambda_subs[e] == f"{letters}{child},...{child}{rest}->...{letters[i]}"
        assert len(set(map(id, comp.ones))) == len({v.arity for v in net.variables})


class _CountedReads(list):
    """A list that counts the items read from it."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_a_warm_query_takes_memory_independent_of_the_network_size():
    # A second query of a known pattern sends the one message it needs,
    # from the observed parent; nothing it allocates grows with the
    # 5,000-node chain.
    n = 5000
    net = netgen.assemble(np.random.default_rng(5), [[]] + [[i] for i in range(n - 1)], [2] * n)
    target, observed = net.variables[-1].id, net.variables[-2].id
    infer(net, target, Evidence({observed: HardEvidence(0)}))
    e = Evidence({observed: HardEvidence(1)})
    tracemalloc.start()
    try:
        belief = infer(net, target, e).belief.probabilities
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024
    assert belief.tolist() == net.cpt(target).table[1].tolist()


def test_a_long_chain_answers_from_the_cached_priors_alone(monkeypatch):
    # With no evidence every node above the bottom one is prior-only, so
    # no message is sent, and the 4,999 priors are computed without
    # recursion.  The chain is declared bottom first, so the first prior
    # asked for is the deepest one.  A soft finding on the root leaves no
    # node prior-only, so the collect pass sends one pi message per edge.
    # Either way each node's prior-only test is decided once: the walk
    # reads a node's neighbours once and its parents at most twice, and
    # the cached priors read them twice more, not once per descendant.
    n = 5000
    net = netgen.assemble(np.random.default_rng(3), [[i + 1] for i in range(n - 1)] + [[]], [2] * n)
    root = net.variables[-1].id
    weights = np.array([0.3, 0.8])
    comp = _once(net, propagation._Compiled)
    sent = _spy_sends(monkeypatch)
    soft = Evidence({root: SoftEvidence(weights)})
    for e, messages in ((Evidence.empty(), []), (soft, [(True, i) for i in range(n - 1)])):
        comp.neighbors, comp.parents = _CountedReads(comp.neighbors), _CountedReads(comp.parents)
        sent.clear()
        belief = infer(net, net.variables[0].id, e).belief.probabilities
        assert comp.neighbors.reads + comp.parents.reads <= 5 * n
        assert sorted(sent) == messages
        want = net.cpt(root).table.reshape(-1) * (weights if messages else 1.0)
        want = want / want.sum()
        for v in reversed(net.variables[:-1]):
            want = want @ net.cpt(v.id).table
        assert np.max(np.abs(belief - want)) <= 1e-12


def test_propagate_sends_its_whole_sweep_before_it_returns(
        monkeypatch, fixture_dir, polytree_corpus):
    # ``propagate`` is the one caller besides the log that completes a
    # sweep: every message is sent once, and reading the store sends none.
    sent = _spy_sends(monkeypatch)
    fixtures = [load_network(path) for path in sorted(fixture_dir.glob("*.bn"))]
    cases = [(net, Evidence.empty()) for net in fixtures if is_polytree(net)]
    assert len(cases) == 3
    for net, e in cases + polytree_corpus[:50]:
        sent.clear()
        store = propagate(net, e)
        assert sorted(sent) == _every_message(net)
        sent.clear()
        for v in net.variables:
            store.beliefs[v.id], store.pi_node[v.id], store.lambda_node[v.id]
        for edge in net.edges:
            store.pi_messages[edge], store.lambda_messages[edge]
        assert len(store.trace) == 2 * len(net.edges)
        assert sent == []


def _cutset_queries(fixture_dir):
    """Every target of sprinkler, loopy8 and four grids, each with random evidence."""
    rng = np.random.default_rng(31)
    nets = [load_network(fixture_dir / f"{name}.bn") for name in ("sprinkler", "loopy8")]
    nets += [netgen.grid(rng, rows, cols) for rows, cols in ((3, 3), (3, 4), (4, 4), (4, 5))]
    for net in nets:
        for v in net.variables:
            yield net, v.id, netgen.random_evidence(rng, net, exclude=(v.id,))


def _split_components(net, target, e, cut):
    """The components of the split skeleton of a query's swept nodes, by
    their definition, each as (the nodes whose first piece it holds, its
    edges, whether it is needed).

    The swept nodes are the kept ones that are not prior-only.  Each
    swept node has one piece, and an observed or cut node one more piece
    per swept child; an edge joins its child's first piece to its
    parent's piece for that edge, or to the parent's one piece.  On a
    network whose CPT entries are all positive, the components holding
    a piece of the target or of a cut node are needed and the others
    deferred; with a zero entry every component is needed.
    """
    swept = _relevant(net, target, e, cut) - _prior_only(net, target, e, cut)
    observed = set(e.hard_states()) | set(cut)
    skeleton = nx.Graph()
    skeleton.add_nodes_from((v, None) for v in swept)
    edges = {}
    for i, (u, w) in enumerate(net.edges):
        if {u, w} <= swept:
            skeleton.add_edge((u, i if u in observed else None), (w, None))
            edges[i] = (w, None)
    positive = all((c.table > 0).all() for c in net.cpts)
    return [({v for v, piece in part if piece is None},
             {i for i, nd in edges.items() if nd in part},
             not positive or any(v in cut or v == target for v, _ in part))
            for part in nx.connected_components(skeleton)]


def _needed_components(net, target, e, cut):
    """The swept edges of a query, as (edges needed, edges deferred)."""
    parts = _split_components(net, target, e, cut)
    return (sorted(i for _, inside, needed in parts if needed for i in inside),
            sorted(i for _, inside, needed in parts if not needed for i in inside))


def test_a_cutset_run_sends_only_the_pruned_collect_pass_until_traces_are_read(
        monkeypatch, fixture_dir):
    sent = _spy_sends(monkeypatch)
    pruned = deferring = 0
    for net, target, e in _cutset_queries(fixture_dir):
        cut = select_cutset(net).nodes
        keep = _relevant(net, target, e, cut)
        inside = [i for i, (_, w) in enumerate(net.edges) if w in keep]
        pruned += len(inside) < len(net.edges)
        needed, deferred = _needed_components(net, target, e, cut)
        deferring += bool(deferred)

        sent.clear()
        infer(net, target, e, Method.CUTSET)
        # One collect message per edge of the components that hold the
        # target or a piece of a cut node, and no other.
        assert sorted(i for _, i in sent) == needed

        sent.clear()
        run = run_cutset_conditioning(net, target, e)
        assert sorted(i for _, i in sent) == needed
        # Reading the weights sends each other collect message of the
        # kept part once; reading the traces then sends every message
        # once in all.
        run.weights
        assert sorted(i for _, i in sent) == sorted(needed + deferred) == inside
        run.traces
        assert sorted(sent) == _every_message(net)

        # Reading the traces first sends every message once as well.
        sent.clear()
        run = run_cutset_conditioning(net, target, e)
        run.traces, run.weights
        assert sorted(sent) == _every_message(net)
    assert pruned > 20
    assert deferring > 5


def test_leaving_components_out_changes_no_trace_and_moves_no_answer(
        monkeypatch, fixture_dir, polytree_corpus):
    # The same queries with every component swept at once, as on a
    # network with a zero entry: every trace line is the same, bit for
    # bit, polytree beliefs too, and loopy beliefs and the weights move
    # only by rounding.
    queries = list(_cutset_queries(fixture_dir))
    for net, e in polytree_corpus[:100]:
        free = [v.id for v in net.variables if not e.is_hard(v.id)]
        queries += [(net, free[-1], e)] if free else []
    runs = [run_cutset_conditioning(net, target, e) for net, target, e in queries]
    monkeypatch.setattr(BayesianNetwork, "_positive", False)
    for (net, target, e), run in zip(queries, runs):
        whole = run_cutset_conditioning(net, target, e)
        assert run.traces == whole.traces
        moved = np.max(np.abs(run.belief.probabilities - whole.belief.probabilities))
        assert moved <= (1e-15 if run.cutset.nodes else 0.0)
        assert run.weights.keys() == whole.weights.keys()
        for combo, w in whole.weights.items():
            assert abs(run.weights[combo] - w) <= 1e-15 * w


def _observed_chain(n=400, extra=()):
    """X0 -> ... -> X(n-1), binary, with every node but the last observed
    in alternating states; ``extra`` holds (variables, tables) of one more
    component."""
    flip = [[0.9, 0.1], [0.1, 0.9]]
    variables, tables = extra or ((), ())
    net = BayesianNetwork(
        (*(Variable(f"X{i}", ("s0", "s1")) for i in range(n)), *variables),
        (Cpt("X0", (), [0.5, 0.5]),
         *(Cpt(f"X{i}", (f"X{i - 1}",), flip) for i in range(1, n)), *tables))
    return net, {f"X{i}": HardEvidence(i % 2) for i in range(n - 1)}


def test_a_long_observed_chain_answers_though_its_evidence_mass_underflows():
    # P(e) = 0.5 * 0.1**398 is below the smallest float, but the target
    # X399 needs only its own component of the split chain: the cut-off
    # components, each of positive mass, are swept when the weights are
    # read, and their product reads 0.0.  ``propagate`` sweeps them all,
    # and decides impossibility per component, not on the product.
    net, findings = _observed_chain()
    e = Evidence(findings)
    want = infer(net, "X399", e).belief.probabilities
    for method in (Method.POLYTREE, Method.CUTSET):
        belief = infer(net, "X399", e, method).belief.probabilities
        assert np.max(np.abs(belief - [0.9, 0.1])) <= 1e-12
    run = run_cutset_conditioning(net, "X399", e)
    assert run.weights[()] == 0.0
    store = propagate(net, e)
    assert store.evidence_mass == 0.0
    assert np.max(np.abs(store.beliefs["X399"].probabilities - [0.9, 0.1])) <= 1e-12
    assert np.max(np.abs(store.beliefs["X399"].probabilities - want)) <= 1e-12


def test_propagate_raises_when_one_component_of_an_underflowing_chain_is_impossible():
    net, findings = _observed_chain(extra=(
        (Variable("A", ("a", "b")), Variable("B", ("a", "b"))),
        (Cpt("A", (), [0.3, 0.7]), Cpt("B", ("A",), [[1.0, 0.0], [0.0, 1.0]]))))
    with pytest.raises(ImpossibleEvidenceError):
        propagate(net, Evidence({**findings, "A": HardEvidence(0), "B": HardEvidence(1)}))
    store = propagate(net, Evidence({**findings, "A": HardEvidence(1), "B": HardEvidence(1)}))
    assert store.evidence_mass == 0.0
    assert store.beliefs["A"].probabilities.tolist() == [0.0, 1.0]


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
            run_cutset_conditioning(net, "T", e)
    for e in (Evidence({"C": HardEvidence(1)}),
              Evidence({"B": HardEvidence(1), "C": SoftEvidence([0.0, 2.0])})):
        full = propagate(net, e)
        run = run_cutset_conditioning(net, "T", e)
        assert run.weights[()] == pytest.approx(full.evidence_mass, rel=1e-15, abs=0)
        assert np.allclose(run.belief.probabilities,
                           posterior(net, "T", e).probabilities, atol=1e-12)
        assert run.traces[()] == full.trace
