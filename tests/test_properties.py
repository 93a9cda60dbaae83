"""Property tests on random networks: the engines agree on valid DAGs and
every engine rejects an invalid network with a typed error."""

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import netgen
from beliefnet import (
    BayesianNetwork,
    Cpt,
    Evidence,
    HardEvidence,
    Method,
    NetworkValidationError,
    SoftEvidence,
    classify_query,
    conditioned_posterior,
    evidence_probability,
    evidence_weight,
    infer,
    instantiation_weight,
    is_polytree,
    posterior,
    propagate,
    run_cutset_conditioning,
    select_cutset,
    validate,
)


@st.composite
def networks(draw, max_nodes=7):
    """A valid DAG: every edge runs from a lower to a higher index, at
    most three parents per node, strictly positive tables."""
    n = draw(st.integers(2, max_nodes))
    arities = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    parents = [draw(st.lists(st.integers(0, i - 1), max_size=3, unique=True)) if i else []
               for i in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return netgen.assemble(rng, parents, arities)


def _finding(draw, var):
    if draw(st.booleans()):
        return HardEvidence(draw(st.integers(0, var.arity - 1)))
    weights = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 1.7]),
                            min_size=var.arity, max_size=var.arity))
    return SoftEvidence(weights if any(weights) else [1.0] * var.arity)


@st.composite
def queries(draw):
    """A network, a target and hard and soft evidence on other nodes,
    sometimes on a node of the loop cutset."""
    net = draw(networks())
    target = draw(st.sampled_from([v.id for v in net.variables]))
    entries = {}
    for v in net.variables:
        if v.id != target and draw(st.integers(0, 3)) == 0:
            entries[v.id] = _finding(draw, v)
    cut = [c for c in select_cutset(net) if c != target]
    if cut and draw(st.booleans()):
        c = draw(st.sampled_from(cut))
        entries[c] = _finding(draw, net.var(c))
    return net, target, Evidence(entries)


def _far(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@given(queries())
def test_engines_agree_on_random_dags(query):
    net, target, e = query
    want = posterior(net, target, e).probabilities
    run = run_cutset_conditioning(net, target, e)
    assert _far(run.belief.probabilities, want) <= 1e-9
    assert abs(sum(run.weights.values()) - evidence_probability(net, e)) <= 1e-9
    assert _far(infer(net, target, e).belief.probabilities, want) <= 1e-9
    if is_polytree(net):
        store = propagate(net, e)
        assert _far(store.beliefs[target].probabilities, want) <= 1e-9
        assert abs(store.evidence_mass - evidence_probability(net, e)) <= 1e-9


@st.composite
def polytree_queries(draw, max_nodes=9):
    """A polytree or forest, a free target and hard and soft evidence."""
    n = draw(st.integers(1, max_nodes))
    arities = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    parents: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        # Each node joins at most one earlier node, so the skeleton stays a forest.
        if draw(st.integers(0, 4)):
            j = draw(st.integers(0, i - 1))
            if draw(st.booleans()):
                parents[i].append(j)
            else:
                parents[j].append(i)
    net = netgen.assemble(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), parents, arities)
    target = draw(st.sampled_from([v.id for v in net.variables]))
    entries = {v.id: _finding(draw, v) for v in net.variables
               if v.id != target and draw(st.integers(0, 2)) == 0}
    return net, target, Evidence(entries)


def _split(line):
    head, values = line.rsplit(" ", 1)
    return head, np.array([float(p) for p in values.split(",")])


@given(polytree_queries())
def test_pruned_polytree_answer_and_trace_match_the_full_sweep(query):
    net, target, e = query
    full = propagate(net, e)
    plain = infer(net, target, e, Method.POLYTREE)
    traced = infer(net, target, e, Method.POLYTREE, trace=True)
    belief = plain.belief.probabilities
    assert _far(belief, full.beliefs[target].probabilities) <= 1e-12
    assert _far(belief, posterior(net, target, e).probabilities) <= 1e-9
    assert np.array_equal(traced.belief.probabilities, belief)
    assert len(traced.trace) == len(full.trace) == 2 * len(net.edges)
    for got, want in zip(traced.trace, full.trace):
        (head, values), (want_head, want_values) = _split(got), _split(want)
        assert head == want_head
        assert _far(values, want_values) <= 1e-15


DEFECTS = ("missing-cpt", "cycle", "row-sum", "unknown-parent", "duplicate-cpt")


@st.composite
def broken_networks(draw):
    """A valid network with one structural defect planted."""
    net = draw(networks())
    defect = draw(st.sampled_from(DEFECTS))
    cpts = list(net.cpts)
    i = draw(st.integers(0, len(cpts) - 1))
    c = cpts[i]
    if defect == "missing-cpt":
        del cpts[i]
    elif defect == "row-sum":
        table = c.table.copy()
        table[0, 0] += 0.5
        cpts[i] = Cpt(c.child, c.parents, table)
    elif defect == "unknown-parent":
        cpts[i] = Cpt(c.child, c.parents + ("Ghost",), np.repeat(c.table, 2, axis=0))
    elif defect == "duplicate-cpt":
        cpts.append(c)
    else:
        # Close a directed cycle: the child of an edge becomes a parent of its parent.
        assume(net.edges)
        u, w = net.edges[draw(st.integers(0, len(net.edges) - 1))]
        j = [d.child for d in cpts].index(u)
        d = cpts[j]
        cpts[j] = Cpt(u, d.parents + (w,), np.repeat(d.table, net.arity(w), axis=0))
    return BayesianNetwork(net.variables, cpts)


def _engines(net):
    ids = [v.id for v in net.variables]
    x, t = ids[0], ids[-1]
    e = Evidence({x: HardEvidence(0)})
    return {
        "posterior": lambda: posterior(net, t, e),
        "evidence_probability": lambda: evidence_probability(net, e),
        "evidence_weight": lambda: evidence_weight(net, e, {v: 0 for v in ids}),
        "propagate": lambda: propagate(net, e),
        "run_cutset_conditioning": lambda: run_cutset_conditioning(net, t, e),
        "conditioned_posterior": lambda: conditioned_posterior(net, t, e),
        "instantiation_weight": lambda: instantiation_weight(net, {t: 0}, e),
        "classify_query": lambda: classify_query(net, t, e),
        **{f"infer-{m.value}": (lambda m=m: infer(net, t, e, m)) for m in Method},
    }


@given(broken_networks())
def test_every_engine_rejects_random_invalid_networks(net):
    problems = validate(net)
    assert problems
    for name, call in _engines(net).items():
        with pytest.raises(NetworkValidationError) as exc:
            call()
        assert exc.value.violations == problems, name
