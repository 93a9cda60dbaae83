"""Property tests on random networks: the engines agree on valid DAGs and
every engine rejects an invalid network with a typed error."""

import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import beliefnet
import netgen
from beliefnet import (
    BayesianNetwork,
    Cpt,
    Evidence,
    HardEvidence,
    ImpossibleEvidenceError,
    Method,
    NetworkValidationError,
    QueryClass,
    SoftEvidence,
    Variable,
    classify_query,
    conditioned_posterior,
    d_separated,
    evidence_probability,
    evidence_weight,
    fixed_point_delta,
    infer,
    instantiation_weight,
    is_polytree,
    is_valid_cutset,
    joint_probability,
    marginal_joint,
    most_probable_assignment,
    posterior,
    propagate,
    run_cutset_conditioning,
    select_cutset,
    validate,
    weighted_joint,
)
from beliefnet import propagation
from beliefnet.model import ROW_SUM_TOL, Violation, _once


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


@st.composite
def generated_networks(draw):
    """A netgen polytree or loopy DAG small enough to enumerate."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 12))
    if draw(st.booleans()):
        return netgen.random_loopy(rng, n)
    return netgen.random_polytree(rng, n, max_states=3)


@given(generated_networks())
def test_each_cached_prior_is_the_marginal_and_the_sweeps_message(net):
    # A node's prior is exact where its ancestors form an in-tree, each
    # with one child among them; only such nodes can be prior-only, so
    # queries on every target cache no other.
    comp = _once(net, propagation._Compiled)
    for v in net.variables:
        infer(net, v.id)
    cached = set(comp.priors)
    joint = weighted_joint(net)
    axes = set(range(len(net.variables)))
    in_tree = set()
    for i, v in enumerate(net.variables):
        above = net.ancestors(v.id) | {v.id}
        if all(len(above.intersection(net.children(u))) == 1 for u in above - {v.id}):
            in_tree.add(i)
            prior = comp.prior(i)
            assert prior.shape == (1, v.arity)
            assert _far(prior[0], joint.sum(axis=tuple(axes - {i}))) <= 1e-12
    assert cached <= in_tree
    if not is_polytree(net):
        return
    # Where a node and all its ancestors each have one child, no sweep
    # multiplies in a lambda message on the way down, so the full
    # sweep's pi message is the cached prior, bit for bit.
    store = propagate(net)
    for v in net.variables:
        if all(len(net.children(u)) == 1 for u in {v.id, *net.ancestors(v.id)}):
            edge = (v.id, net.children(v.id)[0])
            assert np.array_equal(comp.prior(comp.index[v.id])[0], store.pi_messages[edge])


@st.composite
def zeroed_queries(draw):
    """A netgen polytree or loopy DAG, with strictly positive tables or
    with some entries zeroed, a target and hard and soft evidence."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 9))
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.6]))
    if draw(st.booleans()):
        net = netgen.random_loopy(rng, n, zero_share=zero_share)
    else:
        net = netgen.random_polytree(rng, n, max_states=3, zero_share=zero_share)
    target = draw(st.sampled_from([v.id for v in net.variables]))
    entries = {v.id: _finding(draw, v) for v in net.variables
               if v.id != target and draw(st.integers(0, 2)) == 0}
    return net, target, Evidence(entries)


@given(zeroed_queries())
def test_every_engine_finds_impossible_evidence_exactly_when_enumeration_does(query):
    # The cut-off components of a positive network are swept only when
    # the weights are read; a network with a zero entry sweeps them all.
    net, target, e = query
    p_e = evidence_probability(net, e)
    methods = [Method.CUTSET, Method.ENUMERATION] + [Method.POLYTREE] * bool(is_polytree(net))
    for method in methods:
        if p_e == 0:
            with pytest.raises(ImpossibleEvidenceError):
                infer(net, target, e, method)
        else:
            assert _far(infer(net, target, e, method).belief.probabilities,
                        posterior(net, target, e).probabilities) <= 1e-9
    if p_e == 0:
        with pytest.raises(ImpossibleEvidenceError):
            run_cutset_conditioning(net, target, e)
    else:
        run = run_cutset_conditioning(net, target, e)
        assert abs(sum(run.weights.values()) - p_e) <= 1e-12 * p_e


@st.composite
def classification_queries(draw):
    """A netgen polytree or loopy DAG, a target and hard and soft
    evidence, sometimes with soft evidence on the target itself."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 30))
    loopy = draw(st.booleans())
    net = netgen.random_loopy(rng, n, extra_edges=(1, 4)) if loopy else netgen.random_polytree(rng, n)
    target = draw(st.sampled_from([v.id for v in net.variables]))
    p_node = draw(st.sampled_from([0.1, 0.3, 0.6]))
    entries = dict(netgen.random_evidence(rng, net, p_node, exclude=(target,)).entries)
    assume(entries)
    if draw(st.booleans()):
        entries[target] = SoftEvidence(rng.uniform(0.1, 1.0, net.arity(target)))
    return net, target, Evidence(entries)


@given(classification_queries())
def test_one_pass_classification_matches_one_separation_test_per_evidence_node(query):
    net, target, e = query
    anc, desc = net.ancestors(target), net.descendants(target)
    want = {}
    for v in (u.id for u in net.variables):
        if v == target or not e.has(v) or d_separated(net, v, target, e.without(v)):
            continue
        want[v] = (QueryClass.FORWARD if v in anc
                   else QueryClass.BACKWARD if v in desc
                   else QueryClass.INTERCAUSAL)
    assert list(classify_query(net, target, e).sub_verdicts.items()) == list(want.items())


@st.composite
def repeated_patterns(draw):
    """A netgen polytree, loopy DAG or small grid, a target, two sets of
    hard and soft findings on the same nodes with independent values, and
    a third on those nodes with each finding's kind swapped."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["polytree", "loopy", "grid"]))
    if shape == "grid":
        net = netgen.grid(rng, draw(st.integers(2, 3)), draw(st.integers(2, 4)))
    elif shape == "loopy":
        net = netgen.random_loopy(rng, draw(st.integers(4, 10)))
    else:
        net = netgen.random_polytree(rng, draw(st.integers(2, 20)))
    target = draw(st.sampled_from([v.id for v in net.variables]))
    p_node = draw(st.sampled_from([0.2, 0.4, 0.7]))
    first = netgen.random_evidence(rng, net, p_node, exclude=(target,))
    swapped = Evidence({v: SoftEvidence(rng.uniform(0.1, 1.0, net.arity(v))) if first.is_hard(v)
                        else HardEvidence(int(rng.integers(net.arity(v)))) for v in first})
    return net, target, first, [netgen.revalued(rng, net, first), swapped]


def _answer(result):
    return result.belief.probabilities.tobytes(), result.classification, result.trace


@given(repeated_patterns())
def test_a_plan_carries_no_evidence_value(query):
    # A query's plan depends on which nodes are observed, and which of
    # them hard, not on the values: the same nodes observed again answer
    # as on a network that has answered nothing, bit for bit.
    net, target, first, later = query
    methods = [Method.AUTO, Method.CUTSET] + [Method.POLYTREE] * bool(is_polytree(net))
    runs = [(method, trace) for method in methods for trace in (False, True)]
    for method, trace in runs:
        infer(net, target, first, method, trace=trace)
    run_cutset_conditioning(net, target, first).weights
    for e in later:
        # Only ever asked about these values.
        cold = netgen.twin(net)
        for method, trace in runs:
            assert _answer(infer(net, target, e, method, trace=trace)) == \
                _answer(infer(cold, target, e, method, trace=trace))
        again = run_cutset_conditioning(net, target, e).weights
        fresh = run_cutset_conditioning(cold, target, e).weights
        assert [w.hex() for w in again.values()] == [w.hex() for w in fresh.values()]


def _reference_joint(net, e):
    """The weighted joint over every state of every variable, each CPT
    broadcast into place in declaration order, then each evidence weight
    in evidence order; it shares no code with the library."""
    axis = {v.id: i for i, v in enumerate(net.variables)}
    dims = [v.arity for v in net.variables]
    tables = {c.child: c for c in net.cpts}
    joint = np.ones(dims)
    for v in net.variables:
        axes = [axis[p] for p in tables[v.id].parents] + [axis[v.id]]
        table = tables[v.id].table.reshape([dims[a] for a in axes])
        joint *= np.transpose(table, np.argsort(axes)).reshape(
            [dims[a] if a in axes else 1 for a in range(len(dims))])
    for var, f in e.entries.items():
        w = f.likelihood if isinstance(f, SoftEvidence) else np.eye(dims[axis[var]])[f.state]
        joint *= w.reshape([dims[a] if a == axis[var] else 1 for a in range(len(dims))])
    return joint


def _reference_marginal(net, joint, targets):
    keep = [[v.id for v in net.variables].index(t) for t in targets]
    marg = joint.sum(axis=tuple(a for a in range(joint.ndim) if a not in keep))
    marg = np.transpose(marg, [sorted(keep).index(k) for k in keep])
    return marg / marg.sum() if marg.sum() > 0 else None


def _ulps(got, want):
    """How many doubles apart two arrays of non-negative numbers are, at most."""
    return int(np.max(np.abs(np.asarray(got, dtype=np.float64).view(np.int64)
                             - np.asarray(want, dtype=np.float64).view(np.int64))))


@st.composite
def enumeration_queries(draw):
    """A netgen polytree, loopy DAG or small grid, some with zeroed
    tables, two free targets and hard and soft findings, the soft ones
    sometimes with zero weights, the first target's among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["polytree", "loopy", "grid"]))
    zero_share = draw(st.sampled_from([0.0, 0.5]))
    if shape == "grid":
        net = netgen.grid(rng, draw(st.integers(2, 3)), draw(st.integers(2, 4)))
    elif shape == "loopy":
        net = netgen.random_loopy(rng, draw(st.integers(3, 9)), zero_share=zero_share)
    else:
        net = netgen.random_polytree(rng, draw(st.integers(2, 9)), max_states=3,
                                     zero_share=zero_share)
    target, other = draw(st.permutations([v.id for v in net.variables]))[:2]
    entries = {v.id: _finding(draw, v) for v in net.variables
               if v.id not in (target, other) and draw(st.integers(0, 2))}
    if draw(st.booleans()):
        weights = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=net.arity(target),
                                max_size=net.arity(target)))
        entries[target] = SoftEvidence(weights if any(weights) else [1.0] * net.arity(target))
    return net, target, other, Evidence(entries)


# The most an answer summed from the narrowed joint may differ from the
# full joint's, in ulps: leaving out the zeros regroups the same terms.
# 4 is the worst seen in 20,000 drawn queries; this suite's 300 see 2.
ENUMERATION_ULPS = 4


@given(enumeration_queries())
def test_enumeration_matches_the_full_joint_it_narrows(query):
    net, target, other, e = query
    joint = _reference_joint(net, e)
    got = weighted_joint(net, e)
    assert got.shape == joint.shape and got.tobytes() == joint.tobytes()
    assert _ulps(evidence_probability(net, e), joint.sum()) <= ENUMERATION_ULPS
    want = _reference_marginal(net, joint, [target])
    pair = _reference_marginal(net, joint, [other, target])
    if want is None:
        for impossible in (lambda: posterior(net, target, e),
                           lambda: infer(net, target, e, Method.ENUMERATION),
                           lambda: marginal_joint(net, [other, target], e),
                           lambda: most_probable_assignment(net, e)):
            with pytest.raises(ImpossibleEvidenceError):
                impossible()
        return
    assert _ulps(posterior(net, target, e).probabilities, want) <= ENUMERATION_ULPS
    assert _ulps(infer(net, target, e, Method.ENUMERATION).belief.probabilities, want) \
        <= ENUMERATION_ULPS
    assert _ulps(marginal_joint(net, [other, target], e), pair) <= ENUMERATION_ULPS
    states = np.unravel_index(int(np.argmax(joint)), joint.shape)
    assert most_probable_assignment(net, e)[0] == \
        {v.id: int(s) for v, s in zip(net.variables, states)}


# Joints past 2**15 entries, which the builder expands in place chunk by
# chunk: grids, and a polytree declaring children before their parents,
# so that one table brings two or three new axes at once.
LARGE_JOINTS = {
    "grid4x4": lambda: netgen.grid(np.random.default_rng(44), 4, 4),
    "grid4x5": lambda: netgen.grid(np.random.default_rng(45), 4, 5),
    "polytree17": lambda: netgen.random_polytree(np.random.default_rng(8), 17, max_states=3),
}


def _large_joint_findings(net):
    """Queries on a large joint: a target, then evidence that is empty,
    hard (narrowing axes), soft with a zero weight, and soft with a zero
    weight on the target."""
    target, hard, soft, other = (v.id for v in net.variables[2:6])
    zero_first = [0.0] + [1.5] * (net.arity(soft) - 1)
    return target, [
        Evidence.empty(),
        Evidence({hard: HardEvidence(1), other: HardEvidence(0)}),
        Evidence({soft: SoftEvidence(zero_first), hard: HardEvidence(0)}),
        Evidence({target: SoftEvidence([0.0] + [0.5] * (net.arity(target) - 1)),
                  soft: SoftEvidence([0.25] * net.arity(soft))}),
    ]


@pytest.mark.parametrize("name", sorted(LARGE_JOINTS))
def test_large_joints_match_the_full_joint_bit_for_bit(name):
    net = LARGE_JOINTS[name]()
    assert net.joint_state_count > 1 << 15
    target, findings = _large_joint_findings(net)
    for e in findings:
        joint = _reference_joint(net, e)
        assert weighted_joint(net, e).tobytes() == joint.tobytes()
        want = _reference_marginal(net, joint, [target])
        assert _ulps(posterior(net, target, e).probabilities, want) <= ENUMERATION_ULPS


def test_the_joint_is_built_in_one_buffer():
    # The product is expanded and multiplied in place: a query holds the
    # joint and at most a few small rows, never a second joint.
    net = LARGE_JOINTS["grid4x5"]()
    posterior(net, "G0")
    tracemalloc.start()
    try:
        posterior(net, "G7")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * net.joint_state_count + (512 << 10)


DEFECTS = ("missing-cpt", "cycle", "row-sum", "probability-range", "unknown-parent",
           "duplicate-cpt")


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
    elif defect == "probability-range":
        table = c.table.copy()
        table[0] = 0.0
        table[0, :2] = (1.5, -0.5)    # still sums to one
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


# Every public callable whose first parameter is a network is in one group.
# Engines raise what validate reports on any invalid network.
ENGINES = ("classify_query", "conditioned_posterior", "evidence_probability", "evidence_weight",
           "fixed_point_delta", "infer", "instantiation_weight", "joint_probability",
           "marginal_joint", "most_probable_assignment", "posterior", "propagate",
           "run_cutset_conditioning", "weighted_joint")
# Methods of a network that read a table's layout reject an invalid one as
# the engines do.
TABLE_READERS = ("cpt_row", "cpt_tensor")
# These read only the graph: they raise the cycle violation on a directed
# cycle and may answer otherwise.
STRUCTURE_ONLY = ("d_separated", "is_valid_cutset", "select_cutset")
EXEMPT = {
    "validate": "it reports the violations rather than raising them",
    "is_polytree": "its answer is a property of the undirected skeleton alone",
    "classify_connection": "it reads only the edges between three named nodes",
    "serialize_network": "it writes a network out as given and computes nothing from it",
}


def test_every_public_callable_that_takes_a_network_is_in_one_group():
    takes_a_network = {
        name for name in beliefnet.__all__
        if inspect.isfunction(obj := getattr(beliefnet, name))
        and next(iter(inspect.signature(obj).parameters)) == "net"}
    grouped = [*ENGINES, *STRUCTURE_ONLY, *EXEMPT]
    assert len(grouped) == len(set(grouped))
    assert takes_a_network == set(grouped)


def _public_calls(net):
    """Calls of every grouped public callable but the exempt ones, and of
    the table readers, by name; ``infer`` once per method."""
    ids = [v.id for v in net.variables]
    x, t = ids[0], ids[-1]
    e = Evidence({x: HardEvidence(0)})
    engines = _engines(net)
    calls = {name: [call] for name, call in engines.items() if not name.startswith("infer-")}
    calls["infer"] = [call for name, call in engines.items() if name.startswith("infer-")]
    calls.update({
        "weighted_joint": [lambda: weighted_joint(net, e)],
        "marginal_joint": [lambda: marginal_joint(net, [t], e)],
        "most_probable_assignment": [lambda: most_probable_assignment(net, e)],
        # It rejects the network before it reads the store.
        "fixed_point_delta": [lambda: fixed_point_delta(net, e, None)],
        "d_separated": [lambda: d_separated(net, x, t, Evidence.empty())],
        "is_valid_cutset": [lambda: is_valid_cutset(net, [x])],
        "joint_probability": [lambda: joint_probability(net, {v: 0 for v in ids})],
        "select_cutset": [lambda: select_cutset(net)],
        # Both reject the network before they read the table or the states.
        "cpt_row": [lambda: net.cpt_row(t, ())],
        "cpt_tensor": [lambda: net.cpt_tensor(t)],
    })
    return calls


@given(broken_networks())
def test_every_public_callable_that_takes_a_network_rejects_random_invalid_ones(net):
    problems = validate(net)
    cycle = [v for v in problems if v.kind == "cycle"]
    calls = _public_calls(net)
    assert set(calls) == {*ENGINES, *TABLE_READERS, *STRUCTURE_ONLY}
    for name in ENGINES + TABLE_READERS:
        for call in calls[name]:
            with pytest.raises(NetworkValidationError) as exc:
                call()
            assert exc.value.violations == problems, name
    for name in STRUCTURE_ONLY if cycle else ():
        with pytest.raises(NetworkValidationError) as exc:
            calls[name][0]()
        assert exc.value.violations == cycle, name


# Entries that break a row: negative, above one, infinite, or finite and
# in range but off the row's sum.  NaN is left out here; the stacked-check
# test below puts it in a row.
DAMAGE = (-0.5, -1e-12, 1.5, 1.0 + 1e-9, np.inf, -np.inf, 0.0, 0.3, 1.0)


@st.composite
def damaged_networks(draw):
    """A valid or broken network with some CPT entries overwritten."""
    net = draw(st.one_of(networks(), broken_networks()))
    cpts = list(net.cpts)
    for _ in range(draw(st.integers(0, 5))):
        i = draw(st.integers(0, len(cpts) - 1))
        table = cpts[i].table.copy()
        r = draw(st.integers(0, table.shape[0] - 1))
        table[r, draw(st.integers(0, table.shape[1] - 1))] = draw(st.sampled_from(DAMAGE))
        cpts[i] = Cpt(cpts[i].child, cpts[i].parents, table)
    return BayesianNetwork(net.variables, cpts)


def _reference_violations(net):
    """validate as a loop over every row of every table, building each
    row's label whether or not the row fails."""
    out = []
    ids = {v.id for v in net.variables}
    for v in net.variables:
        if v.arity < 2:
            out.append(Violation("state-count", f"variable {v.id}",
                                 f"needs at least 2 states, has {v.arity}", v.id))
        if len(set(v.states)) != len(v.states):
            out.append(Violation("duplicate-state", f"variable {v.id}",
                                 "state labels are not unique", v.id))
    by_child = {}
    for c in net.cpts:
        by_child.setdefault(c.child, []).append(c)
    for child, cs in by_child.items():
        if child not in ids:
            out.append(Violation("unknown-child", f"cpt {child}",
                                 "table given for an undeclared variable", child))
        if len(cs) > 1:
            out.append(Violation("duplicate-cpt", f"cpt {child}",
                                 f"{len(cs)} tables given for one variable", child))
    for v in net.variables:
        if v.id not in by_child:
            out.append(Violation("missing-cpt", f"variable {v.id}", "no table given", v.id))
    for c in net.cpts:
        if c.child not in ids:
            continue
        arity = net.arity(c.child)
        bad_parent = False
        for p in c.parents:
            if p not in ids:
                out.append(Violation("unknown-parent", f"cpt {c.child}",
                                     f"parent {p!r} is not declared", c.child))
                bad_parent = True
        if c.child in c.parents:
            out.append(Violation("self-loop", f"cpt {c.child}",
                                 "variable listed as its own parent", c.child))
            bad_parent = True
        if len(set(c.parents)) != len(c.parents):
            out.append(Violation("duplicate-parent", f"cpt {c.child}",
                                 "parent list has repeats", c.child))
            bad_parent = True
        if c.table.shape[1] != arity:
            out.append(Violation("row-length", f"cpt {c.child}",
                                 f"rows have {c.table.shape[1]} entries, child has {arity} states",
                                 c.child))
            continue
        if bad_parent:
            continue
        pdims = tuple(net.arity(p) for p in c.parents)
        expect = int(np.prod(pdims, dtype=np.int64))
        if c.n_rows != expect:
            out.append(Violation("row-count", f"cpt {c.child}",
                                 f"has {c.n_rows} rows, parent states require {expect}", c.child))
            continue
        for r in range(c.n_rows):
            row = c.table[r]
            key = tuple(int(x) for x in np.unravel_index(r, pdims)) if pdims else ()
            label = ",".join(net.var(p).states[s] for p, s in zip(c.parents, key))
            where = f"cpt {c.child} row ({label})" if label else f"cpt {c.child} prior"
            if np.any(row < 0) or np.any(row > 1) or np.any(np.isnan(row)):
                out.append(Violation("probability-range", where,
                                     "entries outside [0, 1]", c.child, key))
            s = float(row.sum())
            if abs(s - 1.0) > ROW_SUM_TOL:
                out.append(Violation("row-sum", where,
                                     f"row sums to {s!r}, expected 1", c.child, key))
    if net.topological_order() is None:
        out.append(Violation("cycle", "network", "directed graph has a cycle", ""))
    return out


@given(damaged_networks())
def test_validate_matches_the_per_row_reference(net):
    with np.errstate(invalid="ignore"):     # a row holding both inf and -inf
        assert validate(net) == _reference_violations(net)


def test_validate_checks_tables_of_one_width_together_in_table_order():
    # Several tables of each width, damaged rows in more than one table of
    # a width, and structural defects between them: the stacked check must
    # give the per-row reference's violations in the same order.
    rng = np.random.default_rng(8)
    arities = {"A": 2, "B": 3, "C": 8, "H": 2, "D": 8, "E": 9, "I": 9, "F": 17, "G": 17}
    parents = {"A": (), "B": (), "C": ("A",), "H": ("Ghost",), "D": ("B",), "E": ("A", "B"),
               "I": ("C",), "F": ("B",), "G": ()}
    variables = tuple(Variable(v, tuple(f"{v.lower()}{k}" for k in range(n)))
                      for v, n in arities.items())
    tables = {}
    for v, ps in parents.items():
        rows = int(np.prod([arities.get(p, 2) for p in ps]))
        t = rng.uniform(0.1, 1.0, (rows, arities[v]))
        tables[v] = t / t.sum(axis=1, keepdims=True)
    tables["A"][0] = (0.7, 0.4)                     # off the sum
    tables["C"][1, 3] = np.nan
    tables["D"][2, :2] = (np.inf, -np.inf)
    tables["D"][0, 5] = -0.25
    tables["E"][4, 0] = 1.5
    tables["F"][2] = 0.0
    tables["G"][0, 16] += 1e-8
    tables["I"] = tables["I"][:-1]                  # a row short
    tables["I"][3, 1] = -1.0                        # not checked: the count is wrong
    net = BayesianNetwork(variables, tuple(Cpt(v, ps, tables[v]) for v, ps in parents.items()))
    with np.errstate(invalid="ignore"):     # the reference sums inf and -inf
        want = _reference_violations(net)
    assert validate(net) == want
    assert [(v.kind, v.subject, v.row) for v in want] == [
        ("row-sum", "A", ()),
        ("probability-range", "C", (1,)),
        ("unknown-parent", "H", None),
        ("probability-range", "D", (0,)), ("row-sum", "D", (0,)),
        ("probability-range", "D", (2,)),
        ("probability-range", "E", (1, 1)), ("row-sum", "E", (1, 1)),
        ("row-count", "I", None),
        ("row-sum", "F", (2,)),
        ("row-sum", "G", ()),
    ]
