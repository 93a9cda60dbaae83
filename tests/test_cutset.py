import dataclasses
import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import netgen
from beliefnet import (
    BayesianNetwork,
    Cpt,
    CutsetRun,
    Evidence,
    HardEvidence,
    ImpossibleEvidenceError,
    InvalidQueryError,
    LoopCutset,
    Method,
    NetworkTooLargeError,
    NotAPolytreeError,
    SoftEvidence,
    Variable,
    conditioned_posterior,
    evidence_probability,
    infer,
    instantiation_weight,
    load_network,
    posterior,
    propagate,
    run_cutset_conditioning,
    select_cutset,
)
from beliefnet import cutset, propagation
from beliefnet.model import _bind_evidence, _once


def test_sprinkler_conditioning(sprinkler_net):
    e = Evidence({"X4": HardEvidence(0)})
    run = run_cutset_conditioning(sprinkler_net, "X3", e)
    assert run.cutset.nodes == ("X1",)
    assert run.instantiation_count == 2
    assert set(run.weights) == {(0,), (1,)}
    assert run.belief[0] == pytest.approx(0.41380598176216116, abs=1e-12)
    want = posterior(sprinkler_net, "X3", e).probabilities
    assert np.allclose(run.belief.probabilities, want, atol=1e-12)


def test_explaining_away_through_conditioning(sprinkler_net):
    wet = Evidence({"X4": HardEvidence(0)})
    wet_rain = Evidence({"X4": HardEvidence(0), "X2": HardEvidence(0)})
    b1 = conditioned_posterior(sprinkler_net, "X3", wet)
    b2 = conditioned_posterior(sprinkler_net, "X3", wet_rain)
    assert b2[0] == pytest.approx(0.17589175891758918, abs=1e-12)
    assert b2[0] < b1[0]


def test_weights_sum_to_evidence_probability(sprinkler_net):
    e = Evidence({"X5": HardEvidence(0), "X2": SoftEvidence([0.8, 0.3])})
    run = run_cutset_conditioning(sprinkler_net, "X1", e)
    assert sum(run.weights.values()) == pytest.approx(
        evidence_probability(sprinkler_net, e), abs=1e-12)
    for combo, w in run.weights.items():
        inst = dict(zip(run.cutset.nodes, combo))
        assert w == pytest.approx(instantiation_weight(sprinkler_net, inst, e), abs=1e-15)


def test_evidence_on_cutset_node_zeroes_other_branch(sprinkler_net):
    e = Evidence({"X1": HardEvidence(0)})
    run = run_cutset_conditioning(sprinkler_net, "X4", e)
    assert run.weights[(1,)] == 0.0
    assert run.traces[(1,)] == ()
    assert run.weights[(0,)] == pytest.approx(0.6, abs=1e-12)
    assert len(run.traces[(0,)]) > 0


def test_two_loop_network_matches_enumeration(loopy8_net):
    e = Evidence({"H": HardEvidence(0), "C": SoftEvidence([0.5, 1.0, 0.25])})
    run = run_cutset_conditioning(loopy8_net, "D", e)
    assert run.cutset.nodes == ("A", "B")
    assert run.instantiation_count == 4
    assert sum(run.weights.values()) == pytest.approx(0.29725364515624997, abs=1e-12)
    want = posterior(loopy8_net, "D", e).probabilities
    assert np.allclose(run.belief.probabilities, want, atol=1e-12)


def test_polytree_degenerates_to_single_sweep(serial_net):
    e = Evidence({"X": HardEvidence(0)})
    run = run_cutset_conditioning(serial_net, "Z", e)
    assert run.cutset.nodes == ()
    assert run.instantiation_count == 1
    assert run.weights == {(): pytest.approx(0.9, abs=1e-12)}
    assert run.belief[0] == pytest.approx(0.809, abs=1e-12)


def test_traces_record_each_sweep(sprinkler_net):
    run = run_cutset_conditioning(sprinkler_net, "X5")
    assert set(run.traces) == set(run.weights)
    for trace in run.traces.values():
        assert len(trace) == 2 * len(sprinkler_net.edges)
        assert all(line.startswith("MSG ") for line in trace)


def test_a_polytree_run_weighs_its_row_by_the_evidence_mass(polytree_corpus):
    # The pruned run leaves out the normalisers of the prior-only
    # in-trees, each 1 up to rounding, which the full sweep multiplies in.
    for net, e in polytree_corpus[:200]:
        target = next((v.id for v in net.variables if not e.is_hard(v.id)), None)
        if target is None:
            continue
        run = run_cutset_conditioning(net, target, e)
        want = propagate(net, e).evidence_mass
        assert abs(run.weights[()] - want) <= 1e-14 * want


def test_instantiation_weight_checks_names(sprinkler_net):
    with pytest.raises(ValueError):
        instantiation_weight(sprinkler_net, {"nope": 0})


@pytest.mark.parametrize("state", [0.5, 1.0, "0", None])
def test_instantiation_weight_rejects_a_state_that_is_not_an_integer(serial_net, state):
    with pytest.raises(ValueError, match="not an integer"):
        instantiation_weight(serial_net, {"X": state})


def test_instantiation_weight_takes_a_numpy_integer_state(serial_net):
    assert instantiation_weight(serial_net, {"X": np.int64(1)}) == \
        instantiation_weight(serial_net, {"X": 1})


def test_instantiation_weight_rejects_instantiated_nodes_that_leave_a_loop(sprinkler_net):
    # Nothing cuts the sprinkler's loop, so the sweep's walk reaches a
    # split node a second way.  An instantiation the evidence rules out
    # needs no sweep: its mass is exactly zero whatever loops it leaves.
    with pytest.raises(NotAPolytreeError, match="loop not cut by the instantiated nodes"):
        instantiation_weight(sprinkler_net, {})
    w = instantiation_weight(sprinkler_net, {"X5": 0}, Evidence({"X5": HardEvidence(1)}))
    assert w == 0.0 and not np.signbit(w)


@pytest.mark.parametrize("zero_share", [0.0, 0.3])
@pytest.mark.parametrize("hard", [True, False], ids=["hard", "soft"])
def test_an_instantiation_the_evidence_rules_out_weighs_exactly_zero(zero_share, hard):
    # A hard finding on a cut node in another state, or a soft one that
    # weighs the cut state zero: the mass is +0.0, and no division by
    # zero or 0 * inf happens on the way to it.
    net = netgen.random_loopy(np.random.default_rng(4), 10, zero_share=zero_share)
    assert net._positive == (not zero_share)
    nodes = select_cutset(net).nodes
    var = nodes[-1]
    c = dict.fromkeys(nodes, 0)
    finding = HardEvidence(1) if hard else SoftEvidence([0.0] + [1.0] * (net.arity(var) - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = instantiation_weight(net, c, Evidence({var: finding}))
    assert w == 0.0 and not np.signbit(w)


def test_hard_target_rejected(sprinkler_net):
    with pytest.raises(InvalidQueryError):
        run_cutset_conditioning(sprinkler_net, "X4",
                                Evidence({"X4": HardEvidence(0)}))


def _deterministic_diamond():
    # B and C copy A; the loop A-B-D-C survives in the skeleton.
    copy = [[1.0, 0.0], [0.0, 1.0]]
    two = ("t", "f")
    return BayesianNetwork(
        (Variable("A", two), Variable("B", two), Variable("C", two),
         Variable("D", two)),
        (Cpt("A", (), [0.5, 0.5]), Cpt("B", ("A",), copy), Cpt("C", ("A",), copy),
         Cpt("D", ("B", "C"), [[0.9, 0.1], [0.4, 0.6], [0.7, 0.3], [0.2, 0.8]])))


def test_impossible_evidence_raises():
    net = _deterministic_diamond()
    e = Evidence({"B": HardEvidence(0), "C": HardEvidence(1)})
    with pytest.raises(ImpossibleEvidenceError):
        run_cutset_conditioning(net, "D", e)


def test_deterministic_diamond_matches_enumeration():
    net = _deterministic_diamond()
    e = Evidence({"D": HardEvidence(0)})
    run = run_cutset_conditioning(net, "B", e)
    assert run.cutset.nodes == ("A",)
    want = posterior(net, "B", e).probabilities
    assert np.allclose(run.belief.probabilities, want, atol=1e-12)
    assert isinstance(run, CutsetRun)


def _numbers(line):
    head, values = line.rsplit(" ", 1)
    return head, [float(x) for x in values.split(",")]


def _same_lines(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        (head_a, xs), (head_b, ys) = _numbers(a), _numbers(b)
        assert head_a == head_b
        assert np.max(np.abs(np.subtract(xs, ys))) <= 1e-12


BATCHED = [
    ("sprinkler", "X4", Evidence({"X5": HardEvidence(0), "X2": SoftEvidence([0.8, 0.3])})),
    ("loopy8", "D", Evidence({"H": HardEvidence(0), "C": SoftEvidence([0.5, 1.0, 0.25])})),
    ("loopy8", "F", Evidence({"A": SoftEvidence([0.0, 1.0])})),
]


@pytest.mark.parametrize("name, target, e", BATCHED, ids=[f"{n}-{t}" for n, t, _ in BATCHED])
def test_each_batched_trace_matches_a_one_instantiation_sweep(fixture_dir, name, target, e):
    net = load_network(fixture_dir / f"{name}.bn")
    run = run_cutset_conditioning(net, target, e)
    comp = _once(net, propagation._Compiled)
    schedule = propagation._schedule(comp, {*e.hard_states(), *run.cutset.nodes})
    bound = _bind_evidence(net, e)
    for combo, lines in run.traces.items():
        if run.weights[combo] == 0 and lines == ():
            continue
        lam = propagation._lambdas(comp, bound, run.cutset.nodes, np.array([combo]))
        for var, s in zip(run.cutset.nodes, combo):
            want = np.eye(net.arity(var))[s] * bound.get(var, 1.0)
            assert lam[comp.index[var]].tolist() == [want.tolist()]
        _same_lines(lines, propagation._Sweep(comp, schedule, lam).trace(0))


def test_a_run_of_every_row_sweeps_the_networks_own_rows(monkeypatch, loopy8_net):
    # No instantiation ruled out: the lambdas and the run read the kept
    # instantiation array, with no copy made per query.
    passed, built = [], []

    def spy(*a):
        passed.append(a[3])
        built.append(propagation._lambdas(*a))
        return built[-1]

    monkeypatch.setattr(cutset, "_lambdas", spy)
    e = Evidence({"H": HardEvidence(0)})
    run = run_cutset_conditioning(loopy8_net, "D", e)
    _, states = _once(loopy8_net, cutset._instantiations)
    assert len(states) == 4 and run._states is states and run._swept is states
    assert passed[0] is states and not states.flags.writeable
    assert run.instantiation_count == 4
    assert "instantiation_count" not in {f.name for f in dataclasses.fields(CutsetRun)}
    assert cutset._allowed(_bind_evidence(loopy8_net, e), run.cutset.nodes, states) is None
    # A finding that rules out rows sweeps, keys and traces exactly the others.
    passed.clear()
    built.clear()
    ruled = run_cutset_conditioning(loopy8_net, "D", Evidence({"A": HardEvidence(1)}))
    assert ruled._states is states and ruled.instantiation_count == 4
    assert passed[0] is ruled._swept
    assert ruled._swept.tolist() == [[1, 0], [1, 1]] and len(ruled._sweep.gathered) == 2
    index = _once(loopy8_net, propagation._Compiled).index
    assert [built[0][index[v]].tolist() for v in ruled.cutset.nodes] == \
        [[[0, 1], [0, 1]], [[1, 0], [0, 1]]]
    assert list(ruled.weights) == list(ruled.traces) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [k for k, w in ruled.weights.items() if ruled.traces[k]] == [(1, 0), (1, 1)]
    assert [k for k, w in ruled.weights.items() if w] == [(1, 0), (1, 1)]


@pytest.mark.parametrize("arities", [(), (3,), (3, 2), (2, 4, 3), (4, 2, 2, 3)])
def test_instantiations_are_kept_and_keyed_in_row_major_order(monkeypatch, arities):
    # Independent roots of mixed arities and one child of them all, the
    # roots taken as the cutset: the kept array holds every instantiation
    # in ``itertools.product``'s order, the last cut node fastest, and a
    # run's weights and traces are keyed in that order.  With no roots
    # the network is a polytree, conditioned on the empty cutset.
    ids = tuple(f"C{j}" for j in range(len(arities)))
    variables = tuple(Variable(v, tuple(f"s{k}" for k in range(a))) for v, a in zip(ids, arities))
    rows = math.prod(arities)
    net = BayesianNetwork(
        variables + (Variable("T", ("t0", "t1")),),
        tuple(Cpt(v, (), np.full(a, 1.0 / a)) for v, a in zip(ids, arities))
        + (Cpt("T", ids, np.tile([0.25, 0.75], (rows, 1))),))
    if ids:
        monkeypatch.setattr(cutset, "is_polytree", lambda net: False)
        monkeypatch.setattr(cutset, "select_cutset", lambda net: LoopCutset(ids))
    cut, states = cutset._instantiations(net)
    want = list(itertools.product(*map(range, arities)))
    assert cut.nodes == ids and states.shape == (rows, len(ids)) and states.dtype == np.intp
    assert [tuple(row) for row in states.tolist()] == want
    run = run_cutset_conditioning(net, "T")
    assert list(run.weights) == list(run.traces) == want
    assert math.isclose(sum(run.weights.values()), 1.0)


def test_every_instantiation_goes_through_one_sweep(monkeypatch):
    net = netgen.grid(np.random.default_rng(6), 6, 6)
    calls = []
    monkeypatch.setattr(cutset, "_Sweep", lambda *a: calls.append(a) or propagation._Sweep(*a))
    run = run_cutset_conditioning(net, "G35")
    assert run.instantiation_count == 2 ** 14 and len(calls) == 1
    assert len(run._swept) == len(run._sweep.gathered) == 2 ** 14


def test_the_kept_instantiations_are_their_states_array_alone():
    # No indicator row is kept per cut node: the memory the first build
    # leaves behind is the states array and a little bookkeeping.
    net = netgen.grid(np.random.default_rng(6), 6, 6)
    tracemalloc.start()
    try:
        _, states = _once(net, cutset._instantiations)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert states.shape == (2 ** 14, 14)
    assert kept <= states.nbytes + (64 << 10)


def _ulps(a, b) -> int:
    """How many doubles lie between non-negative a and b, elementwise, at most."""
    return int(np.max(np.abs(np.asarray(a, float).view(np.int64)
                              - np.asarray(b, float).view(np.int64))))


@pytest.mark.parametrize("seed, rows, cols", [(10, 4, 7), (1, 4, 6), (3, 5, 5), (7, 5, 6),
                                              (6, 6, 6)])
def test_the_mixture_is_within_two_ulps_of_its_exact_sum(seed, rows, cols):
    # Each state's column is summed pairwise, not row after row.
    net = netgen.grid(np.random.default_rng(seed), rows, cols)
    target = net.variables[-1].id
    run = run_cutset_conditioning(net, target)
    assert 2 ** 8 <= run.instantiation_count <= 2 ** 14
    w = run._sweep.gathered
    b = np.broadcast_to(run._sweep.belief(net.index(target)), (len(w), net.arity(target)))
    total = math.fsum(w.tolist())
    exact = [math.fsum((w * b[:, j]).tolist()) / total for j in range(b.shape[1])]
    assert _ulps(run.belief.probabilities, exact) <= 2


@pytest.mark.parametrize("method", [Method.AUTO, Method.CUTSET])
def test_a_cutset_with_too_many_instantiations_is_refused_before_any_is_built(method):
    # An 8x8 grid's greedy cutset has 27 nodes, 2**27 instantiations.
    net = netgen.grid(np.random.default_rng(8), 8, 8)
    start = time.perf_counter()
    with pytest.raises(NetworkTooLargeError, match="27 nodes has 134217728 instantiations"):
        infer(net, "G63", Evidence.empty(), method)
    assert time.perf_counter() - start < 0.25
    tracemalloc.start()
    try:
        with pytest.raises(NetworkTooLargeError):
            infer(netgen.twin(net), "G63", Evidence.empty(), method)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def _grid_oracle(net, target):
    """The target's prior marginal by variable elimination in declaration
    order: a node is summed out once no later table reads it."""
    axis = {v.id: i for i, v in enumerate(net.variables)}
    factor, axes = np.ones(()), []
    for k, v in enumerate(net.variables):
        table = [axis[p] for p in (*net.parents(v.id), v.id)]
        keep = [a for a in dict.fromkeys(axes + table)
                if a == axis[target] or any(a in map(axis.get, net.parents(w.id))
                                            for w in net.variables[k + 1:])]
        factor, axes = np.einsum(factor, axes, net.cpt_tensor(v.id), table, keep), keep
    return factor


def test_a_six_by_six_grid_still_answers_by_conditioning():
    net = netgen.grid(np.random.default_rng(6), 6, 6)
    run = run_cutset_conditioning(net, "G35")
    assert run.instantiation_count == 2 ** 14 <= cutset._MAX_INSTANTIATIONS
    assert np.max(np.abs(run.belief.probabilities - _grid_oracle(net, "G35"))) <= 1e-12
