"""Structural answers cross-checked against independent references.

d-separation is checked against networkx and against an explicit
enumeration of simple paths, query classification against one
networkx d-separation test per evidence node, and cutset selection
against a brute-force search over node subsets.
"""

import itertools
import time

import numpy as np
import pytest

import netgen
from beliefnet import (
    ConnectionKind,
    Evidence,
    HardEvidence,
    QueryClass,
    classify_connection,
    classify_query,
    d_separated,
    is_valid_cutset,
    load_network,
    select_cutset,
)

GRIDS = ((3, 3), (3, 4), (4, 4), (3, 5), (3, 6), (4, 5))


def _random_net(rng, k):
    """A polytree, a loopy DAG or a grid, in turn."""
    kind = k % 3
    if kind == 0:
        return netgen.random_polytree(rng, int(rng.integers(3, 16)))
    if kind == 1:
        return netgen.random_loopy(rng, int(rng.integers(4, 15)))
    return netgen.grid(rng, *GRIDS[int(rng.integers(len(GRIDS)))])


# -- d-separation -------------------------------------------------------------


def test_d_separated_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(5150)
    checked = separated = 0
    for k in range(150):
        net = _random_net(rng, k)
        graph = nx.DiGraph(net.edges)
        graph.add_nodes_from(v.id for v in net.variables)
        ids = [v.id for v in net.variables]
        for _ in range(8):
            size = min(2 + int(rng.integers(0, 4)), len(ids))
            picks = rng.choice(len(ids), size=size, replace=False)
            x, z, *given = (ids[i] for i in picks)
            e = Evidence({v: HardEvidence(0) for v in given})
            want = nx.is_d_separator(graph, {x}, {z}, set(given))
            assert d_separated(net, x, z, e).separated == want, (net.edges, x, z, given)
            checked += 1
            separated += want
    assert checked == 1200
    assert 0 < separated < checked


def _reference_paths(net, x, z, e):
    """Every simple x-z path in depth-first, declaration order, mapped to
    its first blocking node, or None when the path is active."""
    evidence = set(e.entries)
    opened = {v.id for v in net.variables
              if v.id in evidence or net.descendants(v.id) & evidence}

    def blocker(path):
        for a, v, b in zip(path, path[1:], path[2:]):
            if classify_connection(net, a, v, b) is ConnectionKind.CONVERGING:
                if v not in opened:
                    return v
            elif e.is_hard(v):
                return v
        return None

    out = {}

    def walk(path):
        if path[-1] == z:
            out[tuple(path)] = blocker(path)
            return
        for nb in net.skeleton_neighbors(path[-1]):
            if nb not in path:
                walk(path + [nb])

    walk([x])
    return out


def test_d_separated_with_soft_evidence_agrees_with_path_enumeration():
    rng = np.random.default_rng(8080)
    verdicts = {True: 0, False: 0}
    for k in range(300):
        net = (netgen.random_polytree(rng, int(rng.integers(3, 12))) if k % 3 == 0
               else netgen.random_loopy(rng, int(rng.integers(4, 11))) if k % 3 == 1
               else netgen.grid(rng, 3, 3))
        e = netgen.random_evidence(rng, net, p_node=0.3, soft_ratio=0.5)
        free = [v.id for v in net.variables if not e.is_hard(v.id)]
        if len(free) < 2:
            continue
        x, z = (free[i] for i in rng.choice(len(free), size=2, replace=False))
        ref = _reference_paths(net, x, z, e)
        separated = all(b is not None for b in ref.values())
        verdict = d_separated(net, x, z, e)
        assert verdict.separated == separated
        if separated:
            assert verdict.active_path is None
        else:
            assert verdict.active_path == next(p for p, b in ref.items() if b is None)
        verdicts[separated] += 1
    assert min(verdicts.values()) > 50


def test_d_separation_scales_to_a_6x6_grid():
    # G1 and G6 are the cells right of and below the corner G0, their only
    # common ancestor; with G0 observed every path between them is blocked.
    # Enumerating those paths would walk tens of thousands of them.
    net = netgen.grid(np.random.default_rng(66), 6, 6)
    t0 = time.perf_counter()
    verdict = d_separated(net, "G1", "G6", Evidence({"G0": HardEvidence(0)}))
    elapsed = time.perf_counter() - t0
    assert verdict.separated
    assert elapsed < 0.5, elapsed

    e = Evidence({"G0": HardEvidence(0), "G6": HardEvidence(1)})
    t0 = time.perf_counter()
    classification = classify_query(net, "G1", e)
    elapsed = time.perf_counter() - t0
    assert classification.sub_verdicts == {"G0": QueryClass.FORWARD}
    assert elapsed < 0.5, elapsed


# -- query classification -----------------------------------------------------


def _networkx_sub_verdicts(nx, net, target, e):
    """Sub-verdicts from one networkx d-separation test per evidence node.

    Soft evidence on v is an observed virtual child of v: it opens the
    colliders above v without blocking any trail through v.
    """
    anc, desc = net.ancestors(target), net.descendants(target)
    subs = {}
    for v in e:
        if v == target:
            continue
        rest = e.without(v)
        graph = nx.DiGraph(net.edges)
        graph.add_nodes_from(u.id for u in net.variables)
        given = {u for u in rest if rest.is_hard(u)}
        for u in rest:
            if not rest.is_hard(u):
                graph.add_edge(u, ("soft", u))
                given.add(("soft", u))
        if nx.is_d_separator(graph, {v}, {target}, given):
            continue
        subs[v] = (QueryClass.FORWARD if v in anc
                   else QueryClass.BACKWARD if v in desc
                   else QueryClass.INTERCAUSAL)
    return subs


def test_classification_matches_one_networkx_d_separation_test_per_evidence_node():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(4242)
    draws = influencing = skipped = soft = 0
    k = 0
    while draws < 1200:
        net = _random_net(rng, k)
        k += 1
        target = net.variables[int(rng.integers(len(net.variables)))].id
        e = netgen.random_evidence(rng, net, exclude=(target,))
        if e.is_empty():
            continue
        want = _networkx_sub_verdicts(nx, net, target, e)
        assert classify_query(net, target, e).sub_verdicts == want
        draws += 1
        influencing += len(want)
        skipped += len(e) - len(want)
        soft += sum(not e.is_hard(v) for v in e)
    assert influencing > 0 and skipped > 0 and soft > 0


# -- cutset selection ---------------------------------------------------------


def _first_valid_combination(net):
    """The first node subset, by size then declaration order, that cuts
    every loop."""
    ids = [v.id for v in net.variables]
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            if is_valid_cutset(net, combo):
                return combo


def _cutset_cases(fixture_dir):
    rng = np.random.default_rng(2020)
    for path in sorted(fixture_dir.glob("*.bn")):
        yield path.stem, load_network(path)
    for rows, cols in GRIDS:
        yield f"grid{rows}x{cols}", netgen.grid(rng, rows, cols)
    for i in range(200):
        yield f"loopy{i}", netgen.random_loopy(rng, int(rng.integers(5, 21)))
    for i in range(60):
        yield f"dense{i}", netgen.random_loopy(rng, int(rng.integers(6, 13)), extra_edges=(3, 6))


def test_select_cutset_equals_brute_force(fixture_dir):
    sizes = set()
    for name, net in _cutset_cases(fixture_dir):
        want = _first_valid_combination(net)
        assert select_cutset(net).nodes == want, name
        sizes.add(len(want))
    assert {0, 1, 2, 3, 4, 5, 6} <= sizes
