"""Structural answers cross-checked against independent references.

Connection types are checked against a networkx digraph's edge
directions, d-separation against networkx and against an explicit
enumeration of simple paths, query classification against one
networkx d-separation test per evidence node, the polytree and cutset
validity tests against networkx forest tests, and cutset selection
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
    NotAPathError,
    QueryClass,
    classify_connection,
    classify_query,
    d_separated,
    is_polytree,
    is_valid_cutset,
    load_network,
    select_cutset,
)

GRIDS = ((3, 3), (3, 4), (4, 4), (3, 5), (3, 6), (4, 5))
# Connection kinds by how many of a connection's two edges point into its middle node.
KINDS = (ConnectionKind.DIVERGING, ConnectionKind.SERIAL, ConnectionKind.CONVERGING)


def _random_net(rng, k):
    """A polytree, a loopy DAG or a grid, in turn."""
    kind = k % 3
    if kind == 0:
        return netgen.random_polytree(rng, int(rng.integers(3, 16)))
    if kind == 1:
        return netgen.random_loopy(rng, int(rng.integers(4, 15)))
    return netgen.grid(rng, *GRIDS[int(rng.integers(len(GRIDS)))])


# -- connection types ---------------------------------------------------------


def _networkx_connections(nx, net):
    """Every ordered triple of ``net``'s ids mapped to its kind read off a
    networkx digraph of ``net.edges``, or to NotAPathError.  An endpoint is
    upstream of v when it is v's predecessor and not its successor: on a
    2-cycle the v -> u edge is read first."""
    graph = nx.DiGraph(net.edges)
    ids = [v.id for v in net.variables]
    graph.add_nodes_from(ids)
    out = {}
    for v in ids:
        adjacent = set(nx.all_neighbors(graph, v))
        upstream = set(graph.predecessors(v)) - set(graph.successors(v))
        for a, b in itertools.product(ids, repeat=2):
            out[a, v, b] = (KINDS[len({a, b} & upstream)]
                            if len({a, v, b}) == 3 and {a, b} <= adjacent else NotAPathError)
    return out


def _connection(net, a, v, b):
    try:
        return classify_connection(net, a, v, b)
    except NotAPathError:
        return NotAPathError


def test_connection_types_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(1988)
    seen, pinned = set(), 0
    for k in range(45):
        net = _random_net(rng, k)
        two_cycle, repeated = _doubled_first_edge(net)
        for variant in (net, two_cycle, repeated):
            for (a, v, b), want in _networkx_connections(nx, variant).items():
                assert _connection(variant, a, v, b) == want, (variant.edges, a, v, b)
                seen.add(want)
        # The 2-cycle p <-> c reads as p -> c from p and as c -> p from c: from
        # p the kind is the DAG's, from c one edge fewer points into c.
        p, c = net.edges[0]
        for x in {*net.parents(p), *net.children(p)} - {c}:
            assert classify_connection(two_cycle, x, p, c) is classify_connection(net, x, p, c)
            pinned += 1
        for y in {*net.parents(c), *net.children(c)} - {p}:
            kind = classify_connection(net, y, c, p)
            assert classify_connection(two_cycle, y, c, p) is KINDS[KINDS.index(kind) - 1]
            pinned += 1
    assert seen == {*ConnectionKind, NotAPathError}
    assert pinned > 50


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


def test_ancestors_and_descendants_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(2718)
    checked = 0
    for k in range(90):
        net = _random_net(rng, k)
        graph = nx.DiGraph(net.edges)
        graph.add_nodes_from(v.id for v in net.variables)
        for v in net.variables:
            assert net.ancestors(v.id) == nx.ancestors(graph, v.id), (net.edges, v.id)
            assert net.descendants(v.id) == nx.descendants(graph, v.id), (net.edges, v.id)
            checked += 1
    assert checked > 600


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

    # The skeleton, read off the edges, each node's neighbours in declaration order.
    order = {v.id: i for i, v in enumerate(net.variables)}
    neighbours = {v.id: [] for v in net.variables}
    for u, w in net.edges:
        neighbours[u].append(w)
        neighbours[w].append(u)
    for nbs in neighbours.values():
        nbs.sort(key=order.__getitem__)
    out = {}

    def walk(path):
        if path[-1] == z:
            out[tuple(path)] = blocker(path)
            return
        for nb in neighbours[path[-1]]:
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


def _doubled_first_edge(net):
    """``net`` with its first edge, p -> c, given twice: once as the
    antiparallel c -> p, a 2-cycle, and once as a repeated parent of c."""
    p, c = net.edges[0]
    return netgen.with_parent(net, p, c), netgen.with_parent(net, c, p)


def test_polytree_and_cutset_validity_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(1990)
    verdicts = {True: 0, False: 0}
    for k in range(150):
        net = _random_net(rng, k)
        ids = [v.id for v in net.variables]
        skeleton = nx.Graph(net.edges)
        skeleton.add_nodes_from(ids)
        # The skeleton counts an edge once: so does the polytree test on a
        # 2-cycle (its first edge reversed as well) and on a repeated parent.
        for variant in (net, *_doubled_first_edge(net)):
            check = is_polytree(variant)
            assert check.is_polytree == nx.is_forest(skeleton), variant.edges
            if not check:
                ring = check.cycle
                assert len(ring) >= 3 and len(set(ring)) == len(ring), ring
                assert all(skeleton.has_edge(a, b)
                           for a, b in zip(ring, ring[1:] + ring[:1])), ring
        for _ in range(8):
            p = rng.uniform(0.0, 0.6)
            cut = {v for v in ids if rng.random() < p}
            # An instantiated node keeps its incoming edges and loses its outgoing ones.
            reduced = nx.Graph((u, w) for u, w in net.edges if u not in cut)
            reduced.add_nodes_from(ids)
            want = nx.is_forest(reduced)
            assert is_valid_cutset(net, cut) == want, (net.edges, cut)
            verdicts[want] += 1
    assert min(verdicts.values()) > 200


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
