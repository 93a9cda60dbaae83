"""Graph-level analysis: connection types, d-separation, loop cutsets.

These operations read only the directed structure and the evidence
pattern, never the numbers in the CPTs.  A path is blocked by any
intermediate node that obeys the usual rules:

* serial and diverging nodes block a path when they carry hard evidence;
* a converging node blocks a path unless it or one of its descendants
  carries evidence of either kind.

Soft evidence opens converging nodes but never blocks a chain, because
a likelihood on a variable leaves the variable itself unobserved.

d-separation is decided by a Bayes-ball pass (Shachter 1998; Koller &
Friedman, Alg. 3.1): a search over (node, direction of arrival) states
that follows exactly the unblocked trails from the source, in time
linear in the size of the graph.  Query classification makes one such
pass per evidence node.  Only a connected verdict searches simple
paths, for the first active one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidQueryError, NetworkValidationError, NotAPathError
from .model import BayesianNetwork, Evidence


class ConnectionKind(Enum):
    SERIAL = "serial"
    DIVERGING = "diverging"
    CONVERGING = "converging"


def classify_connection(net: BayesianNetwork, a: str, v: str, b: str) -> ConnectionKind:
    """Classify the three-node chain a - v - b by its edge directions.

    Requires a, v, b distinct with both a-v and v-b edges present in
    some direction; raises NotAPathError otherwise.
    """
    for x in (a, v, b):
        net.var(x)
    if len({a, v, b}) != 3:
        raise NotAPathError(f"nodes must be distinct, got {a!r}, {v!r}, {b!r}")
    edges = net._edge_set

    def arc(u: str, w: str) -> str:
        if (u, w) in edges:
            return "out"    # u -> w
        if (w, u) in edges:
            return "in"     # w -> u
        raise NotAPathError(f"{u!r} and {w!r} are not adjacent")

    left = arc(v, a)    # direction of the a-v edge seen from v
    right = arc(v, b)
    if left == "in" and right == "out":
        return ConnectionKind.SERIAL        # a -> v -> b
    if left == "out" and right == "in":
        return ConnectionKind.SERIAL        # b -> v -> a
    if left == "out" and right == "out":
        return ConnectionKind.DIVERGING     # a <- v -> b
    return ConnectionKind.CONVERGING        # a -> v <- b


@dataclass(frozen=True)
class SeparationVerdict:
    """Outcome of a d-separation test.

    When connected, ``active_path`` holds one unblocked path.
    ``blocks`` is always empty: a separated verdict comes from a search
    that walks no paths.  It stays because the benchmark counts it
    (``bench/workloads.py``).
    """

    separated: bool
    blocks: tuple[()] = ()
    active_path: tuple[str, ...] | None = None

    def __bool__(self) -> bool:
        return self.separated


def _parents(net: BayesianNetwork, v: str) -> list[str]:
    return [p for p in net.parents(v) if p in net]


def _opened(net: BayesianNetwork, e: Evidence) -> set[str]:
    """The converging nodes evidence opens: evidence nodes and their
    ancestors.  Raises NetworkValidationError on a cyclic graph."""
    cycles = [v for v in net._violations if v.kind == "cycle"]
    if cycles:
        raise NetworkValidationError(cycles)
    opened = set(e.entries)
    stack = list(opened)
    while stack:
        for p in _parents(net, stack.pop()):
            if p not in opened:
                opened.add(p)
                stack.append(p)
    return opened


def _d_connected(net: BayesianNetwork, x: str, z: str, e: Evidence) -> bool:
    """Does a Bayes ball from x arrive at z, given e?

    It does exactly when some trail from x to z is unblocked at every
    intermediate node.  The search runs over (node, arrived from a
    child) states, each visited at most once.
    """
    opened = _opened(net, e)
    hard = e.hard_states()
    children = net._children
    # x sends the ball both ways, as if it had arrived from a child.
    seen = {(x, True)}
    stack = [(x, True)]
    while stack:
        v, from_child = stack.pop()
        if v == z:
            return True
        nxt = []
        if v not in hard:
            nxt += [(c, False) for c in children[v]]
            if from_child:
                nxt += [(p, True) for p in _parents(net, v)]
        if not from_child and v in opened:
            nxt += [(p, True) for p in _parents(net, v)]
        for state in nxt:
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return False


def _blocks(net: BayesianNetwork, a: str, v: str, b: str, e: Evidence,
            opened: set[str]) -> bool:
    """Does v block the path segment a - v - b?"""
    edges = net._edge_set
    if (a, v) in edges and (b, v) in edges:     # a -> v <- b
        return v not in opened
    return e.is_hard(v)


def _first_active_path(net: BayesianNetwork, x: str, z: str, e: Evidence) -> tuple[str, ...]:
    """The first active simple x-z path, in depth-first order over
    neighbours in declaration order.  x and z must be d-connected.

    A prefix that is already blocked is not extended: it leads to no
    active path, so skipping it leaves the order of the active ones.
    """
    opened = _opened(net, e)
    stack = [[x]]
    while stack:
        path = stack.pop()
        node = path[-1]
        if node == z:
            return tuple(path)
        for nb in reversed(net.skeleton_neighbors(node)):
            if nb in path:
                continue
            if len(path) > 1 and _blocks(net, path[-2], node, nb, e, opened):
                continue
            stack.append(path + [nb])
    raise AssertionError("d-connected nodes have an active simple path")


def d_separated(net: BayesianNetwork, x: str, z: str, e: Evidence) -> SeparationVerdict:
    """Decide whether evidence e blocks every path between x and z.

    x and z must be distinct and themselves free of hard evidence.  A
    connected verdict carries the first active path in depth-first,
    declaration order.
    """
    net.var(x)
    net.var(z)
    if x == z:
        raise InvalidQueryError("d-separation endpoints must be distinct")
    for endpoint in (x, z):
        if e.is_hard(endpoint):
            raise InvalidQueryError(f"endpoint {endpoint!r} carries hard evidence")

    if not _d_connected(net, x, z, e):
        return SeparationVerdict(True)
    return SeparationVerdict(False, active_path=_first_active_path(net, x, z, e))


@dataclass(frozen=True)
class PolytreeCheck:
    """Result of the singly-connected test, with a cycle witness when false."""

    is_polytree: bool
    cycle: tuple[str, ...] | None = None

    def __bool__(self) -> bool:
        return self.is_polytree


def _skeleton_cycle(nodes: list[str], neighbors: dict[str, list[str]]) -> tuple[str, ...] | None:
    """Find one cycle in an undirected simple graph, or None.

    Returns the cycle's nodes in order, without repeating the start.
    """
    seen: set[str] = set()
    parent: dict[str, str | None] = {}
    for start in nodes:
        if start in seen:
            continue
        parent[start] = None
        stack = [(start, None)]
        while stack:
            u, par = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            parent[u] = par
            for w in reversed(neighbors[u]):
                if w == par:
                    continue
                if w in seen:
                    # Back edge u-w closes a cycle through the tree path.
                    chain = [u]
                    while chain[-1] != w:
                        nxt = parent[chain[-1]]
                        if nxt is None:
                            break
                        chain.append(nxt)
                    if chain[-1] == w:
                        return tuple(reversed(chain))
                else:
                    stack.append((w, u))
    return None


def is_polytree(net: BayesianNetwork) -> PolytreeCheck:
    """True when the undirected skeleton has no cycle.

    Multiply connected networks get one witness cycle, listed from its
    first-declared node.
    """
    nodes = [v.id for v in net.variables]
    neighbors = {v: list(net.skeleton_neighbors(v)) for v in nodes}
    cycle = _skeleton_cycle(nodes, neighbors)
    if cycle is None:
        return PolytreeCheck(True)
    return PolytreeCheck(False, cycle)


@dataclass(frozen=True)
class LoopCutset:
    """A set of nodes whose instantiation makes propagation exact.

    ``nodes`` is sorted by declaration order; empty for a polytree.
    """

    nodes: tuple[str, ...] = ()

    def __contains__(self, var_id: str) -> bool:
        return var_id in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


def _reduced_skeleton(net: BayesianNetwork, ids: list[str], cut) -> dict[str, list[str]]:
    """The skeleton left once the edges leaving ``cut`` are dropped."""
    neighbors: dict[str, list[str]] = {v: [] for v in ids}
    for u, w in net.edges:
        if u in cut:
            continue
        neighbors[u].append(w)
        neighbors[w].append(u)
    return neighbors


def is_valid_cutset(net: BayesianNetwork, nodes) -> bool:
    """Check that instantiating ``nodes`` leaves no usable loop.

    An instantiated node stops influence flowing through it, but as a
    shared effect it still couples its parents.  The reduced graph
    therefore keeps each cutset node's incoming edges and drops only its
    outgoing ones; the cutset is valid when that skeleton is acyclic.
    Equivalently, every loop must contain a cutset node in a serial or
    diverging position.
    """
    cut = set(nodes)
    for c in cut:
        net.var(c)
    ids = [v.id for v in net.variables]
    return _skeleton_cycle(ids, _reduced_skeleton(net, ids, cut)) is None


def select_cutset(net: BayesianNetwork) -> LoopCutset:
    """Pick a deterministic minimum loop cutset.

    Polytrees get the empty cutset.  Up to 20 nodes the search is exact:
    the first size that admits a valid cutset wins, and among cutsets of
    that size the first in declaration order (as ``combinations`` would
    list them).  The search deepens one size at a time, and at each size
    branches on the tails of one loop left in the reduced skeleton:
    every valid cutset contains a tail of every loop, so each minimum
    cutset is reached without testing every subset.  Larger networks
    fall back to a greedy heuristic that repeatedly cuts the
    highest-degree non-sink node on some remaining loop.
    """
    if is_polytree(net):
        return LoopCutset(())
    ids = [v.id for v in net.variables]
    order = {v: i for i, v in enumerate(ids)}
    if len(ids) <= 20:
        edges = net._edge_set
        for size in range(1, len(ids) + 1):
            found: list[list[int]] = []
            seen: set[frozenset[str]] = set()
            stack = [frozenset()]
            while stack:
                cut = stack.pop()
                cycle = _skeleton_cycle(ids, _reduced_skeleton(net, ids, cut))
                if cycle is None:
                    found.append(sorted(order[v] for v in cut))
                elif len(cut) < size:
                    # Only a tail, a node with an outgoing loop edge, cuts the loop.
                    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                        grown = cut | {a if (a, b) in edges else b}
                        if grown not in seen:
                            seen.add(grown)
                            stack.append(grown)
            if found:
                return LoopCutset(tuple(ids[i] for i in min(found)))

    chosen: list[str] = []
    for _ in range(len(ids)):
        cut = set(chosen)
        neighbors: dict[str, list[str]] = {v: [] for v in ids}
        directed: dict[str, set[str]] = {v: set() for v in ids}
        for u, w in net.edges:
            if u in cut:
                continue
            neighbors[u].append(w)
            neighbors[w].append(u)
            directed[u].add(w)
        cycle = _skeleton_cycle(ids, neighbors)
        if cycle is None:
            break
        ring = list(cycle)
        candidates = []
        for i, v in enumerate(ring):
            nxt = ring[(i + 1) % len(ring)]
            prv = ring[i - 1]
            # Non-sink on this loop: at least one loop edge leaves v.
            if nxt in directed[v] or prv in directed[v]:
                candidates.append(v)
        best = max(candidates, key=lambda v: (len(neighbors[v]), -order[v]))
        chosen.append(best)
    chosen.sort(key=lambda v: order[v])
    result = LoopCutset(tuple(chosen))
    if not is_valid_cutset(net, result.nodes):
        raise AssertionError("greedy cutset construction failed to break every loop")
    return result
