"""Graph-level analysis: connection types, d-separation, loop cutsets.

These operations read only the directed structure and the evidence
pattern, never the numbers in the CPTs.  d-separation is decided by
enumerating the simple undirected paths between the endpoints and
checking each intermediate node against the usual blocking rules:

* serial and diverging nodes block a path when they carry hard evidence;
* a converging node blocks a path unless it or one of its descendants
  carries evidence of either kind.

Soft evidence opens converging nodes but never blocks a chain, because
a likelihood on a variable leaves the variable itself unobserved.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidQueryError, NetworkValidationError, NotAPathError
from .model import BayesianNetwork, Evidence, Violation


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
    edges = set(net.edges)

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
class PathBlock:
    """One enumerated path together with the node that blocks it."""

    path: tuple[str, ...]
    blocker: str


@dataclass(frozen=True)
class SeparationVerdict:
    """Outcome of a d-separation test.

    When separated, ``blocks`` lists one blocking node per simple path
    (empty if no path exists at all).  When connected, ``active_path``
    holds one unblocked path.
    """

    separated: bool
    blocks: tuple[PathBlock, ...] = ()
    active_path: tuple[str, ...] | None = None

    def __bool__(self) -> bool:
        return self.separated


def _evidence_below(net: BayesianNetwork, e: Evidence) -> dict[str, bool]:
    """For every node: does it or any descendant carry evidence?"""
    marked = set(e.entries)
    flag: dict[str, bool] = {}
    order = net.topological_order()
    if order is None:
        raise NetworkValidationError([Violation("cycle", "network", "directed graph has a cycle")])
    for v in reversed(order):
        flag[v] = v in marked or any(flag[c] for c in net.children(v))
    return flag


def d_separated(net: BayesianNetwork, x: str, z: str, e: Evidence) -> SeparationVerdict:
    """Decide whether evidence e blocks every path between x and z.

    x and z must be distinct and themselves free of hard evidence.  The
    verdict carries per-path blocking witnesses, or one active path.
    """
    net.var(x)
    net.var(z)
    if x == z:
        raise InvalidQueryError("d-separation endpoints must be distinct")
    for endpoint in (x, z):
        if e.is_hard(endpoint):
            raise InvalidQueryError(f"endpoint {endpoint!r} carries hard evidence")

    hard = set(e.hard_states())
    below = _evidence_below(net, e)
    blocks: list[PathBlock] = []

    # Depth-first enumeration of simple undirected paths from x to z,
    # neighbours visited in declaration order for a deterministic verdict.
    stack: list[tuple[str, list[str]]] = [(x, [x])]
    while stack:
        node, path = stack.pop()
        if node == z:
            blocker = None
            for i in range(1, len(path) - 1):
                kind = classify_connection(net, path[i - 1], path[i], path[i + 1])
                if kind is ConnectionKind.CONVERGING:
                    if not below[path[i]]:
                        blocker = path[i]
                        break
                elif path[i] in hard:
                    blocker = path[i]
                    break
            if blocker is None:
                return SeparationVerdict(False, active_path=tuple(path))
            blocks.append(PathBlock(tuple(path), blocker))
            continue
        for nb in reversed(net.skeleton_neighbors(node)):
            if nb not in path:
                stack.append((nb, path + [nb]))
    return SeparationVerdict(True, blocks=tuple(blocks))


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
    neighbors: dict[str, list[str]] = {v: [] for v in ids}
    for u, w in net.edges:
        if u in cut:
            continue
        neighbors[u].append(w)
        neighbors[w].append(u)
    return _skeleton_cycle(ids, neighbors) is None


def select_cutset(net: BayesianNetwork) -> LoopCutset:
    """Pick a deterministic minimum loop cutset.

    Polytrees get the empty cutset.  Up to 20 nodes the search is
    exhaustive over subsets in order of size, then declaration order, so
    the result is a true minimum with lexicographic tie-breaking.
    Larger networks fall back to a greedy heuristic that repeatedly cuts
    the highest-degree non-sink node on some remaining loop.
    """
    if is_polytree(net):
        return LoopCutset(())
    ids = [v.id for v in net.variables]
    if len(ids) <= 20:
        for size in range(1, len(ids) + 1):
            for combo in itertools.combinations(ids, size):
                if is_valid_cutset(net, combo):
                    return LoopCutset(combo)
        raise AssertionError("unreachable: the full node set is always a valid cutset")

    order = {v: i for i, v in enumerate(ids)}
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
