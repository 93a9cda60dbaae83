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
pass per evidence node.  Only reading a connected verdict's active path
searches simple paths, for the first active one.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial

from .errors import InvalidQueryError, NotAPathError
from .model import BayesianNetwork, Evidence, _once, _require_acyclic


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

    ``blocks`` is always empty: a separated verdict comes from a search
    that walks no paths.  It stays because the benchmark counts it
    (``bench/workloads.py``).
    """

    separated: bool
    blocks: tuple[()] = ()
    _find_path: Callable[[], tuple[str, ...]] | None = field(default=None, repr=False,
                                                             compare=False)

    @cached_property
    def active_path(self) -> tuple[str, ...] | None:
        """One unblocked path when connected, None when separated;
        searched for when first read."""
        return None if self._find_path is None else self._find_path()

    def __bool__(self) -> bool:
        return self.separated


def _opened(net: BayesianNetwork, e: Evidence) -> set[str]:
    """The converging nodes evidence opens: evidence nodes and their
    ancestors.  Raises NetworkValidationError on a cyclic graph."""
    _require_acyclic(net)
    opened = set(e.entries)
    stack = list(opened)
    parents = net._parents
    while stack:
        for p in parents[stack.pop()]:
            if p not in opened:
                opened.add(p)
                stack.append(p)
    return opened


def _d_connected(net: BayesianNetwork, x: str, z: str, e: Evidence, opened: set[str]) -> bool:
    """Does a Bayes ball from x arrive at z, given e?

    It does exactly when some trail from x to z is unblocked at every
    intermediate node.  The search runs over (node, arrived from a
    child) states, each visited at most once.  ``opened`` is
    ``_opened(net, e)``.
    """
    hard = e.hard_states()
    parents, children = net._parents, net._children
    # The states reached: arrived from a child (up) or from a parent (down).
    # x sends the ball both ways, as if it had arrived from a child.
    up: set[str] = {x}
    down: set[str] = set()
    stack = [(x, True)]
    while stack:
        v, from_child = stack.pop()
        if v == z:
            return True
        if v not in hard:
            for c in children[v]:
                if c not in down:
                    down.add(c)
                    stack.append((c, False))
        # On to v's parents: through a chain or fork when the ball came from
        # a child, through a collider (open only if opened) when from a parent.
        if (v not in hard) if from_child else (v in opened):
            for p in parents[v]:
                if p not in up:
                    up.add(p)
                    stack.append((p, True))
    return False


def _blocks(edges, a: str, v: str, b: str, hard, opened: set[str]) -> bool:
    """Does v block the path segment a - v - b?"""
    if (a, v) in edges and (b, v) in edges:     # a -> v <- b
        return v not in opened
    return v in hard


def _first_active_path(net: BayesianNetwork, x: str, z: str, e: Evidence,
                       opened: set[str]) -> tuple[str, ...]:
    """The first active simple x-z path, in depth-first order over
    neighbours in declaration order.  x and z must be d-connected.

    A prefix that is already blocked is not extended: it leads to no
    active path, so skipping it leaves the order of the active ones.
    """
    edges, neighbors, hard = net._edge_set, net._skeleton, e.hard_states()
    stack = [[x]]
    while stack:
        path = stack.pop()
        node = path[-1]
        if node == z:
            return tuple(path)
        for nb in reversed(neighbors[node]):
            if nb in path:
                continue
            if len(path) > 1 and _blocks(edges, path[-2], node, nb, hard, opened):
                continue
            stack.append(path + [nb])
    raise AssertionError("d-connected nodes have an active simple path")


def d_separated(net: BayesianNetwork, x: str, z: str, e: Evidence) -> SeparationVerdict:
    """Decide whether evidence e blocks every path between x and z.

    x and z must be distinct and themselves free of hard evidence.  A
    connected verdict carries the first active path in depth-first,
    declaration order, found when it is first read.
    """
    net.var(x)
    net.var(z)
    if x == z:
        raise InvalidQueryError("d-separation endpoints must be distinct")
    for endpoint in (x, z):
        if e.is_hard(endpoint):
            raise InvalidQueryError(f"endpoint {endpoint!r} carries hard evidence")

    opened = _opened(net, e)
    if not _d_connected(net, x, z, e, opened):
        return SeparationVerdict(True)
    return SeparationVerdict(False, _find_path=partial(_first_active_path, net, x, z, e, opened))


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
    first-declared node.  The search runs once per network; later calls
    return its result.  The answer is a property of the undirected
    skeleton alone, so it is given on a directed cycle too.
    """
    return _once(net, _check_polytree)


def _check_polytree(net: BayesianNetwork) -> PolytreeCheck:
    nodes = [v.id for v in net.variables]
    neighbors = net._skeleton
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
    """The skeleton left once the edges leaving ``cut`` are dropped.
    Parents that are not declared variables are ignored (validate
    reports them)."""
    neighbors: dict[str, list[str]] = {v: [] for v in ids}
    for w in ids:
        for u in net._parents[w]:
            if u not in cut:
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
    diverging position.  Raises NetworkValidationError on a cyclic graph.
    """
    _require_acyclic(net)
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
    highest-degree non-sink node on some remaining loop.  The search runs
    once per network; later calls return its result.  Raises
    NetworkValidationError on a cyclic graph.
    """
    _require_acyclic(net)
    return _once(net, _search_cutset)


def _search_cutset(net: BayesianNetwork) -> LoopCutset:
    if is_polytree(net):
        return LoopCutset(())
    ids = [v.id for v in net.variables]
    order = {v: i for i, v in enumerate(ids)}
    edges = net._edge_set
    if len(ids) <= 20:
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
        neighbors = _reduced_skeleton(net, ids, set(chosen))
        cycle = _skeleton_cycle(ids, neighbors)
        if cycle is None:
            break
        ring = list(cycle)
        candidates = []
        for i, v in enumerate(ring):
            nxt = ring[(i + 1) % len(ring)]
            prv = ring[i - 1]
            # Non-sink on this loop: at least one loop edge leaves v.
            if (v, nxt) in edges or (v, prv) in edges:
                candidates.append(v)
        best = max(candidates, key=lambda v: (len(neighbors[v]), -order[v]))
        chosen.append(best)
    chosen.sort(key=lambda v: order[v])
    result = LoopCutset(tuple(chosen))
    if not is_valid_cutset(net, result.nodes):
        raise AssertionError("greedy cutset construction failed to break every loop")
    return result
