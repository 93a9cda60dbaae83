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
Friedman, Alg. 3.1) over (node, direction of arrival) states, in time
linear in the size of the graph; the same pass classifies a query.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial

from .errors import InvalidQueryError, NotAPathError
from .model import BayesianNetwork, Evidence, _checked_evidence, _closure, _once, _require_acyclic


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
    parents = net._parents

    def into_v(u: str) -> bool:
        """Does the u - v edge point into v?  v -> u is read first."""
        if v in parents[u]:
            return False
        if u in parents[v]:
            return True
        raise NotAPathError(f"{v!r} and {u!r} are not adjacent")

    # Edges into v: none diverge, one passes through, both converge.
    return (ConnectionKind.DIVERGING, ConnectionKind.SERIAL,
            ConnectionKind.CONVERGING)[into_v(a) + into_v(b)]


@dataclass(frozen=True)
class SeparationVerdict:
    """Outcome of a d-separation test."""

    separated: bool
    _find_path: Callable[[], tuple[str, ...]] | None = field(default=None, repr=False,
                                                             compare=False)

    @cached_property
    def active_path(self) -> tuple[str, ...] | None:
        """One unblocked path when connected, None when separated;
        searched for when first read."""
        return None if self._find_path is None else self._find_path()

    def __bool__(self) -> bool:
        return self.separated


def _reached(net: BayesianNetwork, x: str, hard, opened: set[str]) -> set[str]:
    """Every node a Bayes ball sent from x arrives at, x included.

    A node is reached when some trail from x to it is unblocked at
    every intermediate node; a node with hard evidence is reached but
    passes the ball on no further.  The search runs over (node, arrived
    from a child) states, each visited at most once.  ``hard`` holds
    the nodes with hard evidence, and ``opened`` the converging nodes
    evidence opens: the evidence nodes and their ancestors, a query's
    ``model._Plan.opened``.
    """
    parents, children = net._parents, net._children
    # The states reached: arrived from a child (up) or from a parent (down).
    # x sends the ball both ways, as if it had arrived from a child.
    up: set[str] = {x}
    down: set[str] = set()
    stack = [(x, True)]
    while stack:
        v, from_child = stack.pop()
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
    return up | down


def _first_active_path(net: BayesianNetwork, x: str, z: str, e: Evidence,
                       opened: set[str]) -> tuple[str, ...]:
    """The first active simple x-z path, in depth-first order over
    neighbours in declaration order.  x and z must be d-connected.

    A prefix that is already blocked is not extended: it leads to no
    active path, so skipping it leaves the order of the active ones.
    """
    parents, neighbors, hard = net._parents, net._skeleton, e.hard_states()
    stack = [[x]]
    while stack:
        path = stack.pop()
        node = path[-1]
        if node == z:
            return tuple(path)
        into = parents[node]
        for nb in reversed(neighbors[node]):
            if nb in path:
                continue
            # A collider, both edges into node, blocks unless opened; any other node if hard.
            if len(path) > 1 and ((node not in opened) if path[-2] in into and nb in into
                                  else node in hard):
                continue
            stack.append(path + [nb])
    raise AssertionError("d-connected nodes have an active simple path")


def d_separated(net: BayesianNetwork, x: str, z: str, e: Evidence) -> SeparationVerdict:
    """Decide whether evidence e blocks every path between x and z.

    x and z must be distinct and themselves free of hard evidence.  A
    connected verdict carries the first active path in depth-first,
    declaration order, found when it is first read.  An unknown
    endpoint raises ValueError, then an evidence argument that is not an
    ``Evidence`` TypeError, an unknown evidence variable ValueError, and
    a cyclic graph NetworkValidationError.
    """
    for v in (x, z):
        net.var(v)
    for v in _checked_evidence(e).entries:
        net.var(v)
    if x == z:
        raise InvalidQueryError("d-separation endpoints must be distinct")
    for endpoint in (x, z):
        if e.is_hard(endpoint):
            raise InvalidQueryError(f"endpoint {endpoint!r} carries hard evidence")

    _require_acyclic(net)
    opened = _closure(e.entries, net._parents)
    if z not in _reached(net, x, e.hard_states(), opened):
        return SeparationVerdict(True)
    return SeparationVerdict(False, _find_path=partial(_first_active_path, net, x, z, e, opened))


@dataclass(frozen=True)
class PolytreeCheck:
    """Result of the singly-connected test, with a cycle witness when false."""

    is_polytree: bool
    cycle: tuple[str, ...] | None = None

    def __bool__(self) -> bool:
        return self.is_polytree


def _skeleton_cycle(neighbors: dict[str, list[str]]) -> tuple[str, ...] | None:
    """Find one cycle in an undirected simple graph, or None, searching
    from each node in the key order of ``neighbors``.  Returns the
    cycle's nodes in order, without repeating the start.
    """
    seen: set[str] = set()
    parent: dict[str, str | None] = {}
    for start in neighbors:
        if start in seen:
            continue
        stack = [(start, None)]
        while stack:
            u, par = stack.pop()
            seen.add(u)
            parent[u] = par
            for w in reversed(neighbors[u]):
                if w == par:
                    continue
                if w in seen:
                    # A seen neighbour other than the parent pushed u before the
                    # parent did, so it is a tree ancestor: u - w closes a cycle.
                    # A node pushed twice returns here at its first pop.
                    chain = [u]
                    while chain[-1] != w:
                        chain.append(parent[chain[-1]])
                    return tuple(reversed(chain))
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
    cycle = _skeleton_cycle(net._skeleton)
    return PolytreeCheck(cycle is None, cycle)


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


def _reduced_skeleton(net: BayesianNetwork, cut) -> dict[str, list[str]]:
    """The skeleton of ``net._parents`` left once the edges leaving ``cut`` are dropped."""
    neighbors: dict[str, list[str]] = {v: [] for v in net._parents}
    for w, ps in net._parents.items():
        for u in ps:
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
    return _skeleton_cycle(_reduced_skeleton(net, cut)) is None


def select_cutset(net: BayesianNetwork) -> LoopCutset:
    """Pick a deterministic minimum loop cutset.

    The search goes one size at a time, from the empty cut up, and
    checks each candidate cut once.  A cut that leaves a loop in the
    reduced skeleton grows by each tail of that loop, a node with an
    outgoing loop edge: every valid cutset contains a tail of every
    loop, so each minimum cutset is reached without testing every
    subset.  The first size with a valid cut wins, and among its cuts
    the first in declaration order (as ``combinations`` would list
    them); a polytree gets the empty cutset.  Above 20 nodes the search
    keeps one branch, the tail of highest degree in the reduced
    skeleton (the first declared on a tie), so it is greedy.  The
    search runs once per network; later calls return its result.
    Raises NetworkValidationError on a cyclic graph.
    """
    _require_acyclic(net)
    return _once(net, _search_cutset)


def _search_cutset(net: BayesianNetwork) -> LoopCutset:
    ids, parents = [v.id for v in net.variables], net._parents
    level = {frozenset()}
    while True:
        found: list[list[int]] = []
        grown: set[frozenset[str]] = set()
        for cut in level:
            neighbors = _reduced_skeleton(net, cut)
            cycle = _skeleton_cycle(neighbors)
            if cycle is None:
                found.append(sorted(net._order[v] for v in cut))
                continue
            # Only a tail, a node with an outgoing loop edge, cuts the loop.
            tails = [a if a in parents[b] else b for a, b in zip(cycle, cycle[1:] + cycle[:1])]
            if len(ids) > 20:
                tails = [max(tails, key=lambda v: (len(neighbors[v]), -net._order[v]))]
            grown.update(cut | {t} for t in tails)
        if found:
            return LoopCutset(tuple(ids[i] for i in min(found)))
        level = grown
