"""Pearl's two-phase message passing, batched, on singly connected networks.

Each node X holds pi(X), the support from above, and lambda(X), the
support from evidence at or below it.  The pi message X -> child c is
pi(X) times X's evidence lambda and the lambda messages from its other
children, normalised; the lambda message X -> parent U sums lambda(X)
against the CPT contracted with the pi messages from X's other parents.
A collect pass toward a pivot and a distribute pass back send every
message once, which on a polytree is a fixed point; the collect pass
alone yields the pivot's belief and the evidence mass.

An observed node passes on its finding only, never what one neighbour
sent it to another, so the schedule splits it (``_Schedule``) and the
swept graph is a forest whenever the unobserved part of the network is
singly connected: the cutset-conditioning driver sweeps its networks
with the cut nodes observed.  Every message carries a leading axis of
instantiations, one row per evidence pattern over the same observed
nodes, so conditioning sweeps all its instantiations at once.

A query for one target sweeps only what its belief needs (``_toward``),
the requisite nodes of Bayes-ball (Shachter 1998).  A barren child sends
an all-ones lambda message (Shachter 1986; Baker & Boult 1990), and a
prior-only parent its prior marginal, computed once per network (lazy
propagation's reuse of evidence-free potentials; Madsen & Jensen 1999).
The rest of the sweep is sent only for ``propagate`` and the message
log, which read every message, in the whole network's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from string import ascii_letters
from collections.abc import Mapping, Sequence

import numpy as np

from .errors import ImpossibleEvidenceError, NotAPolytreeError
from .model import (BayesianNetwork, Belief, Evidence, _bind_evidence, _closure, _kept, _once,
                    _Plan)
from .structure import is_polytree


# -- compiled network ------------------------------------------------------


class _Compiled:
    """A network in the index form the sweep reads, built once per network.

    Nodes and edges are numbered as in ``net.variables`` and ``net.edges``.
    ``in_edges[x]`` lists the edges from x's parents in CPT order, and
    ``neighbors[x]`` holds (neighbour, edge, the edge leaves x) by
    neighbour.  ``cpt[x]`` is the CPT tensor over (parents..., x), a
    root's prior as one row; ``ones[x]``, x's lambda without evidence, is
    one read-only row shared by the nodes of its arity.  ``lambda_subs[e]``
    contracts the CPT of edge e's child with its lambda and the pi
    messages from its other parents (``others[e]``).
    """

    def __init__(self, net: BayesianNetwork):
        self.ids = tuple(v.id for v in net.variables)
        self.index = net._order
        self.edge_index = {edge: e for e, edge in enumerate(net.edges)}
        self.edges = tuple((self.index[u], self.index[w]) for u, w in net.edges)
        self.in_edges: list[list[int]] = [[] for _ in self.ids]
        self.out_edges: list[list[int]] = [[] for _ in self.ids]
        for e, (u, w) in enumerate(self.edges):
            self.in_edges[w].append(e)
            self.out_edges[u].append(e)
        self.parents = [[self.edges[e][0] for e in ins] for ins in self.in_edges]
        self.order = [self.index[v] for v in net.topological_order()]
        self.neighbors = [sorted([(self.edges[e][0], e, False) for e in ins]
                                 + [(self.edges[e][1], e, True) for e in outs])
                          for ins, outs in zip(self.in_edges, self.out_edges)]
        ones = {a: np.broadcast_to(1.0, (1, a)) for a in {v.arity for v in net.variables}}
        self.ones = [ones[v.arity] for v in net.variables]
        self.cpt: list[np.ndarray] = []
        self.pi_subs: list[str] = []
        self.lambda_subs = [""] * len(self.edges)
        self.others: list[list[int]] = [[] for _ in self.edges]
        for x, v in enumerate(net.variables):
            ins = self.in_edges[x]
            self.cpt.append(net.cpt_tensor(v.id) if ins else net.cpt(v.id).table)
            pi_sub, lambda_subs = _subscripts(len(ins))
            self.pi_subs.append(pi_sub)
            for e, sub in zip(ins, lambda_subs):
                self.lambda_subs[e] = sub
                self.others[e] = [f for f in ins if f != e]
        self.priors: dict[int, np.ndarray] = {}
        self.schedules: dict[tuple, _Schedule] = {}

    def contract_pi(self, x: int, msgs: Sequence[np.ndarray]) -> np.ndarray:
        """pi(x): x's CPT contracted with ``msgs``, the pi messages from its parents."""
        if not msgs:
            return self.cpt[x]
        return np.einsum(self.pi_subs[x], *msgs, self.cpt[x])

    def prior(self, x: int) -> np.ndarray:
        """The pi message x sends a child, as one row, when no evidence
        lies at or above x and its other children are barren: x's prior
        marginal where its ancestors form an in-tree, as a prior-only
        node's do.  It is computed once per network, ancestors first,
        without recursion."""
        stack = [] if x in self.priors else [x]
        while stack:
            y = stack.pop()
            missing = [u for u in self.parents[y] if u not in self.priors]
            if missing:
                stack += [y, *missing]
            elif y not in self.priors:
                pi = self.contract_pi(y, [self.priors[u] for u in self.parents[y]])
                self.priors[y] = _normalised(pi, np.add.reduce(pi, axis=-1))
        return self.priors[x]


def _normalised(raw: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Each row of ``raw`` divided by its sum ``total``; a row of zero mass stays zero."""
    if np.logical_and.reduce(total > 0):
        return raw / total[:, None]
    return raw / np.where(total > 0, total, 1.0)[:, None]


@cache
def _subscripts(k: int) -> tuple[str, tuple[str, ...]]:
    """The einsum subscripts of a node with k parents: its pi contraction,
    and its lambda message to the parent at each position."""
    # One letter per parent, then the child's; "..." is the batch axis.
    letters, child = ascii_letters[:k], ascii_letters[k]
    pi = ",".join([f"...{a}" for a in letters] + [letters + child]) + f"->...{child}"
    return pi, tuple(
        f"{letters}{child},...{child}"
        + "".join(f",...{a}" for j, a in enumerate(letters) if j != i) + f"->...{letters[i]}"
        for i in range(k))


def _lambdas(comp: _Compiled, bound: Mapping[str, np.ndarray], cut: Sequence[str] = (),
             states: np.ndarray | None = None) -> dict[int, np.ndarray]:
    """The evidence lambda of each evidence and cut node, by index, for a
    batch of instantiations of the ``cut`` nodes, one per row of ``states``;
    any other node's is all ones.  A cut node's lambda is, per row, the
    indicator of its state, weighed by the evidence; every other lambda is
    one row, shared by the whole batch.  ``bound`` is ``_bind_evidence``'s
    output."""
    lam = {comp.index[var]: vec[None] for var, vec in bound.items()}
    for j, var in enumerate(cut):
        i = comp.index[var]
        ind = (states[:, j, None] == np.arange(comp.cpt[i].shape[-1])).astype(float)
        lam[i] = ind * lam[i] if i in lam else ind
    return lam


# -- schedule --------------------------------------------------------------


@dataclass(frozen=True)
class _Schedule:
    """The order of one sweep's messages, fixed by the observed nodes.

    Per connected component of the split skeleton: its pivot, then the
    messages of the collect pass and of the distribute pass, each as
    (is a pi message, edge) in the order sent.  A split node is
    (x, 0, -1) for node x, the piece holding its incoming edges when x is
    observed, and (x, 1, e) for the clone of observed x that carries its
    edge e; split nodes sort by node, piece and head.  ``preset`` lists
    the edges whose pi message is a cached prior, never sent.
    """

    walk: _Walk
    components: tuple[tuple[tuple[int, int, int], tuple[tuple[bool, int], ...],
                            tuple[tuple[bool, int], ...]], ...]
    preset: tuple[int, ...]

    @cached_property
    def priors(self) -> dict[int, np.ndarray]:
        """Each preset edge's pi message, its tail's cached prior, looked up on first use."""
        return {e: self.walk.comp.prior(self.walk.comp.edges[e][0]) for e in self.preset}

    @cached_property
    def rest(self) -> _Schedule:
        """The components the walk has not reached, in order of their first split node."""
        return self.walk.schedule(sorted(self.walk.seeds), ordered=True)


class _Walk:
    """Breadth-first walks over the split skeleton with the nodes ``hard``
    observed, which build every schedule.  With ``keep`` None every node
    is kept and nothing is preset.  Toward a target, ``keep`` is K, the
    ``seeds`` (target, evidence and cut nodes) and their ancestors, and
    ``prior_edge`` maps each prior-only node of K (no seed, one child in K
    and only prior-only parents) to its edge to that child, decided
    parents first before the walk.  A child outside K is barren and
    skipped, and a prior-only parent's edge is preset.
    """

    def __init__(self, comp: _Compiled, hard: frozenset[int], keep=None, seeds=frozenset()):
        self.comp, self.hard, self.keep, self.seeds = comp, hard, keep, seeds
        self.preset: list[int] = []
        self.prior_edge: dict[int, int] = {}
        for x in comp.order if keep is not None else ():
            if x in keep and x not in seeds and all(u in self.prior_edge for u in comp.parents[x]):
                # x is an ancestor of a seed, so it has at least one child in K.
                below = [f for f in comp.out_edges[x] if comp.edges[f][1] in keep]
                if len(below) == 1:
                    self.prior_edge[x] = below[0]
        # Each split node walked, with its neighbours; a walk takes whole components.
        self._adj: dict[tuple[int, int, int], list] = {}

    def adjacent(self, nd: tuple[int, int, int]) -> list:
        """nd's walked neighbours, as (split node, edge), classified once."""
        adj = self._adj.get(nd)
        if adj is not None:
            return adj
        x, clone, e = nd
        if clone:
            adj = [((self.comp.edges[e][1], 0, -1), e)]
        else:
            adj, keep, hard = [], self.keep, self.hard
            for y, f, down in self.comp.neighbors[x]:
                if down:
                    if x not in hard and (keep is None or y in keep):
                        adj.append(((y, 0, -1), f))
                elif y in hard:
                    adj.append(((y, 1, f), f))
                elif y in self.prior_edge:
                    self.preset.append(f)
                else:
                    adj.append(((y, 0, -1), f))
        self._adj[nd] = adj
        return adj

    def tree(self, root: tuple[int, int, int]) -> tuple[list, dict]:
        """Breadth-first spanning tree of root's component; a second way
        into any split node means a loop survived instantiation."""
        link: dict[tuple, tuple | None] = {root: None}
        order = [root]
        for nd in order:
            back = link[nd][0] if link[nd] else None
            for nb, e in self.adjacent(nd):
                if nb == back:
                    continue
                if nb in link:
                    raise NotAPolytreeError(
                        "propagation schedule found a loop not cut by the instantiated nodes")
                link[nb] = (nd, e)
                order.append(nb)
        return order, link

    def schedule(self, xs, pivot: tuple[int, int, int] | None = None,
                 ordered: bool = False) -> _Schedule:
        """Schedule the components not yet walked that hold a piece of a
        node in ``xs``, in order of the first such piece, or of their least
        split node if ``ordered``.  Each is walked from that first piece and
        rooted at ``pivot`` if it holds it, else at its least split node, as
        in every schedule, so the same messages precede ``complete``."""
        preset, found, edges, keep = len(self.preset), [], self.comp.edges, self.keep
        for start in [nd for x in xs for nd in [(x, 0, -1)] + (
                [(x, 1, f) for y, f, down in self.comp.neighbors[x]
                 if down and (keep is None or y in keep)] if x in self.hard else [])]:
            if start in self._adj:
                continue
            order, link = self.tree(start)
            first = min(order)
            root = pivot if pivot in link else first
            if root != start:
                order, link = self.tree(root)
            # Outward from the root; a message leaving the tail side of its edge is a pi message.
            distribute = [(up[0] == edges[e][0], e) for up, e in map(link.get, order[1:])]
            collect = tuple([(not is_pi, e) for is_pi, e in reversed(distribute)])
            found.append((first, order[0], collect, tuple(distribute)))
        if ordered:
            found.sort(key=lambda c: c[0])
        return _Schedule(self, tuple([c[1:] for c in found]), tuple(self.preset[preset:]))


def _schedule(comp: _Compiled, hard_vars, pivot: str | None = None) -> _Schedule:
    """The schedule of the whole network with ``hard_vars`` observed, each
    component rooted at the pivot variable's node if it holds it.  The
    compiled network keeps the last ``_PLANS`` built, by observed set and pivot."""
    hard = frozenset(hard_vars)
    root = None if pivot is None else (comp.index[pivot], 0, -1)
    return _kept(comp.schedules, (hard, pivot), lambda: _Walk(
        comp, frozenset(comp.index[v] for v in hard)).schedule(range(len(comp.ids)), root))


def _toward(net: BayesianNetwork, comp: _Compiled, plan: _Plan,
            cut: Sequence[str] = ()) -> _Schedule:
    """The schedule toward ``plan``'s target with its evidence and the ``cut``
    nodes observed.  K is ``opened | above`` of the plan and the ancestors of
    any cut node outside it.  If every CPT entry is positive, a component
    holding no piece of the target or of a cut node has the same positive
    mass on every cutset row, which cancels in the mixture: it is left to ``rest``.
    The schedule depends on the plan and the cut alone, so the plan keeps it."""
    key, memo = (_Schedule, tuple(cut)), plan.memo
    if key not in memo:
        index, inside = comp.index, plan.opened | plan.above
        outside = _closure(set(cut) - inside, net._parents) if cut else ()
        walk = _Walk(comp, frozenset(map(index.__getitem__, [*plan.hard, *cut])),
                     frozenset(map(index.__getitem__, [*inside, *outside])),
                     frozenset(map(index.__getitem__, [plan.target, *plan.observed, *cut])))
        pivot = (index[plan.target], 0, -1)
        memo[key] = walk.schedule(sorted({pivot[0], *(index[v] for v in cut)}), pivot) \
            if net._positive else walk.schedule(sorted(walk.seeds), pivot, ordered=True)
    return memo[key]


# -- sweep -----------------------------------------------------------------


class _Sweep:
    """The messages of one batched sweep and the node values read from them.

    Row k of every array belongs to instantiation k; an array that every
    row shares may have a single row, which broadcasts.  ``pi_msg`` and
    ``lambda_msg`` hold the messages sent, by edge.  A lambda message not
    sent counts as all ones: before ``complete`` that is one from a
    barren child.  Every message has the same value whenever it is sent,
    because all it reads was sent before it, and node values are kept
    once computed.  A component's evidence mass is its pivot's pi . lambda
    times the normalisers its collect pass absorbed.
    """

    def __init__(self, comp: _Compiled, schedule: _Schedule, lam: dict[int, np.ndarray]):
        self.comp, self.schedule, self.lam = comp, schedule, lam
        self.hard = schedule.walk.hard
        self.pi_msg: dict[int, np.ndarray] = {}
        self.lambda_msg: dict[int, np.ndarray] = {}
        # Backs ``gathered``: a cached_property's first read slows every later attribute lookup.
        self._gathered: np.ndarray | None = None
        self._all_sent = False
        self._pi: dict[int, np.ndarray] = {}
        self._lambda: dict[int, np.ndarray] = {}
        self._product: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @property
    def gathered(self) -> np.ndarray:
        """Per row, the mass of the components swept, whose collect passes it sends."""
        if self._gathered is None:
            self._gathered = self.collect(self.schedule)
        return self._gathered

    @cached_property
    def mass(self) -> np.ndarray:
        """Per row, the evidence mass: ``gathered`` times that of the components
        left out (``_Schedule.rest``), whose collect passes it sends."""
        return self.gathered * self.collect(self.schedule.rest)

    @cached_property
    def full(self) -> _Schedule:
        """The schedule of every message, which orders ``complete`` and the log."""
        if self.schedule.walk.keep is None:
            return self.schedule
        return _schedule(self.comp, [self.comp.ids[x] for x in self.hard])

    def pi_value(self, x: int) -> np.ndarray:
        """pi(x): x's CPT contracted with the pi messages from its parents."""
        pi = self._pi.get(x)
        if pi is None:
            pi = self.comp.contract_pi(x, [self.pi_msg[e] for e in self.comp.in_edges[x]])
            self._pi[x] = pi
        return pi

    def lambda_value(self, x: int) -> np.ndarray:
        """lambda(x): x's evidence lambda times the lambda messages from its children."""
        lv = self._lambda.get(x)
        if lv is None:
            lv = self.lam.get(x)
            for m in map(self.lambda_msg.get, self.comp.out_edges[x]):
                if m is not None:
                    lv = m if lv is None else lv * m
            if lv is None:
                lv = self.comp.ones[x]
            self._lambda[x] = lv
        return lv

    def pi_message(self, e: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The pi message down edge e and the normalisation mass it absorbed,
        None from an observed node, which absorbs none."""
        u = self.comp.edges[e][0]
        if u in self.hard:
            # lam >= 0, so its sign marks the instantiated state of a hard node.
            return np.sign(self.lam[u]), None
        vec = self.pi_value(u)
        if u in self.lam:
            vec = vec * self.lam[u]
        for f in self.comp.out_edges[u]:
            if f != e and f in self.lambda_msg:
                vec = vec * self.lambda_msg[f]
        gamma = np.add.reduce(vec, axis=-1)
        return _normalised(vec, gamma), gamma

    def lambda_message(self, e: int) -> np.ndarray:
        """The lambda message up edge e, over the states of its parent."""
        c = self.comp
        w = c.edges[e][1]
        lam_w = self.lam[w] if w in self.hard else self.lambda_value(w)
        return np.einsum(c.lambda_subs[e], c.cpt[w], lam_w,
                         *[self.pi_msg[f] for f in c.others[e]])

    def send(self, is_pi: bool, e: int) -> np.ndarray | None:
        """Send one message along edge e; returns the mass a pi message
        absorbed, None for one that absorbed none."""
        if is_pi:
            self.pi_msg[e], gamma = self.pi_message(e)
            return gamma
        self.lambda_msg[e] = self.lambda_message(e)
        return None

    def collect(self, schedule: _Schedule) -> np.ndarray:
        """Preset ``schedule``'s cached priors and send its collect passes;
        per row, the mass they gather.  Only absorbed masses are multiplied
        in, so no product is taken with an exact one."""
        self.pi_msg.update(schedule.priors)
        mass = None
        for pivot, collect, _ in schedule.components:
            scale = None
            for is_pi, e in collect:
                gamma = self.send(is_pi, e)
                if gamma is not None:
                    scale = gamma if scale is None else scale * gamma
            part = self.pivot_mass(pivot)
            if scale is not None:
                part = part * scale
            mass = part if mass is None else mass * part
        return np.ones(1) if mass is None else mass

    def complete(self) -> None:
        """Send every message not yet sent, in the order of the full schedule."""
        if self._all_sent:
            return
        # Reading the mass sweeps the components left out; then every
        # prior-only node's pi message is its prior.
        self.mass
        for x, e in self.schedule.walk.prior_edge.items():
            if e not in self.pi_msg:
                self.pi_msg[e] = self.comp.prior(x)
        for _, collect, distribute in self.full.components:
            for is_pi, e in collect + distribute:
                if e not in (self.pi_msg if is_pi else self.lambda_msg):
                    self.send(is_pi, e)
        self._all_sent = True

    def product(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """x's pi * lambda and, per row, its sum, formed once; an observed
        x's lambda is its evidence lambda."""
        if x not in self._product:
            raw = self.pi_value(x) * (self.lam[x] if x in self.hard else self.lambda_value(x))
            self._product[x] = raw, np.add.reduce(raw, axis=-1)
        return self._product[x]

    def pivot_mass(self, pivot: tuple[int, int, int]) -> np.ndarray:
        """Per row, the evidence mass the collect pass gathered at the pivot."""
        x, clone, e = pivot
        if clone:
            return np.add.reduce(self.lambda_msg[e] * np.sign(self.lam[x]), axis=-1)
        return self.product(x)[1]

    def belief(self, x: int) -> np.ndarray:
        """Per row, x's normalised pi * lambda, or the indicator of its
        instantiated state; zero in a row of zero mass.  x is a pivot,
        whose belief the collect pass yields, or the sweep is complete."""
        if x in self.hard:
            return np.sign(self.lam[x])
        return _normalised(*self.product(x))

    def trace(self, k: int) -> tuple[str, ...]:
        """Row k's message log: one ``MSG`` line per message, in the order
        of the full schedule; sends every message still missing."""
        self.complete()
        ids, edges = self.comp.ids, self.comp.edges
        lines = []
        for _, collect, distribute in self.full.components:
            for is_pi, e in collect + distribute:
                u, w = edges[e]
                msg = (self.pi_msg if is_pi else self.lambda_msg)[e]
                head = f"MSG {ids[u]} {ids[w]} pi " if is_pi else f"MSG {ids[w]} {ids[u]} lambda "
                row = msg[k if len(msg) > 1 else 0]
                lines.append(head + ",".join(repr(float(p)) for p in row))
        return tuple(lines)


# -- public API ------------------------------------------------------------


class _Lazy(Mapping):
    """A read-only mapping whose value for a key is computed when first read."""

    def __init__(self, index: Mapping, value):
        self._index, self._value, self._known = index, value, {}

    def __getitem__(self, key):
        if key not in self._known:
            self._known[key] = self._value(self._index[key])
        return self._known[key]

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


@dataclass(frozen=True, eq=False)
class MessageStore:
    """Every message and node value computed by one propagation run.

    Both message maps are keyed by the directed edge (parent, child);
    ``pi_messages[(u, v)]`` is what u sent down to v and
    ``lambda_messages[(u, v)]`` is what v sent up to u, both over u's
    states.  ``evidence_mass`` is the probability of all evidence, a
    product of floats, so one below about 1e-308 may read 0.0.  Each
    map's values are computed from the run's messages when first read.
    """

    pi_node: Mapping[str, np.ndarray]
    lambda_node: Mapping[str, np.ndarray]
    pi_messages: Mapping[tuple[str, str], np.ndarray]
    lambda_messages: Mapping[tuple[str, str], np.ndarray]
    beliefs: Mapping[str, Belief]
    evidence_mass: float
    _sweep: _Sweep = field(repr=False)

    @cached_property
    def trace(self) -> tuple[str, ...]:
        """The run's message log, one ``MSG`` line per message in the
        order of the full sweep; formatted when first read."""
        return self._sweep.trace(0)


def _require_polytree(net: BayesianNetwork) -> None:
    """Raise NotAPolytreeError, naming a witness loop, on a loopy network."""
    check = is_polytree(net)
    if not check:
        loop = "-".join(check.cycle + (check.cycle[0],))
        raise NotAPolytreeError(f"network is multiply connected (loop {loop})")


def propagate(net: BayesianNetwork, e: Evidence = Evidence.empty(),
              pivot: str | None = None) -> MessageStore:
    """Run one collect/distribute sweep over the network; return every message.

    Every message, two per edge, is sent before the store is returned;
    node values, beliefs and the log are computed from them when first
    read.  A query for one target is cheaper through ``infer``, which
    sweeps only what the target's belief depends on.

    The network must be singly connected; otherwise NotAPolytreeError
    carries a witness loop.  The pivot defaults to the first-declared
    node of each connected component, and any other choice yields the
    same beliefs.  ImpossibleEvidenceError is raised when some connected
    component's collect pass gathers zero mass; ``evidence_mass``, the
    product over components, may underflow to 0.0 without it.
    """
    bound = _bind_evidence(net, e)
    _require_polytree(net)
    if pivot is not None:
        net.var(pivot)
    comp = _once(net, _Compiled)
    sweep = _Sweep(comp, _schedule(comp, e.hard_states(), pivot), _lambdas(comp, bound))
    mass = float(sweep.gathered[0])
    if any(sweep.pivot_mass(root)[0] <= 0 for root, _, _ in sweep.schedule.components):
        raise ImpossibleEvidenceError("evidence has probability zero")
    sweep.complete()
    return MessageStore(
        _Lazy(comp.index, lambda x: sweep.pi_value(x)[0]),
        _Lazy(comp.index, lambda x: sweep.lambda_value(x)[0]),
        _Lazy(comp.edge_index, lambda e: sweep.pi_msg[e][0]),
        _Lazy(comp.edge_index, lambda e: sweep.lambda_msg[e][0]),
        _Lazy(comp.index, lambda x: Belief(comp.ids[x], sweep.belief(x)[0])),
        mass, sweep)


def fixed_point_delta(net: BayesianNetwork, e: Evidence, store: MessageStore) -> float:
    """Largest change any message would make if recomputed once more.

    Recomputes every stored message from the other stored values using
    the same update rules; on a polytree the sweep is a fixed point and
    the delta is numerically zero.  A loopy network raises
    NotAPolytreeError as ``propagate`` does.  The store may come from any
    network with this one's variables, edges and table shapes, and then
    measures how far its messages are from this network's fixed point;
    any other store raises ValueError.
    """
    bound = _bind_evidence(net, e)
    _require_polytree(net)
    comp, theirs = _once(net, _Compiled), store._sweep.comp
    if (theirs.ids, theirs.edges) != (comp.ids, comp.edges) \
            or [t.shape for t in theirs.cpt] != [t.shape for t in comp.cpt]:
        raise ValueError("message store's variables, edges or table shapes are not the network's")
    probe = _Sweep(comp, _schedule(comp, e.hard_states()), _lambdas(comp, bound))
    probe.pi_msg, probe.lambda_msg = store._sweep.pi_msg, store._sweep.lambda_msg
    worst = 0.0
    for i in range(len(comp.edges)):
        vec, _ = probe.pi_message(i)
        worst = max(worst, float(np.max(np.abs(vec - probe.pi_msg[i]))))
        vec = probe.lambda_message(i)
        worst = max(worst, float(np.max(np.abs(vec - probe.lambda_msg[i]))))
    return worst
