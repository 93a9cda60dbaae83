"""Two-phase message passing on singly connected networks.

Each node X holds two vectors over its states: lambda(X), the support
arriving from evidence at or below X, and pi(X), the prior support
arriving from above.  Neighbours exchange messages along edges:

* pi message X -> child c:   pi(X) * evidence-lambda(X) * product of
  lambda messages from X's other children, normalised to sum to one;
* lambda message X -> parent U_i:  sum over X's states of lambda(X)
  times the CPT contracted with the pi messages from X's other parents.

One collect pass toward a pivot node and one distribute pass back
compute every message exactly once; on a polytree that single sweep is
a fixed point.  The belief at X is the normalised product pi(X) *
lambda(X); at the pivot the collect pass alone yields it.

Evidence enters as each node's evidence-lambda: the vector that
``model._bind_evidence`` binds for an evidence variable, all ones for
any other.

Observed nodes cut the flow: a message leaving an observed node carries
only its instantiated state (for pi) or its own evidence weight (for
lambda); support that arrived from one neighbour is never reflected to
another.  Internally the schedule splits each observed node, bundling
its incoming edges on one piece and hanging every outgoing edge on an
indicator clone, so the swept graph is a forest whenever the unobserved
part of the network is singly connected.  The same engine therefore
also serves the cutset-conditioning driver, which instantiates enough
nodes to cut every loop.

A sweep is batched.  Every message carries a leading instantiation
axis, one row per evidence pattern over the same set of observed
nodes, and every pi value and lambda message is one ``np.einsum`` of
the node's CPT with the incoming messages.  ``propagate`` sweeps one
row; cutset conditioning sweeps all its instantiations at once.  The
network's index form (parents, children, CPT tensors, contraction
subscripts) is compiled once per network.

The total evidence mass (the probability of all evidence) is recovered
as the product over swept components of the pivot's pi . lambda dot
product times the normalisation constants absorbed during the collect
pass.  The collect pass runs at once; the first read of a message, of
the log or of any value but a pivot's belief sends every message still
missing.  The log is formatted from the messages when first read, so a
run nobody traces formats nothing.

Both engines answer a query for one target from one collect pass
toward it.  A node that is neither the target, nor observed, nor an
ancestor of either is barren: no evidence lies at or below it, so the
lambda message it sends is all ones and it cannot change the target's
belief or the evidence mass (Shachter 1986; Baker & Boult 1990).  Such
a run sweeps only the rest, pivoted at the target (``_toward``).
Reading anything else sends the missing messages in the order of the
full sweep, so the log lists the same messages in the same order as a
run without a target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from string import ascii_letters
from collections.abc import Callable, Mapping, Sequence

import numpy as np

from .errors import ImpossibleEvidenceError, NotAPolytreeError
from .model import BayesianNetwork, Belief, Evidence, _bind_evidence, _once
from .structure import _opened, is_polytree


# -- compiled network ------------------------------------------------------


class _Compiled:
    """A network in the index form the sweep reads, built once per network.

    Edges are numbered as in ``net.edges`` (``edge_index``).
    ``in_edges[x]`` lists the edges from x's parents in CPT order,
    ``out_edges[x]`` those to its children, and ``neighbors[x]`` holds
    (neighbour, edge, the edge leaves x) for each, by neighbour.
    ``cpt[x]`` is the CPT tensor over (parents..., x), a root's prior
    kept as one row; ``ones[x]`` is x's lambda without evidence.
    ``pi_subs[x]`` contracts the pi messages from x's parents with its
    CPT; ``lambda_subs[e]`` contracts the CPT of the child of edge e
    with its lambda and the pi messages from its other parents
    (``others[e]``).
    """

    def __init__(self, net: BayesianNetwork):
        self.ids = tuple(v.id for v in net.variables)
        self.index = {x: i for i, x in enumerate(self.ids)}
        self.edge_index = {edge: e for e, edge in enumerate(net.edges)}
        self.edges = tuple((self.index[u], self.index[w]) for u, w in net.edges)
        self.in_edges: list[list[int]] = [[] for _ in self.ids]
        self.out_edges: list[list[int]] = [[] for _ in self.ids]
        for e, (u, w) in enumerate(self.edges):
            self.in_edges[w].append(e)
            self.out_edges[u].append(e)
        self.neighbors = [sorted([(self.edges[e][0], e, False) for e in ins]
                                 + [(self.edges[e][1], e, True) for e in outs])
                          for ins, outs in zip(self.in_edges, self.out_edges)]
        self.ones = [np.broadcast_to(1.0, (1, v.arity)) for v in net.variables]
        self.cpt: list[np.ndarray] = []
        self.pi_subs: list[str] = []
        self.lambda_subs = [""] * len(self.edges)
        self.others: list[list[int]] = [[] for _ in self.edges]
        for x, v in enumerate(net.variables):
            ins = self.in_edges[x]
            # One letter per parent, then the child's; "..." is the batch axis.
            letters, child = ascii_letters[:len(ins)], ascii_letters[len(ins)]
            table = net.cpt(v.id).table
            self.cpt.append(table.reshape(*(net.arity(p) for p in net.parents(v.id)), v.arity)
                            if ins else table)
            self.pi_subs.append(",".join([f"...{a}" for a in letters] + [letters + child])
                                + f"->...{child}")
            for i, e in enumerate(ins):
                rest = "".join(f",...{a}" for j, a in enumerate(letters) if j != i)
                self.lambda_subs[e] = f"{letters}{child},...{child}{rest}->...{letters[i]}"
                self.others[e] = [f for f in ins if f != e]


def _compiled(net: BayesianNetwork) -> _Compiled:
    return _once(net, _Compiled)


def _lambdas(comp: _Compiled, bound: Mapping[str, np.ndarray], cut: Sequence[str] = (),
             states: np.ndarray | None = None) -> list[np.ndarray | None]:
    """Every variable's evidence lambda, by index, for a batch of
    instantiations of the ``cut`` nodes; None stands for all ones.

    Row k of a cut node's lambda keeps only its state ``states[k]``, at
    the evidence weight of that state; every other lambda is one row,
    shared by the whole batch.  ``bound`` is ``_bind_evidence``'s output.
    """
    lam: list[np.ndarray | None] = [None] * len(comp.ids)
    for var, vec in bound.items():
        lam[comp.index[var]] = vec[None]
    for j, var in enumerate(cut):
        i = comp.index[var]
        rows = np.eye(comp.cpt[i].shape[-1])[states[:, j]]
        lam[i] = rows if lam[i] is None else rows * lam[i]
    return lam


# -- schedule --------------------------------------------------------------


@dataclass(frozen=True)
class _Schedule:
    """The order of one sweep's messages, fixed by the observed nodes.

    Per connected component of the split skeleton: its pivot, then the
    messages of the collect pass and of the distribute pass, each as
    (is a pi message, edge) in the order sent.  A split node is
    (x, 0, -1) for node x, or its incoming piece when x is observed, and
    (x, 1, e) for the clone of observed x that carries its edge e.
    Edges leave a node in the order of their heads, so split nodes sort
    by node, piece and head.  ``keep`` is the set of nodes swept, with
    the edges into them; None when the schedule covers the whole network.
    """

    hard: frozenset[int]
    components: tuple[tuple[tuple[int, int, int], tuple[tuple[bool, int], ...],
                            tuple[tuple[bool, int], ...]], ...]
    keep: frozenset[int] | None = None


def _tree(adj: dict, root: tuple) -> tuple[list, dict]:
    """Breadth-first spanning tree of root's component; a second way
    into any split node means a loop survived instantiation."""
    link: dict[tuple, tuple | None] = {root: None}
    order = [root]
    for nd in order:
        back = link[nd][0] if link[nd] else None
        for nb, e in adj[nd]:
            if nb == back:
                continue
            if nb in link:
                raise NotAPolytreeError(
                    "propagation schedule found a loop not cut by the instantiated nodes"
                )
            link[nb] = (nd, e)
            order.append(nb)
    return order, link


def _schedule(comp: _Compiled, hard_vars, pivot: str | None = None,
              keep: frozenset[int] | None = None) -> _Schedule:
    """Schedule a sweep with ``hard_vars`` observed, over the nodes in
    ``keep`` and the edges into them, or over the whole network.

    ``keep`` must hold the parents of its nodes.  Components are taken
    in order of their first split node; each is rooted at that node, or
    at the pivot variable's node when the component holds it.
    """
    hard = frozenset(comp.index[v] for v in hard_vars)

    def tail(u: int, e: int) -> tuple[int, int, int]:
        return (u, 1, e) if u in hard else (u, 0, -1)

    # Split nodes are inserted in sorted order, each with its neighbours sorted.
    adj: dict[tuple[int, int, int], list] = {}
    for x in range(len(comp.ids)) if keep is None else sorted(keep):
        nbrs = comp.neighbors[x]
        if keep is not None:
            nbrs = [nb for nb in nbrs if nb[0] in keep]
        if x in hard:
            adj[(x, 0, -1)] = [(tail(y, e), e) for y, e, down in nbrs if not down]
            for y, e, down in nbrs:
                if down:
                    adj[(x, 1, e)] = [((y, 0, -1), e)]
        else:
            adj[(x, 0, -1)] = [((y, 0, -1) if down else tail(y, e), e) for y, e, down in nbrs]
    pivot_node = None if pivot is None else (comp.index[pivot], 0, -1)

    components = []
    seen: set[tuple] = set()
    for start in adj:
        if start in seen:
            continue
        order, link = _tree(adj, start)
        seen.update(order)
        if pivot_node is not None and pivot_node != start and pivot_node in link:
            order, link = _tree(adj, pivot_node)
        # Outward from the pivot; a message leaving the tail side of its edge is a pi message.
        distribute = []
        for nd in order[1:]:
            up, e = link[nd]
            distribute.append((up[0] == comp.edges[e][0], e))
        collect = tuple((not is_pi, e) for is_pi, e in reversed(distribute))
        components.append((order[0], collect, tuple(distribute)))
    return _Schedule(hard, tuple(components), keep)


def _toward(net: BayesianNetwork, comp: _Compiled, e: Evidence, target: str,
            cut: Sequence[str] = ()) -> _Schedule:
    """Schedule a run for ``target`` with the evidence and the ``cut``
    nodes observed, over the target, the evidence, the cut nodes and all
    their ancestors, pivoted at the target.

    Every other node is barren: no evidence lies at or below it, so the
    lambda message it sends is all ones and it changes neither the
    target's belief nor the evidence mass (Shachter 1986).
    """
    relevant = _opened(net, e).union({target, *cut}, *map(net.ancestors, (target, *cut)))
    keep = frozenset(comp.index[v] for v in relevant)
    return _schedule(comp, {*e.hard_states(), *cut}, target, keep)


# -- sweep -----------------------------------------------------------------


class _Sweep:
    """The messages of one batched sweep and the node values read from them.

    Row k of every array belongs to instantiation k; an array that every
    row shares may have a single row, which broadcasts.

    ``_run`` sends the collect pass, which yields the evidence mass and
    the belief of each pivot.  Reading any other value, a message or the
    log first calls ``complete``, which sends every message not yet
    sent, in the order of ``full``, the schedule of the whole network.
    Every message has the same value whenever it is sent, because all it
    depends on was sent before it; node values are kept once computed.

    A schedule that keeps only some nodes sweeps only them: a lambda
    message from a child outside them counts as all ones and is not sent
    until ``complete``.  Messages and node values computed before then
    keep their values.
    """

    def __init__(self, comp: _Compiled, schedule: _Schedule, lam: list[np.ndarray | None],
                 full: Callable[[], _Schedule] | None = None):
        self.comp, self.schedule, self.lam = comp, schedule, lam
        self._full = full
        self.hard = schedule.hard
        self.pivots = {pivot for pivot, _, _ in schedule.components}
        # The lambda messages from x's children that its values multiply in.
        self.out: Mapping[int, list[int]] | list[list[int]] = comp.out_edges
        if schedule.keep is not None:
            self.out = {x: [e for e in comp.out_edges[x] if comp.edges[e][1] in schedule.keep]
                        for x in schedule.keep}
        # lam >= 0, so its sign marks the instantiated state of a hard node.
        self.indicator = {x: np.sign(lam[x]) for x in self.hard}
        self.pi_msg: list[np.ndarray | None] = [None] * len(comp.edges)
        self.lambda_msg: list[np.ndarray | None] = [None] * len(comp.edges)
        self.mass: np.ndarray | None = None
        self._all_sent = False
        self._pi: dict[int, np.ndarray] = {}
        self._lambda: dict[int, np.ndarray] = {}

    @cached_property
    def full(self) -> _Schedule:
        """The schedule of every message, which orders ``complete`` and the log."""
        return self.schedule if self._full is None else self._full()

    def _pi_value(self, x: int) -> np.ndarray:
        """pi(x): x's CPT contracted with the pi messages from its parents."""
        pi = self._pi.get(x)
        if pi is None:
            c = self.comp
            pi = c.cpt[x]
            if c.in_edges[x]:
                pi = np.einsum(c.pi_subs[x], *[self.pi_msg[e] for e in c.in_edges[x]], pi)
            self._pi[x] = pi
        return pi

    def _lambda_value(self, x: int) -> np.ndarray:
        """lambda(x): x's evidence lambda times the lambda messages from its children."""
        lv = self._lambda.get(x)
        if lv is None:
            lv = self.lam[x]
            for e in self.out[x]:
                lv = self.lambda_msg[e] if lv is None else lv * self.lambda_msg[e]
            if lv is None:
                lv = self.comp.ones[x]
            self._lambda[x] = lv
        return lv

    def pi_message(self, e: int) -> tuple[np.ndarray, np.ndarray | float]:
        """The pi message down edge e and the normalisation mass it absorbed."""
        u = self.comp.edges[e][0]
        if u in self.hard:
            return self.indicator[u], 1.0
        vec = self._pi_value(u)
        if self.lam[u] is not None:
            vec = vec * self.lam[u]
        for f in self.out[u]:
            if f != e:
                vec = vec * self.lambda_msg[f]
        gamma = vec.sum(axis=-1)
        if gamma.all():
            return vec / gamma[:, None], gamma
        # A row of zero mass stays zero.
        return vec / np.where(gamma > 0, gamma, 1.0)[:, None], gamma

    def lambda_message(self, e: int) -> np.ndarray:
        """The lambda message up edge e, over the states of its parent."""
        c = self.comp
        w = c.edges[e][1]
        lam_w = self.lam[w] if w in self.hard else self._lambda_value(w)
        return np.einsum(c.lambda_subs[e], c.cpt[w], lam_w,
                         *[self.pi_msg[f] for f in c.others[e]])

    def send(self, is_pi: bool, e: int) -> np.ndarray | float:
        """Send one message along edge e; returns the mass a pi message absorbed."""
        if is_pi:
            self.pi_msg[e], gamma = self.pi_message(e)
            return gamma
        self.lambda_msg[e] = self.lambda_message(e)
        return 1.0

    def complete(self) -> None:
        """Send every message not yet sent, in the order of the full schedule."""
        if self._all_sent:
            return
        self.out = self.comp.out_edges
        for _, collect, distribute in self.full.components:
            for is_pi, e in collect + distribute:
                if (self.pi_msg if is_pi else self.lambda_msg)[e] is None:
                    self.send(is_pi, e)
        self._all_sent = True

    def message(self, is_pi: bool, e: int) -> np.ndarray:
        """The message along edge e, once every message is sent."""
        self.complete()
        return (self.pi_msg if is_pi else self.lambda_msg)[e]

    def pivot_mass(self, pivot: tuple[int, int, int]) -> np.ndarray:
        """Per row, the evidence mass the collect pass gathered at the pivot."""
        x, clone, e = pivot
        if clone:
            return (self.lambda_msg[e] * self.indicator[x]).sum(axis=-1)
        lv = self.lam[x] if x in self.hard else self._lambda_value(x)
        return (self._pi_value(x) * lv).sum(axis=-1)

    def pi_value(self, x: int) -> np.ndarray:
        """pi(x), once every message is sent."""
        self.complete()
        return self._pi_value(x)

    def lambda_value(self, x: int) -> np.ndarray:
        """lambda(x), once every message is sent."""
        self.complete()
        return self._lambda_value(x)

    def belief(self, x: int) -> np.ndarray:
        """Per row, x's normalised pi * lambda, or the indicator of its
        instantiated state; zero in a row of zero mass.  A pivot's belief
        is read off the collect pass; any other node's completes the sweep."""
        if x in self.hard:
            return self.indicator[x]
        if (x, 0, -1) not in self.pivots:
            self.complete()
        raw = self._pi_value(x) * self._lambda_value(x)
        total = raw.sum(axis=-1, keepdims=True)
        return raw / np.where(total > 0, total, 1.0)

    def trace(self, k: int) -> tuple[str, ...]:
        """Row k's message log: one ``MSG`` line per message, in the order
        of the full schedule."""
        ids, edges = self.comp.ids, self.comp.edges
        lines = []
        for _, collect, distribute in self.full.components:
            for is_pi, e in collect + distribute:
                u, w = edges[e]
                msg = self.message(is_pi, e)
                head = f"MSG {ids[u]} {ids[w]} pi " if is_pi else f"MSG {ids[w]} {ids[u]} lambda "
                row = msg[k if len(msg) > 1 else 0]
                lines.append(head + ",".join(repr(float(p)) for p in row))
        return tuple(lines)


def _run(comp: _Compiled, schedule: _Schedule, lam: list[np.ndarray | None],
         full: Callable[[], _Schedule] | None = None) -> _Sweep:
    """Send the collect pass of the schedule; ``mass`` holds each row's
    probability of its evidence."""
    sweep = _Sweep(comp, schedule, lam, full)
    mass = np.ones(1)
    for pivot, collect, _ in schedule.components:
        scale = 1.0
        for is_pi, e in collect:
            scale = scale * sweep.send(is_pi, e)
        mass = mass * (sweep.pivot_mass(pivot) * scale)
    sweep.mass = mass
    return sweep


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
    ``lambda_messages[(u, v)]`` is what v sent up to u, both vectors
    over u's states for lambda and over u's states for pi (a pi message
    ranges over the sender's states, which is the parent u).
    ``evidence_mass`` is the probability of all evidence combined.  The
    maps read the run's messages: each value is computed when first read.
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


def propagate(net: BayesianNetwork, e: Evidence = Evidence.empty(),
              pivot: str | None = None, *, target: str | None = None) -> MessageStore:
    """Run one collect/distribute sweep and return every message.

    Only a collect pass runs here, which yields the evidence mass and
    the belief at its pivot.  Without a target it covers the whole network,
    toward the pivot; with a target it covers the target, the evidence
    and their ancestors, toward the target.  The first read of a
    message, the log, a node value or another node's belief sends every
    message still missing, in the order of the sweep without a target,
    so either way the store holds the same messages and the same log.

    The network must be singly connected; otherwise NotAPolytreeError
    carries a witness loop.  The pivot defaults to the first-declared
    node of each connected component, and any other choice yields the
    same beliefs.  Evidence of probability zero raises
    ImpossibleEvidenceError.
    """
    bound = _bind_evidence(net, e)
    check = is_polytree(net)
    if not check:
        loop = "-".join(check.cycle + (check.cycle[0],))
        raise NotAPolytreeError(f"network is multiply connected (loop {loop})")
    for var in (pivot, target):
        if var is not None:
            net.var(var)
    comp = _compiled(net)
    full = partial(_schedule, comp, e.hard_states(), pivot)
    lam = _lambdas(comp, bound)
    if target is None:
        sweep = _run(comp, full(), lam)
    else:
        sweep = _run(comp, _toward(net, comp, e, target), lam, full)
    mass = float(sweep.mass[0])
    if mass <= 0:
        raise ImpossibleEvidenceError("evidence has probability zero")
    return MessageStore(
        _Lazy(comp.index, lambda x: sweep.pi_value(x)[0]),
        _Lazy(comp.index, lambda x: sweep.lambda_value(x)[0]),
        _Lazy(comp.edge_index, lambda e: sweep.message(True, e)[0]),
        _Lazy(comp.edge_index, lambda e: sweep.message(False, e)[0]),
        _Lazy(comp.index, lambda x: Belief(comp.ids[x], sweep.belief(x)[0])),
        mass, sweep)


def fixed_point_delta(net: BayesianNetwork, e: Evidence, store: MessageStore) -> float:
    """Largest change any message would make if recomputed once more.

    Recomputes every stored message from the other stored values using
    the same update rules; on a polytree the sweep is a fixed point and
    the delta is numerically zero.
    """
    bound = _bind_evidence(net, e)
    comp = _compiled(net)
    probe = _Sweep(comp, _schedule(comp, e.hard_states()), _lambdas(comp, bound))
    probe.pi_msg = [store.pi_messages[edge][None] for edge in comp.edge_index]
    probe.lambda_msg = [store.lambda_messages[edge][None] for edge in comp.edge_index]
    worst = 0.0
    for i, edge in enumerate(comp.edge_index):
        vec, _ = probe.pi_message(i)
        worst = max(worst, float(np.max(np.abs(vec - store.pi_messages[edge]))))
        vec = probe.lambda_message(i)
        worst = max(worst, float(np.max(np.abs(vec - store.lambda_messages[edge]))))
    return worst
