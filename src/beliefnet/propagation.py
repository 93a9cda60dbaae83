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
lambda(X).

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

The total evidence mass (the probability of all evidence) is recovered
as the product over swept components of the pivot's pi . lambda dot
product times the normalisation constants absorbed during the collect
pass.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ImpossibleEvidenceError, NotAPolytreeError
from .model import BayesianNetwork, Belief, Evidence, _bind_evidence
from .structure import is_polytree


@dataclass(frozen=True, eq=False)
class MessageStore:
    """Every message and node value computed by one propagation run.

    Both message maps are keyed by the directed edge (parent, child);
    ``pi_messages[(u, v)]`` is what u sent down to v and
    ``lambda_messages[(u, v)]`` is what v sent up to u, both vectors
    over u's states for lambda and over u's states for pi (a pi message
    ranges over the sender's states, which is the parent u).
    ``evidence_mass`` is the probability of all evidence combined.
    """

    pi_node: dict[str, np.ndarray]
    lambda_node: dict[str, np.ndarray]
    pi_messages: dict[tuple[str, str], np.ndarray]
    lambda_messages: dict[tuple[str, str], np.ndarray]
    beliefs: dict[str, Belief]
    evidence_mass: float
    trace: tuple[str, ...]


# -- internal engine -------------------------------------------------------


@dataclass
class _Prepared:
    """The swept evidence: one lambda vector per variable plus the set
    of instantiated nodes.  ``None`` from _prepare means zero probability."""

    lam: dict[str, np.ndarray]
    hard: dict[str, int]


def _prepare(net: BayesianNetwork, bound: Mapping[str, np.ndarray], hard: Mapping[str, int],
             extra_hard: Mapping[str, int] | None = None) -> _Prepared | None:
    """Extend evidence bound by ``_bind_evidence`` to every variable and
    merge in ``extra_hard``, the instantiation of a conditioning run."""
    lam: dict[str, np.ndarray] = {}
    hard = dict(hard)
    for v in net.variables:
        vec = bound[v.id] if v.id in bound else np.ones(v.arity)
        if extra_hard is not None and v.id in extra_hard:
            s = extra_hard[v.id]
            if not 0 <= s < v.arity:
                raise ValueError(f"state index {s} out of range for {v.id!r}")
            if v.id in hard and hard[v.id] != s:
                return None
            hard[v.id] = s
            keep = vec[s]
            vec = np.zeros(v.arity)
            vec[s] = keep
            if keep <= 0:
                return None
        lam[v.id] = vec
    return _Prepared(lam, hard)


def _pi_node_value(net: BayesianNetwork, x: str,
                   pi_msg: Mapping[tuple[str, str], np.ndarray]) -> np.ndarray:
    ps = net.parents(x)
    if not ps:
        return net.cpt(x).table[0].copy()
    t = net.cpt_tensor(x)
    for p in ps:
        t = np.tensordot(pi_msg[(p, x)], t, axes=(0, 0))
    return t


def _pi_message(net, edge, lam_ev, hard, pi_msg, lambda_msg):
    """Message from parent u down edge (u, v); returns (vector, gamma)
    where gamma is the normalisation mass absorbed."""
    u, v = edge
    if u in hard:
        vec = np.zeros(net.arity(u))
        vec[hard[u]] = 1.0
        return vec, 1.0
    vec = _pi_node_value(net, u, pi_msg) * lam_ev[u]
    for c in net.children(u):
        if c != v:
            vec = vec * lambda_msg[(u, c)]
    gamma = float(vec.sum())
    vec = vec / gamma if gamma > 0 else np.zeros_like(vec)
    return vec, gamma


def _lambda_message(net, edge, lam_ev, hard, pi_msg, lambda_msg):
    """Message from child v up edge (u, v), a vector over u's states."""
    u, v = edge
    if v in hard:
        lam_v = lam_ev[v]
    else:
        lam_v = lam_ev[v].copy()
        for c in net.children(v):
            lam_v = lam_v * lambda_msg[(v, c)]
    ps = net.parents(v)
    i = ps.index(u)
    t = np.tensordot(net.cpt_tensor(v), lam_v, axes=(len(ps), 0))
    for k in range(len(ps) - 1, -1, -1):
        if k != i:
            t = np.tensordot(t, pi_msg[(ps[k], v)], axes=(k, 0))
    return t


def _split_key(net: BayesianNetwork, node) -> tuple[int, int, int]:
    if node[0] == "out":
        return (net.index(node[1]), 1, net.index(node[2]))
    return (net.index(node[1]), 0, -1)


def _run(net: BayesianNetwork, prep: _Prepared,
         pivot_var: str | None = None) -> MessageStore:
    lam_ev, hard = prep.lam, prep.hard

    # Split skeleton: observed nodes keep incoming edges on an "in"
    # piece; each outgoing edge hangs on its own "out" clone.
    nodes = [("in" if v.id in hard else "v", v.id) for v in net.variables]
    adj: dict[tuple, list] = {nd: [] for nd in nodes}
    for (u, w) in net.edges:
        tail = ("out", u, w) if u in hard else ("v", u)
        head = ("in", w) if w in hard else ("v", w)
        if tail not in adj:
            nodes.append(tail)
            adj[tail] = []
        adj[tail].append((head, (u, w)))
        adj[head].append((tail, (u, w)))
    nodes.sort(key=lambda nd: _split_key(net, nd))
    for nd in nodes:
        adj[nd].sort(key=lambda pair: _split_key(net, pair[0]))

    pi_msg: dict[tuple[str, str], np.ndarray] = {}
    lambda_msg: dict[tuple[str, str], np.ndarray] = {}
    trace: list[str] = []

    def send(frm, to, edge, collecting: bool) -> float:
        u, w = edge
        if frm[1] == u:
            vec, gamma = _pi_message(net, edge, lam_ev, hard, pi_msg, lambda_msg)
            pi_msg[edge] = vec
            trace.append(f"MSG {u} {w} pi " + ",".join(repr(float(x)) for x in vec))
            return gamma if collecting else 1.0
        vec = _lambda_message(net, edge, lam_ev, hard, pi_msg, lambda_msg)
        lambda_msg[edge] = vec
        trace.append(f"MSG {w} {u} lambda " + ",".join(repr(float(x)) for x in vec))
        return 1.0

    total_mass = 1.0
    seen: set[tuple] = set()
    for start in nodes:
        if start in seen:
            continue
        # First pass: discover the component.
        comp: set[tuple] = {start}
        queue = deque([start])
        while queue:
            nd = queue.popleft()
            for (nb, _) in adj[nd]:
                if nb not in comp:
                    comp.add(nb)
                    queue.append(nb)
        seen |= comp

        pivot = start
        if pivot_var is not None:
            cand = ("in" if pivot_var in hard else "v", pivot_var)
            if cand in comp:
                pivot = cand

        # Second pass: tree from the pivot; an extra edge means a loop
        # survived instantiation.
        parent_of: dict[tuple, tuple | None] = {pivot: None}
        order = [pivot]
        queue = deque([pivot])
        while queue:
            nd = queue.popleft()
            par = parent_of[nd][0] if parent_of[nd] else None
            for (nb, edge) in adj[nd]:
                if nb == par:
                    continue
                if nb in parent_of:
                    raise NotAPolytreeError(
                        "propagation schedule found a loop not cut by the instantiated nodes"
                    )
                parent_of[nb] = (nd, edge)
                order.append(nb)
                queue.append(nb)

        scale = 1.0
        for nd in reversed(order[1:]):
            up, edge = parent_of[nd]
            scale *= send(nd, up, edge, collecting=True)

        kind, x = pivot[0], pivot[1]
        if kind == "out":
            m = float(lambda_msg[(x, pivot[2])][hard[x]])
        elif kind == "in":
            m = float(np.dot(_pi_node_value(net, x, pi_msg), lam_ev[x]))
        else:
            ln = lam_ev[x].copy()
            for c in net.children(x):
                ln = ln * lambda_msg[(x, c)]
            m = float(np.dot(_pi_node_value(net, x, pi_msg), ln))
        total_mass *= m * scale

        for nd in order[1:]:
            up, edge = parent_of[nd]
            send(up, nd, edge, collecting=False)

    pi_node: dict[str, np.ndarray] = {}
    lambda_node: dict[str, np.ndarray] = {}
    beliefs: dict[str, Belief] = {}
    for v in net.variables:
        x = v.id
        pn = _pi_node_value(net, x, pi_msg)
        ln = lam_ev[x].copy()
        for c in net.children(x):
            ln = ln * lambda_msg[(x, c)]
        pi_node[x] = pn
        lambda_node[x] = ln
        if total_mass > 0:
            if x in hard:
                b = np.zeros(v.arity)
                b[hard[x]] = 1.0
            else:
                raw = pn * ln
                b = raw / float(raw.sum())
            beliefs[x] = Belief(x, b)

    return MessageStore(pi_node, lambda_node, pi_msg, lambda_msg,
                        beliefs, total_mass, tuple(trace))


def propagate(net: BayesianNetwork, e: Evidence = Evidence.empty(),
              pivot: str | None = None) -> MessageStore:
    """Run one full collect/distribute sweep and return every message.

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
    if pivot is not None:
        net.var(pivot)
    store = _run(net, _prepare(net, bound, e.hard_states()), pivot)
    if store.evidence_mass <= 0:
        raise ImpossibleEvidenceError("evidence has probability zero")
    return store


def fixed_point_delta(net: BayesianNetwork, e: Evidence, store: MessageStore) -> float:
    """Largest change any message would make if recomputed once more.

    Recomputes every stored message from the other stored values using
    the same update rules; on a polytree the sweep is a fixed point and
    the delta is numerically zero.
    """
    prep = _prepare(net, _bind_evidence(net, e), e.hard_states())
    lam_ev, hard = prep.lam, prep.hard
    worst = 0.0
    for edge in net.edges:
        vec, _ = _pi_message(net, edge, lam_ev, hard,
                             store.pi_messages, store.lambda_messages)
        worst = max(worst, float(np.max(np.abs(vec - store.pi_messages[edge]))))
        vec = _lambda_message(net, edge, lam_ev, hard,
                              store.pi_messages, store.lambda_messages)
        worst = max(worst, float(np.max(np.abs(vec - store.lambda_messages[edge]))))
    return worst
