"""Reference posteriors that share no code with the library's engines.

Networks whose joint fits the enumeration guard are checked against
``beliefnet.posterior``.  Larger ones go through the variable
elimination below, which reads only the CPT tables, the parent lists
and the evidence.  Elimination follows a greedy min-degree order, so on
a polytree no intermediate factor spans more than one family.
"""

from __future__ import annotations

import heapq

import numpy as np

from beliefnet import MAX_JOINT_STATES, BayesianNetwork, Evidence, HardEvidence, posterior


def _multiply(factors):
    """Product of (scope, table) factors over the union of their scopes."""
    scope = sorted({v for s, _ in factors for v in s})
    slot = {v: i for i, v in enumerate(scope)}
    operands = []
    for s, t in factors:
        operands += [t, [slot[v] for v in s]]
    return tuple(scope), np.einsum(*operands, list(range(len(scope))))


def variable_elimination(net: BayesianNetwork, target: str, e: Evidence) -> np.ndarray:
    """Normalised posterior over ``target`` by sum-product elimination."""
    ids = [v.id for v in net.variables]
    index = {v: i for i, v in enumerate(ids)}
    factors: list[tuple[tuple[int, ...], np.ndarray]] = []
    for v in net.variables:
        c = net.cpt(v.id)
        scope = tuple(index[p] for p in c.parents) + (index[v.id],)
        shape = tuple(net.arity(p) for p in c.parents) + (v.arity,)
        factors.append((scope, np.asarray(c.table).reshape(shape)))
    for var, entry in e.entries.items():
        if isinstance(entry, HardEvidence):
            w = np.zeros(net.arity(var))
            w[entry.state] = 1.0
        else:
            w = np.asarray(entry.likelihood, dtype=np.float64)
        factors.append(((index[var],), w))

    keep = index[target]
    neighbours: list[set[int]] = [set() for _ in ids]
    holding: list[set[int]] = [set() for _ in ids]
    for k, (scope, _) in enumerate(factors):
        for v in scope:
            holding[v].add(k)
            neighbours[v].update(scope)
    for v in range(len(ids)):
        neighbours[v].discard(v)

    live = dict(enumerate(factors))
    heap = [(len(neighbours[v]), v) for v in range(len(ids)) if v != keep]
    heapq.heapify(heap)
    done = {keep}
    while heap:
        degree, v = heapq.heappop(heap)
        if v in done or degree != len(neighbours[v]):
            continue
        done.add(v)
        scope, table = _multiply([live.pop(k) for k in holding[v]])
        axis = scope.index(v)
        table = table.sum(axis=axis)
        table = table / table.max()
        scope = scope[:axis] + scope[axis + 1:]
        k = len(factors)
        factors.append((scope, table))
        live[k] = (scope, table)
        for u in scope:
            holding[u].add(k)
        for u in neighbours[v]:
            neighbours[u].discard(v)
            neighbours[u].update(w for w in neighbours[v] if w != u)
            for k_old in list(holding[u]):
                if k_old not in live:
                    holding[u].discard(k_old)
            if u not in done:
                heapq.heappush(heap, (len(neighbours[u]), u))

    _, table = _multiply(list(live.values()))
    return table / table.sum()


def reference_posterior(net: BayesianNetwork, target: str, e: Evidence) -> np.ndarray:
    """Enumeration where the joint fits the guard, elimination otherwise."""
    if net.joint_state_count <= MAX_JOINT_STATES:
        return posterior(net, target, e).probabilities
    return variable_elimination(net, target, e)
