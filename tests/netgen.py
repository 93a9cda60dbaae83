"""Random network builders shared by the test modules.

All generators take an explicit numpy Generator so every test run sees
the same networks.  CPT rows are drawn strictly positive, which keeps
every evidence combination possible and spares the tests flaky
zero-probability branches.  Given a positive ``zero_share``, the
builders zero about that share of the entries instead, never a row's
largest, so every row still sums to 1 with a positive entry.
"""

import numpy as np

from beliefnet import (
    BayesianNetwork,
    Cpt,
    Evidence,
    HardEvidence,
    SoftEvidence,
    Variable,
    is_polytree,
)


def random_cpt(rng, child, parents, arity, pdims, zero_share=0.0):
    rows = 1
    for d in pdims:
        rows *= d
    table = rng.uniform(0.05, 1.0, size=(rows, arity))
    if zero_share:
        zero = rng.random(table.shape) < zero_share
        table[zero & (table < table.max(axis=1, keepdims=True))] = 0.0
    table /= table.sum(axis=1, keepdims=True)
    return Cpt(child, tuple(parents), table)


def assemble(rng, parent_idx, arities, prefix="N", zero_share=0.0):
    """Build a network from adjacency lists of parent indices."""
    names = [f"{prefix}{i}" for i in range(len(parent_idx))]
    variables = tuple(
        Variable(names[i], tuple(f"s{k}" for k in range(arities[i])))
        for i in range(len(names))
    )
    cpts = []
    for i, ps in enumerate(parent_idx):
        pnames = tuple(names[j] for j in ps)
        pdims = tuple(arities[j] for j in ps)
        cpts.append(random_cpt(rng, names[i], pnames, arities[i], pdims, zero_share))
    return BayesianNetwork(variables, cpts)


def random_polytree(rng, n, min_states=2, max_states=4, zero_share=0.0):
    """A connected singly connected DAG: random tree skeleton, each
    edge randomly oriented."""
    parent_idx = [[] for _ in range(n)]
    for i in range(1, n):
        j = int(rng.integers(0, i))
        if rng.random() < 0.5:
            parent_idx[i].append(j)
        else:
            parent_idx[j].append(i)
    arities = [int(rng.integers(min_states, max_states + 1)) for _ in range(n)]
    return assemble(rng, parent_idx, arities, zero_share=zero_share)


def random_loopy(rng, n, min_states=2, max_states=3, extra_edges=(1, 2), zero_share=0.0):
    """A multiply connected DAG: random tree skeleton plus a number of
    extra edges drawn from the inclusive range ``extra_edges``.

    Every extra edge points forward in one topological order of the
    tree, so the result is always acyclic.  An edge that would repeat
    one or give a node a fourth parent is skipped.
    """
    while True:
        parent_idx = [[] for _ in range(n)]
        for i in range(1, n):
            j = int(rng.integers(0, i))
            if rng.random() < 0.5:
                parent_idx[i].append(j)
            else:
                parent_idx[j].append(i)
        rank = {v: k for k, v in enumerate(_topological(parent_idx))}
        for _ in range(int(rng.integers(extra_edges[0], extra_edges[1] + 1))):
            i = int(rng.integers(1, n))
            j = int(rng.integers(0, i))
            tail, head = (j, i) if rank[j] < rank[i] else (i, j)
            if tail not in parent_idx[head] and head not in parent_idx[tail] \
                    and len(parent_idx[head]) < 3:
                parent_idx[head].append(tail)
        arities = [int(rng.integers(min_states, max_states + 1)) for _ in range(n)]
        net = assemble(rng, parent_idx, arities, zero_share=zero_share)
        if not is_polytree(net):
            return net


def _topological(parent_idx):
    """Node indices of an acyclic parent list, parents before children."""
    order, placed = [], set()
    while len(order) < len(parent_idx):
        for v, ps in enumerate(parent_idx):
            if v not in placed and all(p in placed for p in ps):
                order.append(v)
                placed.add(v)
    return order


def grid(rng, rows, cols, arity=2):
    """A rows x cols grid DAG, cells G0, G1, ... in row-major order: each
    cell's parents are its upper and left neighbours."""
    parent_idx = [[i - cols] * (i >= cols) + [i - 1] * (i % cols > 0)
                  for i in range(rows * cols)]
    return assemble(rng, parent_idx, [arity] * (rows * cols), prefix="G")


def random_evidence(rng, net, p_node=0.4, soft_ratio=0.3, exclude=()):
    """Independent per-node draw of hard or soft evidence."""
    entries = {}
    for v in net.variables:
        if v.id in exclude or rng.random() >= p_node:
            continue
        if rng.random() < soft_ratio:
            entries[v.id] = SoftEvidence(rng.uniform(0.1, 1.0, v.arity))
        else:
            entries[v.id] = HardEvidence(int(rng.integers(v.arity)))
    return Evidence(entries)


def revalued(rng, net, e):
    """New findings on the nodes of ``e``, listed in reverse order: each
    hard one at another state, each soft one with new weights."""
    entries = {}
    for v, f in reversed(list(e.entries.items())):
        arity = net.arity(v)
        if isinstance(f, HardEvidence):
            entries[v] = HardEvidence((f.state + int(rng.integers(1, arity))) % arity)
        else:
            entries[v] = SoftEvidence(rng.uniform(0.1, 1.0, arity))
    return Evidence(entries)


def with_parent(net, child, parent):
    """``net`` with ``parent`` appended to ``child``'s table, its rows repeated
    once per state of ``parent``: a self-loop, a cycle or a repeated parent."""
    return BayesianNetwork(net.variables, [
        Cpt(t.child, t.parents + (parent,), np.repeat(t.table, net.arity(parent), axis=0))
        if t.child == child else t for t in net.cpts])


def twin(net):
    """The same network as a new object, which keeps nothing that queries on ``net`` built."""
    return BayesianNetwork(net.variables, net.cpts, net.name)
