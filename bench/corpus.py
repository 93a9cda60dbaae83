"""Seeded networks and queries for the benchmark.

The generators live here rather than in the test suite so that the
benchmark's inputs stay fixed when the test generators change.  Every
corpus is a pure function of its seed.  Sizes, arity mixes and evidence
densities follow a fixed schedule; the seed only moves structure, CPT
numbers, targets and which nodes carry evidence.  That keeps the cost
profile of one seed close to that of any other.

Every generated network is checked to be a DAG.  CPT entries are drawn
strictly positive, so no evidence combination is impossible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from beliefnet import (
    MAX_JOINT_STATES,
    BayesianNetwork,
    Cpt,
    Evidence,
    HardEvidence,
    SoftEvidence,
    Variable,
)

# A polytree node takes at most this many parents, which bounds CPT size
# at 4**3 rows.
MAX_PARENTS = 3

SOFT_SHARE = 0.3


@dataclass(frozen=True)
class NetSpec:
    """The numbers behind one network; ``build`` turns it into library objects."""

    name: str
    ids: tuple[str, ...]
    arities: tuple[int, ...]
    parents: tuple[tuple[int, ...], ...]
    tables: tuple[np.ndarray, ...]

    def build(self) -> BayesianNetwork:
        variables = tuple(Variable(v, tuple(f"s{k}" for k in range(a)))
                          for v, a in zip(self.ids, self.arities))
        cpts = tuple(Cpt(v, tuple(self.ids[p] for p in ps), t)
                     for v, ps, t in zip(self.ids, self.parents, self.tables))
        return BayesianNetwork(variables, cpts, name=self.name)


@dataclass(frozen=True)
class QuerySpec:
    """One posterior query: a target and its hard and soft findings."""

    target: str
    hard: tuple[tuple[str, int], ...]
    soft: tuple[tuple[str, tuple[float, ...]], ...]
    level: str

    def evidence(self) -> Evidence:
        entries = {v: HardEvidence(s) for v, s in self.hard}
        entries.update((v, SoftEvidence(w)) for v, w in self.soft)
        return Evidence(entries)


def _spec(rng, name, ids, arities, parents) -> NetSpec:
    tables = []
    for a, ps in zip(arities, parents):
        rows = int(np.prod([arities[p] for p in ps], dtype=np.int64))
        t = rng.uniform(0.05, 1.0, size=(rows, a))
        tables.append(t / t.sum(axis=1, keepdims=True))
    spec = NetSpec(name, tuple(ids), tuple(int(a) for a in arities),
                   tuple(tuple(ps) for ps in parents), tuple(tables))
    if spec.build().topological_order() is None:
        raise RuntimeError(f"generator produced a cyclic graph for {name}")
    return spec


def polytree(rng, n: int, name: str) -> NetSpec:
    """A connected singly connected DAG on n nodes with 2-4 states each.

    The skeleton is a random recursive tree; each edge is oriented at
    random unless that would give the head more than MAX_PARENTS parents.
    Arities are a shuffled, evenly mixed multiset of 2, 3 and 4, so the
    joint size depends on n alone.
    """
    parents: list[list[int]] = [[] for _ in range(n)]
    for i in range(1, n):
        j = int(rng.integers(0, i))
        if rng.random() < 0.5 and len(parents[j]) < MAX_PARENTS:
            parents[j].append(i)
        else:
            parents[i].append(j)
    arities = rng.permutation(np.resize([2, 3, 4], n))
    return _spec(rng, name, [f"P{i}" for i in range(n)], arities, parents)


def grid(rng, rows: int, cols: int) -> NetSpec:
    """A rows x cols grid DAG: each cell's parents are its upper and left
    neighbours.

    Cells are binary except for up to two ternary cells, as many as keep
    the joint within MAX_JOINT_STATES.  The ternary cells sit at seeded
    positions in the bottom row, which the cutsets ``select_cutset``
    picks for the benchmark's shapes leave out, so the joint size and the
    number of cutset instantiations depend on the shape alone.
    """
    n = rows * cols
    ternary = 0
    while ternary < 2 and 2 ** (n - ternary - 1) * 3 ** (ternary + 1) <= MAX_JOINT_STATES:
        ternary += 1
    arities = np.full(n, 2)
    arities[(rows - 1) * cols + rng.choice(cols, size=ternary, replace=False)] = 3
    parents = []
    for r in range(rows):
        for c in range(cols):
            ps = []
            if r:
                ps.append((r - 1) * cols + c)
            if c:
                ps.append(r * cols + c - 1)
            parents.append(ps)
    ids = [f"G{r}_{c}" for r in range(rows) for c in range(cols)]
    return _spec(rng, f"grid{rows}x{cols}", ids, arities, parents)


def evidence_count(n: int, share: float) -> int:
    """Evidence nodes for a share of n nodes: none for a zero share, else
    at least one."""
    return max(1, round(share * n)) if share else 0


def query(rng, ids, arities, level: str, count: int, must_hard: tuple[str, ...] = (),
          soft_share: float = SOFT_SHARE, placement=None) -> QuerySpec:
    """A query on a random target with ``count`` evidence nodes.

    The nodes in ``must_hard`` carry hard evidence and are never the
    target; of the other evidence nodes, ``soft_share`` of the count is
    soft.  ``placement``, when given, is the generator that picks the
    target and the evidence nodes; ``rng`` draws the observed states and
    soft weights.
    """
    n = len(ids)
    placement = rng if placement is None else placement
    forced = [ids.index(v) for v in must_hard]
    target = int(placement.choice([i for i in range(n) if i not in forced]))
    pool = [int(i) for i in placement.permutation(n) if i != target and i not in forced]
    chosen = forced + pool[:max(count - len(forced), 0)]
    n_soft = min(round(soft_share * len(chosen)), len(chosen) - len(forced))
    hard, soft = [], []
    for k, i in enumerate(chosen):
        if k >= len(chosen) - n_soft:
            soft.append((ids[i], tuple(float(w) for w in rng.uniform(0.1, 1.0, arities[i]))))
        else:
            hard.append((ids[i], int(rng.integers(arities[i]))))
    return QuerySpec(ids[target], tuple(hard), tuple(soft), level)
