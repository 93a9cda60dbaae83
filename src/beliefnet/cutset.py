"""Exact inference on loopy networks by cutset conditioning.

A loop cutset is a set of nodes whose instantiation cuts every loop.
Conditioning enumerates all joint instantiations c of the cutset, runs
the polytree sweep with c merged into the evidence as hard findings,
and mixes the conditioned beliefs with weights

    w_c = P(cutset = c, evidence)

which is exactly the evidence mass the sweep reports.  The mixture
posterior matches full enumeration.  Every instantiation observes the
same nodes, so all of them share one message schedule and run as the
rows of one batched sweep, in blocks of at most ``BLOCK`` rows to bound
its memory; instantiations the evidence rules out are not swept.

The sweep is the collect pass toward the target over the target, the
evidence, the cutset and all their ancestors, as for a polytree query.
Every other node is barren, so each row's mass is still P(c, e) and
the target's belief is read off the collect pass; the rest of the sweep
is sent only when the traces are read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Mapping

import numpy as np

from .errors import ImpossibleEvidenceError, InvalidQueryError
from .model import BayesianNetwork, Belief, Evidence, _bind_evidence
from .propagation import _compiled, _lambdas, _run, _schedule, _Sweep, _toward
from .structure import LoopCutset, select_cutset

# Instantiations swept together; the sweep's arrays hold this many rows.
BLOCK = 1024


@dataclass(frozen=True, eq=False)
class CutsetRun:
    """Full record of one conditioning run.

    ``weights`` maps each cutset instantiation (state indices in cutset
    node order) to its mass P(c, evidence); their sum is the evidence
    probability.  ``traces`` holds each instantiation's message log,
    empty for one the evidence rules out; it is formatted when first
    read.
    """

    belief: Belief
    cutset: LoopCutset
    weights: dict[tuple[int, ...], float]
    instantiation_count: int
    _sweeps: tuple[tuple[_Sweep, tuple[tuple[int, ...], ...]], ...] = field(repr=False)

    @cached_property
    def traces(self) -> dict[tuple[int, ...], tuple[str, ...]]:
        out = dict.fromkeys(self.weights, ())
        for sweep, combos in self._sweeps:
            for k, combo in enumerate(combos):
                out[combo] = sweep.trace(k)
        return out


def _allowed(bound: Mapping[str, np.ndarray], cut, states: np.ndarray) -> np.ndarray:
    """Which rows of ``states`` give every cutset node a state of positive
    evidence weight; the others have mass zero and are not swept."""
    ok = np.ones(len(states), dtype=bool)
    for j, var in enumerate(cut):
        if var in bound:
            ok &= bound[var][states[:, j]] > 0
    return ok


def instantiation_weight(net: BayesianNetwork, c: Mapping[str, int],
                         e: Evidence = Evidence.empty()) -> float:
    """P(c, e): the mass of one cutset instantiation joined with the
    evidence.  Zero when the instantiation contradicts the evidence."""
    for var in c:
        net.var(var)
    bound = _bind_evidence(net, e)
    for var, s in c.items():
        if not 0 <= s < net.arity(var):
            raise ValueError(f"state index {s} out of range for {var!r}")
    cut = tuple(c)
    states = np.array([[c[v] for v in cut]], dtype=np.intp).reshape(1, len(cut))
    if not _allowed(bound, cut, states)[0]:
        return 0.0
    comp = _compiled(net)
    schedule = _schedule(comp, {*e.hard_states(), *cut})
    return float(_run(comp, schedule, _lambdas(comp, bound, cut, states)).mass[0])


def run_cutset_conditioning(net: BayesianNetwork, target: str,
                            e: Evidence = Evidence.empty()) -> CutsetRun:
    """Condition on a selected cutset and mix the sweep posteriors."""
    net.var(target)
    if e.is_hard(target):
        raise InvalidQueryError(f"target {target!r} carries hard evidence")
    bound = _bind_evidence(net, e)
    cut = select_cutset(net)
    comp = _compiled(net)
    combos = list(itertools.product(*(range(net.arity(v)) for v in cut.nodes)))
    states = np.array(combos, dtype=np.intp).reshape(len(combos), len(cut))
    rows = np.flatnonzero(_allowed(bound, cut.nodes, states))
    schedule = _toward(net, comp, e, target, cut.nodes)
    full = partial(_schedule, comp, {*e.hard_states(), *cut.nodes})
    x = comp.index[target]
    weights = dict.fromkeys(combos, 0.0)
    sweeps = []
    mixed = np.zeros(net.arity(target))
    total = 0.0
    for start in range(0, len(rows), BLOCK):
        block = rows[start:start + BLOCK]
        sweep = _run(comp, schedule, _lambdas(comp, bound, cut.nodes, states[block]), full)
        block_combos = tuple(combos[r] for r in block.tolist())
        sweeps.append((sweep, block_combos))
        w = sweep.mass
        weights.update(zip(block_combos, w.tolist()))
        # A row of zero mass has a zero (not undefined) belief, so it adds nothing.
        mixed = mixed + (w[:, None] * sweep.belief(x)).sum(axis=0)
        total += float(w.sum())
    if total <= 0:
        raise ImpossibleEvidenceError("evidence has probability zero")
    return CutsetRun(Belief(target, mixed / total), cut, weights, len(combos), tuple(sweeps))


def conditioned_posterior(net: BayesianNetwork, target: str,
                          e: Evidence = Evidence.empty()) -> Belief:
    """Posterior over the target by cutset conditioning.

    Works on any acyclic network; a polytree degenerates to a single
    unconditioned sweep.
    """
    return run_cutset_conditioning(net, target, e).belief
