"""Exact inference on loopy networks by cutset conditioning.

A loop cutset is a set of nodes whose instantiation cuts every loop.
Conditioning enumerates all joint instantiations c of the cutset, runs
the polytree sweep with c merged into the evidence as hard findings,
and mixes the conditioned beliefs with weights

    w_c = P(cutset = c, evidence)

which is exactly the evidence mass the sweep reports.  The mixture
posterior matches full enumeration; the number of sweeps is the product
of the cutset arities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ImpossibleEvidenceError, InvalidQueryError
from .model import BayesianNetwork, Belief, Evidence, _bind_evidence
from .propagation import _prepare, _run
from .structure import LoopCutset, select_cutset


@dataclass(frozen=True, eq=False)
class CutsetRun:
    """Full record of one conditioning run.

    ``weights`` maps each cutset instantiation (state indices in cutset
    node order) to its mass P(c, evidence); their sum is the evidence
    probability.  ``traces`` keeps each sweep's message log.
    """

    belief: Belief
    cutset: LoopCutset
    weights: dict[tuple[int, ...], float]
    instantiation_count: int
    traces: dict[tuple[int, ...], tuple[str, ...]]


def instantiation_weight(net: BayesianNetwork, c: Mapping[str, int],
                         e: Evidence = Evidence.empty()) -> float:
    """P(c, e): the mass of one cutset instantiation joined with the
    evidence.  Zero when the instantiation contradicts the evidence."""
    for var in c:
        net.var(var)
    prep = _prepare(net, _bind_evidence(net, e), e.hard_states(), dict(c))
    if prep is None:
        return 0.0
    store = _run(net, prep)
    return store.evidence_mass


def run_cutset_conditioning(net: BayesianNetwork, target: str,
                            e: Evidence = Evidence.empty()) -> CutsetRun:
    """Condition on a selected cutset and mix the sweep posteriors."""
    net.var(target)
    if e.is_hard(target):
        raise InvalidQueryError(f"target {target!r} carries hard evidence")
    bound, hard = _bind_evidence(net, e), e.hard_states()
    cut = select_cutset(net)
    arity = net.arity(target)
    dims = [range(net.arity(v)) for v in cut.nodes]
    weights: dict[tuple[int, ...], float] = {}
    traces: dict[tuple[int, ...], tuple[str, ...]] = {}
    mixed = np.zeros(arity)
    total = 0.0
    for combo in itertools.product(*dims):
        inst = dict(zip(cut.nodes, combo))
        prep = _prepare(net, bound, hard, inst)
        if prep is None:
            weights[combo] = 0.0
            traces[combo] = ()
            continue
        store = _run(net, prep)
        w = store.evidence_mass
        weights[combo] = w
        traces[combo] = store.trace
        if w > 0:
            mixed = mixed + w * store.beliefs[target].probabilities
            total += w
    count = 1
    for d in dims:
        count *= len(d)
    if total <= 0:
        raise ImpossibleEvidenceError("evidence has probability zero")
    return CutsetRun(Belief(target, mixed / total), cut, weights, count, traces)


def conditioned_posterior(net: BayesianNetwork, target: str,
                          e: Evidence = Evidence.empty()) -> Belief:
    """Posterior over the target by cutset conditioning.

    Works on any acyclic network; a polytree degenerates to a single
    unconditioned sweep.
    """
    return run_cutset_conditioning(net, target, e).belief
