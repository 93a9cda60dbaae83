"""Exact inference on loopy networks by cutset conditioning.

A loop cutset is a set of nodes whose instantiation cuts every loop.
Each joint instantiation c of the cutset, merged into the evidence as
hard findings, is swept as on a polytree, and the target's conditioned
beliefs are mixed with weights

    w_c = P(cutset = c, evidence),

the evidence mass of c's sweep.  The mixture matches full enumeration.
Every instantiation observes the same nodes, so all of them run as the
rows of one batched sweep toward the target (``propagation._toward``);
rows the evidence rules out are not swept.  On a polytree the driver
skips the search: the empty cutset leaves one row, whose belief is read
unmixed (Suermondt & Cooper 1990).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .errors import ImpossibleEvidenceError, NetworkTooLargeError
from .model import (BayesianNetwork, Belief, Evidence, _bind_evidence, _checked_state, _once,
                    _Plan, _relevance)
from .propagation import _Compiled, _lambdas, _schedule, _Sweep, _toward
from .structure import LoopCutset, is_polytree, select_cutset

# The most instantiations conditioning takes on.  Every one is kept with
# its sweep: a 6x7 grid's 2**17 took 0.56 s and 289 MB max RSS on its
# first query in a fresh process on 2 vCPUs (6x6, 2**14: 60 ms and 63 MB),
# and a 7x7 grid's 2**20 would take about eight times that.
_MAX_INSTANTIATIONS = 1 << 17


@dataclass(frozen=True, eq=False)
class CutsetRun:
    """Full record of one conditioning run.

    ``weights`` maps each cutset instantiation (state indices in cutset
    node order) to its mass P(c, evidence); their sum is the evidence
    probability.  It is computed when first read, which sends the
    collect passes the belief did not need; a weight below about 1e-308
    may read 0.0.  It leaves out the normalisers of the cached priors,
    each 1 up to rounding, so it may differ from a full sweep's in the
    last bits.  ``traces`` holds each instantiation's message log, empty
    for one the evidence rules out; it is formatted when first read.
    """

    belief: Belief
    cutset: LoopCutset
    _states: np.ndarray = field(repr=False)
    _sweep: _Sweep = field(repr=False)
    _swept: np.ndarray = field(repr=False)

    @property
    def instantiation_count(self) -> int:
        return len(self._states)

    @cached_property
    def weights(self) -> dict[tuple[int, ...], float]:
        out = dict.fromkeys(map(tuple, self._states.tolist()), 0.0)
        out.update(zip(map(tuple, self._swept.tolist()), self._sweep.mass.tolist()))
        return out

    @cached_property
    def traces(self) -> dict[tuple[int, ...], tuple[str, ...]]:
        out = dict.fromkeys(self.weights, ())
        out.update((combo, self._sweep.trace(k))
                   for k, combo in enumerate(map(tuple, self._swept.tolist())))
        return out


def _allowed(bound: Mapping[str, np.ndarray], cut, states: np.ndarray) -> np.ndarray | None:
    """Which rows of ``states`` give every cutset node a state of positive
    evidence weight, or None when no finding weighs a cut node's state
    zero; the other rows have mass zero and are not swept."""
    ok = None
    for j, var in enumerate(cut):
        w = bound.get(var)
        if w is not None and not w.all():
            hit = w[states[:, j]] > 0
            ok = hit if ok is None else ok & hit
    return ok


def instantiation_weight(net: BayesianNetwork, c: Mapping[str, int],
                         e: Evidence = Evidence.empty()) -> float:
    """P(c, e): the mass of one cutset instantiation joined with the
    evidence.  Zero when the instantiation contradicts the evidence.
    A state that is not an integer or is out of range raises ValueError;
    otherwise nodes that leave a loop uncut raise NotAPolytreeError."""
    for var in c:
        net.var(var)
    bound = _bind_evidence(net, e)
    cut = tuple(c)
    states = np.array([[_checked_state(v, c[v], net.arity(v)) for v in cut]], dtype=np.intp)
    ok = _allowed(bound, cut, states)
    if ok is not None and not ok[0]:
        return 0.0
    comp = _once(net, _Compiled)
    schedule = _schedule(comp, {*e.hard_states(), *cut})
    return float(_Sweep(comp, schedule, _lambdas(comp, bound, cut, states)).gathered[0])


def _instantiations(net: BayesianNetwork) -> tuple[LoopCutset, np.ndarray]:
    """The cutset the driver conditions on and a read-only array of its
    instantiations' states, in row-major order, which ``_once`` keeps; a
    query that rules no row out sweeps the array as it is.  A cutset of
    more than ``_MAX_INSTANTIATIONS`` instantiations raises
    NetworkTooLargeError before any of them is built."""
    cut = LoopCutset() if is_polytree(net) else select_cutset(net)
    count = math.prod(net.arity(v) for v in cut.nodes)
    if count > _MAX_INSTANTIATIONS:
        raise NetworkTooLargeError(
            f"loop cutset of {len(cut.nodes)} nodes has {count} instantiations, "
            f"conditioning handles at most {_MAX_INSTANTIATIONS}")
    dims = [net.arity(v) for v in cut.nodes]
    states = np.indices(dims, dtype=np.intp).reshape(len(dims), count).T
    states.setflags(write=False)
    return cut, states


def run_cutset_conditioning(net: BayesianNetwork, target: str,
                            e: Evidence = Evidence.empty()) -> CutsetRun:
    """Condition on a loop cutset and mix the target's beliefs by weight.

    A polytree is conditioned on the empty cutset with no search, and its
    one row's belief is read unmixed; any other network is conditioned on
    ``select_cutset``'s cutset.
    """
    return _condition(net, *_relevance(net, target, e))


def _condition(net: BayesianNetwork, plan: _Plan, bound: Mapping[str, np.ndarray]) -> CutsetRun:
    """``run_cutset_conditioning`` of a checked query: ``model._relevance``'s
    plan and bound evidence."""
    cut, states = _once(net, _instantiations)
    comp = _once(net, _Compiled)
    ok = _allowed(bound, cut.nodes, states)
    swept = states if ok is None else states[ok]
    sweep = _Sweep(comp, _toward(net, comp, plan, cut.nodes),
                   _lambdas(comp, bound, cut.nodes, swept))
    w, b = sweep.gathered, sweep.belief(comp.index[plan.target])
    # A polytree's one row is read unmixed.  Each state's column is made
    # contiguous so that NumPy sums it pairwise, not row after row; a row
    # of zero mass has a zero (not undefined) belief, so it adds nothing.
    total = float(w.sum()) if cut.nodes else w[0]
    if total <= 0:
        raise ImpossibleEvidenceError("evidence has probability zero")
    mixed = np.ascontiguousarray((w[:, None] * b).T).sum(axis=1) / total if cut.nodes else b[0]
    return CutsetRun(Belief(plan.target, mixed), cut, states, sweep, swept)


def conditioned_posterior(net: BayesianNetwork, target: str,
                          e: Evidence = Evidence.empty()) -> Belief:
    """Posterior over the target by cutset conditioning.

    Works on any acyclic network; a polytree degenerates to a single
    unconditioned sweep.
    """
    return run_cutset_conditioning(net, target, e).belief
