"""Enumeration over the joint distribution.

This is the reference engine: slow but unconditionally exact on any
acyclic network, used to cross-check the message-passing code.  The
joint is materialised as an n-dimensional tensor (one axis per variable
in declaration order) built by broadcasting each CPT, then each evidence
weight, into place, so results are bit-for-bit reproducible.  As in
ENUMERATION-ASK (Russell & Norvig), the evidence fixes the variables it
observes: an axis keeps only the states of positive evidence weight, one
for a hard finding, except a target's, which keeps every state.  The
states left out have zero mass, and each kept entry is the same product
in the same order as in the full joint.

A size guard refuses networks whose full joint exceeds 2**22 states.
"""

from __future__ import annotations

import numpy as np

from .errors import ImpossibleEvidenceError, InvalidQueryError, NetworkTooLargeError
from .model import (
    BayesianNetwork,
    Belief,
    Evidence,
    _bind_evidence,
    _bind_query,
    _once,
    joint_probability,
)

MAX_JOINT_STATES = 1 << 22


def _factors(net: BayesianNetwork) -> tuple:
    """Each CPT as a tensor over its variables' axes in declaration order,
    with those axes.  They depend on the network alone, so ``_once`` keeps them."""
    out = []
    for v in net.variables:
        axes = [net.index(p) for p in net.cpt(v.id).parents] + [net.index(v.id)]
        out.append((np.transpose(net.cpt_tensor(v.id), np.argsort(axes)), sorted(axes)))
    return tuple(out)


def _joint(net: BayesianNetwork, bound, targets=()) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The weighted joint, unnormalised, and the states kept on each axis
    it narrowed: that of a variable outside ``targets`` whose evidence in
    ``bound`` (``_bind_evidence``) weighs a state zero.  Each CPT, then each
    weight, is multiplied in place, so only one joint-sized tensor is held.
    A network whose full joint exceeds the size guard raises
    NetworkTooLargeError."""
    if net.joint_state_count > MAX_JOINT_STATES:
        raise NetworkTooLargeError(
            f"joint has {net.joint_state_count} states, enumeration handles at most {MAX_JOINT_STATES}"
        )
    kept = {net.index(var): np.flatnonzero(w) for var, w in bound.items()
            if var not in targets and not w.all()}
    dims = tuple(len(kept[a]) if a in kept else d for a, d in enumerate(net.dims))
    arr = np.ones(dims, dtype=np.float64)
    weights = tuple((w, [net.index(var)]) for var, w in bound.items())
    for tensor, axes in _once(net, _factors) + weights:
        shape = [1] * len(dims)
        for j, a in enumerate(axes):
            shape[a] = dims[a]
            if a in kept:
                tensor = tensor.take(kept[a], axis=j)
        arr *= tensor.reshape(shape)
    return arr, kept


def weighted_joint(net: BayesianNetwork, e: Evidence = Evidence.empty()) -> np.ndarray:
    """The joint tensor with evidence weights multiplied in, unnormalised.

    Axis i ranges over every state of the i-th declared variable.  With
    empty evidence the tensor is the joint itself and sums to one.  Only
    the states of positive evidence weight are enumerated; every other
    entry is zero.
    """
    arr, kept = _joint(net, _bind_evidence(net, e))
    if not kept:
        return arr
    full = np.zeros(net.dims)
    full[np.ix_(*(kept.get(a, np.arange(d)) for a, d in enumerate(net.dims)))] = arr
    return full


def evidence_probability(net: BayesianNetwork, e: Evidence) -> float:
    """Total mass of the evidence: sum of the weighted joint."""
    return float(_joint(net, _bind_evidence(net, e))[0].sum())


def posterior(net: BayesianNetwork, target: str, e: Evidence = Evidence.empty()) -> Belief:
    """Exact posterior over one variable given the evidence."""
    return Belief(target, marginal_joint(net, [target], e))


def marginal_joint(net: BayesianNetwork, targets, e: Evidence = Evidence.empty()) -> np.ndarray:
    """Normalised joint over several targets given the evidence.

    The result's axes follow the order of ``targets``.  Targets must be
    distinct, non-empty and free of hard evidence.  The query is checked
    in ``infer``'s order: the targets, the network, the evidence, then hard
    evidence on a target; the size guard comes last.
    """
    targets = list(targets)
    if not targets:
        raise InvalidQueryError("marginal_joint needs at least one target")
    if len(set(targets)) != len(targets):
        raise InvalidQueryError("marginal_joint targets must be distinct")
    return _marginal(net, targets, _bind_query(net, targets, e))


def _marginal(net: BayesianNetwork, targets: list[str], bound) -> np.ndarray:
    """``marginal_joint`` of checked targets and bound evidence
    (``_bind_evidence``): the joint summed onto ``targets``, in their order,
    and normalised."""
    arr = _joint(net, bound, targets)[0]
    keep = [net.index(t) for t in targets]
    other = tuple(i for i in range(arr.ndim) if i not in keep)
    marg = arr.sum(axis=other) if other else arr
    # sum() drops axes, so surviving axes sit in declaration order; put
    # them in the requested target order.
    surviving = sorted(keep)
    perm = [surviving.index(k) for k in keep]
    marg = np.transpose(marg, perm)
    total = float(marg.sum())
    if total <= 0.0:
        raise ImpossibleEvidenceError("evidence has probability zero")
    return marg / total


def most_probable_assignment(net: BayesianNetwork, e: Evidence = Evidence.empty()):
    """The single best complete assignment under the weighted joint.

    Returns (assignment dict, joint probability of that assignment).
    Ties resolve to the first assignment in row-major declaration order.
    """
    arr, kept = _joint(net, _bind_evidence(net, e))
    flat = int(np.argmax(arr))
    if float(arr.flat[flat]) <= 0.0:
        raise ImpossibleEvidenceError("no assignment is consistent with the evidence")
    states = np.unravel_index(flat, arr.shape)
    assignment = {v.id: int(kept[a][s] if a in kept else s)
                  for a, (v, s) in enumerate(zip(net.variables, states))}
    return assignment, joint_probability(net, assignment)
