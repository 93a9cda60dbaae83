"""Enumeration over the full joint distribution.

This is the reference engine: slow but unconditionally exact on any
acyclic network, used to cross-check the message-passing code.  The
joint is materialised as an n-dimensional tensor (one axis per variable
in declaration order) built by broadcasting each CPT into place, so the
summation order is fixed by the variable declaration order and results
are bit-for-bit reproducible.

A size guard refuses joints beyond 2**22 states.
"""

from __future__ import annotations

import numpy as np

from .errors import ImpossibleEvidenceError, InvalidQueryError, NetworkTooLargeError
from .model import (
    Assignment,
    BayesianNetwork,
    Belief,
    Evidence,
    _bind_evidence,
    joint_probability,
)

MAX_JOINT_STATES = 1 << 22


def _check_size(net: BayesianNetwork) -> None:
    if net.joint_state_count > MAX_JOINT_STATES:
        raise NetworkTooLargeError(
            f"joint has {net.joint_state_count} states, enumeration handles at most {MAX_JOINT_STATES}"
        )


def weighted_joint(net: BayesianNetwork, e: Evidence = Evidence.empty()) -> np.ndarray:
    """The joint tensor with evidence weights multiplied in, unnormalised.

    Axis i ranges over the states of the i-th declared variable.  With
    empty evidence the tensor is the joint itself and sums to one.  The
    factors are multiplied in place, so only one joint-sized tensor is
    ever held.
    """
    _check_size(net)
    bound = _bind_evidence(net, e)
    dims = net.dims
    n = len(dims)
    arr = np.ones(dims, dtype=np.float64)
    for v in net.variables:
        c = net.cpt(v.id)
        axes = [net.index(p) for p in c.parents] + [net.index(v.id)]
        tensor = net.cpt_tensor(v.id)
        perm = np.argsort(axes)
        shape = [1] * n
        for a in axes:
            shape[a] = dims[a]
        arr *= np.transpose(tensor, perm).reshape(shape)
    for var, w in bound.items():
        ax = net.index(var)
        shape = [1] * n
        shape[ax] = dims[ax]
        arr *= w.reshape(shape)
    return arr


def evidence_probability(net: BayesianNetwork, e: Evidence) -> float:
    """Total mass of the evidence: sum of the weighted joint."""
    return float(weighted_joint(net, e).sum())


def posterior(net: BayesianNetwork, target: str, e: Evidence = Evidence.empty()) -> Belief:
    """Exact posterior over one variable given the evidence."""
    net.var(target)
    if e.is_hard(target):
        raise InvalidQueryError(f"target {target!r} carries hard evidence")
    arr = weighted_joint(net, e)
    ax = net.index(target)
    other = tuple(i for i in range(arr.ndim) if i != ax)
    marg = arr.sum(axis=other) if other else arr
    total = float(marg.sum())
    if total <= 0.0:
        raise ImpossibleEvidenceError("evidence has probability zero")
    return Belief(target, marg / total)


def marginal_joint(net: BayesianNetwork, targets, e: Evidence = Evidence.empty()) -> np.ndarray:
    """Normalised joint over several targets given the evidence.

    The result's axes follow the order of ``targets``.  Targets must be
    distinct, non-empty and free of hard evidence.
    """
    targets = list(targets)
    if not targets:
        raise InvalidQueryError("marginal_joint needs at least one target")
    if len(set(targets)) != len(targets):
        raise InvalidQueryError("marginal_joint targets must be distinct")
    for t in targets:
        net.var(t)
        if e.is_hard(t):
            raise InvalidQueryError(f"target {t!r} carries hard evidence")
    arr = weighted_joint(net, e)
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
    arr = weighted_joint(net, e)
    flat = int(np.argmax(arr))
    if float(arr.flat[flat]) <= 0.0:
        raise ImpossibleEvidenceError("no assignment is consistent with the evidence")
    states = np.unravel_index(flat, arr.shape)
    assignment = {v.id: int(s) for v, s in zip(net.variables, states)}
    return assignment, joint_probability(net, assignment)
