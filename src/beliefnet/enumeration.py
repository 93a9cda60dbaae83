"""Enumeration over the joint distribution.

This is the reference engine: slow but unconditionally exact on any
acyclic network, used to cross-check the message-passing code.  The
joint is materialised as an n-dimensional tensor (one axis per variable
in declaration order), each entry the product of the CPTs in declaration
order, then of the evidence weights, so results are bit-for-bit
reproducible.  As in ENUMERATION-ASK (Russell & Norvig), a partial
product is shared by all its extensions, built in one joint-sized buffer
in about two passes (``_joint``), and the evidence fixes the variables
it observes: an axis keeps only the states of positive evidence weight,
one for a hard finding, except a target's, which keeps every state.  The
states left out have zero mass, and each kept entry is the same product
in the same order as in the full joint.

A size guard refuses networks whose full joint exceeds 2**22 states.
"""

from __future__ import annotations

import math

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
# Past this many entries the prefix is repeated in place, chunk by chunk,
# and up to it through one temporary.  A factor whose block fits is copied
# out as one contiguous row, so that its multiply runs along whole rows.
_SMALL = 1 << 15


def _factors(net: BayesianNetwork) -> tuple:
    """Each CPT, in declaration order, with its variables' axes in
    increasing order, as a tensor over the block of axes from its first
    axis to the last one any CPT so far reaches, of extent one on the axes
    it does not hold.  They depend on the network alone, so ``_once`` keeps
    them."""
    out, end = [], 0
    for v in net.variables:
        axes = [net.index(p) for p in net.cpt(v.id).parents] + [net.index(v.id)]
        tensor = np.transpose(net.cpt_tensor(v.id), np.argsort(axes))
        axes.sort()
        end = max(end, axes[-1] + 1)
        out.append((tensor.reshape([net.dims[a] if a in axes else 1 for a in range(axes[0], end)]),
                    axes))
    return tuple(out)


def _joint(net: BayesianNetwork, bound, targets=()) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The weighted joint, unnormalised, and the states kept on each axis
    it narrowed: that of a variable outside ``targets`` whose evidence in
    ``bound`` (``_bind_evidence``) weighs a state zero.  A network whose
    full joint exceeds the size guard raises NetworkTooLargeError.

    The product of the factors so far, CPTs in declaration order and then
    the weights, is kept over the leading axes ``[0, end)`` they reach, in
    C order, as the prefix ``flat[:size]`` of one joint-sized buffer.  A
    factor reaching past ``end`` first repeats each entry ``r`` times, once
    per state of the new trailing axes: in place from the back, chunk
    ``[ceil(hi/r), hi)`` moves to ``[lo*r, hi*r)``, which lies above every
    entry not yet read.  The factor is then multiplied into each row of the
    prefix that spans its block, the axes from its first to ``end``; a
    small block's factor is first copied out into one contiguous row.  No
    other joint-sized array is made: the temporaries are a repeat and a
    row of at most ``_SMALL`` entries, and the narrowed tables."""
    if net.joint_state_count > MAX_JOINT_STATES:
        raise NetworkTooLargeError(
            f"joint has {net.joint_state_count} states, enumeration handles at most {MAX_JOINT_STATES}"
        )
    kept = {net.index(var): np.flatnonzero(w) for var, w in bound.items()
            if var not in targets and not w.all()}
    dims = tuple(len(kept[a]) if a in kept else d for a, d in enumerate(net.dims))
    flat = np.empty(math.prod(dims))
    flat[:1] = 1.0
    size, end = 1, 0    # the prefix spans axes [0, end)
    weights = tuple((w.reshape((-1,) + (1,) * (len(dims) - 1 - net.index(var))), [net.index(var)])
                    for var, w in bound.items())
    for tensor, axes in _once(net, _factors) + weights:
        first, last = axes[0], axes[0] + tensor.ndim
        if last > end:
            r = math.prod(dims[end:last])
            if size * r <= _SMALL:
                flat[:size * r] = flat[:size].repeat(r)
            elif r > 1:
                hi = size
                while hi > 1:
                    lo = -(-hi // r)
                    for j in range(r):
                        flat[lo * r + j:hi * r:r] = flat[lo:hi]
                    hi = lo
                flat[:r] = flat[0]
            size, end = size * r, last
        for a in axes:
            if a in kept:
                tensor = tensor.take(kept[a], axis=a - first)
        block = dims[first:end]
        if math.prod(block) <= _SMALL:
            row = np.empty(block)
            row[...] = tensor
            tensor = row
        view = flat[:size].reshape((-1,) + block)
        view *= tensor
    return flat.reshape(dims), kept


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


def _rescaled(bound):
    """Bound evidence with each vector scaled by an exact power of two so
    that its largest weight lies in [1, 2); a hard indicator, or any vector
    already in range, is kept.  A posterior and the most probable
    assignment do not depend on a likelihood's scale, and the evidence's
    probability, which does, is never read from a rescaled joint."""
    out = {}
    for var, w in bound.items():
        exponent = math.frexp(max(w.tolist()))[1]
        out[var] = w if exponent == 1 else np.ldexp(w, 1 - exponent)
    return out


def _marginal(net: BayesianNetwork, targets: list[str], bound) -> np.ndarray:
    """``marginal_joint`` of checked targets and bound evidence
    (``_bind_evidence``): the joint summed onto ``targets``, in their order,
    and normalised."""
    arr = _joint(net, _rescaled(bound), targets)[0]
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
    arr, kept = _joint(net, _rescaled(_bind_evidence(net, e)))
    flat = int(np.argmax(arr))
    if float(arr.flat[flat]) <= 0.0:
        raise ImpossibleEvidenceError("no assignment is consistent with the evidence")
    states = np.unravel_index(flat, arr.shape)
    assignment = {v.id: int(kept[a][s] if a in kept else s)
                  for a, (v, s) in enumerate(zip(net.variables, states))}
    return assignment, joint_probability(net, assignment)
