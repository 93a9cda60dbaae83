"""Query classification and the method-dispatching front door.

A posterior query is classified by where its evidence sits relative to
the target: evidence among the target's ancestors pushes belief forward
(predictive), evidence among descendants pulls it backward
(diagnostic), evidence elsewhere acts between causes of a shared
effect.  Evidence nodes that are d-separated from the target given the
rest contribute nothing and are skipped; disagreeing directions make
the query mixed.  Message passing (``bp``) is conditioning on the empty
cutset, which the driver (``cutset._condition``) picks on a polytree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping

from . import cutset as _cutset
from . import enumeration as _enumeration
from .errors import InvalidQueryError
from .model import BayesianNetwork, Belief, Evidence, _Plan, _relevance
from .propagation import _require_polytree
from .structure import _reached, is_polytree


class QueryClass(Enum):
    FORWARD = "Forward"
    BACKWARD = "Backward"
    INTERCAUSAL = "Intercausal"
    MIXED = "Mixed"


@dataclass(frozen=True)
class QueryClassification:
    """The aggregate class plus the per-evidence-node sub-verdicts.

    Sub-verdicts only list evidence nodes that actually influence the
    target; an influencing node is Forward when it is an ancestor of
    the target, Backward when a descendant, Intercausal otherwise.  They
    form a read-only mapping, which compares equal to a dict.
    """

    kind: QueryClass
    sub_verdicts: Mapping[str, QueryClass]


def classify_query(net: BayesianNetwork, target: str, e: Evidence) -> QueryClassification:
    """Name the direction of reasoning a query performs.

    The query is checked and bound by ``_relevance``, and one Bayes-ball
    pass from the target finds each evidence node that influences it.
    Which nodes it finds depends on the evidence pattern alone (Shachter 1998),
    so the query's plan keeps the classification for later queries.
    """
    return _classify(net, *_relevance(net, target, e))


def _classify(net: BayesianNetwork, plan: _Plan, bound: Mapping) -> QueryClassification:
    """``classify_query`` of a checked query: ``model._relevance``'s plan and bound evidence."""
    if not bound:
        raise InvalidQueryError("classification needs at least one evidence entry")
    if QueryClassification in plan.memo:
        return plan.memo[QueryClassification]

    # One ball from the target, given all of the evidence, reaches just
    # the evidence nodes d-connected to it given the other findings: a
    # node's own finding opens only colliders above it, and a trail
    # through such a collider can run down to the node instead.
    reached = _reached(net, plan.target, plan.hard, plan.opened)
    desc = net.descendants(plan.target)
    subs = {v: (QueryClass.FORWARD if v in plan.above
                else QueryClass.BACKWARD if v in desc else QueryClass.INTERCAUSAL)
            for v in sorted(reached.intersection(plan.observed).difference((plan.target,)),
                            key=net.index)}
    kinds = set(subs.values())
    classification = plan.memo[QueryClassification] = QueryClassification(
        kinds.pop() if len(kinds) == 1 else QueryClass.MIXED, MappingProxyType(subs))
    return classification


class Method(Enum):
    AUTO = "auto"
    ENUMERATION = "enum"
    POLYTREE = "bp"
    CUTSET = "cutset"


@dataclass(frozen=True, eq=False)
class InferResult:
    """A posterior plus how it was computed and what kind of query it was.

    ``trace`` is the message log of the run that produced the belief,
    when ``infer`` was asked for it: the sweep's on POLYTREE, every
    cutset instantiation's in instantiation order on CUTSET.  It is
    empty on ENUMERATION and when no trace was asked for.
    """

    belief: Belief
    method: Method
    classification: QueryClassification | None
    trace: tuple[str, ...] = ()


def infer(net: BayesianNetwork, target: str, e: Evidence = Evidence.empty(),
          method: Method = Method.AUTO, *, trace: bool = False) -> InferResult:
    """Answer a posterior query with the requested engine.

    AUTO picks message passing on polytrees and cutset conditioning on
    loopy networks.  The classification is attached whenever evidence
    is present.  With ``trace`` the result carries the run's message
    log; without it no message is formatted.  ``method`` may also be
    a method's value, such as ``"enum"``; any other raises ValueError.
    The query is then checked in one order for every method: the
    target, the network, the evidence, then hard evidence on the target.
    """
    resolved = Method(method)
    plan, bound = _relevance(net, target, e)
    if resolved is Method.AUTO:
        resolved = Method.POLYTREE if is_polytree(net) else Method.CUTSET
    elif resolved is Method.POLYTREE:
        _require_polytree(net)
    if resolved is Method.ENUMERATION:
        belief, log = Belief(target, _enumeration._marginal(net, [target], bound)), ()
    else:
        run = _cutset._condition(net, plan, bound)
        belief = run.belief
        log = tuple(line for sweep in run.traces.values() for line in sweep) if trace else ()
    classification = _classify(net, plan, bound) if bound else None
    return InferResult(belief, resolved, classification, log)
