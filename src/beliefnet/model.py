"""Core data types for discrete Bayesian networks.

A network is a DAG of discrete variables, each carrying a conditional
probability table (CPT) over its own states given its parents' states.
The joint distribution is the product of the per-variable tables;
everything else in this library (enumeration, message passing, cutset
conditioning) is a way of querying that product without materialising it.

All types are immutable after construction.  CPT rows are stored in
row-major order over the parent states, with the last parent varying
fastest; columns follow the child's declared state order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import InvalidQueryError, MissingValueError, NetworkValidationError

# Tolerance for CPT row sums and belief normalisation.
ROW_SUM_TOL = 1e-9

# A complete assignment maps every variable id to a state index.
Assignment = Mapping[str, int]


@dataclass(frozen=True)
class Variable:
    """A discrete variable with a fixed, ordered tuple of state labels."""

    id: str
    states: tuple[str, ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        if not self.name:
            object.__setattr__(self, "name", self.id)

    @property
    def arity(self) -> int:
        return len(self.states)

    def state_index(self, label: str) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise ValueError(f"variable {self.id!r} has no state {label!r}") from None


@dataclass(frozen=True, eq=False)
class Cpt:
    """Conditional probability table for one variable given its parents.

    ``table`` has one row per full parent assignment (row-major, last
    parent fastest) and one column per child state.  A root variable has
    a single row holding its prior, which may be given 1-D; a table of
    any other dimension raises ValueError.  The table kept is a
    read-only copy of the one given.
    """

    child: str
    parents: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        # A copy, so that the caller's array cannot change the checked table.
        t = np.array(self.table, dtype=np.float64, order="C")
        if t.ndim not in (1, 2):
            raise ValueError(f"CPT table for {self.child!r} must be 1-D or 2-D, got {t.ndim}-D")
        if t.ndim == 1:
            t = t.reshape(1, -1)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "parents", tuple(self.parents))

    @property
    def n_rows(self) -> int:
        return self.table.shape[0]


@dataclass(frozen=True)
class HardEvidence:
    """An observed state index for one variable: any integer, numpy's
    included, kept as an int."""

    state: int

    def __post_init__(self):
        try:
            state = operator.index(self.state)
        except TypeError:
            state = -1
        if state < 0:
            raise ValueError(f"hard evidence state must be a non-negative int, got {self.state!r}")
        object.__setattr__(self, "state", state)


@dataclass(frozen=True, eq=False)
class SoftEvidence:
    """A likelihood vector multiplying the joint, one weight per state.

    This is virtual evidence: the vector scales the probability of each
    state of the variable and need not sum to one.  It is not a target
    posterior for the variable.  Weights must be finite and non-negative,
    with at least one positive.
    """

    likelihood: np.ndarray

    def __post_init__(self):
        # A copy, so that the caller's array cannot change the checked weights.
        v = np.array(self.likelihood, dtype=np.float64).reshape(-1)
        if v.size == 0:
            raise ValueError("soft evidence vector is empty")
        if not np.isfinite(v).all():
            raise ValueError("soft evidence weights must be finite")
        if np.any(v < 0):
            raise ValueError("soft evidence weights must be non-negative")
        if not np.any(v > 0):
            raise ValueError("soft evidence vector must have at least one positive weight")
        v.setflags(write=False)
        object.__setattr__(self, "likelihood", v)


EvidenceEntry = Union[HardEvidence, SoftEvidence]


@dataclass(frozen=True, eq=False)
class Evidence:
    """A set of evidence entries, at most one per variable, read-only."""

    entries: Mapping[str, EvidenceEntry] = field(default_factory=dict)

    def __post_init__(self):
        d = dict(self.entries)
        for var, entry in d.items():
            if not isinstance(entry, (HardEvidence, SoftEvidence)):
                raise TypeError(f"evidence for {var!r} must be HardEvidence or SoftEvidence")
        object.__setattr__(self, "entries", MappingProxyType(d))

    @staticmethod
    def empty() -> "Evidence":
        return Evidence({})

    def is_empty(self) -> bool:
        return not self.entries

    def has(self, var: str) -> bool:
        return var in self.entries

    def is_hard(self, var: str) -> bool:
        return isinstance(self.entries.get(var), HardEvidence)

    def hard_state(self, var: str) -> int | None:
        entry = self.entries.get(var)
        return entry.state if isinstance(entry, HardEvidence) else None

    def hard_states(self) -> dict[str, int]:
        return {v: e.state for v, e in self.entries.items() if isinstance(e, HardEvidence)}

    def without(self, var: str) -> "Evidence":
        return Evidence({v: e for v, e in self.entries.items() if v != var})

    def __iter__(self) -> Iterator[str]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True, eq=False)
class Belief:
    """A normalised posterior distribution over one variable's states."""

    variable: str
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64).reshape(-1)
        # min(0.0, the least entry that is not NaN), in one reduction.
        if np.fmin.reduce(p, initial=0.0) < -1e-12:
            raise ValueError(f"belief for {self.variable!r} has negative entries")
        # Written so that a NaN sum fails too.
        if not abs(float(np.add.reduce(p)) - 1.0) <= ROW_SUM_TOL:
            raise ValueError(f"belief for {self.variable!r} does not sum to 1")
        p = np.ascontiguousarray(p)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)

    def __getitem__(self, state: int) -> float:
        return float(self.probabilities[state])


@dataclass(frozen=True)
class Violation:
    """One structural defect found by validate()."""

    kind: str
    where: str
    detail: str
    subject: str = ""
    row: tuple[int, ...] | None = None

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.detail}"


@dataclass(frozen=True, eq=False)
class BayesianNetwork:
    """A directed network of discrete variables with one CPT each.

    Variables keep their declaration order; that order breaks ties
    everywhere the library needs determinism (topological sort, path
    enumeration, cutset selection, message schedules).
    """

    variables: tuple[Variable, ...]
    cpts: tuple[Cpt, ...]
    name: str = "network"

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "cpts", tuple(self.cpts))
        seen = set()
        for v in self.variables:
            if v.id in seen:
                raise ValueError(f"duplicate variable id {v.id!r}")
            seen.add(v.id)

    # -- lookups ---------------------------------------------------------

    @cached_property
    def _by_id(self) -> dict[str, Variable]:
        return {v.id: v for v in self.variables}

    @cached_property
    def _order(self) -> dict[str, int]:
        return {v.id: i for i, v in enumerate(self.variables)}

    @cached_property
    def _cpt_by_child(self) -> dict[str, Cpt]:
        out: dict[str, Cpt] = {}
        for c in self.cpts:
            out.setdefault(c.child, c)
        return out

    def var(self, var_id: str) -> Variable:
        try:
            return self._by_id[var_id]
        except KeyError:
            raise ValueError(f"unknown variable {var_id!r}") from None

    def __contains__(self, var_id: str) -> bool:
        return var_id in self._by_id

    def index(self, var_id: str) -> int:
        self.var(var_id)
        return self._order[var_id]

    def arity(self, var_id: str) -> int:
        return self.var(var_id).arity

    @cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(v.arity for v in self.variables)

    @cached_property
    def joint_state_count(self) -> int:
        return math.prod(self.dims)

    def state_index(self, var_id: str, label: str) -> int:
        return self.var(var_id).state_index(label)

    # -- graph structure -------------------------------------------------

    def cpt(self, var_id: str) -> Cpt | None:
        return self._cpt_by_child.get(var_id)

    def parents(self, var_id: str) -> tuple[str, ...]:
        """The declared parents of ``var_id``, each listed once;
        ``cpt(var_id).parents`` keeps the table's own list."""
        self.var(var_id)
        return self._parents[var_id]

    @cached_property
    def _parents(self) -> dict[str, tuple[str, ...]]:
        """Each variable's declared parents, each listed once, in table
        order: the one parent relation every graph question reads."""
        declared, by_child, out = self._by_id, self._cpt_by_child, {}
        for u in declared:
            ps = by_child[u].parents if u in by_child else ()
            out[u] = tuple(dict.fromkeys(filter(declared.__contains__, ps)))
        return out

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        acc: dict[str, list[str]] = {u: [] for u in self._parents}
        for u, ps in self._parents.items():
            for p in ps:
                acc[p].append(u)
        return {u: tuple(cs) for u, cs in acc.items()}

    def children(self, var_id: str) -> tuple[str, ...]:
        self.var(var_id)
        return self._children[var_id]

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Every (parent, child) edge of ``_parents``, by child in declaration order."""
        return tuple((p, u) for u, ps in self._parents.items() for p in ps)

    @cached_property
    def _skeleton(self) -> dict[str, tuple[str, ...]]:
        """Each variable's neighbours in the undirected skeleton, in declaration order."""
        return {v.id: tuple(sorted({*self._parents[v.id], *self._children[v.id]},
                                   key=self._order.__getitem__))
                for v in self.variables}

    def roots(self) -> tuple[str, ...]:
        """The variables without declared parents, in declaration order."""
        return tuple(u for u, ps in self._parents.items() if not ps)

    def topological_order(self) -> tuple[str, ...] | None:
        """Kahn's algorithm over ``_parents`` with declaration-order tie-breaking.

        The variables without declared parents come first, in declaration
        order, then each variable as soon as its last parent is placed.
        Returns None when the directed graph has a cycle.
        """
        indeg = {u: len(ps) for u, ps in self._parents.items()}
        order = [u for u, d in indeg.items() if d == 0]
        for u in order:     # ``order`` grows while it is walked
            for c in self._children[u]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    order.append(c)
        if len(order) != len(self.variables):
            return None
        return tuple(order)

    def descendants(self, var_id: str) -> frozenset[str]:
        self.var(var_id)
        _require_acyclic(self)
        return frozenset(_closure(self._children[var_id], self._children))

    def ancestors(self, var_id: str) -> frozenset[str]:
        self.var(var_id)
        _require_acyclic(self)
        return frozenset(_closure(self._parents[var_id], self._parents))

    # -- CPT access ------------------------------------------------------

    def cpt_tensor(self, var_id: str) -> np.ndarray:
        """The CPT reshaped to (parent dims..., child arity).  A network that
        fails ``validate`` raises NetworkValidationError, then an unknown id
        ValueError."""
        _require_valid(self)
        self.var(var_id)
        c = self.cpt(var_id)
        pdims = tuple(self.arity(p) for p in c.parents)
        return c.table.reshape(*pdims, self.arity(var_id))

    def cpt_row(self, var_id: str, parent_states: Sequence[int]) -> np.ndarray:
        """The probability row for one full parent assignment: the entry of
        ``cpt_tensor`` at the parents' states."""
        t, parents = self.cpt_tensor(var_id), self.cpt(var_id).parents
        if len(parent_states) != len(parents):
            raise MissingValueError(
                f"cpt {var_id!r} expects {len(parents)} parent states, got {len(parent_states)}"
            )
        return t[tuple(_checked_state(p, s, d) for s, d, p in zip(parent_states, t.shape, parents))]

    # -- validation ------------------------------------------------------

    @cached_property
    def _checked(self) -> tuple[tuple[Violation, ...], bool]:
        """``validate``'s violations, and whether every CPT entry is positive."""
        violations, positive = _find_violations(self)
        return tuple(violations), positive

    @property
    def _violations(self) -> tuple[Violation, ...]:
        return self._checked[0]

    @property
    def _positive(self) -> bool:
        return self._checked[1]

    @cached_property
    def _memo(self) -> dict:
        """``_once``'s results, by the function that derived them, and
        ``_relevance``'s store of query plans, under ``_Plan``."""
        return {}


def _once(net: BayesianNetwork, derive):
    """``derive(net)``, computed on the first call and kept on the network.

    A network is immutable, so anything derived from it alone (its
    polytree check, its cutset, its compiled form) holds for its lifetime.
    """
    memo = net._memo
    if derive not in memo:
        memo[derive] = derive(net)
    return memo[derive]


def _closure(seeds, step: Mapping[str, Sequence[str]]) -> set[str]:
    """The seeds and every node reached from them along ``step``, which
    is ``net._parents`` for ancestors or ``net._children`` for
    descendants.  The walk ends on a cyclic graph too."""
    reached = set(seeds)
    stack = list(reached)
    while stack:
        for u in step[stack.pop()]:
            if u not in reached:
                reached.add(u)
                stack.append(u)
    return reached


def validate(net: BayesianNetwork) -> list[Violation]:
    """Check every structural invariant and return the violations found.

    An empty list means the network is well formed: unique states, at
    least two states per variable, exactly one CPT per variable with
    declared distinct parents, rows of the right length summing to one,
    probabilities in [0, 1] (a NaN entry counts as outside it), and an
    acyclic directed graph.  The check walks the tables once, then
    checks the rows of all tables of one width in one array pass, and
    builds a violation only where a check fails.  Table violations
    follow the order of ``net.cpts``, a table's rows in row-major order.
    The check runs once per network; later calls, and the engines' own
    check, reuse its result.  Each ``Cpt`` holds its own copy of its
    table, so the result cannot go stale.
    """
    return list(net._violations)


def _require_valid(net: BayesianNetwork) -> None:
    """Raise the cached ``validate`` result as NetworkValidationError, if any."""
    if net._violations:
        raise NetworkValidationError(net._violations)


def _require_acyclic(net: BayesianNetwork) -> None:
    """Raise the cached ``cycle`` violation as NetworkValidationError, if any."""
    cycles = [v for v in net._violations if v.kind == "cycle"]
    if cycles:
        raise NetworkValidationError(cycles)


def _find_violations(net: BayesianNetwork) -> tuple[list[Violation], bool]:
    out: list[Violation] = []
    arity: dict[str, int] = {}
    for v in net.variables:
        arity[v.id] = n = len(v.states)
        if n < 2:
            out.append(Violation("state-count", f"variable {v.id}",
                                 f"needs at least 2 states, has {n}", v.id))
        if len(set(v.states)) != n:
            out.append(Violation("duplicate-state", f"variable {v.id}",
                                 "state labels are not unique", v.id))

    # One pass over the tables counts them by child, files those of
    # declared children by width for the row checks, and makes every
    # structural check with local lookups.  Only a failing table gets its
    # violations built, into ``flagged`` with its index.
    counts: dict[str, int] = {}     # tables by child, in the order first given
    by_width: dict[int, list[int]] = {}
    flagged: list[tuple[int, Violation]] = []
    for i, c in enumerate(net.cpts):
        child, parents = c.child, c.parents
        counts[child] = counts.get(child, 0) + 1
        width = arity.get(child)
        if width is None:
            continue
        n_rows, n_cols = c.table.shape
        by_width.setdefault(n_cols, []).append(i)
        expect = 1
        for p in parents:
            expect *= arity.get(p, math.nan)     # NaN: an unknown parent
        unknown = expect != expect
        looped = child in parents
        repeated = len(parents) > 1 and len(set(parents)) != len(parents)
        wrong_width = n_cols != width
        # The row count is judged only for known, distinct parents.
        wrong_count = not (unknown or looped or repeated) and expect != n_rows
        if not (unknown or looped or repeated or wrong_width or wrong_count):
            continue
        where = f"cpt {child}"
        if unknown:
            flagged += [(i, Violation("unknown-parent", where,
                                      f"parent {p!r} is not declared", child))
                        for p in parents if p not in arity]
        if looped:
            flagged.append((i, Violation("self-loop", where,
                                         "variable listed as its own parent", child)))
        if repeated:
            flagged.append((i, Violation("duplicate-parent", where,
                                         "parent list has repeats", child)))
        if wrong_width:
            flagged.append((i, Violation("row-length", where, f"rows have {n_cols} entries, "
                                         f"child has {width} states", child)))
        elif wrong_count:
            flagged.append((i, Violation("row-count", where, f"has {n_rows} rows, "
                                         f"parent states require {expect}", child)))

    for child, n in counts.items():
        if child not in arity:
            out.append(Violation("unknown-child", f"cpt {child}",
                                 "table given for an undeclared variable", child))
        if n > 1:
            out.append(Violation("duplicate-cpt", f"cpt {child}",
                                 f"{n} tables given for one variable", child))
    out += [Violation("missing-cpt", f"variable {v.id}", "no table given", v.id)
            for v in net.variables if v.id not in counts]

    # Range, row-sum and positivity checks, one array pass over the tables
    # of each width.  Each row is still summed alone, so its sum is the
    # per-row one bit for bit.  Rows are flagged one by one only where a
    # width holds a failing row, and only the failing rows of a table that
    # passed the checks above get keys and labels.  A NaN entry makes
    # ``low`` and ``high`` NaN, so it counts as outside [0, 1]; a row
    # holding both inf and -inf sums to NaN, and is out of range anyway.
    skip = {i for i, _ in flagged}
    positive = True
    with np.errstate(invalid="ignore"):
        for ix in by_width.values():
            tables = [net.cpts[i].table for i in ix]
            t = np.concatenate(tables) if len(tables) > 1 else tables[0]
            low, high = t.min(initial=np.inf), t.max(initial=-np.inf)
            positive = positive and bool(low > 0)
            sums = t.sum(axis=1)
            off_sum = np.abs(sums - 1.0) > ROW_SUM_TOL
            if low >= 0 and high <= 1 and not off_sum.any():
                continue
            out_of_range = ~((t >= 0) & (t <= 1)).all(axis=1)
            bad = np.flatnonzero(out_of_range | off_sum)
            starts = np.cumsum([0] + [len(tb) for tb in tables])
            for r, k in zip(bad.tolist(), (np.searchsorted(starts, bad, "right") - 1).tolist()):
                if ix[k] in skip:
                    continue
                c = net.cpts[ix[k]]
                key = tuple(int(x) for x in np.unravel_index(
                    r - int(starts[k]), tuple(arity[p] for p in c.parents)))
                label = ",".join(net.var(p).states[s] for p, s in zip(c.parents, key))
                where = f"cpt {c.child} row ({label})" if label else f"cpt {c.child} prior"
                if out_of_range[r]:
                    flagged.append((ix[k], Violation("probability-range", where,
                                                     "entries outside [0, 1]", c.child, key)))
                if off_sum[r]:
                    flagged.append((ix[k], Violation(
                        "row-sum", where, f"row sums to {float(sums[r])!r}, expected 1",
                        c.child, key)))

    # In table order: a table with failing rows has no structural violation.
    out += [v for _, v in sorted(flagged, key=operator.itemgetter(0))]
    if net.topological_order() is None:
        out.append(Violation("cycle", "network",
                             "directed graph has a cycle", ""))
    return out, positive


def joint_probability(net: BayesianNetwork, assignment: Assignment) -> float:
    """Chain-rule probability of one complete assignment.

    Multiplies, for every variable, the CPT entry selected by the
    assignment.  Raises NetworkValidationError on a network that fails
    ``validate``, MissingValueError when any variable lacks a value, and
    ValueError when a state is not an integer or is out of range.
    """
    _require_valid(net)
    missing = [v.id for v in net.variables if v.id not in assignment]
    if missing:
        raise MissingValueError(f"assignment lacks values for: {', '.join(missing)}")
    states = {v.id: _checked_state(v.id, assignment[v.id], v.arity) for v in net.variables}
    p = 1.0
    for v in net.variables:
        row = net.cpt_row(v.id, tuple(states[q] for q in net.parents(v.id)))
        p *= float(row[states[v.id]])
    return p


def _checked_state(var: str, s, arity: int) -> int:
    """``s`` as an int, or ValueError when it is not an integer or not
    one of ``var``'s ``arity`` state indices."""
    try:
        s = operator.index(s)
    except TypeError:
        raise ValueError(f"state index {s!r} for {var!r} is not an integer") from None
    if not 0 <= s < arity:
        raise ValueError(f"state index {s} out of range for {var!r}")
    return s


def _checked_evidence(e: Evidence) -> Evidence:
    """``e``, or TypeError when it is not an ``Evidence``, such as a plain dict or None."""
    if not isinstance(e, Evidence):
        raise TypeError(f"evidence must be an Evidence, not {type(e).__name__}")
    return e


def _bind_evidence(net: BayesianNetwork, e: Evidence) -> dict[str, np.ndarray]:
    """Bind evidence to a network: one likelihood vector per evidence variable.

    This is Pearl's evidence lambda.  Hard evidence becomes an indicator
    over the variable's states, built in O(arity), soft evidence its
    likelihood; every vector is read-only.  Every engine binds evidence
    here, so this is where a network that fails ``validate`` raises
    NetworkValidationError, where an argument that is not an ``Evidence``
    raises TypeError, and where an unknown variable, a hard state out of
    range and a soft vector of the wrong length raise ValueError.
    """
    _require_valid(net)
    bound: dict[str, np.ndarray] = {}
    for var, entry in _checked_evidence(e).entries.items():
        arity = net.var(var).arity
        if isinstance(entry, HardEvidence):
            if entry.state >= arity:
                raise ValueError(f"hard evidence state {entry.state} out of range for {var!r}")
            vec = np.zeros(arity)
            vec[entry.state] = 1.0
            vec.setflags(write=False)
        else:
            if entry.likelihood.size != arity:
                raise ValueError(
                    f"soft evidence for {var!r} has {entry.likelihood.size} weights, "
                    f"variable has {arity} states"
                )
            vec = entry.likelihood
        bound[var] = vec
    return bound


# Query plans a network keeps; past this many, the first one built is dropped.
_PLANS = 64


@dataclass(frozen=True, eq=False)
class _Plan:
    """A checked query's target and evidence pattern (``hard``, the nodes with
    hard findings, and ``observed``, those with any), and what the query derives
    from them, never from values: ``opened``, the evidence and its ancestors (the
    colliders it opens), ``above``, the target and its ancestors, and in ``memo``
    what its readers build from them."""

    target: str
    hard: frozenset[str]
    observed: frozenset[str]
    opened: frozenset[str]
    above: frozenset[str]
    memo: dict = field(default_factory=dict)


def _kept(store: dict, key, build):
    """``store[key]``, set to ``build()`` if missing; a ``store`` that
    already holds ``_PLANS`` first drops the first key it kept."""
    if key not in store:
        if len(store) >= _PLANS:
            del store[next(iter(store))]
        store[key] = build()
    return store[key]


def _bind_query(net: BayesianNetwork, targets, e: Evidence) -> dict[str, np.ndarray]:
    """Check the targets, then the network and the evidence (``_bind_evidence``),
    then that no target has a hard finding; returns the bound evidence."""
    for t in targets:
        net.var(t)
    bound = _bind_evidence(net, e)
    for t in targets:
        if e.is_hard(t):
            raise InvalidQueryError(f"target {t!r} carries hard evidence")
    return bound


def _relevance(net: BayesianNetwork, target: str,
               e: Evidence) -> tuple[_Plan, dict[str, np.ndarray]]:
    """The query checked and bound (``_bind_query``) and the plan of its pattern,
    one of the last ``_PLANS`` the network keeps, by target and pattern."""
    bound = _bind_query(net, (target,), e)
    hard, observed = frozenset(e.hard_states()), frozenset(bound)
    plan = _kept(net._memo.setdefault(_Plan, {}), (target, hard, observed),
                 lambda: _Plan(target, hard, observed, frozenset(_closure(observed, net._parents)),
                               frozenset(_closure((target,), net._parents))))
    return plan, bound


def evidence_weight(net: BayesianNetwork, e: Evidence, assignment: Assignment) -> float:
    """Product of the evidence weights an assignment picks up.

    Hard evidence contributes an indicator (1 when the assignment
    agrees, else 0); soft evidence contributes its likelihood entry.
    An evidence variable's state that is not an integer or is out of
    range raises ValueError.
    """
    w = 1.0
    for var, lam in _bind_evidence(net, e).items():
        if var not in assignment:
            raise MissingValueError(f"assignment lacks a value for evidence variable {var!r}")
        w *= float(lam[_checked_state(var, assignment[var], lam.size)])
    return w
