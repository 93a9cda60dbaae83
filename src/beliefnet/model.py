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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import MissingValueError, NetworkValidationError

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
    a single row holding its prior.
    """

    child: str
    parents: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.ndim == 1:
            t = t.reshape(1, -1)
        t = np.ascontiguousarray(t)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "parents", tuple(self.parents))

    @property
    def n_rows(self) -> int:
        return self.table.shape[0]


@dataclass(frozen=True)
class HardEvidence:
    """An observed state index for one variable."""

    state: int

    def __post_init__(self):
        if not isinstance(self.state, int) or self.state < 0:
            raise ValueError(f"hard evidence state must be a non-negative int, got {self.state!r}")


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
        v = np.asarray(self.likelihood, dtype=np.float64).reshape(-1)
        if v.size == 0:
            raise ValueError("soft evidence vector is empty")
        if not np.isfinite(v).all():
            raise ValueError("soft evidence weights must be finite")
        if np.any(v < 0):
            raise ValueError("soft evidence weights must be non-negative")
        if not np.any(v > 0):
            raise ValueError("soft evidence vector must have at least one positive weight")
        v = np.ascontiguousarray(v)
        v.setflags(write=False)
        object.__setattr__(self, "likelihood", v)


EvidenceEntry = Union[HardEvidence, SoftEvidence]


@dataclass(frozen=True, eq=False)
class Evidence:
    """A set of evidence entries, at most one per variable."""

    entries: Mapping[str, EvidenceEntry] = field(default_factory=dict)

    def __post_init__(self):
        d = dict(self.entries)
        for var, entry in d.items():
            if not isinstance(entry, (HardEvidence, SoftEvidence)):
                raise TypeError(f"evidence for {var!r} must be HardEvidence or SoftEvidence")
        object.__setattr__(self, "entries", d)

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
        if np.any(p < -1e-12):
            raise ValueError(f"belief for {self.variable!r} has negative entries")
        # Written so that a NaN sum fails too.
        if not abs(float(p.sum()) - 1.0) <= ROW_SUM_TOL:
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
        n = 1
        for d in self.dims:
            n *= d
        return n

    def state_index(self, var_id: str, label: str) -> int:
        return self.var(var_id).state_index(label)

    # -- graph structure -------------------------------------------------

    def cpt(self, var_id: str) -> Cpt | None:
        return self._cpt_by_child.get(var_id)

    def parents(self, var_id: str) -> tuple[str, ...]:
        c = self.cpt(var_id)
        return c.parents if c is not None else ()

    @cached_property
    def _parents(self) -> dict[str, tuple[str, ...]]:
        """Each variable's parents that are declared variables."""
        return {v.id: tuple(p for p in self.parents(v.id) if p in self._by_id)
                for v in self.variables}

    @cached_property
    def _children(self) -> dict[str, tuple[str, ...]]:
        acc: dict[str, list[str]] = {v.id: [] for v in self.variables}
        for v in self.variables:
            for p in self._parents[v.id]:
                acc[p].append(v.id)
        return {k: tuple(vs) for k, vs in acc.items()}

    def children(self, var_id: str) -> tuple[str, ...]:
        self.var(var_id)
        return self._children[var_id]

    @cached_property
    def edges(self) -> tuple[tuple[str, str], ...]:
        out = []
        for v in self.variables:
            for p in self.parents(v.id):
                out.append((p, v.id))
        return tuple(out)

    @cached_property
    def _edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edges)

    @cached_property
    def _skeleton(self) -> dict[str, tuple[str, ...]]:
        """Each variable's neighbours in the undirected skeleton, in declaration order."""
        return {v.id: tuple(sorted({*self._parents[v.id], *self._children[v.id]},
                                   key=self._order.__getitem__))
                for v in self.variables}

    def skeleton_neighbors(self, var_id: str) -> tuple[str, ...]:
        self.var(var_id)
        return self._skeleton[var_id]

    def roots(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.variables if not self.parents(v.id))

    def topological_order(self) -> tuple[str, ...] | None:
        """Kahn's algorithm with declaration-order tie-breaking.

        Returns None when the directed graph has a cycle.  Parents that
        are not declared variables are ignored (validate reports them).
        """
        indeg = {v.id: 0 for v in self.variables}
        for v in self.variables:
            for p in self.parents(v.id):
                if p in indeg:
                    indeg[v.id] += 1
        ready = [v.id for v in self.variables if indeg[v.id] == 0]
        out: list[str] = []
        while ready:
            u = ready.pop(0)
            out.append(u)
            for c in self._children[u]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        if len(out) != len(self.variables):
            return None
        return tuple(out)

    def descendants(self, var_id: str) -> frozenset[str]:
        self.var(var_id)
        seen: set[str] = set()
        stack = list(self._children[var_id])
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(self._children[u])
        return frozenset(seen)

    def ancestors(self, var_id: str) -> frozenset[str]:
        self.var(var_id)
        seen: set[str] = set()
        stack = list(self._parents[var_id])
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(self._parents[u])
        return frozenset(seen)

    # -- CPT access ------------------------------------------------------

    def cpt_tensor(self, var_id: str) -> np.ndarray:
        """The CPT reshaped to (parent dims..., child arity)."""
        c = self.cpt(var_id)
        if c is None:
            raise MissingValueError(f"variable {var_id!r} has no CPT")
        pdims = tuple(self.arity(p) for p in c.parents)
        return c.table.reshape(*pdims, self.arity(var_id))

    def cpt_row(self, var_id: str, parent_states: Sequence[int]) -> np.ndarray:
        """The probability row for one full parent assignment."""
        c = self.cpt(var_id)
        if c is None:
            raise MissingValueError(f"variable {var_id!r} has no CPT")
        if len(parent_states) != len(c.parents):
            raise MissingValueError(
                f"cpt {var_id!r} expects {len(c.parents)} parent states, got {len(parent_states)}"
            )
        if not c.parents:
            return c.table[0]
        pdims = tuple(self.arity(p) for p in c.parents)
        for s, d, p in zip(parent_states, pdims, c.parents):
            if not 0 <= s < d:
                raise ValueError(f"state index {s} out of range for parent {p!r}")
        idx = int(np.ravel_multi_index(tuple(parent_states), pdims))
        return c.table[idx]

    # -- validation ------------------------------------------------------

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        return tuple(_find_violations(self))

    @cached_property
    def _memo(self) -> dict:
        """What ``_once`` derived from the network, by the function that derived it."""
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


def validate(net: BayesianNetwork) -> list[Violation]:
    """Check every structural invariant and return the violations found.

    An empty list means the network is well formed: unique states, at
    least two states per variable, exactly one CPT per variable with
    declared distinct parents, rows of the right length summing to one,
    probabilities in [0, 1] (a NaN entry counts as outside it), and an
    acyclic directed graph.  The check runs once per network; later
    calls, and the engines' own check, reuse its result.
    """
    return list(net._violations)


def _require_acyclic(net: BayesianNetwork) -> None:
    """Raise the cached ``cycle`` violation as NetworkValidationError, if any."""
    cycles = [v for v in net._violations if v.kind == "cycle"]
    if cycles:
        raise NetworkValidationError(cycles)


def _find_violations(net: BayesianNetwork) -> list[Violation]:
    out: list[Violation] = []
    ids = {v.id for v in net.variables}

    for v in net.variables:
        if v.arity < 2:
            out.append(Violation("state-count", f"variable {v.id}",
                                 f"needs at least 2 states, has {v.arity}", v.id))
        if len(set(v.states)) != len(v.states):
            out.append(Violation("duplicate-state", f"variable {v.id}",
                                 "state labels are not unique", v.id))

    by_child: dict[str, list[Cpt]] = {}
    for c in net.cpts:
        by_child.setdefault(c.child, []).append(c)

    for child, cs in by_child.items():
        if child not in ids:
            out.append(Violation("unknown-child", f"cpt {child}",
                                 "table given for an undeclared variable", child))
        if len(cs) > 1:
            out.append(Violation("duplicate-cpt", f"cpt {child}",
                                 f"{len(cs)} tables given for one variable", child))
    for v in net.variables:
        if v.id not in by_child:
            out.append(Violation("missing-cpt", f"variable {v.id}",
                                 "no table given", v.id))

    for c in net.cpts:
        if c.child not in ids:
            continue
        arity = net.arity(c.child)
        bad_parent = False
        for p in c.parents:
            if p not in ids:
                out.append(Violation("unknown-parent", f"cpt {c.child}",
                                     f"parent {p!r} is not declared", c.child))
                bad_parent = True
        if c.child in c.parents:
            out.append(Violation("self-loop", f"cpt {c.child}",
                                 "variable listed as its own parent", c.child))
            bad_parent = True
        if len(set(c.parents)) != len(c.parents):
            out.append(Violation("duplicate-parent", f"cpt {c.child}",
                                 "parent list has repeats", c.child))
            bad_parent = True
        if c.table.shape[1] != arity:
            out.append(Violation("row-length", f"cpt {c.child}",
                                 f"rows have {c.table.shape[1]} entries, child has {arity} states",
                                 c.child))
            continue
        if bad_parent:
            continue
        pdims = tuple(net.arity(p) for p in c.parents)
        expect = 1
        for d in pdims:
            expect *= d
        if c.n_rows != expect:
            out.append(Violation("row-count", f"cpt {c.child}",
                                 f"has {c.n_rows} rows, parent states require {expect}", c.child))
            continue
        # Whole-table checks; only a failing row's key and label are built.
        # NaN fails the range test, so it counts as outside [0, 1].
        t = c.table
        out_of_range = ~((t >= 0) & (t <= 1)).all(axis=1)
        # A row holding both inf and -inf sums to NaN; it is already out of range.
        with np.errstate(invalid="ignore"):
            sums = t.sum(axis=1)
        off_sum = np.abs(sums - 1.0) > ROW_SUM_TOL
        for r in np.flatnonzero(out_of_range | off_sum).tolist():
            key = tuple(int(x) for x in np.unravel_index(r, pdims)) if pdims else ()
            label = ",".join(net.var(p).states[s] for p, s in zip(c.parents, key))
            where = f"cpt {c.child} row ({label})" if label else f"cpt {c.child} prior"
            if out_of_range[r]:
                out.append(Violation("probability-range", where,
                                     "entries outside [0, 1]", c.child, key))
            if off_sum[r]:
                s = float(sums[r])
                out.append(Violation("row-sum", where,
                                     f"row sums to {s!r}, expected 1", c.child, key))

    if net.topological_order() is None:
        out.append(Violation("cycle", "network",
                             "directed graph has a cycle", ""))
    return out


def joint_probability(net: BayesianNetwork, assignment: Assignment) -> float:
    """Chain-rule probability of one complete assignment.

    Multiplies, for every variable, the CPT entry selected by the
    assignment.  Raises MissingValueError when any variable lacks a
    value, ValueError when a state index is out of range, and
    NetworkValidationError on a cyclic graph.
    """
    _require_acyclic(net)
    missing = [v.id for v in net.variables if v.id not in assignment]
    if missing:
        raise MissingValueError(f"assignment lacks values for: {', '.join(missing)}")
    p = 1.0
    for v in net.variables:
        s = assignment[v.id]
        if not 0 <= s < v.arity:
            raise ValueError(f"state index {s} out of range for {v.id!r}")
        row = net.cpt_row(v.id, tuple(assignment[q] for q in net.parents(v.id)))
        p *= float(row[s])
    return p


def _bind_evidence(net: BayesianNetwork, e: Evidence) -> dict[str, np.ndarray]:
    """Bind evidence to a network: one likelihood vector per evidence variable.

    This is Pearl's evidence lambda.  Hard evidence becomes an indicator
    over the variable's states, soft evidence its likelihood; every
    vector is read-only.  Every engine binds evidence here, so this is
    where a network that fails ``validate`` raises NetworkValidationError,
    and where an unknown variable, a hard state out of range and a soft
    vector of the wrong length raise ValueError.
    """
    if net._violations:
        raise NetworkValidationError(net._violations)
    bound: dict[str, np.ndarray] = {}
    for var, entry in e.entries.items():
        arity = net.arity(var)
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


def evidence_weight(net: BayesianNetwork, e: Evidence, assignment: Assignment) -> float:
    """Product of the evidence weights an assignment picks up.

    Hard evidence contributes an indicator (1 when the assignment
    agrees, else 0); soft evidence contributes its likelihood entry.
    """
    w = 1.0
    for var, lam in _bind_evidence(net, e).items():
        if var not in assignment:
            raise MissingValueError(f"assignment lacks a value for evidence variable {var!r}")
        s = assignment[var]
        if not 0 <= s < lam.size:
            raise ValueError(f"state index {s} out of range for {var!r}")
        w *= float(lam[s])
    return w
