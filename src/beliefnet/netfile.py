"""Plain-text network files.

The format is line oriented; ``#`` starts a comment anywhere and blank
lines are ignored::

    network sprinkler
    variable X1 : winter, summer
    variable X2 : rain, dry
    cpt X1
    : 0.6, 0.4
    cpt X2 | X1
    winter : 0.7, 0.3
    summer : 0.15, 0.85

The header must come first.  Every variable is declared before it is
used.  A ``cpt`` block gives one row per full parent assignment: the
comma-joined parent state labels, a colon, then one probability per
child state.  A root's single row starts directly with the colon.
Rows may appear in any order; the serialiser emits them row-major with
the last parent varying fastest.  Names and state labels are single
tokens without whitespace, ``,``, ``:``, ``|`` or ``#``.  The keywords
are valid labels too: inside a table whose first parent has a state
``cpt``, the line ``cpt : 0.1, 0.9`` is a row, not a header.

Syntax problems raise NetfileSyntaxError with the offending line
number; a file that parses but breaks a structural invariant (bad row
sum, missing table, cycle, ...) raises NetworkValidationError whose
violations name the line they came from.
"""

from __future__ import annotations

import itertools
import math
import re
from pathlib import Path

import numpy as np

from .errors import NetfileSyntaxError, NetworkValidationError
from .model import BayesianNetwork, Cpt, Variable, Violation, validate

# Rows whose sum misses 1 by no more than this can be rescaled on load.
NORMALIZE_TOL = 1e-6

_TOKEN = re.compile(r"[^\s,:|#]+\Z")

_VAR_KINDS = {"state-count", "duplicate-state", "missing-cpt"}
_ROW_KINDS = {"row-sum", "probability-range"}


def _token(tok: str, line_no: int, what: str) -> str:
    tok = tok.strip()
    if not tok or not _TOKEN.match(tok):
        raise NetfileSyntaxError(f"bad {what} {tok!r}", line_no)
    return tok


def parse_network(text: str, *, normalize: bool = False) -> BayesianNetwork:
    """Parse a network file into a validated BayesianNetwork.

    With ``normalize`` set, rows whose sum is within 1e-6 of one are
    rescaled to sum exactly to one; anything further off is left alone
    and reported as a validation error.
    """
    name: str | None = None
    variables: list[Variable] = []
    var_ids: dict[str, Variable] = {}
    var_lines: dict[str, int] = {}
    blocks: list[dict] = []
    block_children: set[str] = set()
    current: dict | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        if name is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "network":
                raise NetfileSyntaxError("missing network header", line_no)
            name = _token(parts[1], line_no, "network name")
            continue

        word = line.split(None, 1)[0]
        if (word in ("network", "variable", "cpt") and current is not None
                and current["parents"] and word in var_ids[current["parents"][0]].states
                and line[len(word):].lstrip()[:1] in (":", ",")):
            word = ""   # a row whose first parent state is named like a keyword
        if word == "network":
            raise NetfileSyntaxError("duplicate network header", line_no)

        if word == "variable":
            current = None
            head, sep, rest = line.partition(":")
            if not sep:
                raise NetfileSyntaxError("expected ':' after the variable name", line_no)
            parts = head.split()
            if len(parts) != 2:
                raise NetfileSyntaxError("expected 'variable <name> : <states>'", line_no)
            vid = _token(parts[1], line_no, "variable name")
            if vid in var_ids:
                raise NetfileSyntaxError(f"variable {vid!r} declared twice", line_no)
            states = tuple(_token(s, line_no, "state label") for s in rest.split(","))
            v = Variable(vid, states)
            variables.append(v)
            var_ids[vid] = v
            var_lines[vid] = line_no
            continue

        if word == "cpt":
            head, sep, rest = line.partition("|")
            parts = head.split()
            if len(parts) != 2:
                raise NetfileSyntaxError("expected 'cpt <child> [| <parents>]'", line_no)
            child = _token(parts[1], line_no, "variable name")
            if child not in var_ids:
                raise NetfileSyntaxError(f"cpt for undeclared variable {child!r}", line_no)
            if child in block_children:
                raise NetfileSyntaxError(f"second table for variable {child!r}", line_no)
            parents: tuple[str, ...] = ()
            if sep:
                parents = tuple(_token(p, line_no, "parent name") for p in rest.split(","))
                for p in parents:
                    if p not in var_ids:
                        raise NetfileSyntaxError(f"undeclared parent {p!r}", line_no)
            current = {"child": child, "parents": parents, "line": line_no, "rows": {}}
            blocks.append(current)
            block_children.add(child)
            continue

        if current is None:
            raise NetfileSyntaxError(f"unexpected line outside a cpt block: {line!r}", line_no)

        lhs, sep, rhs = line.partition(":")
        if not sep:
            raise NetfileSyntaxError("expected ':' between parent states and probabilities",
                                     line_no)
        parents = current["parents"]
        labels = lhs.split(",") if lhs.strip() else []
        if len(labels) != len(parents):
            raise NetfileSyntaxError(
                f"row names {len(labels)} parent states, table has {len(parents)} parents",
                line_no)
        key = []
        for p, lab in zip(parents, labels):
            try:
                key.append(var_ids[p].state_index(lab.strip()))
            except ValueError as exc:
                raise NetfileSyntaxError(str(exc), line_no) from None
        key = tuple(key)
        if key in current["rows"]:
            raise NetfileSyntaxError("duplicate row", line_no)
        probs = []
        for tok in rhs.split(","):
            try:
                probs.append(float(tok))
            except ValueError:
                raise NetfileSyntaxError(f"bad probability {tok.strip()!r}", line_no) from None
        arity = var_ids[current["child"]].arity
        if len(probs) != arity:
            raise NetfileSyntaxError(
                f"row has {len(probs)} probabilities, {current['child']!r} has {arity} states",
                line_no)
        current["rows"][key] = (probs, line_no)

    if name is None:
        raise NetfileSyntaxError("missing network header")

    cpts: list[Cpt] = []
    cpt_lines: dict[str, int] = {}
    row_lines: dict[tuple[str, tuple[int, ...]], int] = {}
    for b in blocks:
        child, parents = b["child"], b["parents"]
        pdims = tuple(var_ids[p].arity for p in parents)
        expect = math.prod(pdims)
        if len(b["rows"]) != expect:
            for miss in np.ndindex(*pdims) if pdims else [()]:
                if tuple(miss) not in b["rows"]:
                    label = ",".join(var_ids[p].states[s] for p, s in zip(parents, miss))
                    raise NetfileSyntaxError(
                        f"cpt {child} is missing the row for ({label})", b["line"])
        rows = sorted(b["rows"].items())    # row-major, the last parent fastest
        table = np.array([probs for _, (probs, _) in rows], dtype=np.float64)
        row_lines.update(((child, key), ln) for key, (_, ln) in rows)
        if normalize:
            sums = table.sum(axis=1)
            near = (sums > 0) & (np.abs(sums - 1.0) <= NORMALIZE_TOL)
            table[near] /= sums[near, None]
        cpts.append(Cpt(child, parents, table))
        cpt_lines[child] = b["line"]

    net = BayesianNetwork(tuple(variables), tuple(cpts), name=name)
    violations = validate(net)
    if violations:
        located = []
        for v in violations:
            if v.row is not None:
                line = row_lines.get((v.subject, v.row))
            elif v.kind in _VAR_KINDS:
                line = var_lines.get(v.subject)
            else:
                line = cpt_lines.get(v.subject)
            if line is not None:
                v = Violation(v.kind, f"line {line}, {v.where}", v.detail, v.subject, v.row)
            located.append(v)
        raise NetworkValidationError(located)
    return net


def load_network(path, *, normalize: bool = False) -> BayesianNetwork:
    """Read and parse a network file from disk."""
    return parse_network(Path(path).read_text(), normalize=normalize)


def serialize_network(net: BayesianNetwork) -> str:
    """Write a network back out in canonical form.

    Variables and tables follow declaration order, rows are row-major
    with the last parent varying fastest, probabilities print at full
    precision, so serialising is deterministic and parsing the result
    reproduces the network exactly.
    """
    lines = [f"network {net.name}"]
    for v in net.variables:
        lines.append(f"variable {v.id} : " + ", ".join(v.states))
    for v in net.variables:
        c = net.cpt(v.id)
        if c is None:
            continue
        if c.parents:
            lines.append(f"cpt {v.id} | " + ", ".join(c.parents))
        else:
            lines.append(f"cpt {v.id}")
        # Row labels in row-major order, the last parent varying fastest.  A
        # table with the wrong number of rows raises ValueError.
        labels = itertools.product(*(net.var(p).states for p in c.parents))
        for key, row in zip(labels, c.table.tolist(), strict=True):
            probs = ", ".join(map(repr, row))
            lines.append(f"{','.join(key)} : {probs}" if key else f": {probs}")
    return "\n".join(lines) + "\n"
