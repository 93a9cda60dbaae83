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
Rows may appear in any order and with any spacing around labels and
commas: each row is keyed by its labels, comma-joined, in an index of
its table's rows that is built once per distinct tuple of parent
states (a repeated state label keys its first state).  The serialiser
emits rows row-major with the last parent varying fastest.  Names and
state labels are single tokens without whitespace, ``,``, ``:``, ``|``
or ``#``.  The keywords are valid labels too: inside a table whose
first parent has a state ``cpt``, the line ``cpt : 0.1, 0.9`` is a row,
not a header.

Syntax problems raise NetfileSyntaxError with the offending line
number; a file that parses but breaks a structural invariant (bad row
sum, missing table, cycle, ...) raises NetworkValidationError whose
violations name the line they came from.
"""

from __future__ import annotations

import itertools
import re
from pathlib import Path

import numpy as np

from .errors import NetfileSyntaxError, NetworkValidationError
from .model import BayesianNetwork, Cpt, Variable, Violation, validate

# Rows whose sum misses 1 by no more than this can be rescaled on load.
NORMALIZE_TOL = 1e-6

_TOKEN = re.compile(r"[^\s,:|#]+\Z")

_KEYWORDS = ("network", "variable", "cpt")
_VAR_KINDS = {"state-count", "duplicate-state", "missing-cpt"}


def _token(tok: str, line_no: int, what: str) -> str:
    tok = tok.strip()
    if not tok or not _TOKEN.match(tok):
        raise NetfileSyntaxError(f"bad {what} {tok!r}", line_no)
    return tok


def _row_error(lhs: str, parents, var_ids, line_no: int) -> NetfileSyntaxError:
    """Why a row's labels key no row: their count, else the first unknown label."""
    labels = lhs.split(",") if lhs.strip() else []
    if len(labels) != len(parents):
        return NetfileSyntaxError(
            f"row names {len(labels)} parent states, table has {len(parents)} parents", line_no)
    p, lab = next((p, lab) for p, lab in zip(parents, map(str.strip, labels))
                  if lab not in var_ids[p].states)
    return NetfileSyntaxError(f"variable {p!r} has no state {lab!r}", line_no)


def parse_network(text: str, *, normalize: bool = False) -> BayesianNetwork:
    """Parse a network file into a validated BayesianNetwork.

    With ``normalize`` set, rows whose sum is within 1e-6 of one are
    rescaled to sum exactly to one; anything further off is left alone
    and reported as a validation error.
    """
    lines = enumerate(text.splitlines(), start=1)
    for line_no, line in lines:
        line = line.split("#", 1)[0].strip()
        if line:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "network":
                raise NetfileSyntaxError("missing network header", line_no)
            name = _token(parts[1], line_no, "network name")
            break
    else:
        raise NetfileSyntaxError("missing network header")

    variables: list[Variable] = []
    var_ids: dict[str, Variable] = {}
    var_lines: dict[str, int] = {}
    labels: set[str] = set()    # state labels that passed the token check
    # Per distinct tuple of parent state tuples: the row labels in row-major
    # order, the last parent fastest, and each label's row index.
    indexes: dict[tuple, tuple[list[str], dict[str, int]]] = {}
    tables: dict[str, tuple] = {}   # child -> (parents, line, rows by index, labels)
    # The open table: its rows by index, as (probabilities, line), and its
    # first parent's states.  A row also reads the table's child, parents,
    # arity and label index, set with these by its ``cpt`` line.
    rows: dict[int, tuple[list[float], int]] | None = None
    first: tuple[str, ...] = ()

    for line_no, line in lines:
        if "#" in line:
            line = line.split("#", 1)[0]
        line = line.strip()
        if not line:
            continue

        if line.startswith(_KEYWORDS):
            word = line.split(None, 1)[0]
            if word in first and line[len(word):].lstrip()[:1] in (":", ","):
                word = ""   # a row whose first parent state is named like a keyword
            if word == "network":
                raise NetfileSyntaxError("duplicate network header", line_no)

            if word == "variable":
                rows, first = None, ()
                head, sep, rest = line.partition(":")
                if not sep:
                    raise NetfileSyntaxError("expected ':' after the variable name", line_no)
                parts = head.split()
                if len(parts) != 2:
                    raise NetfileSyntaxError("expected 'variable <name> : <states>'", line_no)
                vid = _token(parts[1], line_no, "variable name")
                if vid in var_ids:
                    raise NetfileSyntaxError(f"variable {vid!r} declared twice", line_no)
                states = tuple(map(str.strip, rest.split(",")))
                for s in states:
                    if s not in labels:
                        labels.add(_token(s, line_no, "state label"))
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
                child = parts[1]
                if child not in var_ids:
                    _token(child, line_no, "variable name")
                    raise NetfileSyntaxError(f"cpt for undeclared variable {child!r}", line_no)
                if child in tables:
                    raise NetfileSyntaxError(f"second table for variable {child!r}", line_no)
                parents: tuple[str, ...] = ()
                if sep:
                    # Every name's token check comes before any declared check.
                    parents = tuple(map(str.strip, rest.split(",")))
                    for p in parents:
                        if p not in var_ids:
                            _token(p, line_no, "parent name")
                    for p in parents:
                        if p not in var_ids:
                            raise NetfileSyntaxError(f"undeclared parent {p!r}", line_no)
                pstates = tuple(var_ids[p].states for p in parents)
                if pstates not in indexes:
                    keys = [",".join(k) for k in itertools.product(*pstates)]
                    index: dict[str, int] = {}
                    for i, k in enumerate(keys):
                        index.setdefault(k, i)  # a repeated label keys its first state
                    indexes[pstates] = keys, index
                keys, index = indexes[pstates]
                rows, first = {}, (pstates[0] if parents else ())
                arity = var_ids[child].arity
                tables[child] = parents, line_no, rows, keys
                continue

        if rows is None:
            raise NetfileSyntaxError(f"unexpected line outside a cpt block: {line!r}", line_no)
        lhs, sep, rhs = line.partition(":")
        if not sep:
            raise NetfileSyntaxError("expected ':' between parent states and probabilities",
                                     line_no)
        i = index.get(lhs.strip())
        if i is None:
            i = index.get(",".join(map(str.strip, lhs.split(","))))
            if i is None:
                raise _row_error(lhs, parents, var_ids, line_no)
        if i in rows:
            raise NetfileSyntaxError("duplicate row", line_no)
        try:
            probs = list(map(float, rhs.split(",")))
        except ValueError:
            for tok in rhs.split(","):
                try:
                    float(tok)
                except ValueError:
                    raise NetfileSyntaxError(f"bad probability {tok.strip()!r}",
                                             line_no) from None
        if len(probs) != arity:
            raise NetfileSyntaxError(
                f"row has {len(probs)} probabilities, {child!r} has {arity} states", line_no)
        rows[i] = probs, line_no

    cpts: list[Cpt] = []
    for child, (parents, line, rows, keys) in tables.items():
        if len(rows) != len(keys):
            miss = next(i for i in range(len(keys)) if i not in rows)
            raise NetfileSyntaxError(f"cpt {child} is missing the row for ({keys[miss]})", line)
        table = [rows[i][0] for i in range(len(keys))]
        if normalize:
            table = np.array(table, dtype=np.float64)
            sums = table.sum(axis=1)
            near = (sums > 0) & (np.abs(sums - 1.0) <= NORMALIZE_TOL)
            table[near] /= sums[near, None]
        cpts.append(Cpt(child, parents, table))

    net = BayesianNetwork(tuple(variables), tuple(cpts), name=name)
    violations = validate(net)
    if violations:
        located = []
        for v in violations:
            if v.row is not None:
                parents, _, rows, _ = tables[v.subject]
                i = 0
                for p, s in zip(parents, v.row):
                    i = i * var_ids[p].arity + s
                line = rows[i][1]
            elif v.kind in _VAR_KINDS:
                line = var_lines.get(v.subject)
            else:
                line = tables[v.subject][1] if v.subject in tables else None
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
