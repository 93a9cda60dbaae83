import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import netgen
from beliefnet import (
    BayesianNetwork,
    Cpt,
    NetfileSyntaxError,
    NetworkValidationError,
    load_network,
    parse_network,
    Variable,
    Violation,
    serialize_network,
    validate,
)

GOOD = """\
network demo
variable A : a, b
variable B : x, y, z
cpt A
: 0.4, 0.6
cpt B | A
a : 0.7, 0.2, 0.1
b : 0.5, 0.25, 0.25
"""


def test_parse_basics():
    net = parse_network(GOOD)
    assert net.name == "demo"
    assert [v.id for v in net.variables] == ["A", "B"]
    assert net.var("B").states == ("x", "y", "z")
    assert net.cpt("B").parents == ("A",)
    assert np.allclose(net.cpt("B").table, [[0.7, 0.2, 0.1], [0.5, 0.25, 0.25]])
    assert net.edges == (("A", "B"),)


def test_fixture_values(serial_net, sprinkler_net):
    assert np.allclose(serial_net.cpt("Y").table, [[0.85, 0.15], [0.03, 0.97]])
    assert serial_net.var("X").states == ("true", "false")
    assert sprinkler_net.cpt("X4").parents == ("X2", "X3")
    # rows are row-major with the last parent fastest
    assert np.allclose(sprinkler_net.cpt("X4").table[:, 0], [0.99, 0.9, 0.85, 0.05])


def test_comments_and_row_order():
    text = """\
# leading comment
network t  # trailing comment
variable A : a, b

variable B : a, b
cpt A
: 0.4, 0.6
cpt B | A
b : 0.1, 0.9  # out of declaration order
a : 0.7, 0.3
"""
    net = parse_network(text)
    assert np.allclose(net.cpt("B").table, [[0.7, 0.3], [0.1, 0.9]])


def test_round_trip_all_fixtures(fixture_dir):
    for path in sorted(fixture_dir.glob("*.bn")):
        net = load_network(path)
        text = serialize_network(net)
        again = parse_network(text)
        assert [v.id for v in again.variables] == [v.id for v in net.variables]
        for v in net.variables:
            assert again.var(v.id).states == v.states
            assert again.cpt(v.id).parents == net.cpt(v.id).parents
            assert np.array_equal(again.cpt(v.id).table, net.cpt(v.id).table)
        # canonical form is a fixed point
        assert serialize_network(again) == text


def test_serialized_shape():
    text = serialize_network(parse_network(GOOD))
    lines = text.splitlines()
    assert lines[0] == "network demo"
    assert text.endswith("\n")
    assert "cpt B | A" in lines


def _syntax_error(text):
    with pytest.raises(NetfileSyntaxError) as exc:
        parse_network(text)
    return exc.value


def test_empty_file():
    err = _syntax_error("")
    assert str(err) == "missing network header"
    assert err.line is None


def test_header_must_come_first():
    err = _syntax_error("variable A : a, b\n")
    assert str(err) == "line 1: missing network header"


def test_duplicate_header():
    err = _syntax_error("network a\nnetwork b\n")
    assert err.line == 2


def test_duplicate_variable():
    err = _syntax_error("network t\nvariable A : a, b\nvariable A : a, b\n")
    assert err.line == 3
    assert "declared twice" in str(err)


def test_variable_needs_colon():
    assert _syntax_error("network t\nvariable A a, b\n").line == 2


def test_bad_name_token():
    err = _syntax_error("network t\nvariable A| : a, b\n")
    assert err.line == 2 and "bad variable name" in str(err)


def test_cpt_for_undeclared_variable():
    err = _syntax_error("network t\nvariable A : a, b\ncpt B\n")
    assert err.line == 3 and "undeclared" in str(err)


def test_undeclared_parent():
    text = "network t\nvariable A : a, b\ncpt A | Q\n"
    err = _syntax_error(text)
    assert err.line == 3 and "undeclared parent" in str(err)


def test_second_table():
    text = "network t\nvariable A : a, b\ncpt A\n: 0.5, 0.5\ncpt A\n"
    err = _syntax_error(text)
    assert err.line == 5 and "second table" in str(err)


def test_row_outside_block():
    err = _syntax_error("network t\nvariable A : a, b\n: 0.5, 0.5\n")
    assert err.line == 3 and "outside a cpt block" in str(err)


def test_row_needs_colon():
    err = _syntax_error("network t\nvariable A : a, b\ncpt A\n0.5, 0.5\n")
    assert str(err) == "line 4: expected ':' between parent states and probabilities"


def test_a_table_naming_its_own_variable_as_parent_is_a_self_loop():
    with pytest.raises(NetworkValidationError) as exc:
        parse_network("network t\nvariable A : a, b\ncpt A | A\na : 0.5, 0.5\nb : 0.5, 0.5\n")
    assert str(exc.value.violations[0]) == (
        "self-loop at line 3, cpt A: variable listed as its own parent")


def test_serialize_writes_a_table_less_variable_without_a_cpt_block():
    net = BayesianNetwork((Variable("A", ("a", "b")), Variable("B", ("x", "y"))),
                          (Cpt("A", (), [0.5, 0.5]),))
    lines = serialize_network(net).splitlines()
    assert "variable B : x, y" in lines
    assert [line for line in lines if line.startswith("cpt")] == ["cpt A"]


def test_row_label_count():
    text = ("network t\nvariable A : a, b\nvariable B : a, b\n"
            "cpt B | A\n: 0.5, 0.5\n")
    err = _syntax_error(text)
    assert err.line == 5 and "parent states" in str(err)


def test_unknown_state_label():
    text = ("network t\nvariable A : a, b\nvariable B : a, b\n"
            "cpt B | A\nq : 0.5, 0.5\n")
    err = _syntax_error(text)
    assert err.line == 5 and "no state" in str(err)


def test_duplicate_row():
    text = ("network t\nvariable A : a, b\nvariable B : a, b\n"
            "cpt B | A\na : 0.5, 0.5\na : 0.5, 0.5\n")
    err = _syntax_error(text)
    assert err.line == 6 and "duplicate row" in str(err)


def test_a_repeated_label_keys_rows_by_its_first_state():
    # A's second 'a' is never reached, so both rows are A's first state.
    text = ("network t\nvariable A : a, a\nvariable B : x, y\ncpt A\n: 0.5, 0.5\n"
            "cpt B | A\na : 0.5, 0.5\na : 0.5, 0.5\n")
    err = _syntax_error(text)
    assert err.line == 8 and str(err) == "line 8: duplicate row"


def test_bad_probability():
    err = _syntax_error("network t\nvariable A : a, b\ncpt A\n: 0.5, oops\n")
    assert err.line == 4 and "bad probability" in str(err)


def test_wrong_probability_count():
    err = _syntax_error("network t\nvariable A : a, b\ncpt A\n: 0.5, 0.3, 0.2\n")
    assert err.line == 4 and "has 2 states" in str(err)


def test_missing_row_points_at_block():
    text = ("network t\nvariable A : a, b\nvariable B : a, b\n"
            "cpt A\n: 0.5, 0.5\ncpt B | A\na : 0.5, 0.5\n")
    err = _syntax_error(text)
    assert err.line == 6
    assert "missing the row for (b)" in str(err)


def test_row_sum_violation_names_line():
    text = ("network t\nvariable A : a, b\ncpt A\n: 0.9, 0.6\n")
    with pytest.raises(NetworkValidationError) as exc:
        parse_network(text)
    kinds = {v.kind for v in exc.value.violations}
    assert "row-sum" in kinds
    v = next(v for v in exc.value.violations if v.kind == "row-sum")
    assert v.where.startswith("line 4,")


def test_missing_cpt_names_variable_line():
    text = "network t\nvariable A : a, b\nvariable B : a, b\ncpt A\n: 0.5, 0.5\n"
    with pytest.raises(NetworkValidationError) as exc:
        parse_network(text)
    v = next(v for v in exc.value.violations if v.kind == "missing-cpt")
    assert v.subject == "B"
    assert v.where.startswith("line 3,")


def test_normalize_rescales_near_misses():
    text = f"network t\nvariable A : a, b\ncpt A\n: 0.5, {0.5 + 4e-7}\n"
    with pytest.raises(NetworkValidationError):
        parse_network(text)
    net = parse_network(text, normalize=True)
    assert float(net.cpt("A").table.sum()) == pytest.approx(1.0, abs=1e-15)


def test_normalize_leaves_real_errors():
    text = "network t\nvariable A : a, b\ncpt A\n: 0.9, 0.6\n"
    with pytest.raises(NetworkValidationError):
        parse_network(text, normalize=True)


def test_load_network_reads_files(tmp_path):
    p = tmp_path / "t.bn"
    p.write_text(GOOD)
    net = load_network(p)
    assert net.name == "demo"


def test_nan_entry_is_out_of_range_and_names_its_line():
    text = "network t\nvariable A : a, b\ncpt A\n: nan, nan\n"
    with pytest.raises(NetworkValidationError) as exc:
        parse_network(text)
    assert [(v.kind, v.where) for v in exc.value.violations] == [
        ("probability-range", "line 4, cpt A prior")]


def _reference_serialize(net):
    """serialize_network as a loop that ravels each row index on its own."""
    lines = [f"network {net.name}"]
    lines += [f"variable {v.id} : " + ", ".join(v.states) for v in net.variables]
    for v in net.variables:
        c = net.cpt(v.id)
        lines.append(f"cpt {v.id} | " + ", ".join(c.parents) if c.parents else f"cpt {v.id}")
        pdims = tuple(net.arity(p) for p in c.parents)
        for r in range(c.n_rows):
            probs = ", ".join(repr(float(x)) for x in c.table[r])
            key = np.unravel_index(r, pdims) if pdims else ()
            label = ",".join(net.var(p).states[int(s)] for p, s in zip(c.parents, key))
            lines.append(f"{label} : {probs}" if pdims else f": {probs}")
    return "\n".join(lines) + "\n"


def _reference_normalized(table):
    """parse_network(normalize=True)'s rescaling, one row at a time."""
    rows = []
    for row in table:
        s = float(row.sum())
        rows.append(row / s if s > 0 and abs(s - 1.0) <= 1e-6 else row)
    return np.array(rows)


def _reference_nets():
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    rng = np.random.default_rng(150)
    nets = {p.stem: load_network(p) for p in sorted(fixtures.glob("*.bn"))}
    nets.update({f"polytree{n}": netgen.random_polytree(rng, n) for n in (150, 500, 1000)})
    return nets


REFERENCE_NETS = _reference_nets()


@pytest.mark.parametrize("name", REFERENCE_NETS)
def test_serialize_and_parse_match_the_per_row_reference(name):
    net = REFERENCE_NETS[name]
    text = serialize_network(net)
    assert text == _reference_serialize(net)
    plain, normalized = parse_network(text), parse_network(text, normalize=True)
    for c, p, q in zip(net.cpts, plain.cpts, normalized.cpts):
        assert p.table.tobytes() == c.table.tobytes()
        assert q.table.tobytes() == _reference_normalized(c.table).tobytes()


def test_serialize_rejects_a_table_with_the_wrong_row_count():
    net = BayesianNetwork((Variable("A", ("a", "b")),), (Cpt("A", (), [[0.5, 0.5]] * 2),))
    with pytest.raises(ValueError):
        serialize_network(net)


@pytest.mark.parametrize("keyword", ["cpt", "variable", "network"])
def test_states_named_like_keywords_round_trip(keyword):
    net = BayesianNetwork(
        (Variable("A", (keyword, "x")), Variable("B", ("b", keyword)), Variable("C", ("u", "v"))),
        (Cpt("A", (), [0.3, 0.7]), Cpt("B", ("A",), [[0.1, 0.9], [0.2, 0.8]]),
         Cpt("C", ("A", "B"), [[0.1, 0.9], [0.2, 0.8], [0.3, 0.7], [0.4, 0.6]])))
    text = serialize_network(net)
    assert f"\n{keyword} : 0.1, 0.9\n" in text
    back = parse_network(text)
    assert [c.table.tobytes() for c in back.cpts] == [c.table.tobytes() for c in net.cpts]
    # A row may also start with the keyword, a space and a comma.
    spaced = text.replace(f"\n{keyword},b : ", f"\n{keyword} , b : ")
    assert spaced != text
    assert parse_network(spaced).cpts[2].table.tobytes() == net.cpts[2].table.tobytes()


@pytest.mark.parametrize("line, message", [
    ("variable : a, b", "expected 'variable <name> : <states>'"),
    ("cpt : x", "expected 'cpt <child> [| <parents>]'"),
    ("cpt , x", "expected 'cpt <child> [| <parents>]'"),
    ("network : x", "duplicate network header"),
])
@pytest.mark.parametrize("before", ["", "cpt A\n: 0.5, 0.5\n", "cpt A\n: 0.5, 0.5\ncpt B | A\n"])
def test_a_malformed_header_keeps_its_header_error(line, message, before):
    # Only a table whose first parent has a state named like the keyword
    # reads such a line as a row; A's states are a and b.
    text = f"network t\nvariable A : a, b\nvariable B : x, y\n{before}{line}\n"
    err = _syntax_error(text)
    assert str(err) == f"line {text.count(chr(10))}: {message}"


_NAME = re.compile(r"[^\s,:|#]+")


def _reference_parse(text):
    """The file grammar, one line at a time, written apart from the library.

    Returns the network's name, its variables as (id, states, line) and
    its tables as (child, parents, table, line, row lines by state
    indices), or raises NetfileSyntaxError as the library's parser must.
    """
    def fail(message, line=None):
        raise NetfileSyntaxError(message, line)

    def token(s, n, what):
        s = s.strip()
        if not _NAME.fullmatch(s):
            fail(f"bad {what} {s!r}", n)
        return s

    name, states, variables, tables, table = None, {}, [], {}, None
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if name is None:
            words = line.split()
            if len(words) != 2 or words[0] != "network":
                fail("missing network header", n)
            name = token(words[1], n, "network name")
            continue
        word = line.split()[0]
        # Inside a table whose first parent has a state named like the
        # keyword, the keyword followed by ':' or ',' starts a row.
        is_row = (table is not None and table["parents"]
                  and word in states[table["parents"][0]]
                  and line[len(word):].lstrip()[:1] in (":", ","))
        if word == "network" and not is_row:
            fail("duplicate network header", n)
        elif word == "variable" and not is_row:
            table = None
            if ":" not in line:
                fail("expected ':' after the variable name", n)
            head, _, rest = line.partition(":")
            words = head.split()
            if len(words) != 2:
                fail("expected 'variable <name> : <states>'", n)
            vid = token(words[1], n, "variable name")
            if vid in states:
                fail(f"variable {vid!r} declared twice", n)
            states[vid] = tuple(token(s, n, "state label") for s in rest.split(","))
            variables.append((vid, states[vid], n))
        elif word == "cpt" and not is_row:
            head, bar, rest = line.partition("|")
            words = head.split()
            if len(words) != 2:
                fail("expected 'cpt <child> [| <parents>]'", n)
            child = token(words[1], n, "variable name")
            if child not in states:
                fail(f"cpt for undeclared variable {child!r}", n)
            if child in tables:
                fail(f"second table for variable {child!r}", n)
            parents = tuple(token(p, n, "parent name") for p in rest.split(",")) if bar else ()
            for p in parents:
                if p not in states:
                    fail(f"undeclared parent {p!r}", n)
            table = tables[child] = {"child": child, "parents": parents, "line": n, "rows": {}}
        else:
            if table is None:
                fail(f"unexpected line outside a cpt block: {line!r}", n)
            if ":" not in line:
                fail("expected ':' between parent states and probabilities", n)
            lhs, _, rhs = line.partition(":")
            parents = table["parents"]
            labels = [s.strip() for s in lhs.split(",")] if lhs.strip() else []
            if len(labels) != len(parents):
                fail(f"row names {len(labels)} parent states, table has {len(parents)} parents", n)
            key = []
            for p, label in zip(parents, labels):
                if label not in states[p]:
                    fail(f"variable {p!r} has no state {label!r}", n)
                key.append(states[p].index(label))
            if tuple(key) in table["rows"]:
                fail("duplicate row", n)
            probs = []
            for tok in rhs.split(","):
                try:
                    probs.append(float(tok))
                except ValueError:
                    fail(f"bad probability {tok.strip()!r}", n)
            child = table["child"]
            if len(probs) != len(states[child]):
                fail(f"row has {len(probs)} probabilities, {child!r} has "
                     f"{len(states[child])} states", n)
            table["rows"][tuple(key)] = (probs, n)
    if name is None:
        fail("missing network header")
    out = []
    for child, t in tables.items():
        keys = list(itertools.product(*(range(len(states[p])) for p in t["parents"])))
        for key in keys:
            if key not in t["rows"]:
                label = ",".join(states[p][s] for p, s in zip(t["parents"], key))
                fail(f"cpt {child} is missing the row for ({label})", t["line"])
        array = np.array([t["rows"][k][0] for k in keys], dtype=np.float64)
        out.append((child, t["parents"], array, t["line"],
                    {k: line for k, (_, line) in t["rows"].items()}))
    return name, variables, out


def _reference_outcome(text):
    """What parse_network must do with ``text``: the network's parts, or the error."""
    try:
        name, variables, tables = _reference_parse(text)
    except NetfileSyntaxError as exc:
        return exc
    net = BayesianNetwork(tuple(Variable(v, s) for v, s, _ in variables),
                          tuple(Cpt(c, p, t) for c, p, t, _, _ in tables), name=name)
    var_line = {v: n for v, _, n in variables}
    table_line = {c: n for c, _, _, n, _ in tables}
    row_line = {c: rows for c, _, _, _, rows in tables}
    located = []
    for v in validate(net):
        if v.row is not None:
            line = row_line[v.subject][v.row]
        elif v.kind in ("state-count", "duplicate-state", "missing-cpt"):
            line = var_line[v.subject]
        else:
            line = table_line.get(v.subject)
        located.append(v if line is None else
                       Violation(v.kind, f"line {line}, {v.where}", v.detail, v.subject, v.row))
    return NetworkValidationError(located) if located else net


def _keyworded(net, keyword):
    """``net`` with each variable's first state renamed to ``keyword``."""
    variables = tuple(Variable(v.id, (keyword, *v.states[1:])) for v in net.variables)
    return BayesianNetwork(variables, net.cpts, name=net.name)


def _base_texts():
    rng = np.random.default_rng(21)
    nets = [netgen.random_polytree(rng, n) for n in (2, 4, 7)]
    nets += [netgen.grid(rng, 2, 3), netgen.random_loopy(rng, 6)]
    nets += [_keyworded(nets[1], k) for k in ("cpt", "variable", "network")]
    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    return ([serialize_network(net) for net in nets]
            + [p.read_text() for p in sorted(fixtures.glob("*.bn"))])


BASE_TEXTS = _base_texts()


def _is_row(line):
    return ":" in line and not line.startswith(("network", "variable", "cpt", "#"))


def _mutate(lines, kind, rnd):
    """Apply one edit of ``kind`` to the file's lines, at places ``rnd`` picks."""
    rows = [i for i, line in enumerate(lines) if _is_row(line)]
    i = rnd.choice(rows) if rows else rnd.randrange(len(lines))
    line = lines[i]
    lhs, sep, rhs = line.partition(":")
    labels, probs = lhs.split(","), rhs.split(",")
    if kind == "shuffle":
        j = i
        while j + 1 < len(lines) and _is_row(lines[j + 1]):
            j += 1
        while i > 0 and _is_row(lines[i - 1]):
            i -= 1
        block = lines[i:j + 1]
        rnd.shuffle(block)
        lines[i:j + 1] = block
    elif kind == "space":
        def pad():
            return rnd.choice(["", " ", "\t", "  \t "])
        lines[i] = (",".join(pad() + s.strip() + pad() for s in labels) + sep
                    + ",".join(pad() + s + pad() for s in probs))
    elif kind == "comment":
        blank = rnd.choice(["", "# note", "   ", "\t# a, b : c"])
        lines.insert(rnd.randrange(len(lines) + 1), blank)
        lines[i] += rnd.choice(["  # cpt X | Y", "#", " #: 1"])
    elif kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(rnd.randrange(i, len(lines) + 1), line)
    elif kind == "label":
        k = rnd.randrange(len(labels))
        labels[k] = rnd.choice(["zz", "", " ", "s0", "s1", "cpt", "a b"])
        lines[i] = ",".join(labels) + sep + rhs
    elif kind == "probability":
        k = rnd.randrange(len(probs))
        probs[k] = rnd.choice(["oops", "", " 0.9", "1_0", "nan", "-inf", "1e400", "0x1"])
        lines[i] = lhs + sep + ",".join(probs)
    elif kind == "count":
        parts = rnd.choice([labels, probs])
        if rnd.random() < 0.5 and len(parts) > 1:
            del parts[rnd.randrange(len(parts))]
        else:
            parts.insert(rnd.randrange(len(parts) + 1), rnd.choice([" s0", "0.5", ""]))
        lines[i] = ",".join(labels) + sep + ",".join(probs)
    elif kind == "header":
        # A header inside a table: one of the file's or a malformed one.
        header = rnd.choice([h for h in lines if h.startswith(("variable", "cpt", "network"))]
                            + ["variable Q : a, b", "cpt Q", "cpt : x", "cpt , x"])
        if header.startswith("variable") and rnd.random() < 0.5:
            header = header.replace(" ", " Q", 1)     # a new name, so its labels are read
        lines.insert(i, header)
    elif kind == "names":
        # A header of the file's gains a bad or an undeclared name.
        i = rnd.choice([k for k, h in enumerate(lines) if h.startswith(("variable", "cpt"))])
        if lines[i].startswith("cpt") and "|" not in lines[i]:
            lines[i] += " | X"
        lines[i] += rnd.choice([", Ghost, a|b", ", Ghost", ", a|b", ","])
    elif kind == "keyword":
        word = rnd.choice(["cpt", "variable", "network"])
        lines[i] = word + rnd.choice([" ", "", ",", " , "]) + line
    return lines


MUTATIONS = ("shuffle", "space", "comment", "drop", "duplicate", "label", "probability",
             "count", "header", "names", "keyword")


@given(st.sampled_from(BASE_TEXTS), st.lists(st.sampled_from(MUTATIONS), max_size=3),
       st.randoms(use_true_random=False))
def test_parse_network_matches_the_reference_grammar_on_mutated_files(text, kinds, rnd):
    # Both give byte-equal tables, or the same error type, message, line
    # and violations.
    lines = text.splitlines()
    for kind in kinds:
        lines = _mutate(lines, kind, rnd)
    text = "\n".join(lines) + "\n"
    expected = _reference_outcome(text)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as exc:
            parse_network(text)
        assert str(exc.value) == str(expected)
        assert getattr(exc.value, "line", None) == getattr(expected, "line", None)
        assert getattr(exc.value, "violations", None) == getattr(expected, "violations", None)
    else:
        net = parse_network(text)
        assert net.name == expected.name
        assert [(v.id, v.states) for v in net.variables] == [
            (v.id, v.states) for v in expected.variables]
        assert [(c.child, c.parents, c.table.tobytes()) for c in net.cpts] == [
            (c.child, c.parents, c.table.tobytes()) for c in expected.cpts]
