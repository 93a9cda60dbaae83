from pathlib import Path

import numpy as np
import pytest

import netgen
from beliefnet import (
    BayesianNetwork,
    Cpt,
    NetfileSyntaxError,
    NetworkValidationError,
    load_network,
    parse_network,
    Variable,
    serialize_network,
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
