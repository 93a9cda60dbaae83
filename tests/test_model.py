import numpy as np
import pytest

import netgen
from beliefnet import (
    BayesianNetwork,
    Belief,
    Cpt,
    Evidence,
    HardEvidence,
    MissingValueError,
    NetworkValidationError,
    SoftEvidence,
    Variable,
    Violation,
    evidence_weight,
    joint_probability,
    validate,
)


def test_variable_basics():
    v = Variable("X", ("true", "false"))
    assert v.arity == 2
    assert v.name == "X"
    assert v.state_index("false") == 1
    with pytest.raises(ValueError):
        v.state_index("maybe")


def test_variable_keeps_explicit_name():
    v = Variable("X1", ("a", "b"), name="season")
    assert v.name == "season"


def test_cpt_one_dim_table_becomes_single_row():
    c = Cpt("X", (), [0.9, 0.1])
    assert c.table.shape == (1, 2)
    assert c.n_rows == 1


def test_cpt_table_is_read_only():
    c = Cpt("X", (), [0.9, 0.1])
    with pytest.raises(ValueError):
        c.table[0, 0] = 0.5


def test_duplicate_variable_ids_rejected():
    vs = (Variable("X", ("a", "b")), Variable("X", ("c", "d")))
    with pytest.raises(ValueError):
        BayesianNetwork(vs, ())


def test_graph_helpers_on_chain(serial_net):
    net = serial_net
    assert net.name == "serial"
    assert [v.id for v in net.variables] == ["X", "Y", "Z"]
    assert net.parents("Y") == ("X",)
    assert net.children("Y") == ("Z",)
    assert net.roots() == ("X",)
    assert net.edges == (("X", "Y"), ("Y", "Z"))
    assert net.index("Z") == 2
    assert net.dims == (2, 2, 2)
    assert net.joint_state_count == 8
    assert "X" in net and "W" not in net
    with pytest.raises(ValueError):
        net.var("W")


def test_topological_order(sprinkler_net):
    order = sprinkler_net.topological_order()
    assert order is not None
    pos = {v: i for i, v in enumerate(order)}
    for u, w in sprinkler_net.edges:
        assert pos[u] < pos[w]


def test_topological_order_none_on_cycle():
    vs = (Variable("A", ("a", "b")), Variable("B", ("a", "b")))
    cpts = (Cpt("A", ("B",), [[0.5, 0.5], [0.5, 0.5]]),
            Cpt("B", ("A",), [[0.5, 0.5], [0.5, 0.5]]))
    net = BayesianNetwork(vs, cpts)
    assert net.topological_order() is None


def test_descendants_and_ancestors(sprinkler_net):
    net = sprinkler_net
    assert net.descendants("X1") == {"X2", "X3", "X4", "X5"}
    assert net.descendants("X5") == frozenset()
    assert net.ancestors("X4") == {"X1", "X2", "X3"}
    assert net.ancestors("X1") == frozenset()


def test_cpt_row_is_row_major_with_last_parent_fastest(converging_net):
    net = converging_net
    # Y's parents are (X, Z); the row for X=true, Z=false sits at index 1.
    assert np.allclose(net.cpt_row("Y", (0, 1)), [0.8, 0.2])
    assert np.allclose(net.cpt_row("Y", (1, 0)), [0.6, 0.4])
    assert np.allclose(net.cpt_row("X", ()), [0.4, 0.6])


def test_cpt_row_errors(converging_net, serial_net):
    with pytest.raises(MissingValueError):
        converging_net.cpt_row("Y", (0,))
    with pytest.raises(ValueError):
        converging_net.cpt_row("Y", (0, 5))
    for state in (0.5, "0"):
        with pytest.raises(ValueError, match="not an integer"):
            serial_net.cpt_row("Y", (state,))


def test_cpt_tensor_shape(sprinkler_net):
    t = sprinkler_net.cpt_tensor("X4")
    assert t.shape == (2, 2, 2)
    assert np.allclose(t[0, 1], [0.9, 0.1])       # rain, off
    assert sprinkler_net.cpt_tensor("X1").shape == (2,)


def test_evidence_container():
    e = Evidence({"X": HardEvidence(1), "Y": SoftEvidence([0.7, 0.2])})
    assert e.has("X") and e.is_hard("X") and not e.is_hard("Y")
    assert e.hard_state("X") == 1 and e.hard_state("Y") is None
    assert e.hard_states() == {"X": 1}
    assert set(e) == {"X", "Y"} and len(e) == 2
    smaller = e.without("X")
    assert not smaller.has("X") and smaller.has("Y")
    assert Evidence.empty().is_empty()
    with pytest.raises(TypeError):
        Evidence({"X": 1})


def test_hard_evidence_validation():
    with pytest.raises(ValueError):
        HardEvidence(-1)


def test_hard_evidence_takes_any_integer_as_a_plain_int():
    # The same ``operator.index`` rule as every other state check.
    for state, want in ((np.int64(1), 1), (np.uint8(0), 0), (True, 1), (2, 2)):
        entry = HardEvidence(state)
        assert type(entry.state) is int and entry.state == want
        assert entry == HardEvidence(want)
    for bad in (1.0, "0", None, -1, np.int64(-1), np.float64(1.0)):
        with pytest.raises(ValueError, match="non-negative int"):
            HardEvidence(bad)


def test_a_cpt_table_has_one_or_two_dimensions():
    assert Cpt("A", (), [0.5, 0.5]).table.shape == (1, 2)
    assert Cpt("B", ("A",), np.full((2, 2), 0.5)).table.shape == (2, 2)
    for parents, table in (((), 0.5), (("A",), np.full((2, 1, 2), 0.5)),
                           ((), np.full((1, 2, 1), 0.5))):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            Cpt("B", parents, table)


def test_soft_evidence_validation():
    with pytest.raises(ValueError):
        SoftEvidence([])
    with pytest.raises(ValueError):
        SoftEvidence([0.5, -0.1])
    with pytest.raises(ValueError):
        SoftEvidence([0.0, 0.0])
    for weight in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            SoftEvidence([weight, 1.0])
    s = SoftEvidence([0.7, 0.2])
    with pytest.raises(ValueError):
        s.likelihood[0] = 1.0


def test_belief_checks():
    b = Belief("X", [0.25, 0.75])
    assert b[1] == 0.75
    with pytest.raises(ValueError):
        Belief("X", [0.5, 0.6])
    with pytest.raises(ValueError):
        Belief("X", [1.5, -0.5])
    for p in ([np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ValueError):
            Belief("X", p)


@pytest.mark.parametrize("fixture", ["serial.bn", "diverging.bn", "converging.bn",
                                     "sprinkler.bn", "loopy8.bn"])
def test_validate_clean_on_fixtures(fixture_dir, fixture):
    from beliefnet import load_network
    assert validate(load_network(fixture_dir / fixture)) == []


def _kinds(net):
    return {v.kind for v in validate(net)}


def test_validate_reports_variable_defects():
    net = BayesianNetwork(
        (Variable("A", ("only",)), Variable("B", ("x", "x"))),
        (Cpt("A", (), [1.0]), Cpt("B", (), [0.5, 0.5])))
    kinds = _kinds(net)
    assert "state-count" in kinds and "duplicate-state" in kinds


def test_validate_reports_cpt_bookkeeping():
    net = BayesianNetwork(
        (Variable("A", ("a", "b")), Variable("B", ("a", "b"))),
        (Cpt("A", (), [0.5, 0.5]), Cpt("A", (), [0.4, 0.6]),
         Cpt("C", (), [0.5, 0.5])))
    kinds = _kinds(net)
    assert {"duplicate-cpt", "unknown-child", "missing-cpt"} <= kinds


def test_validate_reports_parent_defects():
    net = BayesianNetwork(
        (Variable("A", ("a", "b")),),
        (Cpt("A", ("A", "Q", "A"), np.full((8, 2), 0.5)),))
    kinds = _kinds(net)
    assert {"self-loop", "unknown-parent", "duplicate-parent"} <= kinds


def test_validate_reports_table_shape_defects():
    net = BayesianNetwork(
        (Variable("A", ("a", "b")), Variable("B", ("a", "b", "c"))),
        (Cpt("A", (), [0.5, 0.3, 0.2]),                      # too wide
         Cpt("B", ("A",), [[0.2, 0.3, 0.5]])))               # one row short
    kinds = _kinds(net)
    assert "row-length" in kinds and "row-count" in kinds


def test_validate_reports_row_numbers():
    net = BayesianNetwork(
        (Variable("A", ("a", "b")), Variable("B", ("a", "b"))),
        (Cpt("A", (), [0.7, 0.3]),
         Cpt("B", ("A",), [[0.9, 0.6], [1.2, 0.3]])))
    violations = validate(net)
    sums = [v for v in violations if v.kind == "row-sum"]
    ranges = [v for v in violations if v.kind == "probability-range"]
    assert {v.row for v in sums} == {(0,), (1,)}
    assert ranges and ranges[0].row == (1,)
    assert "cpt B row (a)" in sums[0].where


def test_validate_reports_cycle():
    vs = (Variable("A", ("a", "b")), Variable("B", ("a", "b")))
    cpts = (Cpt("A", ("B",), np.full((2, 2), 0.5)),
            Cpt("B", ("A",), np.full((2, 2), 0.5)))
    assert "cycle" in _kinds(BayesianNetwork(vs, cpts))


def test_validate_counts_nan_as_out_of_range():
    net = BayesianNetwork(
        (Variable("A", ("a", "b")), Variable("B", ("a", "b"))),
        (Cpt("A", (), [0.5, 0.5]),
         Cpt("B", ("A",), [[0.5, 0.5], [np.nan, 0.5]])))
    assert validate(net) == [Violation("probability-range", "cpt B row (b)",
                                       "entries outside [0, 1]", "B", (1,))]


def test_validate_builds_labels_only_for_failing_rows(monkeypatch):
    rng = np.random.default_rng(11)
    net = netgen.random_polytree(rng, 1000)
    cpts = list(net.cpts)
    bad = [i for i, c in enumerate(cpts) if c.n_rows > 2][:2]
    for i in bad:
        table = cpts[i].table.copy()
        table[1] = 0.0
        table[1, 0] = 0.9
        cpts[i] = Cpt(cpts[i].child, cpts[i].parents, table)
    net = BayesianNetwork(net.variables, cpts)
    calls = []
    real = np.unravel_index
    monkeypatch.setattr(np, "unravel_index", lambda *a, **k: calls.append(a) or real(*a, **k))
    found = validate(net)
    assert [(v.kind, v.subject, v.detail) for v in found] == [
        ("row-sum", cpts[i].child, "row sums to 0.9, expected 1") for i in bad]
    assert len(calls) == 2


def test_whole_table_row_sums_match_per_row_sums():
    # validate and parse_network(normalize=True) sum whole tables; the
    # result must be the per-row sum bit for bit, or a row's reported sum
    # and its rescaling would change.
    rng = np.random.default_rng(2026)
    for _ in range(3000):
        rows = int(rng.integers(1, 65))
        arity = int(rng.choice([2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 128, 129, 300]))
        table = rng.uniform(-1.0, 2.0, (rows, arity)) * 10.0 ** rng.integers(-8, 3, (rows, arity))
        table = Cpt("A", (), table).table
        per_row = np.array([row.sum() for row in table])
        assert table.sum(axis=1).tobytes() == per_row.tobytes()
    # validate sums all the tables of one width stacked into one array.
    for _ in range(300):
        arity = int(rng.choice([2, 3, 4, 8, 9, 17, 33, 129]))
        tables = [Cpt("A", (), rng.uniform(-1.0, 2.0, (int(rng.integers(0, 300)), arity))).table
                  for _ in range(int(rng.integers(1, 12)))]
        per_row = np.array([row.sum() for t in tables for row in t])
        assert np.concatenate(tables).sum(axis=1).tobytes() == per_row.tobytes()


def test_joint_probability_rejects_a_cycle_with_a_typed_error():
    vs = tuple(Variable(v, ("a", "b")) for v in "ABC")
    net = BayesianNetwork(vs, tuple(Cpt(v, (p,), np.full((2, 2), 0.5))
                                    for v, p in zip("ABC", "CAB")))
    with pytest.raises(NetworkValidationError) as exc:
        joint_probability(net, {"A": 0, "B": 0, "C": 0})
    assert exc.value.violations == [v for v in validate(net) if v.kind == "cycle"] != []


@pytest.mark.parametrize("walk", ["ancestors", "descendants"])
def test_ancestors_and_descendants_reject_a_cycle_with_a_typed_error(walk):
    vs = tuple(Variable(v, ("a", "b")) for v in "ABC")
    net = BayesianNetwork(vs, tuple(Cpt(v, (p,), np.full((2, 2), 0.5))
                                    for v, p in zip("ABC", "CAB")))
    with pytest.raises(NetworkValidationError) as exc:
        getattr(net, walk)("A")
    assert exc.value.violations == [v for v in validate(net) if v.kind == "cycle"] != []


def test_joint_probability_chain_values(serial_net):
    # 0.9 * 0.85 * 0.95 down the all-true chain.
    assert joint_probability(serial_net, {"X": 0, "Y": 0, "Z": 0}) == pytest.approx(0.72675, abs=1e-12)
    # 0.9 * 0.15 * 0.99 for X true, Y false, Z false.
    assert joint_probability(serial_net, {"X": 0, "Y": 1, "Z": 1}) == pytest.approx(0.13365, abs=1e-12)


def test_joint_probability_requires_full_assignment(serial_net):
    with pytest.raises(MissingValueError):
        joint_probability(serial_net, {"X": 0, "Y": 0})
    with pytest.raises(ValueError):
        joint_probability(serial_net, {"X": 0, "Y": 0, "Z": 7})
    with pytest.raises(ValueError):
        joint_probability(serial_net, {"X": 0, "Y": 0, "Z": -1})
    for state in (0.5, "0", None):
        with pytest.raises(ValueError, match="not an integer"):
            joint_probability(serial_net, {"X": 0, "Y": state, "Z": 0})


@pytest.mark.parametrize("defect", ["unknown-parent", "row-count", "row-sum"])
def test_joint_probability_rejects_an_invalid_network_like_the_engines(defect):
    vs = (Variable("A", ("a", "b")), Variable("B", ("a", "b")))
    prior, child = Cpt("A", (), [0.5, 0.5]), Cpt("B", ("A",), np.full((2, 2), 0.5))
    if defect == "unknown-parent":
        child = Cpt("B", ("A", "Ghost"), np.full((4, 2), 0.5))
    elif defect == "row-count":
        child = Cpt("B", ("A",), [[0.5, 0.5]])
    else:
        prior = Cpt("A", (), [0.3, 0.8])
    net = BayesianNetwork(vs, (prior, child))
    with pytest.raises(NetworkValidationError) as exc:
        joint_probability(net, {"A": 1, "B": 1})
    assert [v.kind for v in exc.value.violations] == [defect]
    assert exc.value.violations == validate(net)


def test_evidence_weight(serial_net):
    a = {"X": 0, "Y": 1, "Z": 0}
    assert evidence_weight(serial_net, Evidence.empty(), a) == 1.0
    assert evidence_weight(serial_net, Evidence({"X": HardEvidence(0)}), a) == 1.0
    assert evidence_weight(serial_net, Evidence({"X": HardEvidence(1)}), a) == 0.0
    e = Evidence({"Y": SoftEvidence([0.7, 0.2]), "X": HardEvidence(0)})
    assert evidence_weight(serial_net, e, a) == pytest.approx(0.2)
    with pytest.raises(MissingValueError):
        evidence_weight(serial_net, e, {"X": 0})
    bad = Evidence({"Y": SoftEvidence([0.7, 0.2, 0.1])})
    with pytest.raises(ValueError):
        evidence_weight(serial_net, bad, a)
    for state in (0.5, "0", None):
        with pytest.raises(ValueError, match="not an integer"):
            evidence_weight(serial_net, e, {"X": 0, "Y": state, "Z": 0})
