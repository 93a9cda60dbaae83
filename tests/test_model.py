import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    infer,
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


@pytest.mark.parametrize("given", [lambda base: base, lambda base: base[:]],
                         ids=["array", "view"])
def test_cpt_keeps_its_own_copy_of_the_table(given):
    # The caller's array stays theirs: writable, and writing to it, or to
    # the base of the view it gave, changes neither the table behind the
    # cached verdict nor the answer.
    prior, base = np.array([0.3, 0.7]), np.array([[0.9, 0.1], [0.2, 0.8]])
    a, b = Cpt("A", (), given(prior)), Cpt("B", ("A",), given(base))
    net = BayesianNetwork((Variable("A", ("a", "b")), Variable("B", ("a", "b"))), (a, b))
    assert validate(net) == []
    before = infer(net, "B").belief.probabilities.tobytes()
    assert prior.flags.writeable and base.flags.writeable
    prior[:] = [2.0, -1.0]
    base[0] = [2.0, -1.0]
    assert a.table.tolist() == [[0.3, 0.7]] and b.table.tolist() == [[0.9, 0.1], [0.2, 0.8]]
    assert validate(net) == []
    assert infer(net, "B").belief.probabilities.tobytes() == before


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


@pytest.mark.parametrize("parents, rows", [(("A",), 3), (("A", "G"), 4)])
def test_table_readers_reject_an_invalid_network(parents, rows):
    # A wrong row count, then an undeclared parent: the cached verdict is
    # raised before the table is reshaped or a parent is looked up.
    two = ("a", "b")
    net = BayesianNetwork((Variable("A", two), Variable("B", two)),
                          (Cpt("A", (), [0.5, 0.5]), Cpt("B", parents, np.full((rows, 2), 0.5))))
    for read in (lambda: net.cpt_tensor("B"), lambda: net.cpt_row("B", (0,) * len(parents))):
        with pytest.raises(NetworkValidationError) as exc:
            read()
        assert exc.value.violations == validate(net)


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
    # Which check fails decides the message: a negative entry is named first,
    # even beside a NaN; an empty vector and a NaN sum do not sum to 1.
    negative, unsummed = "belief for 'X' has negative entries", "belief for 'X' does not sum to 1"
    cases = {(): unsummed, (-np.inf, 2.0): negative, (-1e-11, 1.0 + 1e-11): negative,
             (np.nan, -1.0, 2.0): negative, (2.0, -1.0, np.nan): negative}
    cases.update({tuple(np.where(np.arange(3) == k, np.nan, 0.5)): unsummed for k in range(3)})
    for p, message in cases.items():
        with pytest.raises(ValueError) as exc:
            Belief("X", p)
        assert str(exc.value) == message
    for p in ([-0.0, 1.0], [-1e-13, 1.0 + 1e-13]):
        assert Belief("X", p).probabilities.tolist() == p


@pytest.mark.parametrize("fixture", ["serial.bn", "diverging.bn", "converging.bn",
                                     "sprinkler.bn", "loopy8.bn"])
def test_validate_clean_on_fixtures(fixture_dir, fixture):
    from beliefnet import load_network
    assert validate(load_network(fixture_dir / fixture)) == []


def test_validate_reports_variable_defects():
    net = BayesianNetwork(
        (Variable("A", ("only",)), Variable("B", ("x", "x"))),
        (Cpt("A", (), [1.0]), Cpt("B", (), [0.5, 0.5])))
    assert validate(net) == [
        Violation("state-count", "variable A", "needs at least 2 states, has 1", "A"),
        Violation("duplicate-state", "variable B", "state labels are not unique", "B")]


def test_validate_reports_cpt_bookkeeping():
    net = BayesianNetwork(
        (Variable("A", ("a", "b")), Variable("B", ("a", "b"))),
        (Cpt("A", (), [0.5, 0.5]), Cpt("A", (), [0.4, 0.6]),
         Cpt("C", (), [0.5, 0.5])))
    assert validate(net) == [
        Violation("duplicate-cpt", "cpt A", "2 tables given for one variable", "A"),
        Violation("unknown-child", "cpt C", "table given for an undeclared variable", "C"),
        Violation("missing-cpt", "variable B", "no table given", "B")]


def test_validate_reports_parent_defects():
    net = BayesianNetwork(
        (Variable("A", ("a", "b")),),
        (Cpt("A", ("A", "Q", "A"), np.full((8, 2), 0.5)),))
    assert validate(net) == [
        Violation("unknown-parent", "cpt A", "parent 'Q' is not declared", "A"),
        Violation("self-loop", "cpt A", "variable listed as its own parent", "A"),
        Violation("duplicate-parent", "cpt A", "parent list has repeats", "A"),
        Violation("cycle", "network", "directed graph has a cycle", "")]


def test_validate_reports_table_shape_defects():
    net = BayesianNetwork(
        (Variable("A", ("a", "b")), Variable("B", ("a", "b", "c"))),
        (Cpt("A", (), [0.5, 0.3, 0.2]),                      # too wide
         Cpt("B", ("A",), [[0.2, 0.3, 0.5]])))               # one row short
    assert validate(net) == [
        Violation("row-length", "cpt A", "rows have 3 entries, child has 2 states", "A"),
        Violation("row-count", "cpt B", "has 1 rows, parent states require 2", "B")]


def test_validate_reports_row_numbers():
    net = BayesianNetwork(
        (Variable("A", ("a", "b")), Variable("B", ("a", "b"))),
        (Cpt("A", (), [0.7, 0.3]),
         Cpt("B", ("A",), [[0.9, 0.6], [1.2, 0.3]])))
    assert validate(net) == [
        Violation("row-sum", "cpt B row (a)", "row sums to 1.5, expected 1", "B", (0,)),
        Violation("probability-range", "cpt B row (b)", "entries outside [0, 1]", "B", (1,)),
        Violation("row-sum", "cpt B row (b)", "row sums to 1.5, expected 1", "B", (1,))]


def test_validate_reports_cycle():
    vs = (Variable("A", ("a", "b")), Variable("B", ("a", "b")))
    cpts = (Cpt("A", ("B",), np.full((2, 2), 0.5)),
            Cpt("B", ("A",), np.full((2, 2), 0.5)))
    assert validate(BayesianNetwork(vs, cpts)) == [
        Violation("cycle", "network", "directed graph has a cycle", "")]


def _reference_violations(variables, cpts):
    """What ``validate`` should report, as (kind, where, detail, subject,
    row) tuples, worked out table by table and row by row with nothing
    from the library but the tables' shapes and entries."""
    arity = {v.id: len(v.states) for v in variables}
    states = {v.id: v.states for v in variables}
    found = []
    for v in variables:
        if len(v.states) < 2:
            found.append(("state-count", f"variable {v.id}",
                          f"needs at least 2 states, has {len(v.states)}", v.id, None))
        if len(set(v.states)) < len(v.states):
            found.append(("duplicate-state", f"variable {v.id}",
                          "state labels are not unique", v.id, None))
    counts = {}
    for c in cpts:
        counts[c.child] = counts.get(c.child, 0) + 1
    for child, k in counts.items():
        if child not in arity:
            found.append(("unknown-child", f"cpt {child}",
                          "table given for an undeclared variable", child, None))
        if k > 1:
            found.append(("duplicate-cpt", f"cpt {child}",
                          f"{k} tables given for one variable", child, None))
    found += [("missing-cpt", f"variable {v.id}", "no table given", v.id, None)
              for v in variables if v.id not in counts]
    for c in cpts:
        if c.child not in arity:
            continue
        where = f"cpt {c.child}"
        unknown = [p for p in c.parents if p not in arity]
        found += [("unknown-parent", where, f"parent {p!r} is not declared", c.child, None)
                  for p in unknown]
        looped = c.child in c.parents
        if looped:
            found.append(("self-loop", where, "variable listed as its own parent", c.child, None))
        repeated = len(set(c.parents)) < len(c.parents)
        if repeated:
            found.append(("duplicate-parent", where, "parent list has repeats", c.child, None))
        rows, width = c.table.shape
        if width != arity[c.child]:
            found.append(("row-length", where,
                          f"rows have {width} entries, child has {arity[c.child]} states",
                          c.child, None))
            continue
        if unknown or looped or repeated:
            continue
        dims = [arity[p] for p in c.parents]
        expect = 1
        for d in dims:
            expect *= d
        if rows != expect:
            found.append(("row-count", where,
                          f"has {rows} rows, parent states require {expect}", c.child, None))
            continue
        keys = itertools.product(*(range(d) for d in dims))
        for key, row in zip(keys, c.table):
            label = ",".join(states[p][s] for p, s in zip(c.parents, key))
            at = f"cpt {c.child} row ({label})" if label else f"cpt {c.child} prior"
            if not all(0.0 <= x <= 1.0 for x in row.tolist()):
                found.append(("probability-range", at, "entries outside [0, 1]", c.child, key))
            total = float(row.sum())    # numpy's own sum of the one row
            if abs(total - 1.0) > 1e-9:
                found.append(("row-sum", at, f"row sums to {total!r}, expected 1",
                              c.child, key))
    # A directed cycle among the declared parents of each variable's first table.
    first = {}
    for c in cpts:
        first.setdefault(c.child, c.parents)
    graph = {v.id: [p for p in first.get(v.id, ()) if p in arity] for v in variables}
    colour = dict.fromkeys(graph, "white")

    def cyclic(u):
        colour[u] = "grey"
        for p in graph[u]:
            if colour[p] == "grey" or (colour[p] == "white" and cyclic(p)):
                return True
        colour[u] = "black"
        return False

    if any(colour[u] == "white" and cyclic(u) for u in graph):
        found.append(("cycle", "network", "directed graph has a cycle", "", None))
    return found


def _with_parent(c, parent, states):
    """``c`` with ``parent`` appended to its parents, each row repeated
    once per state of the new, fastest-varying parent."""
    return Cpt(c.child, c.parents + (parent,), np.repeat(c.table, states, axis=0))


def _mutate(rng, kind, variables, cpts):
    """Apply one mutation of ``kind`` to the lists of variables and tables,
    in place; a kind that does not apply to them leaves them as they are."""
    arity = {v.id: v.arity for v in variables}
    i = int(rng.integers(len(cpts))) if cpts else None
    c = cpts[i] if cpts else None
    table = np.array(c.table) if cpts else None
    r = int(rng.integers(len(table))) if cpts and len(table) else 0
    known = c is not None and c.child in arity
    if kind == "duplicate-table" and cpts:
        cpts.insert(int(rng.integers(len(cpts) + 1)), Cpt(c.child, c.parents, table))
    elif kind == "unknown-table":
        cpts.insert(int(rng.integers(len(cpts) + 1)), Cpt("Ghost", (), [0.25, 0.75]))
    elif kind == "missing-table" and cpts:
        del cpts[i]
    elif kind == "unknown-parent" and cpts:
        cpts[i] = Cpt(c.child, c.parents + ("Q",), table)
    elif kind == "self-parent" and known:
        cpts[i] = _with_parent(c, c.child, arity[c.child])
    elif kind == "repeated-parent" and known and c.parents and c.parents[0] in arity:
        cpts[i] = _with_parent(c, c.parents[0], arity[c.parents[0]])
    elif kind == "added-parent" and known:
        p = variables[int(rng.integers(len(variables)))].id
        cpts[i] = _with_parent(c, p, arity[p])
    elif kind == "reversed-edge" and known and c.parents and c.parents[0] in arity:
        # The first table of the parent gets the child as its parent: a directed cycle.
        j = next((j for j, d in enumerate(cpts) if d.child == c.parents[0]), None)
        if j is not None:
            cpts[j] = _with_parent(cpts[j], c.child, arity[c.child])
    elif kind == "wrong-width" and cpts:
        wider = np.hstack([table, np.zeros((len(table), 1))])
        cpts[i] = Cpt(c.child, c.parents, wider if rng.random() < 0.5 else table[:, 1:])
    elif kind == "wrong-row-count" and cpts:
        cpts[i] = Cpt(c.child, c.parents, np.vstack([table, table[:1]])
                      if rng.random() < 0.5 or len(table) < 2 else table[:-1])
    elif kind in ("nan-entry", "out-of-range", "off-sum") and cpts and table.size:
        k = int(rng.integers(table.shape[1]))
        if kind == "nan-entry":
            table[r, k] = np.nan
        elif kind == "out-of-range":
            table[r, k] = rng.choice([-0.25, 1.5, -1e-12, np.inf])
        else:
            table[r, k] += rng.choice([1e-6, -1e-3, 0.5])
        cpts[i] = Cpt(c.child, c.parents, table)
    elif kind == "shuffled":
        cpts[:] = [cpts[j] for j in rng.permutation(len(cpts))]
    elif kind == "lone-state" and "L" not in arity:
        variables.append(Variable("L", ("only",)))
        cpts.append(Cpt("L", (), [1.0]))
    elif kind == "repeated-state" and "R" not in arity:
        variables.append(Variable("R", ("x", "x")))
        cpts.append(Cpt("R", (), [0.5, 0.5]))


_MUTATIONS = ("duplicate-table", "unknown-table", "missing-table", "unknown-parent",
              "self-parent", "repeated-parent", "added-parent", "reversed-edge",
              "wrong-width", "wrong-row-count", "nan-entry", "out-of-range", "off-sum",
              "shuffled", "lone-state", "repeated-state")


@given(st.integers(0, 2**32 - 1), st.integers(2, 6),
       st.lists(st.sampled_from(_MUTATIONS), max_size=4))
def test_validate_matches_a_table_by_table_reference_on_mutated_networks(seed, n, kinds):
    rng = np.random.default_rng(seed)
    parents = [sorted(set(rng.integers(0, i, size=int(rng.integers(0, min(i, 3) + 1))).tolist()))
               if i else [] for i in range(n)]
    base = netgen.assemble(rng, parents, rng.integers(2, 4, size=n).tolist(),
                           zero_share=0.2 * int(rng.integers(2)))
    variables, cpts = list(base.variables), list(base.cpts)
    for kind in kinds:
        _mutate(rng, kind, variables, cpts)
    net = BayesianNetwork(tuple(variables), tuple(cpts))
    want = _reference_violations(variables, cpts)
    assert [(v.kind, v.where, v.detail, v.subject, v.row) for v in validate(net)] == want
    declared = {v.id for v in variables}
    assert net._positive == all(bool((c.table > 0).all()) for c in cpts if c.child in declared)


_GRAPH_MUTATIONS = ("repeated-parent", "unknown-parent", "missing-table", "duplicate-table",
                    "reversed-edge", "self-parent", "added-parent", "unknown-table", "shuffled")


@given(st.integers(0, 2**32 - 1), st.integers(2, 6),
       st.lists(st.sampled_from(_GRAPH_MUTATIONS), max_size=4))
def test_graph_accessors_match_networkx_on_the_declared_distinct_relation(seed, n, kinds):
    # On any network, valid or not, every graph question answers over one
    # relation: each declared variable's first table's parents that are
    # declared, each listed once, in table order.
    rng = np.random.default_rng(seed)
    parents = [sorted(set(rng.integers(0, i, size=int(rng.integers(0, min(i, 3) + 1))).tolist()))
               if i else [] for i in range(n)]
    base = netgen.assemble(rng, parents, rng.integers(2, 4, size=n).tolist())
    variables, cpts = list(base.variables), list(base.cpts)
    for kind in kinds:
        _mutate(rng, kind, variables, cpts)
    net = BayesianNetwork(tuple(variables), tuple(cpts))
    ids = [v.id for v in variables]
    first = {}
    for c in cpts:
        first.setdefault(c.child, c.parents)
    graph = nx.DiGraph()
    graph.add_nodes_from(ids)
    graph.add_edges_from((p, v) for v in ids for p in first.get(v, ()) if p in graph)
    for v in ids:
        assert net.parents(v) == tuple(graph.predecessors(v))
        assert net.children(v) == tuple(graph.successors(v))
    assert len(net.edges) == graph.number_of_edges() and set(net.edges) == set(graph.edges)
    assert [w for _, w in net.edges] == sorted((w for _, w in graph.edges), key=ids.index)
    assert net.roots() == tuple(v for v in ids if graph.in_degree(v) == 0)
    order = net.topological_order()
    if nx.is_directed_acyclic_graph(graph):
        assert sorted(order) == sorted(ids)
        assert all(order.index(u) < order.index(w) for u, w in graph.edges)
    else:
        assert order is None


def test_a_repeated_parent_is_one_edge():
    two = ("a", "b")
    net = BayesianNetwork((Variable("A", two), Variable("B", two)),
                          (Cpt("A", (), [0.5, 0.5]), Cpt("B", ("A", "A"), np.full((4, 2), 0.5))))
    assert validate(net)
    assert net.cpt("B").parents == ("A", "A")
    assert net.parents("B") == ("A",) and net.children("A") == ("B",)
    assert net.edges == (("A", "B"),) and net.roots() == ("A",)
    assert net.topological_order() == ("A", "B")


def test_parents_of_an_unknown_variable_is_an_error(serial_net):
    # The table readers name an unknown id as the graph accessors do.
    for read in (serial_net.parents, serial_net.children, serial_net.cpt_tensor,
                 lambda v: serial_net.cpt_row(v, ())):
        with pytest.raises(ValueError, match="^unknown variable 'W'$"):
            read("W")


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
