import itertools

import numpy as np
import pytest

import netgen
from beliefnet import (
    BayesianNetwork,
    ConnectionKind,
    Cpt,
    Evidence,
    HardEvidence,
    InvalidQueryError,
    LoopCutset,
    NetworkValidationError,
    NotAPathError,
    SoftEvidence,
    Variable,
    classify_connection,
    d_separated,
    is_polytree,
    is_valid_cutset,
    load_network,
    select_cutset,
    validate,
)
from beliefnet import structure


def _uniform_net(parent_idx, arity=2, prefix="n"):
    rng = np.random.default_rng(7)
    return netgen.assemble(rng, parent_idx, [arity] * len(parent_idx), prefix=prefix)


# -- connection kinds --------------------------------------------------------


def test_classify_connection_serial(serial_net):
    assert classify_connection(serial_net, "X", "Y", "Z") is ConnectionKind.SERIAL
    assert classify_connection(serial_net, "Z", "Y", "X") is ConnectionKind.SERIAL


def test_classify_connection_diverging(diverging_net):
    assert classify_connection(diverging_net, "X", "Y", "Z") is ConnectionKind.DIVERGING
    assert classify_connection(diverging_net, "Z", "Y", "X") is ConnectionKind.DIVERGING


def test_classify_connection_converging(converging_net):
    assert classify_connection(converging_net, "X", "Y", "Z") is ConnectionKind.CONVERGING
    assert classify_connection(converging_net, "Z", "Y", "X") is ConnectionKind.CONVERGING


def test_classify_connection_on_loop_fixture(sprinkler_net):
    assert classify_connection(sprinkler_net, "X1", "X2", "X4") is ConnectionKind.SERIAL
    assert classify_connection(sprinkler_net, "X2", "X1", "X3") is ConnectionKind.DIVERGING
    assert classify_connection(sprinkler_net, "X2", "X4", "X3") is ConnectionKind.CONVERGING


def test_classify_connection_rejects_non_chains(sprinkler_net):
    with pytest.raises(NotAPathError):
        classify_connection(sprinkler_net, "X1", "X4", "X5")     # X1-X4 not an edge
    with pytest.raises(NotAPathError):
        classify_connection(sprinkler_net, "X1", "X2", "X1")     # not distinct
    with pytest.raises(ValueError):
        classify_connection(sprinkler_net, "X1", "X2", "nope")


# -- d-separation ------------------------------------------------------------


def test_serial_blocked_by_hard_middle(serial_net):
    v = d_separated(serial_net, "X", "Z", Evidence({"Y": HardEvidence(0)}))
    assert v.separated and bool(v)
    assert v.active_path is None


def test_serial_open_without_evidence(serial_net):
    v = d_separated(serial_net, "X", "Z", Evidence.empty())
    assert not v.separated
    assert v.active_path == ("X", "Y", "Z")


def test_serial_soft_middle_does_not_block(serial_net):
    e = Evidence({"Y": SoftEvidence([0.9, 0.2])})
    assert not d_separated(serial_net, "X", "Z", e).separated


def test_diverging_blocked_by_hard_root(diverging_net):
    assert d_separated(diverging_net, "X", "Z", Evidence({"Y": HardEvidence(1)})).separated
    assert not d_separated(diverging_net, "X", "Z", Evidence.empty()).separated


def test_converging_blocked_only_without_evidence(converging_net):
    assert d_separated(converging_net, "X", "Z", Evidence.empty()).separated
    assert not d_separated(converging_net, "X", "Z", Evidence({"Y": HardEvidence(0)})).separated
    # soft evidence on the collider also opens the path
    e = Evidence({"Y": SoftEvidence([0.5, 0.5])})
    assert not d_separated(converging_net, "X", "Z", e).separated


def test_converging_opened_by_descendant_evidence():
    # X -> Y <- Z with W below Y: evidence on W opens the collider.
    net = BayesianNetwork(
        (Variable("X", ("a", "b")), Variable("Z", ("a", "b")),
         Variable("Y", ("a", "b")), Variable("W", ("a", "b"))),
        (Cpt("X", (), [0.5, 0.5]), Cpt("Z", (), [0.5, 0.5]),
         Cpt("Y", ("X", "Z"), np.full((4, 2), 0.5)),
         Cpt("W", ("Y",), np.full((2, 2), 0.5))))
    assert d_separated(net, "X", "Z", Evidence.empty()).separated
    assert not d_separated(net, "X", "Z", Evidence({"W": HardEvidence(0)})).separated
    assert not d_separated(net, "X", "Z", Evidence({"W": SoftEvidence([0.3, 0.4])})).separated


def test_dsep_on_loop_fixture(sprinkler_net):
    net = sprinkler_net
    # Both routes between X2 and X3 are blocked: the fork X1 is observed
    # and the collider X4 is untouched.
    v = d_separated(net, "X2", "X3", Evidence({"X1": HardEvidence(0)}))
    assert v.separated and v.active_path is None
    # Observing the collider's child re-opens the second route.
    e = Evidence({"X1": HardEvidence(0), "X5": HardEvidence(0)})
    w = d_separated(net, "X2", "X3", e)
    assert not w.separated and w.active_path == ("X2", "X4", "X3")


def test_dsep_disconnected_pair_has_no_paths():
    net = _uniform_net([[], []])
    v = d_separated(net, "n0", "n1", Evidence.empty())
    assert v.separated and v.active_path is None


def test_dsep_endpoint_rules(serial_net):
    with pytest.raises(InvalidQueryError):
        d_separated(serial_net, "X", "X", Evidence.empty())
    with pytest.raises(InvalidQueryError):
        d_separated(serial_net, "X", "Z", Evidence({"X": HardEvidence(0)}))
    # soft evidence on an endpoint is fine
    e = Evidence({"X": SoftEvidence([0.2, 0.8])})
    assert not d_separated(serial_net, "X", "Z", e).separated


def test_dsep_rejects_an_unknown_evidence_variable(serial_net):
    with pytest.raises(ValueError, match="unknown variable 'nope'"):
        d_separated(serial_net, "X", "Z", Evidence({"nope": HardEvidence(0)}))


# -- polytree check ----------------------------------------------------------


def test_is_polytree_true_cases(serial_net, diverging_net, converging_net):
    for net in (serial_net, diverging_net, converging_net):
        check = is_polytree(net)
        assert check and check.cycle is None


def test_is_polytree_witness_cycle(sprinkler_net, loopy8_net):
    check = is_polytree(sprinkler_net)
    assert not check
    assert check.cycle == ("X1", "X2", "X4", "X3")
    assert not is_polytree(loopy8_net)


def test_disconnected_forest_is_polytree():
    net = _uniform_net([[], [0], [], [2]])
    assert is_polytree(net)


# -- loop cutsets ------------------------------------------------------------


def test_cutset_validity_on_loop_fixture(sprinkler_net):
    net = sprinkler_net
    assert not is_valid_cutset(net, ())
    assert is_valid_cutset(net, ("X1",))
    assert is_valid_cutset(net, ("X2",))
    assert is_valid_cutset(net, ("X3",))
    # X4 closes the loop as a shared effect, so instantiating it keeps
    # its parents coupled: not a valid cutset on its own.
    assert not is_valid_cutset(net, ("X4",))
    assert is_valid_cutset(net, ("X1", "X4"))


def test_cutset_validity_on_diamond():
    # A -> B -> D <- C <- A
    net = _uniform_net([[], [0], [0], [1, 2]], prefix="d")
    assert is_valid_cutset(net, ("d0",))
    assert is_valid_cutset(net, ("d1",))
    assert not is_valid_cutset(net, ("d3",))


def test_select_cutset_fixtures(serial_net, sprinkler_net, loopy8_net):
    assert select_cutset(serial_net).nodes == ()
    assert select_cutset(sprinkler_net).nodes == ("X1",)
    assert select_cutset(loopy8_net).nodes == ("A", "B")


def test_select_cutset_is_minimum(loopy8_net):
    cut = select_cutset(loopy8_net)
    ids = [v.id for v in loopy8_net.variables]
    for k in range(len(cut)):
        for combo in itertools.combinations(ids, k):
            assert not is_valid_cutset(loopy8_net, combo)


def test_select_cutset_prefers_declaration_order(sprinkler_net):
    # X1, X2 and X3 are all single-node cutsets; the first declared wins.
    assert select_cutset(sprinkler_net).nodes == ("X1",)


def test_loopcutset_container(sprinkler_net):
    cut = select_cutset(sprinkler_net)
    assert "X1" in cut and "X4" not in cut
    assert list(cut) == ["X1"] and len(cut) == 1
    assert LoopCutset(()).nodes == ()


def test_greedy_cutset_on_large_network():
    # 22 nodes: five diamonds chained head to tail plus two tail nodes.
    parent_idx = [[] for _ in range(22)]
    for k in range(5):
        base = 4 * k
        parent_idx[base + 1].append(base)
        parent_idx[base + 2].append(base)
        parent_idx[base + 3].extend([base + 1, base + 2])
        if k < 4:
            parent_idx[base + 4].append(base + 3)
    parent_idx[20].append(19)
    parent_idx[21].append(20)
    net = _uniform_net(parent_idx, prefix="g")
    cut = select_cutset(net)
    assert is_valid_cutset(net, cut.nodes)
    assert cut.nodes == ("g0", "g4", "g8", "g12", "g16")


@pytest.mark.parametrize("rows, cols, want", [
    (3, 7, ("G1", "G8", "G9", "G10", "G11", "G12")),
    (4, 6, ("G1", "G7", "G8", "G9", "G10", "G12", "G14", "G16")),
    (5, 5, ("G1", "G6", "G7", "G8", "G10", "G12", "G16", "G17", "G18")),
    (3, 9, ("G1", "G10", "G11", "G12", "G13", "G14", "G15", "G16")),
])
def test_greedy_cutset_on_grids_above_20_nodes(rows, cols, want):
    net = netgen.grid(np.random.default_rng(rows * cols), rows, cols)
    assert select_cutset(net).nodes == want
    assert is_valid_cutset(net, want)


def test_select_cutset_checks_each_candidate_cut_once(monkeypatch, fixture_dir):
    seen = []
    real = structure._reduced_skeleton
    monkeypatch.setattr(structure, "_reduced_skeleton",
                        lambda net, cut: seen.append(frozenset(cut)) or real(net, cut))
    # Fresh networks: the cutset is searched once per network and kept.
    for net in (load_network(fixture_dir / "loopy8.bn"),
                netgen.grid(np.random.default_rng(16), 4, 4)):
        seen.clear()
        select_cutset(net)
        assert len(seen) > 1 and len(seen) == len(set(seen))


def _ghost_diamond(tail=0):
    """A -> B, A -> C, {B, C, Ghost} -> D, where Ghost is never declared,
    and a chain of ``tail`` more nodes hanging below A."""
    two = ("a", "b")
    chain = [f"N{i}" for i in range(tail)]
    vs = tuple(Variable(v, two) for v in ["A", "B", "C", "D", *chain])
    cpts = [Cpt("A", (), [0.5, 0.5]),
            Cpt("B", ("A",), np.full((2, 2), 0.5)),
            Cpt("C", ("A",), np.full((2, 2), 0.5)),
            Cpt("D", ("B", "C", "Ghost"), np.full((8, 2), 0.5))]
    cpts += [Cpt(v, (u,), np.full((2, 2), 0.5)) for u, v in zip(["A", *chain], chain)]
    return BayesianNetwork(vs, tuple(cpts))


@pytest.mark.parametrize("tail", [0, 20], ids=["exact", "greedy"])
def test_cutset_tools_ignore_an_undeclared_parent(tail):
    net = _ghost_diamond(tail)
    assert "unknown-parent" in {v.kind for v in validate(net)}
    assert is_valid_cutset(net, ["A"])
    assert not is_valid_cutset(net, ["D"])
    assert select_cutset(net).nodes == ("A",)


def test_cutset_valid_unknown_node(serial_net):
    with pytest.raises(ValueError):
        is_valid_cutset(serial_net, ("nope",))


def test_d_separated_rejects_a_cycle_with_a_typed_error():
    vs = (Variable("A", ("a", "b")), Variable("B", ("a", "b")))
    cpts = (Cpt("A", ("B",), np.full((2, 2), 0.5)),
            Cpt("B", ("A",), np.full((2, 2), 0.5)))
    net = BayesianNetwork(vs, cpts)
    with pytest.raises(NetworkValidationError) as exc:
        d_separated(net, "A", "B", Evidence.empty())
    assert exc.value.violations == [v for v in validate(net) if v.kind == "cycle"]


def _three_cycle():
    """The directed 3-cycle A -> B -> C -> A."""
    vs = tuple(Variable(v, ("a", "b")) for v in "ABC")
    cpts = tuple(Cpt(v, (p,), np.full((2, 2), 0.5)) for v, p in zip("ABC", "CAB"))
    return BayesianNetwork(vs, cpts)


@pytest.mark.parametrize("call", [
    lambda net: select_cutset(net),
    lambda net: is_valid_cutset(net, ["A"]),
], ids=["select_cutset", "is_valid_cutset"])
def test_cutset_functions_reject_a_cycle_with_a_typed_error(call):
    net = _three_cycle()
    for _ in range(2):    # also once the cutset search could have been cached
        with pytest.raises(NetworkValidationError) as exc:
            call(net)
        assert exc.value.violations == [v for v in validate(net) if v.kind == "cycle"] != []


def test_is_polytree_answers_on_a_cycle_from_the_skeleton():
    check = is_polytree(_three_cycle())
    assert not check and set(check.cycle) == {"A", "B", "C"}
