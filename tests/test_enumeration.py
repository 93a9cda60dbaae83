import itertools

import numpy as np
import pytest

import netgen
from beliefnet import (
    BayesianNetwork,
    Cpt,
    Evidence,
    HardEvidence,
    ImpossibleEvidenceError,
    InvalidQueryError,
    NetworkTooLargeError,
    SoftEvidence,
    Variable,
    evidence_probability,
    evidence_weight,
    infer,
    joint_probability,
    marginal_joint,
    most_probable_assignment,
    posterior,
    weighted_joint,
)
from beliefnet import enumeration


def test_weighted_joint_sums_to_one_without_evidence(serial_net, converging_net, loopy8_net):
    for net in (serial_net, converging_net, loopy8_net):
        assert float(weighted_joint(net).sum()) == pytest.approx(1.0, abs=1e-12)


def test_weighted_joint_matches_scalar_chain_rule(converging_net):
    # Cross-check every cell against an explicit per-assignment product.
    arr = weighted_joint(converging_net)
    e = Evidence({"Y": SoftEvidence([0.6, 0.3])})
    arr_e = weighted_joint(converging_net, e)
    for states in itertools.product(range(2), repeat=3):
        a = dict(zip(("X", "Z", "Y"), states))
        p = joint_probability(converging_net, a)
        assert arr[states] == pytest.approx(p, abs=1e-15)
        assert arr_e[states] == pytest.approx(p * evidence_weight(converging_net, e, a), abs=1e-15)


def test_posterior_chain_forward(serial_net):
    # 0.85*0.95 + 0.15*0.01 = 0.809
    b = posterior(serial_net, "Z", Evidence({"X": HardEvidence(0)}))
    assert b[0] == pytest.approx(0.809, abs=1e-12)
    assert b[1] == pytest.approx(0.191, abs=1e-12)


def test_posterior_priors_without_evidence(serial_net):
    assert posterior(serial_net, "Y")[0] == pytest.approx(0.768, abs=1e-12)
    assert posterior(serial_net, "Z")[0] == pytest.approx(0.73192, abs=1e-12)


def test_posterior_explaining_away(converging_net):
    # With the effect observed true, learning the other cause is true
    # drops the posterior of this cause: 0.7486 down to 0.5135.
    alone = posterior(converging_net, "X", Evidence({"Y": HardEvidence(0)}))
    both = posterior(converging_net, "X",
                     Evidence({"Y": HardEvidence(0), "Z": HardEvidence(0)}))
    assert alone[0] == pytest.approx(0.335 / 0.4475, abs=1e-12)
    assert both[0] == pytest.approx(0.095 / 0.185, abs=1e-12)
    assert both[0] < alone[0]


def test_posterior_with_soft_evidence(serial_net):
    e = Evidence({"Z": SoftEvidence([0.95, 0.01])})
    got = posterior(serial_net, "X", e)
    # direct computation against the scalar chain rule
    num = [0.0, 0.0]
    for states in itertools.product(range(2), repeat=3):
        a = dict(zip(("X", "Y", "Z"), states))
        num[states[0]] += joint_probability(serial_net, a) * evidence_weight(serial_net, e, a)
    assert got[0] == pytest.approx(num[0] / sum(num), abs=1e-12)


def test_posterior_rejects_hard_target(serial_net):
    with pytest.raises(InvalidQueryError):
        posterior(serial_net, "Z", Evidence({"Z": HardEvidence(0)}))


def test_marginal_joint_pair(serial_net):
    m = marginal_joint(serial_net, ["X", "Z"])
    expect = np.array([[0.7281, 0.1719], [0.00382, 0.09618]])
    assert np.allclose(m, expect, atol=1e-12)
    # requesting the reversed order transposes the table
    assert np.allclose(marginal_joint(serial_net, ["Z", "X"]), expect.T, atol=1e-12)


def test_marginal_joint_all_targets_is_the_joint(converging_net):
    m = marginal_joint(converging_net, ["X", "Z", "Y"])
    assert np.allclose(m, weighted_joint(converging_net), atol=1e-15)


def test_marginal_joint_argument_checks(serial_net):
    with pytest.raises(InvalidQueryError):
        marginal_joint(serial_net, [])
    with pytest.raises(InvalidQueryError):
        marginal_joint(serial_net, ["X", "X"])
    with pytest.raises(InvalidQueryError):
        marginal_joint(serial_net, ["X"], Evidence({"X": HardEvidence(0)}))


def test_most_probable_assignment(serial_net):
    a, p = most_probable_assignment(serial_net)
    assert a == {"X": 0, "Y": 0, "Z": 0}
    assert p == pytest.approx(0.72675, abs=1e-12)
    a, p = most_probable_assignment(serial_net, Evidence({"X": HardEvidence(1)}))
    assert a == {"X": 1, "Y": 1, "Z": 1}
    assert p == pytest.approx(0.1 * 0.97 * 0.99, abs=1e-12)


def test_most_probable_assignment_breaks_ties_lexicographically():
    net = BayesianNetwork(
        (Variable("A", ("a", "b")), Variable("B", ("a", "b"))),
        (Cpt("A", (), [0.5, 0.5]), Cpt("B", (), [0.5, 0.5])))
    a, p = most_probable_assignment(net)
    assert a == {"A": 0, "B": 0} and p == pytest.approx(0.25)


def _deterministic_chain():
    # B copies A exactly.
    return BayesianNetwork(
        (Variable("A", ("a", "b")), Variable("B", ("a", "b"))),
        (Cpt("A", (), [0.3, 0.7]), Cpt("B", ("A",), [[1.0, 0.0], [0.0, 1.0]])))


def test_most_probable_assignment_follows_hard_evidence():
    net = _deterministic_chain()
    a, p = most_probable_assignment(net, Evidence({"A": HardEvidence(0)}))
    assert a == {"A": 0, "B": 0}
    assert p == pytest.approx(0.3)


def test_impossible_evidence_raises():
    net = _deterministic_chain()
    e = Evidence({"A": HardEvidence(0), "B": HardEvidence(1)})
    assert evidence_probability(net, e) == 0.0
    with pytest.raises(ImpossibleEvidenceError):
        posterior(net, "B", Evidence({"A": HardEvidence(0), "B": SoftEvidence([0.0, 1.0])}))
    with pytest.raises(ImpossibleEvidenceError):
        most_probable_assignment(net, e)
    with pytest.raises(ImpossibleEvidenceError):
        marginal_joint(net, ["B"], Evidence({"B": SoftEvidence([0.0, 1.0]),
                                             "A": HardEvidence(0)}))


def test_evidence_probability(serial_net):
    assert evidence_probability(serial_net, Evidence({"X": HardEvidence(0)})) == pytest.approx(0.9)
    e = Evidence({"X": HardEvidence(0), "Z": HardEvidence(1)})
    assert evidence_probability(serial_net, e) == pytest.approx(0.9 * 0.191, abs=1e-12)


def test_size_guard():
    n = 23
    vs = tuple(Variable(f"V{i}", ("a", "b")) for i in range(n))
    cpts = tuple(Cpt(f"V{i}", (), [0.5, 0.5]) for i in range(n))
    net = BayesianNetwork(vs, cpts)
    with pytest.raises(NetworkTooLargeError):
        weighted_joint(net)
    with pytest.raises(NetworkTooLargeError):
        posterior(net, "V0")


def test_zero_weight_soft_evidence_on_the_target_keeps_every_state(loopy8_net):
    # A target's axis is never narrowed: its zero-weight state stays in
    # the answer as an exact zero.
    polytree = netgen.random_polytree(np.random.default_rng(5), 7, min_states=3, max_states=3)
    target, hard, soft = (v.id for v in polytree.variables[:3])
    queries = [(polytree, target, Evidence({target: SoftEvidence([0, 1, 2]), hard: HardEvidence(2),
                                            soft: SoftEvidence([1, 0, 0.5])}), ("bp", "cutset")),
               (loopy8_net, "C", Evidence({"C": SoftEvidence([0, 1, 2]), "H": HardEvidence(1),
                                           "A": SoftEvidence([0, 1])}), ("cutset",))]
    for net, target, e, methods in queries:
        answers = [posterior(net, target, e).probabilities, marginal_joint(net, [target], e),
                   infer(net, target, e, "enum").belief.probabilities]
        for got in answers:
            assert got.shape == (3,) and got[0] == 0.0 and got[1:].min() > 0
            for method in methods:
                want = infer(net, target, e, method).belief.probabilities
                assert np.max(np.abs(got - want)) <= 1e-12


def test_hard_findings_fix_their_axes(monkeypatch):
    # Ten hard findings on a 20-node chain leave 2**10 states to sum, not 2**20.
    n = 20
    vs = tuple(Variable(f"V{i}", ("a", "b")) for i in range(n))
    cpts = (Cpt("V0", (), [0.4, 0.6]),) + tuple(
        Cpt(f"V{i}", (f"V{i - 1}",), [[0.7, 0.3], [0.2, 0.8]]) for i in range(1, n))
    net = BayesianNetwork(vs, cpts)
    e = Evidence({f"V{i}": HardEvidence(i % 3 % 2) for i in range(1, n, 2)})
    sizes = []
    real = enumeration._joint

    def spy(*args):
        arr, kept = real(*args)
        sizes.append(arr.size)
        return arr, kept

    monkeypatch.setattr(enumeration, "_joint", spy)
    posterior(net, "V0", e)
    infer(net, "V4", e, "enum")
    evidence_probability(net, e)
    most_probable_assignment(net, e)
    assert weighted_joint(net, e).shape == (2,) * n
    assert sizes == [2 ** 10] * 5


def test_soft_findings_of_any_scale_answer_as_unscaled(serial_net):
    # Two likelihoods scaled by 1e-200 multiply to below the smallest
    # double, but a posterior does not depend on a likelihood's scale:
    # each is rescaled by a power of two before the joint is built.
    def soft(scale):
        return Evidence({"X": SoftEvidence(np.array([0.3, 0.7]) * scale),
                         "Z": SoftEvidence(np.array([0.9, 0.2]) * scale)})

    tiny, plain = soft(1e-200), soft(1.0)
    for answer in (lambda e: posterior(serial_net, "Y", e).probabilities,
                   lambda e: marginal_joint(serial_net, ["Z", "Y"], e),
                   lambda e: infer(serial_net, "Y", e, "enum").belief.probabilities):
        np.testing.assert_array_max_ulp(answer(tiny), answer(plain), maxulp=1)
    assert most_probable_assignment(serial_net, tiny) == most_probable_assignment(serial_net, plain)
    # The evidence's probability keeps its scale.
    quarter = soft(0.25)
    assert evidence_probability(serial_net, quarter) == evidence_probability(serial_net, plain) / 16
    assert np.array_equal(weighted_joint(serial_net, quarter), weighted_joint(serial_net, plain) / 16)
