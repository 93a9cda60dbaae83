"""Evidence binding: what every engine multiplies in, and what it rejects."""

import tracemalloc

import numpy as np
import pytest

from beliefnet import (
    BayesianNetwork,
    Cpt,
    Evidence,
    HardEvidence,
    Method,
    NetworkValidationError,
    SoftEvidence,
    Variable,
    classify_query,
    conditioned_posterior,
    d_separated,
    evidence_weight,
    fixed_point_delta,
    infer,
    instantiation_weight,
    load_network,
    posterior,
    propagate,
    validate,
)
from beliefnet import model
from beliefnet.model import _bind_evidence


def test_evidence_weight_is_the_evidence_lambda():
    net = BayesianNetwork((Variable("A", ("a", "b", "c")),), (Cpt("A", (), [0.2, 0.3, 0.5]),))

    def lam(e):
        return [evidence_weight(net, e, {"A": s}) for s in range(3)]

    assert lam(Evidence.empty()) == [1.0, 1.0, 1.0]
    assert lam(Evidence({"A": HardEvidence(2)})) == [0.0, 0.0, 1.0]
    soft = SoftEvidence([0.5, 1.0, 0.25])
    assert lam(Evidence({"A": soft})) == [0.5, 1.0, 0.25]
    bound = _bind_evidence(net, Evidence({"A": HardEvidence(2)}))
    assert bound["A"].tolist() == [0.0, 0.0, 1.0]
    assert not bound["A"].flags.writeable
    assert _bind_evidence(net, Evidence({"A": soft}))["A"] is soft.likelihood


BAD_EVIDENCE = {
    "unknown-variable": Evidence({"Typo": HardEvidence(0)}),
    "hard-state-range": Evidence({"X": HardEvidence(2)}),
    "soft-length": Evidence({"X": SoftEvidence([0.5, 0.2, 0.3])}),
    # Not an ``Evidence`` at all: TypeError, where the others raise ValueError.
    "dict": {"X": HardEvidence(0)},
    "none": None,
}

ENGINES = {
    "posterior": lambda net, e: posterior(net, "Z", e),
    "propagate": lambda net, e: propagate(net, e),
    "fixed_point_delta": lambda net, e: fixed_point_delta(net, e, propagate(net)),
    "conditioned_posterior": lambda net, e: conditioned_posterior(net, "Z", e),
    "instantiation_weight": lambda net, e: instantiation_weight(net, {"Y": 0}, e),
    **{f"infer-{m.value}": (lambda net, e, m=m: infer(net, "Z", e, m)) for m in Method},
    "classify_query": lambda net, e: classify_query(net, "Z", e),
    "evidence_weight": lambda net, e: evidence_weight(net, e, {"X": 0, "Y": 0, "Z": 0}),
}


# ``d_separated`` reads no table, so a state's range and a likelihood's
# length are no concern of it; it rejects every other kind of bad evidence.
CHECKS = {**ENGINES, "d_separated": lambda net, e: d_separated(net, "X", "Z", e)}


@pytest.mark.parametrize("bad, engine", [
    *((bad, engine) for bad in BAD_EVIDENCE for engine in ENGINES),
    *((bad, "d_separated") for bad in ("unknown-variable", "dict", "none"))])
def test_every_engine_rejects_bad_evidence(serial_net, engine, bad):
    with pytest.raises(ValueError if isinstance(BAD_EVIDENCE[bad], Evidence) else TypeError):
        CHECKS[engine](serial_net, BAD_EVIDENCE[bad])


def test_a_numpy_integer_state_is_the_same_finding(serial_net):
    for k in range(2):
        for method in Method:
            plain = infer(serial_net, "Z", Evidence({"X": HardEvidence(k)}), method)
            typed = infer(serial_net, "Z", Evidence({"X": HardEvidence(np.int64(k))}), method)
            assert plain.belief.probabilities.tobytes() == typed.belief.probabilities.tobytes()
            assert plain.classification == typed.classification


def _xyz(parents, drop=()):
    """Binary X, Y, Z with the given parent tuples and uniform tables,
    leaving out the CPTs named in ``drop``."""
    vs = tuple(Variable(v, ("a", "b")) for v in "XYZ")
    cpts = tuple(Cpt(v, parents[v], np.full((2 ** len(parents[v]), 2), 0.5))
                 for v in "XYZ" if v not in drop)
    return BayesianNetwork(vs, cpts)


INVALID = {
    "missing-cpt": _xyz({"X": (), "Y": ("X",), "Z": ("Y",)}, drop=("Z",)),
    "two-node-cycle": _xyz({"X": (), "Y": ("X", "Z"), "Z": ("Y",)}),
    "loopy-cycle": _xyz({"X": ("Z",), "Y": ("X",), "Z": ("Y",)}),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("bad", INVALID)
def test_every_engine_rejects_an_invalid_network(engine, bad):
    net = INVALID[bad]
    with pytest.raises(NetworkValidationError) as exc:
        ENGINES[engine](net, Evidence({"X": HardEvidence(0)}))
    assert exc.value.violations == validate(net) != []


def test_a_network_is_validated_once(monkeypatch, fixture_dir):
    calls = []
    real = model._find_violations
    monkeypatch.setattr(model, "_find_violations", lambda net: calls.append(net) or real(net))
    net = load_network(fixture_dir / "sprinkler.bn")
    assert validate(net) == []
    e = Evidence({"X5": HardEvidence(0)})
    for method in (Method.AUTO, Method.ENUMERATION, Method.CUTSET):
        infer(net, "X1", e, method)
    assert calls == [net]


def test_a_finding_set_cannot_change_once_made():
    # A query's binding is kept by the identity of its ``Evidence``, so
    # the findings behind that identity must not change.
    weights = np.array([0.2, 0.7])
    hard, soft = HardEvidence(1), SoftEvidence(weights)
    given = {"X": hard, "Y": soft}
    e = Evidence(given)
    given["Z"] = HardEvidence(0)
    weights[0] = -1.0
    assert soft.likelihood.tolist() == [0.2, 0.7]
    with pytest.raises(TypeError):
        e.entries["X"] = HardEvidence(0)
    with pytest.raises(TypeError):
        del e.entries["X"]
    assert dict(e.entries) == {"X": hard, "Y": soft}
    assert len(e) == len(e.entries) == 2
    assert list(e) == list(e.entries) == ["X", "Y"]
    assert e.hard_states() == {"X": 1}


def _peak(call):
    """``call()`` and the most memory it held at once, by tracemalloc."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_an_indicator_takes_memory_linear_in_the_arity():
    # A hard finding's indicator, and a cut node's, is built from its state
    # alone: on a variable of 10**5 states it takes a few vectors of that
    # length, not an identity over them (10**10 floats, 80 GB).
    n = 10 ** 5
    b = np.random.default_rng(0).random((n, 2))
    net = BayesianNetwork(
        (Variable("A", tuple(map(str, range(n)))), Variable("B", ("t", "f"))),
        (Cpt("A", (), np.full(n, 1 / n)), Cpt("B", ("A",), b / b.sum(axis=1, keepdims=True))))
    e = Evidence({"A": HardEvidence(n - 1)})
    instantiation_weight(net, {"A": 0})  # validation and the compiled form
    bound, peak = _peak(lambda: _bind_evidence(net, e))
    assert peak <= 32 * n
    assert np.flatnonzero(bound["A"]).tolist() == [n - 1] and bound["A"][n - 1] == 1.0
    assert not bound["A"].flags.writeable
    w, peak = _peak(lambda: instantiation_weight(net, {"A": n - 1}))
    assert peak <= 64 * n and w == pytest.approx(1 / n, rel=1e-12)
    np.testing.assert_allclose(posterior(net, "B", e).probabilities,
                               net.cpt_tensor("B")[n - 1], rtol=1e-12)
