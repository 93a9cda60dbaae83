"""Evidence binding: what every engine multiplies in, and what it rejects."""

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


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("bad", BAD_EVIDENCE)
def test_every_engine_rejects_bad_evidence(serial_net, engine, bad):
    with pytest.raises(ValueError):
        ENGINES[engine](serial_net, BAD_EVIDENCE[bad])


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
