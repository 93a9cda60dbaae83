from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import netgen
from beliefnet import load_network

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# Property tests draw the same examples on every run, keep no example
# database and are sized to add a few seconds to the suite.
settings.register_profile("beliefnet", derandomize=True, database=None,
                          max_examples=300, deadline=None)
settings.load_profile("beliefnet")


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def serial_net():
    return load_network(FIXTURES / "serial.bn")


@pytest.fixture(scope="session")
def diverging_net():
    return load_network(FIXTURES / "diverging.bn")


@pytest.fixture(scope="session")
def converging_net():
    return load_network(FIXTURES / "converging.bn")


@pytest.fixture(scope="session")
def sprinkler_net():
    return load_network(FIXTURES / "sprinkler.bn")


@pytest.fixture(scope="session")
def loopy8_net():
    return load_network(FIXTURES / "loopy8.bn")


@pytest.fixture(scope="session")
def polytree_corpus():
    """500 random polytrees with evidence, shared across the suite."""
    rng = np.random.default_rng(20260819)
    corpus = []
    for _ in range(500):
        n = int(rng.integers(3, 11))
        net = netgen.random_polytree(rng, n)
        corpus.append((net, netgen.random_evidence(rng, net)))
    return corpus
