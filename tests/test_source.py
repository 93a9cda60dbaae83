"""Rules the library's source keeps."""

import ast
from pathlib import Path

import beliefnet

SOURCES = sorted(Path(beliefnet.__file__).parent.glob("*.py"))


def test_no_runtime_check_rests_on_assert():
    # ``python -O`` strips assert statements, so a check written as one
    # would silently stop running; the library raises instead.
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _callers(name):
    """The source files holding a call of ``name``, bare or as an attribute."""
    return {path.name for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}


def test_queries_reach_the_sweep_only_through_the_conditioning_driver():
    # Message passing is conditioning on the empty cutset: the pruned
    # schedule is built by the driver alone, and ``propagate`` is the
    # full-store API for callers outside the library.
    assert _callers("_toward") == {"cutset.py"}
    assert _callers("propagate") == set()


def test_classification_makes_no_per_node_separation_test():
    # One Bayes-ball pass from the target classifies a query; only the
    # ``dsep`` command asks whether two named nodes are d-separated.
    assert _callers("d_separated") == {"cli.py"}
    assert _callers("without") == set()
