"""Command-line front end.

Subcommands::

    beliefnet validate <file>
    beliefnet query <file> --target X [--evidence V=s,...] [--soft V=w:w,...]
                    [--method auto|enum|bp|cutset] [--trace]
    beliefnet dsep <file> <x> <z> [--given A,B]
    beliefnet classify <file> --target X --evidence ... [--soft ...]
    beliefnet cutset <file>
    beliefnet joint <file> --assign X=s,Y=s,...

Results go to stdout, diagnostics and --trace messages to stderr.
Exit codes: 0 success, 1 domain error (impossible evidence, loopy
network where a polytree is required, bad query, invalid network under
``validate``), 2 usage or file problems (unreadable file, syntax
error, unknown names, or a broken network fed to any other command).

Probabilities print with six decimals; hard evidence names a state per
variable and soft evidence gives colon-separated weights, one per
state.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    BeliefNetError,
    NetfileSyntaxError,
    NetworkValidationError,
)
from .model import Evidence, HardEvidence, SoftEvidence
from .netfile import load_network
from .query import Method, classify_query, infer
from .structure import d_separated, select_cutset
from .model import joint_probability


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="beliefnet",
                                description="Exact inference on discrete Bayesian networks.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a network file")
    v.add_argument("file")

    q = sub.add_parser("query", help="posterior over one variable")
    q.add_argument("file")
    q.add_argument("--target", required=True)
    q.add_argument("--evidence", action="append", default=[],
                   help="hard evidence VAR=STATE, comma separated, repeatable")
    q.add_argument("--soft", action="append", default=[],
                   help="soft evidence VAR=w:w:..., one weight per state")
    q.add_argument("--method", choices=[m.value for m in Method], default="auto")
    q.add_argument("--trace", action="store_true",
                   help="print the answering run's message log to stderr")

    d = sub.add_parser("dsep", help="test d-separation between two variables")
    d.add_argument("file")
    d.add_argument("x")
    d.add_argument("z")
    d.add_argument("--given", default="", help="comma-separated observed variables")

    c = sub.add_parser("classify", help="name the direction of reasoning of a query")
    c.add_argument("file")
    c.add_argument("--target", required=True)
    c.add_argument("--evidence", action="append", default=[])
    c.add_argument("--soft", action="append", default=[])

    cu = sub.add_parser("cutset", help="show the selected loop cutset")
    cu.add_argument("file")

    j = sub.add_parser("joint", help="chain-rule probability of one full assignment")
    j.add_argument("file")
    j.add_argument("--assign", required=True, help="X=s,Y=s,... covering every variable")

    return p


def _split_pairs(chunks, what):
    for chunk in chunks:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            var, sep, value = item.partition("=")
            if not sep:
                raise _UsageError(f"bad {what} {item!r}, expected VAR=VALUE")
            yield var.strip(), value.strip()


def _parse_evidence(net, hard_chunks, soft_chunks) -> Evidence:
    entries = {}
    for var, state in _split_pairs(hard_chunks, "evidence"):
        if var not in net:
            raise _UsageError(f"unknown variable {var!r}")
        if var in entries:
            raise _UsageError(f"two evidence entries for {var!r}")
        try:
            entries[var] = HardEvidence(net.state_index(var, state))
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    for var, spec in _split_pairs(soft_chunks, "soft evidence"):
        if var not in net:
            raise _UsageError(f"unknown variable {var!r}")
        if var in entries:
            raise _UsageError(f"two evidence entries for {var!r}")
        try:
            weights = [float(w) for w in spec.split(":")]
        except ValueError:
            raise _UsageError(f"bad weights for {var!r}: {spec!r}") from None
        if len(weights) != net.arity(var):
            raise _UsageError(
                f"soft evidence for {var!r} needs {net.arity(var)} weights, got {len(weights)}")
        try:
            entries[var] = SoftEvidence(weights)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    return Evidence(entries)


def _require_var(net, name):
    if name not in net:
        raise _UsageError(f"unknown variable {name!r}")


def _cmd_validate(ns) -> int:
    try:
        load_network(ns.file)
    except NetworkValidationError as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
        return 1
    return 0


def _cmd_query(ns) -> int:
    net = load_network(ns.file)
    e = _parse_evidence(net, ns.evidence, ns.soft)
    _require_var(net, ns.target)
    result = infer(net, ns.target, e, Method(ns.method), trace=ns.trace)
    if ns.trace:
        for line in result.trace:
            print(line, file=sys.stderr)
    var = net.var(ns.target)
    for i, state in enumerate(var.states):
        # Engines agree to ~1e-16; rounding first keeps that from deciding a half-way last digit.
        print(f"P({var.id}={state}) = {round(result.belief[i], 12):.6f}")
    if result.classification is not None:
        print(f"class: {result.classification.kind.value}")
    print(f"method: {result.method.value}")
    return 0


def _cmd_dsep(ns) -> int:
    net = load_network(ns.file)
    _require_var(net, ns.x)
    _require_var(net, ns.z)
    entries = {}
    for name in ns.given.split(","):
        name = name.strip()
        if not name:
            continue
        _require_var(net, name)
        entries[name] = HardEvidence(0)
    verdict = d_separated(net, ns.x, ns.z, Evidence(entries))
    if verdict.separated:
        print("d-separated")
    else:
        print("d-connected: " + "-".join(verdict.active_path))
    return 0


def _cmd_classify(ns) -> int:
    net = load_network(ns.file)
    e = _parse_evidence(net, ns.evidence, ns.soft)
    _require_var(net, ns.target)
    print(classify_query(net, ns.target, e).kind.value)
    return 0


def _cmd_cutset(ns) -> int:
    net = load_network(ns.file)
    cut = select_cutset(net)
    if len(cut) == 0:
        print("polytree")
    else:
        print("cutset: " + ",".join(cut.nodes))
    return 0


def _cmd_joint(ns) -> int:
    net = load_network(ns.file)
    assignment = {}
    for var, state in _split_pairs([ns.assign], "assignment"):
        _require_var(net, var)
        try:
            assignment[var] = net.state_index(var, state)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
    print(f"{joint_probability(net, assignment):.6f}")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "query": _cmd_query,
    "dsep": _cmd_dsep,
    "classify": _cmd_classify,
    "cutset": _cmd_cutset,
    "joint": _cmd_joint,
}


def run(argv=None) -> int:
    """Parse arguments, run one subcommand, return the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[ns.command](ns)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NetfileSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NetworkValidationError as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BeliefNetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
