"""
Reading independence off the graph
==================================

d-separation answers "can this evidence move that belief" without
touching a single number in the tables.
"""

from pathlib import Path

from beliefnet import (
    Evidence,
    HardEvidence,
    classify_connection,
    d_separated,
    is_polytree,
    load_network,
    select_cutset,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

net = load_network(FIXTURES / "sprinkler.bn")
print("variables:", ", ".join(v.id for v in net.variables))
print("edges:", net.edges)

# the three elementary connections
print("X2-X1-X3 is", classify_connection(net, "X2", "X1", "X3").value)
print("X1-X2-X4 is", classify_connection(net, "X1", "X2", "X4").value)
print("X2-X4-X3 is", classify_connection(net, "X2", "X4", "X3").value)

# rain and sprinkler are dependent a priori (common cause, season)...
v = d_separated(net, "X2", "X3", Evidence.empty())
print("X2 vs X3, nothing observed:", "separated" if v.separated else f"active path {v.active_path}")

# ...independent once the season is known...
v = d_separated(net, "X2", "X3", Evidence({"X1": HardEvidence(0)}))
print("X2 vs X3 given X1:", "separated" if v.separated else "connected")

# ...and dependent again when the shared effect is seen (wet pavement)
v = d_separated(net, "X2", "X3", Evidence({"X1": HardEvidence(0), "X4": HardEvidence(0)}))
print("X2 vs X3 given X1 and X4:", "separated" if v.separated else f"active path {v.active_path}")

# the skeleton has a loop, so one-pass message passing is off the table
check = is_polytree(net)
print("polytree:", bool(check), "witness loop:", check.cycle)
print("chosen cutset:", select_cutset(net).nodes)

# the serial fixture by contrast is a clean chain
chain = load_network(FIXTURES / "serial.bn")
print("serial fixture is a polytree:", bool(is_polytree(chain)),
      "cutset:", select_cutset(chain).nodes)
