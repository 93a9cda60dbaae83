"""Exact inference for discrete Bayesian networks.

The package offers three interchangeable engines: full enumeration of
the joint (the reference), two-phase message passing on singly
connected networks, and loop cutset conditioning for everything else.
Alongside the engines sit the structural tools they rest on
(d-separation, polytree detection, cutset selection), a query
classifier, a plain-text file format and a command line front end.
"""

from .errors import (
    BeliefNetError,
    ImpossibleEvidenceError,
    InvalidQueryError,
    MissingValueError,
    NetfileSyntaxError,
    NetworkTooLargeError,
    NetworkValidationError,
    NotAPathError,
    NotAPolytreeError,
)
from .model import (
    Assignment,
    BayesianNetwork,
    Belief,
    Cpt,
    Evidence,
    HardEvidence,
    SoftEvidence,
    Variable,
    Violation,
    evidence_weight,
    joint_probability,
    validate,
)
from .structure import (
    ConnectionKind,
    LoopCutset,
    PolytreeCheck,
    SeparationVerdict,
    classify_connection,
    d_separated,
    is_polytree,
    is_valid_cutset,
    select_cutset,
)
from .enumeration import (
    MAX_JOINT_STATES,
    evidence_probability,
    marginal_joint,
    most_probable_assignment,
    posterior,
    weighted_joint,
)
from .propagation import (
    MessageStore,
    fixed_point_delta,
    propagate,
)
from .cutset import (
    CutsetRun,
    conditioned_posterior,
    instantiation_weight,
    run_cutset_conditioning,
)
from .query import (
    InferResult,
    Method,
    QueryClass,
    QueryClassification,
    classify_query,
    infer,
)
from .netfile import load_network, parse_network, serialize_network

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BayesianNetwork",
    "Belief",
    "BeliefNetError",
    "ConnectionKind",
    "Cpt",
    "CutsetRun",
    "Evidence",
    "HardEvidence",
    "ImpossibleEvidenceError",
    "InferResult",
    "InvalidQueryError",
    "LoopCutset",
    "MAX_JOINT_STATES",
    "MessageStore",
    "Method",
    "MissingValueError",
    "NetfileSyntaxError",
    "NetworkTooLargeError",
    "NetworkValidationError",
    "NotAPathError",
    "NotAPolytreeError",
    "PolytreeCheck",
    "QueryClass",
    "QueryClassification",
    "SeparationVerdict",
    "SoftEvidence",
    "Variable",
    "Violation",
    "classify_connection",
    "classify_query",
    "conditioned_posterior",
    "d_separated",
    "evidence_probability",
    "evidence_weight",
    "fixed_point_delta",
    "infer",
    "instantiation_weight",
    "is_polytree",
    "is_valid_cutset",
    "joint_probability",
    "load_network",
    "marginal_joint",
    "most_probable_assignment",
    "parse_network",
    "posterior",
    "propagate",
    "run_cutset_conditioning",
    "select_cutset",
    "serialize_network",
    "validate",
    "weighted_joint",
]
