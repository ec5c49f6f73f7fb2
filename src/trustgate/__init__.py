"""Compliance-enforcement middleware for knowledge-graph data exchange.

Stores graph data, evaluates agreement-driven access policies written in a
small SPARQL subset, maintains behavior/identity/credibility trust scores,
and ships a benchmark harness for latency and score-trajectory experiments.
"""

from .store import (
    Graph,
    Term,
    Triple,
    TriplePattern,
    Var,
    iri,
    load_lines,
    plain,
    serialize_lines,
    typed,
)
from .query import BindingSet, eval_ask, eval_select, eval_update, parse
from .ontology import (
    DataCategoryRef,
    DuaRecord,
    PrincipalRef,
    bootstrap_vocabulary,
    read_dua,
    validate_instances,
    write_dua,
)
from .trust import AssessmentConfig, PenaltyConfig, TrustRecord, TrustRegistry
from .policy import (
    ComplianceResult,
    DataRequest,
    PolicyEngine,
    PolicyTemplate,
    register_builtin_policies,
)
from .middleware import (
    AccessDecision,
    DataResponse,
    ExchangeMiddleware,
    MiddlewareHTTPServer,
    ScoreUpdate,
    start_server,
)
from .synth import GeneratorSpec, demographics_manifest, generate_demographics, generate_patients
from .bench import LatencyReport, TrajectoryReport, emit_report, run_latency, run_trajectory

__version__ = "0.1.0"

__all__ = [
    "AccessDecision",
    "AssessmentConfig",
    "BindingSet",
    "ComplianceResult",
    "DataCategoryRef",
    "DataRequest",
    "DataResponse",
    "DuaRecord",
    "ExchangeMiddleware",
    "GeneratorSpec",
    "Graph",
    "LatencyReport",
    "MiddlewareHTTPServer",
    "PenaltyConfig",
    "PolicyEngine",
    "PolicyTemplate",
    "PrincipalRef",
    "ScoreUpdate",
    "Term",
    "TrajectoryReport",
    "Triple",
    "TriplePattern",
    "TrustRecord",
    "TrustRegistry",
    "Var",
    "bootstrap_vocabulary",
    "demographics_manifest",
    "emit_report",
    "eval_ask",
    "eval_select",
    "eval_update",
    "generate_demographics",
    "generate_patients",
    "iri",
    "load_lines",
    "parse",
    "plain",
    "read_dua",
    "register_builtin_policies",
    "run_latency",
    "run_trajectory",
    "serialize_lines",
    "start_server",
    "typed",
    "validate_instances",
    "write_dua",
]
