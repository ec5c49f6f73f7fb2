"""Compliance policies compiled to ASK queries plus the orchestration that
turns one data request into a full compliance verdict.

The recipient-side checks (agreement exists, category granted, purpose
permitted) decide the user's compliance and short-circuit on first failure.
The custodian-side checks (category actually held, property groups complete)
never deny a compliant request; they feed notices and credibility penalties.
"""

from __future__ import annotations

import json
import re
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import ontology as vocab
from .ontology import DataCategoryRef, PrincipalRef
from .query import QueryAst, compile_plan, eval_ask, parse
from .store import Graph, Term, iri
from .trust import DUA_VIOLATION, MISSING_CATEGORY, MISSING_PROPERTIES, NO_DUA_REQUEST


class PolicyError(Exception):
    pass


class SubstitutionError(PolicyError):
    pass


USER_SIDE = "user"
CUSTODIAN_SIDE = "custodian"

P_DUA_EXISTS = "dua-exists"
P_REQUESTED_DATA = "requested-data-in-dua"
P_CUSTODIAN_HAS_CATEGORY = "custodian-has-category"
P_PURPOSE_PERMITTED = "purpose-permitted"

POLICY_ORDER = (P_DUA_EXISTS, P_REQUESTED_DATA, P_CUSTODIAN_HAS_CATEGORY, P_PURPOSE_PERMITTED)

PENALTY_TARGET = {
    NO_DUA_REQUEST: USER_SIDE,
    DUA_VIOLATION: USER_SIDE,
    MISSING_CATEGORY: CUSTODIAN_SIDE,
    MISSING_PROPERTIES: CUSTODIAN_SIDE,
}


@dataclass(frozen=True)
class PolicyTemplate:
    id: str
    description: str
    query_template: str
    failure_penalty: Optional[str]
    side: str = USER_SIDE

    def placeholders(self) -> set[str]:
        return set(_PLACEHOLDER_RE.findall(self.query_template))


_PLACEHOLDER_RE = re.compile(r"\{([a-zA-Z]\w*)\}")

_DUA_EXISTS_TEMPLATE = """ASK{
   ?dataCustodian a syn:Organization .
   ?dataCustodian rdfs:label "{custodianLabel}"^^rdf:PlainLiteral .
   ?user a tst:User .
   ?user rdfs:label "{userLabel}"^^rdf:PlainLiteral .
   ?user syn:isAffiliatedWith ?organization .
   ?dua a dua:DataUsageAgreement .
   ?dua dua:hasRecipient ?organization .
   ?dua dua:hasDataCustodian ?dataCustodian .
}"""

_REQUESTED_DATA_TEMPLATE = """ASK{
   ?dataCustodian a syn:Organization .
   ?dataCustodian rdfs:label "{custodianLabel}"^^rdf:PlainLiteral .
   ?user a tst:User .
   ?user rdfs:label "{userLabel}"^^rdf:PlainLiteral .
   ?user syn:isAffiliatedWith ?organization .
   ?dua a dua:DataUsageAgreement .
   ?dua dua:hasRecipient ?organization .
   ?dua dua:hasDataCustodian ?dataCustodian .
   ?dua dua:requestedData {categoryIri} .
}"""

_CUSTODIAN_HAS_CATEGORY_TEMPLATE = """ASK {
  ?dataCustodian a syn:Organization .
  ?dataCustodian rdfs:label "{custodianLabel}"^^rdf:PlainLiteral .
  ?user a tst:User .
  ?user rdfs:label "{userLabel}"^^rdf:PlainLiteral .
  ?user syn:isAffiliatedWith ?org .
  ?dua a dua:DataUsageAgreement .
  ?dua dua:hasRecipient ?org .
  ?dua dua:hasDataCustodian ?dataCustodian .
  ?dua dua:requestedData ?requestedData.
  FILTER(STR(?requestedData) IN ( {categoryList} ))
}"""

_PURPOSE_PERMITTED_TEMPLATE = """ASK{
   ?dataCustodian a syn:Organization .
   ?dataCustodian rdfs:label "{custodianLabel}"^^rdf:PlainLiteral .
   ?user a tst:User .
   ?user rdfs:label "{userLabel}"^^rdf:PlainLiteral .
   ?user syn:isAffiliatedWith ?organization .
   ?dua a dua:DataUsageAgreement .
   ?dua dua:hasRecipient ?organization .
   ?dua dua:hasDataCustodian ?dataCustodian .
   ?dua dua:hasPermittedUseOrDisclosure {purposeIri} .
}"""


def register_builtin_policies() -> list[PolicyTemplate]:
    """The four built-in policies in evaluation order."""
    return [
        PolicyTemplate(
            id=P_DUA_EXISTS,
            description="an agreement exists between the user's organization and the custodian",
            query_template=_DUA_EXISTS_TEMPLATE,
            failure_penalty=NO_DUA_REQUEST,
            side=USER_SIDE,
        ),
        PolicyTemplate(
            id=P_REQUESTED_DATA,
            description="the requested data category is granted by the agreement",
            query_template=_REQUESTED_DATA_TEMPLATE,
            failure_penalty=DUA_VIOLATION,
            side=USER_SIDE,
        ),
        PolicyTemplate(
            id=P_CUSTODIAN_HAS_CATEGORY,
            description="the custodian holds a data category the agreement requests",
            query_template=_CUSTODIAN_HAS_CATEGORY_TEMPLATE,
            failure_penalty=MISSING_CATEGORY,
            side=CUSTODIAN_SIDE,
        ),
        PolicyTemplate(
            id=P_PURPOSE_PERMITTED,
            description="the request's purpose is a permitted use or disclosure of the agreement",
            query_template=_PURPOSE_PERMITTED_TEMPLATE,
            failure_penalty=DUA_VIOLATION,
            side=USER_SIDE,
        ),
    ]


def _check_label(value: str, name: str) -> str:
    if not value:
        raise SubstitutionError(f"placeholder {name} must not be empty")
    if any(c in value for c in '"\\\n\r'):
        raise SubstitutionError(f"placeholder {name} contains forbidden characters")
    return value


def render_term(iri_value: str, graph: Graph) -> str:
    compact = graph.compact(iri_value)
    return compact if compact is not None else f"<{iri_value}>"


def render_category(iri_value: str, graph: Graph) -> str:
    # categories are written the way the policy texts write them: the
    # (compacted) IRI tagged as a plain literal
    return f"{render_term(iri_value, graph)}^^rdf:PlainLiteral"


def render_category_list(iris: list[str], graph: Graph) -> str:
    return ", ".join(f"STR({render_term(value, graph)})" for value in iris)


def instantiate(template: PolicyTemplate, substitutions: dict[str, str]) -> str:
    """Fill every placeholder; unfilled or unknown placeholders are errors."""
    wanted = template.placeholders()
    missing = wanted - set(substitutions)
    if missing:
        raise SubstitutionError(f"missing substitutions: {sorted(missing)}")
    for name in wanted:
        _check_label(substitutions[name], name)
    text = _PLACEHOLDER_RE.sub(lambda m: substitutions[m.group(1)], template.query_template)
    leftover = _PLACEHOLDER_RE.findall(text)
    if leftover:
        raise SubstitutionError(f"unresolved placeholders: {leftover}")
    return text


@dataclass(frozen=True)
class DataRequest:
    """One user's request for a data category from a custodian, for a
    declared permitted use."""

    user: PrincipalRef
    custodian: str
    category: str
    purpose: str
    request_id: str = field(default_factory=lambda: uuid.uuid4().hex)
    timestamp: float = field(default_factory=time.time)

    def __post_init__(self):
        DataCategoryRef(self.category)
        if all(self.purpose != p.lexical for p in vocab.PERMITTED_USE_INDIVIDUALS):
            raise PolicyError(f"purpose is not a permitted-use individual: {self.purpose}")
        if self.user.kind != vocab.USER:
            raise PolicyError("requests are made by users")


@dataclass(frozen=True)
class ComplianceResult:
    """Per-policy outcomes in policy order; None means not evaluated.

    `compliant` is the conjunction of the recipient-side outcomes; the
    custodian-side outcome is reported separately and never denies.
    """

    per_policy: tuple[tuple[str, Optional[bool]], ...]
    compliant: bool
    custodian_has_data: Optional[bool]
    custodian_complete: Optional[bool]

    def outcome(self, policy_id: str) -> Optional[bool]:
        for pid, passed in self.per_policy:
            if pid == policy_id:
                return passed
        raise PolicyError(f"unknown policy id: {policy_id}")


def penalty_for(result: ComplianceResult) -> Optional[str]:
    """Map a compliance outcome to at most one penalty kind.

    Recipient-side failures penalize the user; a compliant request against a
    custodian that lacks the category or its properties penalizes the
    custodian. A fully clean outcome carries no penalty.
    """
    if result.outcome(P_DUA_EXISTS) is False:
        return NO_DUA_REQUEST
    if result.outcome(P_REQUESTED_DATA) is False:
        return DUA_VIOLATION
    if result.outcome(P_PURPOSE_PERMITTED) is False:
        return DUA_VIOLATION
    if result.custodian_has_data is False:
        return MISSING_CATEGORY
    if result.compliant and result.custodian_complete is False:
        return MISSING_PROPERTIES
    return None


def assemble_result(
    user_outcomes: list[tuple[str, Optional[bool]]],
    compliant: bool,
    has_data: Optional[bool],
    complete: Optional[bool],
) -> ComplianceResult:
    """Arrange per-policy outcomes in presentation order: the built-in four,
    then any deployment-loaded policies."""
    by_id = dict(user_outcomes)
    by_id[P_CUSTODIAN_HAS_CATEGORY] = has_data
    per_policy = [(pid, by_id.get(pid)) for pid in POLICY_ORDER]
    per_policy.extend(
        (pid, passed) for pid, passed in user_outcomes if pid not in POLICY_ORDER
    )
    return ComplianceResult(
        per_policy=tuple(per_policy),
        compliant=compliant,
        custodian_has_data=has_data,
        custodian_complete=complete,
    )


def completeness_probe(graph: Graph, category: Term, sample_size: int = 25) -> bool:
    """True iff every declared property group of the category has at least
    one triple on at least one sampled instance.

    Samples the first `sample_size` instances in insertion order, so the
    probe's cost is independent of dataset size and its outcome reproducible.
    """
    groups = vocab.CATEGORY_PROPERTY_GROUPS.get(category, ())
    if not groups:
        return True
    instances = graph.first_subjects(vocab.RDF_TYPE, category, sample_size)
    if not instances:
        return False
    for prop in groups:
        if not any(graph.objects_for(instance, prop) for instance in instances):
            return False
    return True


class PolicyEngine:
    """Evaluates the policy set for requests against one graph."""

    def __init__(
        self,
        graph: Graph,
        templates: Optional[list[PolicyTemplate]] = None,
        completeness_sample: int = 25,
    ):
        self.graph = graph
        self.templates = {t.id: t for t in (templates or register_builtin_policies())}
        for builtin in POLICY_ORDER:
            if builtin not in self.templates:
                raise PolicyError(f"missing built-in policy: {builtin}")
        self.completeness_sample = completeness_sample
        # every per-query cache is keyed by value: the template id plus the
        # sorted substitutions, never by the id() of an AST that may be freed
        self._ast_cache: dict[tuple, QueryAst] = {}
        # join plans are stable while the graph's shape is; recompute when
        # its size drifts past 2x either way
        self._plan_cache: dict[tuple, tuple[list, int]] = {}
        # pure ASK/probe outcomes, fingerprinted by the mutation counters of
        # the predicates each query reads: mutations elsewhere cannot change
        # the outcome, so they stay cached across unrelated graph writes
        self._result_cache: dict[tuple, bool] = {}
        self._deps_cache: dict[tuple, Optional[tuple]] = {}
        self._label_cache: dict[str, str] = {}
        self._render_cache: dict[str, str] = {}

    def add_template(self, template: PolicyTemplate) -> None:
        self.templates[template.id] = template

    def _custodian_label(self, custodian_iri: str) -> str:
        label = self._label_cache.get(custodian_iri)
        if label is not None:
            return label
        for value in self.graph.objects_for(iri(custodian_iri), vocab.RDFS_LABEL):
            self._label_cache[custodian_iri] = value.lexical
            return value.lexical
        raise PolicyError(f"custodian has no label in the graph: {custodian_iri}")

    def _rendered(self, iri_value: str, category: bool = False) -> str:
        key = ("c:" if category else "t:") + iri_value
        text = self._render_cache.get(key)
        if text is None:
            text = (
                render_category(iri_value, self.graph)
                if category
                else render_term(iri_value, self.graph)
            )
            self._render_cache[key] = text
        return text

    def _ast(self, key: tuple, template: PolicyTemplate, substitutions: dict[str, str]) -> QueryAst:
        ast = self._ast_cache.get(key)
        if ast is None:
            ast = parse(instantiate(template, substitutions))
            if len(self._ast_cache) > 8192:
                self._ast_cache.clear()
                self._plan_cache.clear()
                self._deps_cache.clear()
            self._ast_cache[key] = ast
        return ast

    def _plan(self, key: tuple, ast: QueryAst) -> list:
        size = len(self.graph)
        cached = self._plan_cache.get(key)
        if cached is not None:
            plan, at_size = cached
            if size <= 2 * at_size and at_size <= 2 * size:
                return plan
        plan = compile_plan(ast, self.graph)
        self._plan_cache[key] = (plan, size)
        return plan

    def _dependencies(self, key: tuple, ast: QueryAst) -> Optional[tuple]:
        """Ground predicates the query reads, or None if any pattern has a
        variable predicate (then any mutation may affect it)."""
        if key in self._deps_cache:
            return self._deps_cache[key]
        preds = []
        for pattern in ast.bgp:
            if not isinstance(pattern.predicate, Term):
                preds = None
                break
            if pattern.predicate not in preds:
                preds.append(pattern.predicate)
        deps = self._deps_cache[key] = tuple(preds) if preds is not None else None
        return deps

    def _fingerprint(self, deps: Optional[tuple]):
        if deps is None:
            return self.graph.version
        return tuple(self.graph.predicate_version(p) for p in deps)

    def _ask(self, policy_id: str, substitutions: dict[str, str]) -> bool:
        query_key = (policy_id,) + tuple(sorted(substitutions.items()))
        ast = self._ast(query_key, self.templates[policy_id], substitutions)
        key = (query_key, self._fingerprint(self._dependencies(query_key, ast)))
        cached = self._result_cache.get(key)
        if cached is not None:
            return cached
        result = eval_ask(ast, self.graph, plan=self._plan(query_key, ast))
        if len(self._result_cache) > 8192:
            self._result_cache.clear()
        self._result_cache[key] = result
        return result

    def custodian_inventory(self, custodian_iri: str) -> list[str]:
        values = [
            o.lexical for o in self.graph.objects_for(iri(custodian_iri), vocab.HAS_DATA_CATEGORY)
        ]
        values.sort()
        return values

    def _extension_ids(self) -> list[str]:
        return sorted(
            pid
            for pid, template in self.templates.items()
            if pid not in POLICY_ORDER and template.side == USER_SIDE
        )

    def evaluate_user_policies(self, request: DataRequest) -> list[tuple[str, Optional[bool]]]:
        """Recipient-side checks in order, short-circuiting on first failure.

        Deployment-loaded user-side policies run after the built-in chain.
        """
        base = {
            "userLabel": request.user.label,
            "custodianLabel": self._custodian_label(request.custodian),
        }
        outcomes: list[tuple[str, Optional[bool]]] = []
        failed = False
        for policy_id in (P_DUA_EXISTS, P_REQUESTED_DATA, P_PURPOSE_PERMITTED) + tuple(
            self._extension_ids()
        ):
            if failed:
                outcomes.append((policy_id, None))
                continue
            substitutions = dict(base)
            wanted = self.templates[policy_id].placeholders()
            if "categoryIri" in wanted:
                substitutions["categoryIri"] = self._rendered(request.category, category=True)
            if "purposeIri" in wanted:
                substitutions["purposeIri"] = self._rendered(request.purpose)
            passed = self._ask(policy_id, substitutions)
            outcomes.append((policy_id, passed))
            failed = failed or not passed
        return outcomes

    def penalty_for(self, result: ComplianceResult) -> Optional[str]:
        """penalty_for extended with deployment-loaded policies: a failed
        extension maps to its declared penalty kind (agreement violation by
        default)."""
        builtin = penalty_for(result)
        if builtin is not None:
            return builtin
        for pid, passed in result.per_policy:
            if pid in POLICY_ORDER or passed is not False:
                continue
            template = self.templates.get(pid)
            if template is not None and template.failure_penalty:
                return template.failure_penalty
            return DUA_VIOLATION
        return None

    def evaluate_custodian(self, request: DataRequest) -> tuple[bool, Optional[bool]]:
        """Custodian-side checks: category held, then property completeness."""
        inventory = self.custodian_inventory(request.custodian)
        if not inventory:
            return False, None
        substitutions = {
            "userLabel": request.user.label,
            "custodianLabel": self._custodian_label(request.custodian),
            "categoryList": render_category_list(inventory, self.graph),
        }
        has_data = self._ask(P_CUSTODIAN_HAS_CATEGORY, substitutions)
        if not has_data:
            return False, None
        category = iri(request.category)
        probe_deps = (vocab.RDF_TYPE,) + vocab.CATEGORY_PROPERTY_GROUPS.get(category, ())
        probe_key = ("probe", request.category, self._fingerprint(probe_deps))
        complete = self._result_cache.get(probe_key)
        if complete is None:
            complete = completeness_probe(self.graph, category, self.completeness_sample)
            self._result_cache[probe_key] = complete
        return True, complete

    def evaluate(self, request: DataRequest) -> ComplianceResult:
        """Full verdict: recipient policies, then custodian checks when the
        recipient side is compliant."""
        user_outcomes = self.evaluate_user_policies(request)
        compliant = all(passed for _, passed in user_outcomes)
        has_data: Optional[bool] = None
        complete: Optional[bool] = None
        if compliant:
            has_data, complete = self.evaluate_custodian(request)
        return assemble_result(user_outcomes, compliant, has_data, complete)


_DUMMY_SUBSTITUTIONS = {
    "userLabel": "user_000",
    "custodianLabel": "DataCustodian",
    "categoryIri": "syn:Patient^^rdf:PlainLiteral",
    "categoryList": "STR(syn:Patient)",
    "purposeIri": "dua:PublicHealth",
}


_SCHEMA_NAMESPACES = (
    "http://example.org/contact-tracing#",
    "http://example.org/dua#",
    "http://example.org/trust#",
)


def _check_vocabulary(template_id: str, ast: QueryAst) -> None:
    # schema vocabulary a policy uses must be declared by the bootstrap:
    # predicates must be declared properties and rdf:type objects declared
    # classes; instance IRIs and literals are unconstrained
    declared = vocab.declared_iris()

    def check(term: Term, what: str) -> None:
        value = term.lexical
        if value.startswith(_SCHEMA_NAMESPACES) and value not in declared:
            raise PolicyError(f"{template_id}: undeclared {what} {value}")

    for pattern in ast.bgp:
        if isinstance(pattern.predicate, Term):
            check(pattern.predicate, "property")
            if pattern.predicate == vocab.RDF_TYPE and isinstance(pattern.object, Term):
                check(pattern.object, "class")


def load_policy_dir(path) -> list[PolicyTemplate]:
    """Load extension policies from a directory.

    Each policy is a `<id>.rq` query template with a `<id>.json` metadata
    sidecar carrying description, failure penalty, and side. Templates are
    smoke-instantiated at load so malformed or undeclared-vocabulary ones
    fail here, not at request time.
    """
    directory = Path(path)
    templates = []
    for query_file in sorted(directory.glob("*.rq")):
        sidecar = query_file.with_suffix(".json")
        if not sidecar.exists():
            raise PolicyError(f"missing metadata sidecar for {query_file.name}")
        meta = json.loads(sidecar.read_text())
        template = PolicyTemplate(
            id=meta.get("id", query_file.stem),
            description=meta.get("description", ""),
            query_template=query_file.read_text(),
            failure_penalty=meta.get("failure_penalty"),
            side=meta.get("side", USER_SIDE),
        )
        if template.failure_penalty is not None and template.failure_penalty not in PENALTY_TARGET:
            raise PolicyError(
                f"{template.id}: unknown failure penalty {template.failure_penalty!r}"
            )
        unknown = template.placeholders() - set(_DUMMY_SUBSTITUTIONS)
        if unknown:
            raise PolicyError(f"{template.id}: unknown placeholders {sorted(unknown)}")
        ast = parse(instantiate(template, {
            name: _DUMMY_SUBSTITUTIONS[name] for name in template.placeholders()
        }))
        _check_vocabulary(template.id, ast)
        templates.append(template)
    return templates
