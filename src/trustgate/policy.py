"""Compliance policies compiled to ASK queries plus the orchestration that
turns one data request into a full compliance verdict.

The recipient-side checks (agreement exists, category granted, purpose
permitted) decide the user's compliance and short-circuit on first failure.
The custodian-side checks (category actually held, property groups complete)
never deny a compliant request; they feed notices and credibility penalties.
Each policy declares the penalty kind its failure carries; `trust` decides
who pays it.
"""

from __future__ import annotations

import json
import re
import time
import uuid
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Optional

from . import ontology as vocab
from .ontology import OntologyError, PrincipalRef
from .query import QueryAst, compile_plan, eval_ask, parse
from .store import Graph, Term, iri
from .trust import (
    DUA_VIOLATION,
    MISSING_CATEGORY,
    MISSING_PROPERTIES,
    NO_DUA_REQUEST,
    ORG_PENALTIES,
    USER_PENALTIES,
)


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

# the two stages `PolicyEngine.evaluate` times
STAGE_POLICY = "recipientPolicyCheck"
STAGE_CREDIBILITY = "dataCredibilityCheck"

POLICY_ORDER = (P_DUA_EXISTS, P_REQUESTED_DATA, P_CUSTODIAN_HAS_CATEGORY, P_PURPOSE_PERMITTED)


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
        if all(self.category != c.lexical for c in vocab.DATA_CATEGORIES):
            raise OntologyError(f"undeclared data category: {self.category}")
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


def completeness_probe(graph: Graph, category: Term, sample_size: int = 25) -> bool:
    """True iff every declared property group of the category has at least
    one triple on at least one sampled instance.

    Samples the first `sample_size` instances in insertion order, so the
    probe's cost is independent of dataset size and its outcome reproducible.
    """
    groups = vocab.CATEGORY_PROPERTY_GROUPS.get(category, ())
    if not groups:
        return True
    instances = list(islice(graph.subjects_for(vocab.RDF_TYPE, category), sample_size))
    if not instances:
        return False
    for prop in groups:
        if not any(graph.objects_for(instance, prop) for instance in instances):
            return False
    return True


# entries past this many clear the whole table
_TABLE_LIMIT = 8192


class _Compiled:
    """One instantiated query (or the completeness probe, with no AST): the
    ground predicates it reads, the join plan made at its first evaluation,
    and its last (fingerprint, outcome). Results never depend on the plan.

    The last outcome is one tuple, so a racing reader never pairs one
    fingerprint with another's outcome; fingerprints only grow, so keeping
    only the last loses no hit.
    """

    __slots__ = ("ast", "deps", "plan", "last")

    def __init__(self, ast: Optional[QueryAst], deps: Optional[tuple]):
        self.ast = ast
        self.deps = deps
        self.plan: Optional[list] = None
        self.last: Optional[tuple] = None


def _dependencies(ast: QueryAst) -> Optional[tuple]:
    """Ground predicates the query reads, or None if any pattern has a
    variable predicate (then any mutation may affect it)."""
    preds = []
    for pattern in ast.bgp:
        if not isinstance(pattern.predicate, Term):
            return None
        if pattern.predicate not in preds:
            preds.append(pattern.predicate)
    return tuple(preds)


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
        extensions = sorted(
            pid
            for pid, template in self.templates.items()
            if pid not in POLICY_ORDER and template.side == USER_SIDE
        )
        # the recipient-side chain in order, each policy with whether its
        # query takes the request's category and its purpose
        self._user_chain = []
        for pid in (P_DUA_EXISTS, P_REQUESTED_DATA, P_PURPOSE_PERMITTED, *extensions):
            wanted = self.templates[pid].placeholders()
            self._user_chain.append((pid, "categoryIri" in wanted, "purposeIri" in wanted))
        # one entry per instantiated query, keyed by value: the template id
        # plus the request fields its placeholders take
        self._compiled: dict[tuple, _Compiled] = {}

    def _custodian_label(self, custodian_iri: str) -> str:
        for value in self.graph.objects_for(iri(custodian_iri), vocab.RDFS_LABEL):
            return value.lexical
        raise PolicyError(f"custodian has no label in the graph: {custodian_iri}")

    def _outcome(self, key: tuple, compile, run) -> bool:
        """`run(entry)` for the entry at `key`, which `compile()` builds on a
        miss; reused while the predicates the entry reads are unchanged."""
        entry = self._compiled.get(key)
        if entry is None:
            entry = compile()
            if len(self._compiled) >= _TABLE_LIMIT:
                self._compiled.clear()
            self._compiled[key] = entry
        deps = entry.deps
        graph = self.graph
        fingerprint = (
            graph.version if deps is None else tuple(graph.predicate_version(p) for p in deps)
        )
        last = entry.last
        if last is not None and last[0] == fingerprint:
            return last[1]
        outcome = run(entry)
        entry.last = (fingerprint, outcome)
        return outcome

    def _ask(self, key: tuple, request: DataRequest, inventory: tuple = ()) -> bool:
        """Outcome of the policy `key[0]` for the request; the query text is
        instantiated and parsed only when `key` has no entry yet."""
        def compile():
            template = self.templates[key[0]]
            wanted = template.placeholders()
            substitutions = {
                "userLabel": request.user.label,
                "custodianLabel": self._custodian_label(request.custodian),
            }
            # every IRI is written as <iri>; a category is tagged as a plain
            # literal, the way the policy texts write it
            if "categoryIri" in wanted:
                substitutions["categoryIri"] = f"<{request.category}>^^rdf:PlainLiteral"
            if "purposeIri" in wanted:
                substitutions["purposeIri"] = f"<{request.purpose}>"
            if inventory:
                substitutions["categoryList"] = ", ".join(f"STR(<{v}>)" for v in inventory)
            ast = parse(instantiate(template, substitutions))
            return _Compiled(ast, _dependencies(ast))

        return self._outcome(key, compile, self._run_ask)

    def _run_ask(self, entry: _Compiled) -> bool:
        if entry.plan is None:
            entry.plan = compile_plan(entry.ast, self.graph)
        return eval_ask(entry.ast, self.graph, plan=entry.plan)

    def custodian_inventory(self, custodian_iri: str) -> list[str]:
        values = [
            o.lexical for o in self.graph.objects_for(iri(custodian_iri), vocab.HAS_DATA_CATEGORY)
        ]
        values.sort()
        return values

    def evaluate_user_policies(self, request: DataRequest) -> list[tuple[str, Optional[bool]]]:
        """Recipient-side checks in order, short-circuiting on first failure.

        Deployment-loaded user-side policies run after the built-in chain.
        """
        outcomes: list[tuple[str, Optional[bool]]] = []
        failed = False
        for policy_id, by_category, by_purpose in self._user_chain:
            if failed:
                outcomes.append((policy_id, None))
                continue
            key = (
                policy_id,
                request.user.label,
                request.custodian,
                request.category if by_category else None,
                request.purpose if by_purpose else None,
            )
            passed = self._ask(key, request)
            outcomes.append((policy_id, passed))
            failed = failed or not passed
        return outcomes

    def penalty_for(self, result: ComplianceResult) -> Optional[str]:
        """The penalty kind an outcome carries, if any: the failed policy's
        declared one (an agreement violation when it declares none), else
        missing properties for a compliant request whose category is
        incomplete. Policies short-circuit, so at most one has failed."""
        for pid, passed in result.per_policy:
            if passed is False:
                return self.templates[pid].failure_penalty or DUA_VIOLATION
        if result.compliant and result.custodian_complete is False:
            return MISSING_PROPERTIES
        return None

    def evaluate_custodian(self, request: DataRequest) -> tuple[bool, Optional[bool]]:
        """Custodian-side checks: category held, then property completeness."""
        inventory = tuple(self.custodian_inventory(request.custodian))
        if not inventory:
            return False, None
        key = (P_CUSTODIAN_HAS_CATEGORY, request.user.label, request.custodian, inventory)
        if not self._ask(key, request, inventory):
            return False, None
        category = iri(request.category)
        deps = (vocab.RDF_TYPE,) + vocab.CATEGORY_PROPERTY_GROUPS.get(category, ())
        return True, self._outcome(
            ("probe", request.category),
            lambda: _Compiled(None, deps),
            lambda _: completeness_probe(self.graph, category, self.completeness_sample),
        )

    def evaluate(self, request: DataRequest, timings: Optional[dict] = None) -> ComplianceResult:
        """Full verdict: recipient policies, then custodian checks when the
        recipient side is compliant.

        `timings`, when given, receives the seconds spent on each side under
        the STAGE_POLICY and STAGE_CREDIBILITY names.
        """
        t0 = time.perf_counter()
        user_outcomes = self.evaluate_user_policies(request)
        t1 = time.perf_counter()
        compliant = all(passed for _, passed in user_outcomes)
        has_data: Optional[bool] = None
        complete: Optional[bool] = None
        if compliant:
            has_data, complete = self.evaluate_custodian(request)
        if timings is not None:
            timings[STAGE_POLICY] = t1 - t0
            timings[STAGE_CREDIBILITY] = time.perf_counter() - t1
        # presentation order: the built-in four, then deployment-loaded policies
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
        penalty = template.failure_penalty
        if penalty is not None and penalty not in USER_PENALTIES + ORG_PENALTIES:
            raise PolicyError(f"{template.id}: unknown failure penalty {penalty!r}")
        unknown = template.placeholders() - set(_DUMMY_SUBSTITUTIONS)
        if unknown:
            raise PolicyError(f"{template.id}: unknown placeholders {sorted(unknown)}")
        ast = parse(instantiate(template, {
            name: _DUMMY_SUBSTITUTIONS[name] for name in template.placeholders()
        }))
        _check_vocabulary(template.id, ast)
        templates.append(template)
    return templates
