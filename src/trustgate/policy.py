"""Compliance policies compiled to ASK queries plus the orchestration that
turns one data request into a full compliance verdict.

The recipient-side checks (agreement exists, category granted, purpose
permitted) decide the user's compliance and short-circuit on first failure.
The custodian-side checks (category actually held, property groups complete)
never deny a compliant request; they feed notices and credibility penalties.
Each policy declares the penalty kind its failure carries; `trust` decides
who pays it.

A policy's query is parsed once, its placeholders held as parameters that
each evaluation binds to the request's terms, so no request text ever
enters a query.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Optional

from . import ontology as vocab
from .ontology import OntologyError, PrincipalRef
from .query import PLACEHOLDER_RE, QueryAst, QueryError, compile_plan, eval_ask, parse
from .store import Graph, Term, Var, iri, plain
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


P_DUA_EXISTS = "dua-exists"
P_REQUESTED_DATA = "requested-data-in-dua"
P_CUSTODIAN_HAS_CATEGORY = "custodian-has-category"
P_PURPOSE_PERMITTED = "purpose-permitted"

# the two stages `PolicyEngine.evaluate` times
STAGE_POLICY = "recipientPolicyCheck"
STAGE_CREDIBILITY = "dataCredibilityCheck"

# instances of a category the completeness probe samples, unless configured
COMPLETENESS_SAMPLE = 25


@dataclass(frozen=True)
class PolicyTemplate:
    id: str
    query_template: str
    failure_penalty: Optional[str]

    def placeholders(self) -> set[str]:
        return set(PLACEHOLDER_RE.findall(self.query_template))


# the placeholders a user-side policy may hold, each written the one way
# `query.parse` takes it: a label as a whole string, the category (which
# binds to a plain literal, as the texts tag it) and the purpose (an IRI) as
# bare terms
_PARAMETERS = {
    "userLabel": "string",
    "custodianLabel": "string",
    "categoryIri": "term",
    "purposeIri": "term",
}

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
    return [PolicyTemplate(*row) for row in (
        # an agreement exists between the user's organization and the custodian
        (P_DUA_EXISTS, _DUA_EXISTS_TEMPLATE, NO_DUA_REQUEST),
        # the requested data category is granted by the agreement
        (P_REQUESTED_DATA, _REQUESTED_DATA_TEMPLATE, DUA_VIOLATION),
        # the custodian holds a data category the agreement requests
        (P_CUSTODIAN_HAS_CATEGORY, _CUSTODIAN_HAS_CATEGORY_TEMPLATE, MISSING_CATEGORY),
        # the request's purpose is a permitted use or disclosure of the agreement
        (P_PURPOSE_PERMITTED, _PURPOSE_PERMITTED_TEMPLATE, DUA_VIOLATION),
    )]


def _check_label(value: str, name: str) -> Term:
    """The label as the plain literal its parameter binds to; an empty one,
    or one with a quote, backslash or line break, is refused."""
    if not value:
        raise SubstitutionError(f"placeholder {name} must not be empty")
    if any(c in value for c in '"\\\n\r'):
        raise SubstitutionError(f"placeholder {name} contains forbidden characters")
    return plain(value)


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


def completeness_probe(graph: Graph, category: Term,
                       sample_size: int = COMPLETENESS_SAMPLE) -> bool:
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


class PolicyEngine:
    """Evaluates the four built-in policies, and the extension policies
    given, for requests against one graph."""

    def __init__(
        self,
        graph: Graph,
        extensions: Iterable[PolicyTemplate] = (),
        completeness_sample: int = COMPLETENESS_SAMPLE,
    ):
        self.graph = graph
        extensions = list(extensions)
        templates = register_builtin_policies() + extensions
        self.templates = {t.id: t for t in templates}
        if len(self.templates) != len(templates):
            raise PolicyError("policy ids must be unique; a built-in policy cannot be replaced")
        self.completeness_sample = completeness_sample
        # the recipient-side chain, extensions last
        self._user_chain = (P_DUA_EXISTS, P_REQUESTED_DATA, P_PURPOSE_PERMITTED,
                            *sorted(t.id for t in extensions))
        # each policy's query, parsed once, with the ground predicates it
        # reads (None when a predicate is a variable: then any write may
        # change its outcome); its plan is made at its first evaluation
        self._queries: dict[str, tuple[QueryAst, Optional[tuple]]] = {}
        for t in templates:
            ast = parse(t.query_template, {**_PARAMETERS, "categoryList": "list"}
                        if t.id == P_CUSTODIAN_HAS_CATEGORY else _PARAMETERS)
            reads = tuple(dict.fromkeys(pattern.predicate for pattern in ast.bgp))
            self._queries[t.id] = (ast, None if any(isinstance(p, Var) for p in reads) else reads)
        self._plans: dict[str, list] = {}
        # (policy id, *bound terms) -> (fingerprint, outcome). Keys are bounded
        # by the labels, categories, purposes and inventories requests bind.
        # The value is one tuple, so a racing reader never pairs one
        # fingerprint with another's outcome
        self._outcomes: dict[tuple, tuple] = {}

    def _custodian_label(self, custodian_iri: str) -> str:
        for value in self.graph.objects_for(iri(custodian_iri), vocab.RDFS_LABEL):
            return value.lexical
        raise PolicyError(f"custodian has no label in the graph: {custodian_iri}")

    def _ask(self, policy_id: str, terms: dict) -> bool:
        """Outcome of the policy with its parameters bound from `terms`,
        reused while the predicates its query reads are unchanged."""
        ast, reads = self._queries[policy_id]
        key = (policy_id, *map(terms.__getitem__, ast.parameters))
        graph = self.graph
        fingerprint = (
            graph.version if reads is None else tuple(map(graph.predicate_version, reads))
        )
        last = self._outcomes.get(key)
        if last is not None and last[0] == fingerprint:
            return last[1]
        plan = self._plans.get(policy_id)
        if plan is None:
            plan = self._plans[policy_id] = compile_plan(ast, graph, terms)
        outcome = eval_ask(ast, graph, plan, terms)
        self._outcomes[key] = (fingerprint, outcome)
        return outcome

    def evaluate_user_policies(self, request: DataRequest) -> list[tuple[str, Optional[bool]]]:
        """Recipient-side checks in order, short-circuiting on first failure.

        Deployment-loaded user-side policies run after the built-in chain.
        """
        custodian = self._custodian_label(request.custodian)
        terms = {
            "{userLabel}": _check_label(request.user.label, "userLabel"),
            "{custodianLabel}": _check_label(custodian, "custodianLabel"),
            "{categoryIri}": plain(request.category),
            "{purposeIri}": iri(request.purpose),
        }
        outcomes: list[tuple[str, Optional[bool]]] = []
        failed = False
        for policy_id in self._user_chain:
            if failed:
                outcomes.append((policy_id, None))
                continue
            passed = self._ask(policy_id, terms)
            outcomes.append((policy_id, passed))
            failed = not passed
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
        inventory = frozenset(
            self.graph.objects_for(iri(request.custodian), vocab.HAS_DATA_CATEGORY))
        if not inventory:
            return False, None
        terms = {
            "{userLabel}": plain(request.user.label),
            "{custodianLabel}": plain(self._custodian_label(request.custodian)),
            "{categoryList}": inventory,
        }
        if not self._ask(P_CUSTODIAN_HAS_CATEGORY, terms):
            return False, None
        return True, completeness_probe(self.graph, iri(request.category), self.completeness_sample)

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
        # presentation order: the built-in four, then the extensions
        return ComplianceResult(
            per_policy=(*user_outcomes[:2], (P_CUSTODIAN_HAS_CATEGORY, has_data),
                        *user_outcomes[2:]),
            compliant=compliant,
            custodian_has_data=has_data,
            custodian_complete=complete,
        )


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
    """Load extension policies from a directory: each a `<id>.rq` query
    template with a `<id>.json` sidecar, a JSON object. Extensions are
    recipient-side checks run beside the built-ins, never in their place.
    Templates are parsed at load so malformed or undeclared-vocabulary ones,
    and placeholders that are not whole terms, fail here, not at request time.
    """
    directory = Path(path)
    templates = []
    taken = {t.id for t in register_builtin_policies()}
    for query_file in sorted(directory.glob("*.rq")):
        sidecar = query_file.with_suffix(".json")
        if not sidecar.exists():
            raise PolicyError(f"missing metadata sidecar for {query_file.name}")
        try:
            meta = json.loads(sidecar.read_text())
        except ValueError as exc:
            raise PolicyError(f"{sidecar.name}: not JSON: {exc}") from None
        if not isinstance(meta, dict) or not isinstance(meta.get("id", ""), str):
            raise PolicyError(f"{sidecar.name}: the sidecar must be a JSON object, its id a string")
        template = PolicyTemplate(
            id=meta.get("id", query_file.stem),
            query_template=query_file.read_text(),
            failure_penalty=meta.get("failure_penalty"),
        )
        if template.id in taken:
            raise PolicyError(f"{template.id}: policy id already in use")
        taken.add(template.id)
        if meta.get("side", "user") != "user":
            raise PolicyError(f"{template.id}: extension policies are user-side checks")
        penalty = template.failure_penalty
        if penalty is not None and penalty not in USER_PENALTIES + ORG_PENALTIES:
            raise PolicyError(f"{template.id}: unknown failure penalty {penalty!r}")
        unknown = template.placeholders() - set(_PARAMETERS)
        if unknown:
            raise PolicyError(f"{template.id}: unknown placeholders {sorted(unknown)}")
        try:
            ast = parse(template.query_template, _PARAMETERS)
        except QueryError as exc:
            raise PolicyError(f"{query_file.name}: {exc}") from None
        _check_vocabulary(template.id, ast)
        templates.append(template)
    return templates
