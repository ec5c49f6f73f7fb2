"""Vocabulary for the three schemas (trust, usage agreements, contact
tracing), bootstrap of their declarations, and typed views of agreement
individuals.

The application schema's Data and Organization classes take precedence over
the agreement and trust schemas' versions, which the bootstrap does not
declare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from typing import Optional

from .store import (
    DUA_NS,
    RDF_NS,
    RDFS_NS,
    SYN_NS,
    TST_NS,
    XSD_FLOAT,
    Graph,
    Term,
    Triple,
    iri,
    plain,
    typed,
)

RDF_TYPE = iri(RDF_NS + "type")
RDF_PROPERTY = iri(RDF_NS + "Property")
RDFS_CLASS = iri(RDFS_NS + "Class")
RDFS_LABEL = iri(RDFS_NS + "label")
RDFS_SUBCLASS_OF = iri(RDFS_NS + "subClassOf")

# agreement schema
DUA_CLASS = iri(DUA_NS + "DataUsageAgreement")
TERM_AND_TERMINATION = iri(DUA_NS + "TermAndTermination")
DATA_SECURITY_PLAN = iri(DUA_NS + "DataSecurityPlan")
PERMITTED_USE_CLASS = iri(DUA_NS + "PermittedUseOrDisclosure")
HAS_RECIPIENT = iri(DUA_NS + "hasRecipient")
HAS_DATA_CUSTODIAN = iri(DUA_NS + "hasDataCustodian")
REQUESTED_DATA = iri(DUA_NS + "requestedData")
HAS_TERM_AND_TERMINATION = iri(DUA_NS + "hasTermAndTermination")
HAS_DATA_SECURITY_PLAN = iri(DUA_NS + "hasDataSecurityPlan")
HAS_PERMITTED_USE = iri(DUA_NS + "hasPermittedUseOrDisclosure")
DP_TERM = iri(DUA_NS + "term")
DP_TERMINATION_EFFECT = iri(DUA_NS + "terminationEffect")
DP_TERMINATION_CAUSE = iri(DUA_NS + "terminationCause")
DP_STORAGE = iri(DUA_NS + "storage")
DP_ACCESS = iri(DUA_NS + "access")
DP_PROTECTIONS = iri(DUA_NS + "protections")

IRB_APPROVED_RESEARCH = iri(DUA_NS + "IRBApprovedResearch")
PUBLIC_HEALTH = iri(DUA_NS + "PublicHealth")
HEALTH_CARE_OPERATION = iri(DUA_NS + "HealthCareOperation")
PERMITTED_USE_INDIVIDUALS = (IRB_APPROVED_RESEARCH, PUBLIC_HEALTH, HEALTH_CARE_OPERATION)

# trust schema
TST_USER = iri(TST_NS + "User")
BEHAVIOR_TRUST = iri(TST_NS + "behaviorTrust")
IDENTITY_TRUST = iri(TST_NS + "identityTrust")
CREDIBILITY = iri(TST_NS + "credibility")

# contact-tracing application schema
SYN_DATA = iri(SYN_NS + "Data")
SYN_ORGANIZATION = iri(SYN_NS + "Organization")
SYN_PATIENT = iri(SYN_NS + "Patient")
SYN_ENCOUNTER = iri(SYN_NS + "Encounter")
SYN_OBSERVATION = iri(SYN_NS + "Observation")
SYN_TEST_RESULT = iri(SYN_NS + "TestResult")
SYN_CONTACT_TRACING = iri(SYN_NS + "ContactTracing")
SYN_PRE_EXISTING_CONDITION = iri(SYN_NS + "PreExistingCondition")
SYN_SYMPTOM = iri(SYN_NS + "Symptom")
SYN_INTERVIEW = iri(SYN_NS + "Interview")
SYN_RISK_FACTOR = iri(SYN_NS + "RiskFactor")
SYN_LOCATING_INFORMATION = iri(SYN_NS + "LocatingInformation")

IS_AFFILIATED_WITH = iri(SYN_NS + "isAffiliatedWith")
HAS_DATA_CATEGORY = iri(SYN_NS + "hasDataCategory")

HAS_TEST_RESULT = iri(SYN_NS + "hasTestResult")
HAS_CONTACT_TRACING = iri(SYN_NS + "hasContactTracing")
HAS_PRE_EXISTING_CONDITION = iri(SYN_NS + "hasPreExistingCondition")
HAS_SYMPTOM = iri(SYN_NS + "hasSymptom")
HAS_INTERVIEW = iri(SYN_NS + "hasInterview")
HAS_RISK_FACTOR = iri(SYN_NS + "hasRiskFactor")
HAS_LOCATING_INFORMATION = iri(SYN_NS + "hasLocatingInformation")
HAS_ENCOUNTER = iri(SYN_NS + "hasEncounter")
HAS_OBSERVATION = iri(SYN_NS + "hasObservation")
ENCOUNTER_DATE = iri(SYN_NS + "encounterDate")
OBSERVATION_VALUE = iri(SYN_NS + "observationValue")

DATA_CATEGORIES = (
    SYN_PATIENT,
    SYN_ENCOUNTER,
    SYN_OBSERVATION,
    SYN_TEST_RESULT,
    SYN_CONTACT_TRACING,
    SYN_PRE_EXISTING_CONDITION,
    SYN_SYMPTOM,
    SYN_INTERVIEW,
    SYN_RISK_FACTOR,
    SYN_LOCATING_INFORMATION,
)

# patient record facets: one property per group, one triple per patient
PATIENT_FACETS = (
    HAS_TEST_RESULT,
    HAS_CONTACT_TRACING,
    HAS_PRE_EXISTING_CONDITION,
    HAS_SYMPTOM,
    HAS_INTERVIEW,
    HAS_RISK_FACTOR,
    HAS_LOCATING_INFORMATION,
    HAS_ENCOUNTER,
    HAS_OBSERVATION,
)

# property groups an instance of each retrievable category is expected to carry
CATEGORY_PROPERTY_GROUPS: dict[Term, tuple[Term, ...]] = {
    SYN_PATIENT: PATIENT_FACETS,
    SYN_ENCOUNTER: (ENCOUNTER_DATE,),
    SYN_OBSERVATION: (OBSERVATION_VALUE,),
}

_CLASSES = (
    DUA_CLASS,
    TERM_AND_TERMINATION,
    DATA_SECURITY_PLAN,
    PERMITTED_USE_CLASS,
    TST_USER,
    SYN_DATA,
    SYN_ORGANIZATION,
) + DATA_CATEGORIES

_PROPERTIES = (
    HAS_RECIPIENT,
    HAS_DATA_CUSTODIAN,
    REQUESTED_DATA,
    HAS_TERM_AND_TERMINATION,
    HAS_DATA_SECURITY_PLAN,
    HAS_PERMITTED_USE,
    DP_TERM,
    DP_TERMINATION_EFFECT,
    DP_TERMINATION_CAUSE,
    DP_STORAGE,
    DP_ACCESS,
    DP_PROTECTIONS,
    BEHAVIOR_TRUST,
    IDENTITY_TRUST,
    CREDIBILITY,
    IS_AFFILIATED_WITH,
    HAS_DATA_CATEGORY,
    ENCOUNTER_DATE,
    OBSERVATION_VALUE,
) + PATIENT_FACETS


class OntologyError(Exception):
    pass


class DuaNotFoundError(OntologyError):
    pass


class DuaIntegrityError(OntologyError):
    pass


def declared_iris() -> frozenset[str]:
    """Every schema IRI the bootstrap declares; policies may only reference
    these within the three schema namespaces."""
    return frozenset(
        t.lexical for t in _CLASSES + _PROPERTIES + PERMITTED_USE_INDIVIDUALS
    )


def bootstrap_vocabulary(graph: Graph) -> int:
    """Insert all class, property, and individual declarations; idempotent."""
    added = 0
    for cls in _CLASSES:
        added += graph.insert(Triple(cls, RDF_TYPE, RDFS_CLASS))
    for category in DATA_CATEGORIES:
        added += graph.insert(Triple(category, RDFS_SUBCLASS_OF, SYN_DATA))
    for prop in _PROPERTIES:
        added += graph.insert(Triple(prop, RDF_TYPE, RDF_PROPERTY))
    for individual in PERMITTED_USE_INDIVIDUALS:
        added += graph.insert(Triple(individual, RDF_TYPE, PERMITTED_USE_CLASS))
    return added


USER = "user"
ORGANIZATION = "organization"


@dataclass(frozen=True)
class PrincipalRef:
    """A user or organization participating in exchanges."""

    iri: str
    kind: str
    label: str = ""
    affiliation: Optional[str] = None

    def __post_init__(self):
        if self.kind not in (USER, ORGANIZATION):
            raise OntologyError(f"unknown principal kind: {self.kind!r}")
        if self.kind == ORGANIZATION and self.affiliation is not None:
            raise OntologyError("organizations carry no affiliation")


@dataclass(frozen=True)
class DataCategoryRef:
    """A data-category class declared by the bootstrapped vocabulary."""

    iri: str

    def __post_init__(self):
        if all(self.iri != c.lexical for c in DATA_CATEGORIES):
            raise OntologyError(f"undeclared data category: {self.iri}")

    def term(self) -> Term:
        return iri(self.iri)


@dataclass
class DuaRecord:
    """Typed view of one usage-agreement individual."""

    iri: str
    custodian: str
    recipient: str
    requested_data: frozenset[str] = frozenset()
    permitted_use: frozenset[str] = frozenset()
    term: str = ""
    termination_effect: str = ""
    termination_cause: str = ""
    storage: str = ""
    access: str = ""
    protections: str = ""
    warnings: list[str] = field(default_factory=list, compare=False)

    def __post_init__(self):
        self.requested_data = frozenset(self.requested_data)
        self.permitted_use = frozenset(self.permitted_use)

    def validate(self) -> None:
        if not self.custodian or not self.recipient:
            raise DuaIntegrityError(f"{self.iri}: custodian and recipient are required")
        if self.custodian == self.recipient:
            raise DuaIntegrityError(f"{self.iri}: custodian and recipient must differ")
        if not self.requested_data:
            raise DuaIntegrityError(f"{self.iri}: requested data categories must not be empty")

    def terms_node(self) -> str:
        return self.iri + "/terms"

    def plan_node(self) -> str:
        return self.iri + "/securityPlan"


def write_dua(graph: Graph, record: DuaRecord) -> int:
    """Replace all triples rooted at the record's IRI with the record's view.

    The record is validated first, and an IRI already typed as anything but
    an agreement is refused; either failure leaves the graph untouched.
    Returns the number of triples written.
    """
    record.validate()
    subject = iri(record.iri)
    if any(t != DUA_CLASS for t in graph.objects_for(subject, RDF_TYPE)):
        raise OntologyError(f"{record.iri} is not an agreement")
    old_children = [
        obj
        for prop in (HAS_TERM_AND_TERMINATION, HAS_DATA_SECURITY_PLAN)
        for obj in graph.objects_for(subject, prop)
    ]
    victims = []
    for root in [subject] + old_children:
        if root.kind != "iri":
            continue
        for s, p, o in list(graph.iter_terms(root, None, None)):
            victims.append(Triple(s, p, o))

    # every new triple is built, and its terms checked, before the old ones go
    fresh: list[Triple] = []

    def put(s, p, o):
        fresh.append(Triple(s, p, o))

    put(subject, RDF_TYPE, DUA_CLASS)
    put(subject, HAS_DATA_CUSTODIAN, iri(record.custodian))
    put(subject, HAS_RECIPIENT, iri(record.recipient))
    for category in sorted(record.requested_data):
        # requested-data objects are stored as plain literals of the absolute
        # category IRI, matching how the policy texts write them
        put(subject, REQUESTED_DATA, plain(category))
    for purpose in sorted(record.permitted_use):
        put(subject, HAS_PERMITTED_USE, iri(purpose))
    if record.term or record.termination_effect or record.termination_cause:
        node = iri(record.terms_node())
        put(subject, HAS_TERM_AND_TERMINATION, node)
        put(node, RDF_TYPE, TERM_AND_TERMINATION)
        if record.term:
            put(node, DP_TERM, plain(record.term))
        if record.termination_effect:
            put(node, DP_TERMINATION_EFFECT, plain(record.termination_effect))
        if record.termination_cause:
            put(node, DP_TERMINATION_CAUSE, plain(record.termination_cause))
    if record.storage or record.access or record.protections:
        node = iri(record.plan_node())
        put(subject, HAS_DATA_SECURITY_PLAN, node)
        put(node, RDF_TYPE, DATA_SECURITY_PLAN)
        if record.storage:
            put(node, DP_STORAGE, plain(record.storage))
        if record.access:
            put(node, DP_ACCESS, plain(record.access))
        if record.protections:
            put(node, DP_PROTECTIONS, plain(record.protections))
    for t in victims:
        graph.remove(t)
    return graph.add_all(fresh)


def _single_object(graph: Graph, subject: Term, prop: Term, warnings: list[str], what: str) -> str:
    values = sorted((o for o in graph.objects_for(subject, prop)), key=Term.sort_key)
    if not values:
        warnings.append(f"missing {what}")
        return ""
    if len(values) > 1:
        warnings.append(f"multiple values for {what}; using the first")
    return values[0].lexical


def read_dua(graph: Graph, dua_iri: str) -> DuaRecord:
    """Materialize a DuaRecord from the graph.

    Raises DuaNotFoundError if the IRI is not typed as an agreement, and
    DuaIntegrityError if custodian and recipient coincide.
    """
    subject = iri(dua_iri)
    if not graph.contains_spo(subject, RDF_TYPE, DUA_CLASS):
        raise DuaNotFoundError(f"{dua_iri} is not a usage agreement in this graph")
    warnings: list[str] = []
    custodian = _single_object(graph, subject, HAS_DATA_CUSTODIAN, warnings, "data custodian")
    recipient = _single_object(graph, subject, HAS_RECIPIENT, warnings, "recipient")
    if custodian and custodian == recipient:
        raise DuaIntegrityError(f"{dua_iri}: custodian and recipient coincide")
    requested = frozenset(o.lexical for o in graph.objects_for(subject, REQUESTED_DATA))
    permitted = frozenset(o.lexical for o in graph.objects_for(subject, HAS_PERMITTED_USE))

    sections = {"term": "", "termination_effect": "", "termination_cause": "",
                "storage": "", "access": "", "protections": ""}
    terms_nodes = list(graph.objects_for(subject, HAS_TERM_AND_TERMINATION))
    if terms_nodes:
        node = terms_nodes[0]
        for key, prop in (("term", DP_TERM), ("termination_effect", DP_TERMINATION_EFFECT),
                          ("termination_cause", DP_TERMINATION_CAUSE)):
            for o in graph.objects_for(node, prop):
                sections[key] = o.lexical
                break
    else:
        warnings.append("missing term-and-termination section")
    plan_nodes = list(graph.objects_for(subject, HAS_DATA_SECURITY_PLAN))
    if plan_nodes:
        node = plan_nodes[0]
        for key, prop in (("storage", DP_STORAGE), ("access", DP_ACCESS),
                          ("protections", DP_PROTECTIONS)):
            for o in graph.objects_for(node, prop):
                sections[key] = o.lexical
                break
    else:
        warnings.append("missing data-security-plan section")

    return DuaRecord(
        iri=dua_iri,
        custodian=custodian,
        recipient=recipient,
        requested_data=requested,
        permitted_use=permitted,
        warnings=warnings,
        **sections,
    )


@dataclass(frozen=True)
class Violation:
    iri: str
    rule: str
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations


_SCORE_PREDICATES = (BEHAVIOR_TRUST, IDENTITY_TRUST, CREDIBILITY)


def validate_instances(graph: Graph) -> ValidationReport:
    """Check instance data against the schema invariants.

    Violations are data, not errors: every user must have exactly one
    affiliation, every agreement a distinct custodian and recipient, and
    every trust-score literal must parse as a float in [0, 1].
    """
    report = ValidationReport()
    for user in graph.subjects_for(RDF_TYPE, TST_USER):
        count = len(graph.objects_for(user, IS_AFFILIATED_WITH))
        if count != 1:
            report.violations.append(
                Violation(user.lexical, "user-affiliation",
                          f"expected exactly one affiliation, found {count}")
            )
    for dua in graph.subjects_for(RDF_TYPE, DUA_CLASS):
        custodians = list(graph.objects_for(dua, HAS_DATA_CUSTODIAN))
        recipients = list(graph.objects_for(dua, HAS_RECIPIENT))
        if len(custodians) != 1 or len(recipients) != 1:
            report.violations.append(
                Violation(dua.lexical, "dua-parties",
                          "agreement needs exactly one custodian and one recipient")
            )
        elif custodians[0] == recipients[0]:
            report.violations.append(
                Violation(dua.lexical, "dua-parties", "custodian and recipient coincide")
            )
    for predicate in _SCORE_PREDICATES:
        for subject, _, obj in graph.iter_terms(None, predicate, None):
            ok = obj.kind == "typed-literal" and obj.datatype == XSD_FLOAT
            if ok:
                try:
                    value = Decimal(obj.lexical)
                    ok = Decimal(0) <= value <= Decimal(1)
                except InvalidOperation:
                    ok = False
            if not ok:
                report.violations.append(
                    Violation(subject.lexical, "score-range",
                              f"score literal {obj!r} is not a float in [0, 1]")
                )
    return report
