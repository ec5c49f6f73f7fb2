"""Seeded generator for the validation universe: contact-tracing patient
records at arbitrary scale plus the organization/user/agreement demographics
the experiments run against.

Same seed, same spec: byte-identical serialization. Counts are exact, never
probabilistic; field values come from small fixed vocabularies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import ontology as vocab
from .ontology import DuaRecord, PrincipalRef, write_dua
from .store import SYN_NS, Graph, Term, Triple, iri, plain
from .trust import ONE, score_term

# the trust registry's own term for 1.0, so its projection rewrites find the
# generated score triples by identity
_SCORE_ONE = score_term(ONE)

_ROLES = ("physician", "nurse", "research_scientist", "epidemiologist", "pharmacist")

# the policy texts name these four users; they land in the first four
# organizations so every policy outcome is represented in the fixture
_NAMED_USERS = ("physician_105", "nurse_207", "nurse_629", "research_scientist_731")

_TEST_RESULTS = tuple(plain(v) for v in ("positive", "negative", "pending"))
_CONDITIONS = tuple(plain(v) for v in ("none", "diabetes", "asthma", "hypertension", "copd"))
_SYMPTOMS = tuple(plain(v) for v in ("fever", "cough", "fatigue", "loss-of-taste", "none"))
_RISK_FACTORS = tuple(
    plain(v) for v in ("none", "healthcare-worker", "elderly", "travel", "immunocompromised")
)
_CITIES = ("Riverton", "Lakeside", "Hillview", "Eastport", "Midvale")
_DATES = tuple(
    plain(f"2020-{mm:02d}-{dd:02d}") for mm in range(1, 13) for dd in (3, 9, 14, 21, 27)
)
_TEMPS = tuple(plain(f"temperature {t / 10:.1f}C") for t in range(362, 403, 2))

_TERMS = ("1 year", "2 years", "3 years", "5 years")
_TERMINATION_EFFECTS = ("return data", "destroy data")
_TERMINATION_CAUSES = ("breach of agreement", "term expiry")
_STORAGE = ("encrypted at rest", "on-premise vault")
_ACCESS = ("role-based", "need-to-know")
_PROTECTIONS = ("audit logging", "tls in transit")

DEFAULT_INVENTORY = (vocab.SYN_PATIENT, vocab.SYN_ENCOUNTER, vocab.SYN_OBSERVATION)


class SynthError(Exception):
    pass


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int = 1
    patient_count: int = 1000
    org_count: int = 10
    user_count: int = 100
    dua_count: int = 7
    patient_dua_count: int = 4
    public_health_dua_count: int = 2

    def __post_init__(self):
        if self.patient_count < 0 or self.user_count < 0:
            raise SynthError("counts must be non-negative")
        if not (
            self.public_health_dua_count
            <= self.patient_dua_count
            <= self.dua_count
            <= self.org_count
        ):
            raise SynthError(
                "need public-health <= patient-granting <= agreements <= organizations"
            )


@dataclass(frozen=True)
class OrgInfo:
    iri: str
    label: str
    dua_iri: Optional[str]
    categories: tuple[str, ...]
    purposes: tuple[str, ...]

    def ref(self) -> PrincipalRef:
        return PrincipalRef(iri=self.iri, kind=vocab.ORGANIZATION, label=self.label)


@dataclass(frozen=True)
class UserInfo:
    iri: str
    label: str
    org_iri: str

    def ref(self) -> PrincipalRef:
        return PrincipalRef(
            iri=self.iri, kind=vocab.USER, label=self.label, affiliation=self.org_iri
        )


@dataclass(frozen=True)
class DemographicsManifest:
    spec: GeneratorSpec
    custodian_iri: str
    custodian_label: str
    inventory: tuple[str, ...]
    orgs: tuple[OrgInfo, ...]
    users: tuple[UserInfo, ...]

    def org(self, org_iri: str) -> OrgInfo:
        for org in self.orgs:
            if org.iri == org_iri:
                return org
        raise SynthError(f"unknown organization: {org_iri}")

    def users_of(self, org_iri: str) -> list[UserInfo]:
        return [u for u in self.users if u.org_iri == org_iri]

    def custodian_ref(self) -> PrincipalRef:
        return PrincipalRef(
            iri=self.custodian_iri, kind=vocab.ORGANIZATION, label=self.custodian_label
        )

    def clean_requests(self) -> list[tuple[UserInfo, str, str]]:
        """Every (user, category, purpose) combination that passes all checks
        against a complete dataset: category granted by the agreement and
        held by the custodian."""
        out = []
        for org in self.orgs:
            if org.dua_iri is None:
                continue
            categories = [c for c in org.categories if c in self.inventory]
            for user in self.users_of(org.iri):
                for category in categories:
                    for purpose in org.purposes:
                        out.append((user, category, purpose))
        return out


def _dua_categories(index: int, spec: GeneratorSpec) -> tuple[str, ...]:
    patient = vocab.SYN_PATIENT.lexical
    encounter = vocab.SYN_ENCOUNTER.lexical
    observation = vocab.SYN_OBSERVATION.lexical
    if index < spec.patient_dua_count:
        if index == 0:
            return (patient, encounter, observation)
        if index == 1:
            return (patient, encounter)
        if index == 2:
            return (patient, observation)
        return (patient,)
    if index == spec.dua_count - 1:
        # the last agreement asks for a category the custodian does not hold
        return (vocab.SYN_SYMPTOM.lexical,)
    return (encounter,) if index % 2 == 0 else (observation,)


def _dua_purposes(index: int, spec: GeneratorSpec) -> tuple[str, ...]:
    if index < spec.public_health_dua_count:
        return (vocab.PUBLIC_HEALTH.lexical,)
    if index % 2 == 0:
        return (vocab.IRB_APPROVED_RESEARCH.lexical,)
    return (vocab.HEALTH_CARE_OPERATION.lexical,)


def demographics_manifest(spec: GeneratorSpec) -> DemographicsManifest:
    """Deterministic assignment of organizations, users, and agreements."""
    orgs = []
    for k in range(spec.org_count):
        org_iri = f"{SYN_NS}org_{k + 1:02d}"
        if k < spec.dua_count:
            dua_iri = f"{SYN_NS}dua_{k + 1:02d}"
            categories = _dua_categories(k, spec)
            purposes = _dua_purposes(k, spec)
        else:
            dua_iri, categories, purposes = None, (), ()
        orgs.append(
            OrgInfo(
                iri=org_iri,
                label=f"Organization_{k + 1:02d}",
                dua_iri=dua_iri,
                categories=categories,
                purposes=purposes,
            )
        )
    users = []
    for i in range(spec.user_count):
        org = orgs[i % spec.org_count]
        if i < len(_NAMED_USERS):
            label = _NAMED_USERS[i]
        else:
            role = _ROLES[i % len(_ROLES)]
            if f"{role}_{i + 1:03d}" in _NAMED_USERS:
                # the policies find a user by label, so no user may share a
                # named user's; generated numbers are unique, so one other
                # role is enough
                role = _ROLES[(i + 1) % len(_ROLES)]
            label = f"{role}_{i + 1:03d}"
        users.append(UserInfo(iri=f"{SYN_NS}user_{i + 1:03d}", label=label, org_iri=org.iri))
    return DemographicsManifest(
        spec=spec,
        custodian_iri=SYN_NS + "org_custodian",
        custodian_label="DataCustodian",
        inventory=tuple(c.lexical for c in DEFAULT_INVENTORY),
        orgs=tuple(orgs),
        users=tuple(users),
    )


def _org_triples(graph: Graph, org_iri: Term, label: str) -> None:
    graph.insert(Triple(org_iri, vocab.RDF_TYPE, vocab.SYN_ORGANIZATION))
    graph.insert(Triple(org_iri, vocab.RDFS_LABEL, plain(label)))
    graph.insert(Triple(org_iri, vocab.CREDIBILITY, _SCORE_ONE))
    graph.insert(Triple(org_iri, vocab.IDENTITY_TRUST, _SCORE_ONE))


def generate_demographics(spec: GeneratorSpec, into: Optional[Graph] = None) -> Graph:
    """Organizations, users, agreements, custodian inventory, and initial
    trust-score triples."""
    graph = into if into is not None else Graph()
    rng = random.Random(f"{spec.seed}:demographics")
    manifest = demographics_manifest(spec)

    custodian = iri(manifest.custodian_iri)
    _org_triples(graph, custodian, manifest.custodian_label)
    for category in manifest.inventory:
        graph.insert(Triple(custodian, vocab.HAS_DATA_CATEGORY, iri(category)))

    for org in manifest.orgs:
        _org_triples(graph, iri(org.iri), org.label)
        if org.dua_iri is not None:
            write_dua(
                graph,
                DuaRecord(
                    iri=org.dua_iri,
                    custodian=manifest.custodian_iri,
                    recipient=org.iri,
                    requested_data=frozenset(org.categories),
                    permitted_use=frozenset(org.purposes),
                    term=rng.choice(_TERMS),
                    termination_effect=rng.choice(_TERMINATION_EFFECTS),
                    termination_cause=rng.choice(_TERMINATION_CAUSES),
                    storage=rng.choice(_STORAGE),
                    access=rng.choice(_ACCESS),
                    protections=rng.choice(_PROTECTIONS),
                ),
            )

    for user in manifest.users:
        subject = iri(user.iri)
        graph.insert(Triple(subject, vocab.RDF_TYPE, vocab.TST_USER))
        graph.insert(Triple(subject, vocab.RDFS_LABEL, plain(user.label)))
        graph.insert(Triple(subject, vocab.IS_AFFILIATED_WITH, iri(user.org_iri)))
        graph.insert(Triple(subject, vocab.BEHAVIOR_TRUST, _SCORE_ONE))
        graph.insert(Triple(subject, vocab.IDENTITY_TRUST, _SCORE_ONE))
    return graph


def generate_patients(spec: GeneratorSpec, into: Optional[Graph] = None) -> Graph:
    """Patient records: one triple per facet group per patient, plus one
    encounter and one observation individual each."""
    graph = into if into is not None else Graph()
    rng = random.Random(f"{spec.seed}:patients")
    count = spec.patient_count
    insert = graph.insert
    choice = rng.choice
    randrange = rng.randrange
    for i in range(count):
        n = i + 1
        patient = iri(f"{SYN_NS}patient_{n:07d}")
        contact = iri(f"{SYN_NS}patient_{randrange(count) + 1:07d}")
        encounter = iri(f"{SYN_NS}encounter_{n:07d}")
        observation = iri(f"{SYN_NS}observation_{n:07d}")
        insert(Triple(patient, vocab.RDF_TYPE, vocab.SYN_PATIENT))
        insert(Triple(patient, vocab.HAS_TEST_RESULT, choice(_TEST_RESULTS)))
        insert(Triple(patient, vocab.HAS_CONTACT_TRACING, contact))
        insert(Triple(patient, vocab.HAS_PRE_EXISTING_CONDITION, choice(_CONDITIONS)))
        insert(Triple(patient, vocab.HAS_SYMPTOM, choice(_SYMPTOMS)))
        insert(Triple(patient, vocab.HAS_INTERVIEW, choice(_DATES)))
        insert(Triple(patient, vocab.HAS_RISK_FACTOR, choice(_RISK_FACTORS)))
        insert(
            Triple(
                patient,
                vocab.HAS_LOCATING_INFORMATION,
                plain(f"{choice(_CITIES)} / unit {randrange(1, 300)}"),
            )
        )
        insert(Triple(patient, vocab.HAS_ENCOUNTER, encounter))
        insert(Triple(encounter, vocab.RDF_TYPE, vocab.SYN_ENCOUNTER))
        insert(Triple(encounter, vocab.ENCOUNTER_DATE, choice(_DATES)))
        insert(Triple(patient, vocab.HAS_OBSERVATION, observation))
        insert(Triple(observation, vocab.RDF_TYPE, vocab.SYN_OBSERVATION))
        insert(Triple(observation, vocab.OBSERVATION_VALUE, choice(_TEMPS)))
    return graph


def strip_category(graph: Graph, category_iri: str, custodian_iri: str) -> int:
    """Make the custodian genuinely lack a category: drop the inventory claim
    and every instance of the category with its property-group triples."""
    removed = 0
    category = iri(category_iri)
    removed += graph.remove(Triple(iri(custodian_iri), vocab.HAS_DATA_CATEGORY, category))
    instances = list(graph.subjects_for(vocab.RDF_TYPE, category))
    for instance in instances:
        for s, p, o in list(graph.iter_terms(instance, None, None)):
            removed += graph.remove(Triple(s, p, o))
    return removed


def strip_properties(graph: Graph, category_iri: str) -> int:
    """Strip the declared property-group triples from every instance of the
    category, leaving the instances themselves in place."""
    category = iri(category_iri)
    groups = vocab.CATEGORY_PROPERTY_GROUPS.get(category, ())
    removed = 0
    instances = list(graph.subjects_for(vocab.RDF_TYPE, category))
    for instance in instances:
        for prop in groups:
            for obj in list(graph.objects_for(instance, prop)):
                removed += graph.remove(Triple(instance, prop, obj))
    return removed


def generate_dataset(
    spec: GeneratorSpec,
    into: Optional[Graph] = None,
    strip_categories: Iterable[str] = (),
    strip_property_categories: Iterable[str] = (),
) -> Graph:
    """Demographics plus patient corpus, with optional post-hoc stripping so
    one seed yields aligned complete and incomplete corpora."""
    graph = into if into is not None else Graph()
    generate_demographics(spec, into=graph)
    generate_patients(spec, into=graph)
    manifest = demographics_manifest(spec)
    for category in strip_categories:
        strip_category(graph, category, manifest.custodian_iri)
    for category in strip_property_categories:
        strip_properties(graph, category)
    return graph
