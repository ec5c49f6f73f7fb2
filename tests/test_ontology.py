from itertools import combinations

import pytest

from trustgate.ontology import (
    DATA_CATEGORIES,
    DUA_CLASS,
    PERMITTED_USE_CLASS,
    PERMITTED_USE_INDIVIDUALS,
    PUBLIC_HEALTH,
    RDF_TYPE,
    RDFS_CLASS,
    SYN_ORGANIZATION,
    USER,
    DuaIntegrityError,
    DuaNotFoundError,
    DuaRecord,
    OntologyError,
    PrincipalRef,
    bootstrap_vocabulary,
    read_dua,
    validate_instances,
    write_dua,
)
from trustgate.policy import DataRequest
from trustgate.store import (
    DUA_NS,
    SYN_NS,
    TST_NS,
    XSD_FLOAT,
    Graph,
    Triple,
    TriplePattern,
    Var,
    iri,
    plain,
    typed,
)

from graph_match import match


class TestBootstrap:
    def test_declarations_present(self):
        g = Graph()
        added = bootstrap_vocabulary(g)
        assert added > 0
        assert Triple(DUA_CLASS, RDF_TYPE, RDFS_CLASS) in g

    def test_idempotent(self):
        g = Graph()
        bootstrap_vocabulary(g)
        assert bootstrap_vocabulary(g) == 0

    def test_exactly_three_permitted_use_individuals(self):
        g = Graph()
        bootstrap_vocabulary(g)
        got = match(g, TriplePattern(Var("x"), RDF_TYPE, PERMITTED_USE_CLASS))
        assert len(got) == 3
        assert {t.subject for t in got} == set(PERMITTED_USE_INDIVIDUALS)

    def test_order_independent(self):
        g1 = Graph()
        bootstrap_vocabulary(g1)
        g2 = Graph()
        bootstrap_vocabulary(g2)
        bootstrap_vocabulary(g2)
        assert g1.triples() == g2.triples()

    def test_superseded_classes_are_not_declared(self):
        g = Graph()
        bootstrap_vocabulary(g)
        assert Triple(SYN_ORGANIZATION, RDF_TYPE, RDFS_CLASS) in g
        for superseded in (DUA_NS + "Organization", DUA_NS + "Data",
                           TST_NS + "Organization", TST_NS + "Data"):
            assert Triple(iri(superseded), RDF_TYPE, RDFS_CLASS) not in g


class TestPrincipalRef:
    def test_org_cannot_have_affiliation(self):
        with pytest.raises(OntologyError):
            PrincipalRef(iri=SYN_NS + "org_01", kind="organization", affiliation=SYN_NS + "x")

    def test_unknown_kind_rejected(self):
        with pytest.raises(OntologyError):
            PrincipalRef(iri=SYN_NS + "x", kind="robot")



class TestDataCategoryRef:
    """A request names its data category; only the categories the
    bootstrapped vocabulary declares are accepted."""

    @staticmethod
    def request(category):
        user = PrincipalRef(iri=SYN_NS + "user_01", kind=USER, affiliation=SYN_NS + "org_01")
        return DataRequest(user=user, custodian=SYN_NS + "org_02", category=category,
                           purpose=PUBLIC_HEALTH.lexical)

    def test_undeclared_category_rejected(self):
        for category in DATA_CATEGORIES:
            assert self.request(category.lexical).category == category.lexical
        with pytest.raises(OntologyError, match="undeclared data category"):
            self.request(SYN_NS + "Starship")

def sample_dua(**overrides):
    fields = dict(
        iri=SYN_NS + "dua_01",
        custodian=SYN_NS + "org_custodian",
        recipient=SYN_NS + "org_01",
        requested_data={SYN_NS + "Patient", SYN_NS + "Encounter"},
        permitted_use={DUA_NS + "PublicHealth"},
        term="2 years",
        termination_effect="return or destroy data",
        termination_cause="breach of agreement",
        storage="encrypted at rest",
        access="role-based",
        protections="audit logging",
    )
    fields.update(overrides)
    return DuaRecord(**fields)


# each section's fields with the agreement-schema property that holds them
SECTION_FIELDS = {
    "term": "term",
    "termination_effect": "terminationEffect",
    "termination_cause": "terminationCause",
    "storage": "storage",
    "access": "access",
    "protections": "protections",
}
SECTIONS = {
    "term-and-termination": ("term", "termination_effect", "termination_cause"),
    "data-security-plan": ("storage", "access", "protections"),
}
SECTION_SUFFIXES = {"term-and-termination": "/terms", "data-security-plan": "/securityPlan"}


class TestDuaRoundTrip:
    def test_write_then_read_identical(self):
        g = Graph()
        bootstrap_vocabulary(g)
        record = sample_dua()
        written = write_dua(g, record)
        assert written > 0
        got = read_dua(g, record.iri)
        assert got == record
        assert got.warnings == []

    def test_requested_data_stored_as_plain_literals(self):
        g = Graph()
        record = sample_dua()
        write_dua(g, record)
        got = match(g, TriplePattern(iri(record.iri), iri(DUA_NS + "requestedData"), Var("o")))
        assert all(t.object.kind == "plain-literal" for t in got)
        assert {t.object.lexical for t in got} == set(record.requested_data)

    def test_rewrite_replaces_prior_triples(self):
        g = Graph()
        write_dua(g, sample_dua(requested_data={SYN_NS + "Encounter"}))
        write_dua(g, sample_dua(requested_data={SYN_NS + "Encounter", SYN_NS + "Patient"}))
        got = read_dua(g, SYN_NS + "dua_01")
        assert got.requested_data == frozenset({SYN_NS + "Encounter", SYN_NS + "Patient"})
        # no duplicated section nodes
        terms_nodes = match(
            g, TriplePattern(iri(SYN_NS + "dua_01"), iri(DUA_NS + "hasTermAndTermination"), Var("n"))
        )
        assert len(terms_nodes) == 1

    def test_custodian_equals_recipient_rejected_and_graph_untouched(self):
        g = Graph()
        before = g.triples()
        with pytest.raises(DuaIntegrityError):
            write_dua(g, sample_dua(recipient=SYN_NS + "org_custodian"))
        assert g.triples() == before

    def test_empty_requested_data_rejected(self):
        g = Graph()
        with pytest.raises(DuaIntegrityError):
            write_dua(g, sample_dua(requested_data=set()))

    def test_missing_security_plan_warns(self):
        g = Graph()
        write_dua(g, sample_dua(storage="", access="", protections=""))
        got = read_dua(g, SYN_NS + "dua_01")
        assert got.storage == ""
        assert any("security" in w for w in got.warnings)

    @pytest.mark.parametrize("chosen", [
        chosen for n in range(len(SECTION_FIELDS) + 1) for chosen in combinations(SECTION_FIELDS, n)
    ])
    def test_round_trip_over_every_subset_of_section_fields(self, chosen):
        g = Graph()
        record = sample_dua(**{name: "" for name in SECTION_FIELDS if name not in chosen})
        written = write_dua(g, record)
        got = read_dua(g, record.iri)
        assert got == record
        for name in chosen:
            section = next(s for s, fields in SECTIONS.items() if name in fields)
            node = iri(record.iri + SECTION_SUFFIXES[section])
            prop = iri(DUA_NS + SECTION_FIELDS[name])
            assert Triple(node, prop, plain(getattr(record, name))) in g
        present = [s for s, fields in SECTIONS.items() if any(f in chosen for f in fields)]
        assert got.warnings == [f"missing {s} section" for s in SECTIONS if s not in present]
        expected = 3 + len(record.requested_data) + len(record.permitted_use)
        expected += sum(2 + sum(f in chosen for f in SECTIONS[s]) for s in present)
        assert written == expected

    def test_non_dua_iri_not_found(self):
        g = Graph()
        with pytest.raises(DuaNotFoundError):
            read_dua(g, SYN_NS + "nothing_here")

    def test_read_side_integrity_error(self):
        # hand-assembled agreement whose custodian and recipient coincide
        g = Graph()
        dua = iri(SYN_NS + "dua_bad")
        org = iri(SYN_NS + "org_01")
        g.insert(Triple(dua, RDF_TYPE, DUA_CLASS))
        g.insert(Triple(dua, iri(DUA_NS + "hasDataCustodian"), org))
        g.insert(Triple(dua, iri(DUA_NS + "hasRecipient"), org))
        with pytest.raises(DuaIntegrityError):
            read_dua(g, SYN_NS + "dua_bad")


class TestValidateInstances:
    def base_graph(self):
        g = Graph()
        bootstrap_vocabulary(g)
        org = iri(SYN_NS + "org_01")
        user = iri(SYN_NS + "user_001")
        g.insert(Triple(org, RDF_TYPE, SYN_ORGANIZATION))
        g.insert(Triple(user, RDF_TYPE, iri(TST_NS + "User")))
        g.insert(Triple(user, iri(SYN_NS + "isAffiliatedWith"), org))
        write_dua(g, sample_dua())
        return g, user

    def test_clean_graph_has_empty_report(self):
        g, _ = self.base_graph()
        assert validate_instances(g).ok()

    def test_double_affiliation_flagged(self):
        g, user = self.base_graph()
        g.insert(Triple(user, iri(SYN_NS + "isAffiliatedWith"), iri(SYN_NS + "org_02")))
        report = validate_instances(g)
        assert [v.rule for v in report.violations] == ["user-affiliation"]

    def test_score_out_of_range_flagged(self):
        g, user = self.base_graph()
        g.insert(Triple(user, iri(TST_NS + "behaviorTrust"), typed("1.5", XSD_FLOAT)))
        report = validate_instances(g)
        assert [v.rule for v in report.violations] == ["score-range"]

    def test_score_bad_literal_kind_flagged(self):
        g, user = self.base_graph()
        g.insert(Triple(user, iri(TST_NS + "behaviorTrust"), plain("high")))
        report = validate_instances(g)
        assert [v.rule for v in report.violations] == ["score-range"]

    def test_dua_missing_party_flagged(self):
        g, _ = self.base_graph()
        dua = iri(SYN_NS + "dua_02")
        g.insert(Triple(dua, RDF_TYPE, DUA_CLASS))
        g.insert(Triple(dua, iri(DUA_NS + "hasRecipient"), iri(SYN_NS + "org_01")))
        report = validate_instances(g)
        assert [v.rule for v in report.violations] == ["dua-parties"]
