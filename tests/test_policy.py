import json
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from trustgate import ontology as vocab
from trustgate import policy as policy_module
from trustgate.ontology import (
    DuaRecord, OntologyError, PrincipalRef, bootstrap_vocabulary, write_dua,
)
from trustgate.policy import (
    P_CUSTODIAN_HAS_CATEGORY,
    P_DUA_EXISTS,
    P_PURPOSE_PERMITTED,
    P_REQUESTED_DATA,
    ComplianceResult,
    DataRequest,
    PolicyEngine,
    PolicyError,
    PolicyTemplate,
    SubstitutionError,
    completeness_probe,
    load_policy_dir,
    register_builtin_policies,
)
from trustgate.query import PLACEHOLDER_RE, ParseError, eval_ask, parse
from trustgate.store import SYN_NS, Graph, Triple, Var, iri, plain
from trustgate.synth import GeneratorSpec, demographics_manifest, generate_dataset
from trustgate.trust import (
    DUA_VIOLATION,
    MISSING_CATEGORY,
    MISSING_PROPERTIES,
    NO_DUA_REQUEST,
    ORG_PENALTIES,
    USER_PENALTIES,
)

DUA_EXISTENCE_POLICY = """ASK{
   ?dataCustodian a syn:Organization .
   ?dataCustodian rdfs:label "DataCustodian"^^rdf:PlainLiteral .
   ?user a tst:User .
   ?user rdfs:label "physician_105"^^rdf:PlainLiteral .
   ?user syn:isAffiliatedWith ?organization .
   ?dua a dua:DataUsageAgreement .
   ?dua dua:hasRecipient ?organization .
   ?dua dua:hasDataCustodian ?dataCustodian .
}"""

PUBLIC_HEALTH = vocab.PUBLIC_HEALTH.lexical
IRB = vocab.IRB_APPROVED_RESEARCH.lexical
HCO = vocab.HEALTH_CARE_OPERATION.lexical
PATIENT = SYN_NS + "Patient"
OBSERVATION = SYN_NS + "Observation"
SYMPTOM = SYN_NS + "Symptom"


def normalized(text):
    return " ".join(text.split())


def instantiate(template, substitutions):
    """The template's text with every placeholder filled in: the reference
    the engine's prepared queries are checked against."""
    wanted = template.placeholders()
    missing = wanted - set(substitutions)
    if missing:
        raise SubstitutionError(f"missing substitutions: {sorted(missing)}")
    return PLACEHOLDER_RE.sub(lambda m: substitutions[m.group(1)], template.query_template)


def bound(patterns, binding):
    """The patterns with each parameter replaced by its bound term."""
    return [tuple(binding.get(n.name, n) if isinstance(n, Var) else n for n in p)
            for p in patterns]


def request_for(manifest, user_index, category, purpose):
    user = manifest.users[user_index]
    return DataRequest(
        user=user.ref(),
        custodian=manifest.custodian_iri,
        category=category,
        purpose=purpose,
        request_id=f"req-{user_index}",
    )


class TestTemplates:
    def test_four_builtins_registered(self):
        templates = register_builtin_policies()
        assert [t.id for t in templates] == [
            P_DUA_EXISTS,
            P_REQUESTED_DATA,
            P_CUSTODIAN_HAS_CATEGORY,
            P_PURPOSE_PERMITTED,
        ]
        assert all(instantiate(t, {n: "x_1" for n in t.placeholders()}) for t in templates)
        # each is parsed once, when an engine is made
        queries = PolicyEngine(Graph())._queries
        assert [queries[t.id][0].form for t in templates] == ["ask"] * 4

    def test_p1_reproduces_dua_existence_policy(self):
        template = register_builtin_policies()[0]
        text = instantiate(
            template, {"userLabel": "physician_105", "custodianLabel": "DataCustodian"}
        )
        assert normalized(text) == normalized(DUA_EXISTENCE_POLICY)
        assert parse(text).bgp == parse(DUA_EXISTENCE_POLICY).bgp
        # the prepared query, with the request's labels bound, is the same query
        prepared, _ = PolicyEngine(Graph())._queries[P_DUA_EXISTS]
        assert prepared.parameters == ["{custodianLabel}", "{userLabel}"]
        binding = {"{userLabel}": plain("physician_105"),
                   "{custodianLabel}": plain("DataCustodian")}
        assert bound(prepared.bgp, binding) == bound(parse(DUA_EXISTENCE_POLICY).bgp, {})

    def test_p3_filter_arity_matches_inventory(self):
        template = register_builtin_policies()[2]
        text = instantiate(
            template,
            {
                "userLabel": "nurse_629",
                "custodianLabel": "DataCustodian",
                "categoryList": "STR(syn:Encounter), STR(syn:Observation), STR(syn:Patient)",
            },
        )
        ast = parse(text)
        assert len(ast.filters[0].rhs) == 3
        # prepared, the whole IN list is one parameter the inventory binds
        prepared, _ = PolicyEngine(Graph())._queries[P_CUSTODIAN_HAS_CATEGORY]
        assert prepared.filters[0].rhs == Var("{categoryList}")

    def test_empty_label_is_substitution_error(self, demo_graph, demo_manifest):
        request = request_for(demo_manifest, 0, PATIENT, PUBLIC_HEALTH)
        unlabeled = DataRequest(user=PrincipalRef(iri=request.user.iri, kind=vocab.USER),
                                custodian=request.custodian, category=PATIENT,
                                purpose=PUBLIC_HEALTH)
        with pytest.raises(SubstitutionError, match="userLabel must not be empty"):
            PolicyEngine(demo_graph).evaluate(unlabeled)

    def test_missing_placeholder_is_error(self, demo_graph):
        # a placeholder no request field fills is refused when the engine is made
        extension = PolicyTemplate(
            id="by-patient", failure_penalty=None,
            query_template='ASK{ ?user rdfs:label "{userLabel}" . ?user ?p {patientIri} . }',
        )
        with pytest.raises(ParseError, match="unknown placeholder {patientIri}"):
            PolicyEngine(demo_graph, extensions=[extension])

    @pytest.mark.parametrize("label", ['nurse"_1', "nurse\\_1", "nurse\n1"])
    def test_label_with_a_forbidden_character_is_refused(self, demo_graph, demo_manifest, label):
        request = request_for(demo_manifest, 0, PATIENT, PUBLIC_HEALTH)
        user = PrincipalRef(iri=request.user.iri, kind=vocab.USER, label=label)
        with pytest.raises(SubstitutionError, match="forbidden characters"):
            PolicyEngine(demo_graph).evaluate(DataRequest(
                user=user, custodian=request.custodian, category=PATIENT, purpose=PUBLIC_HEALTH))


class TestEvaluate:
    def test_clean_request_is_compliant(self, demo_graph, demo_manifest):
        engine = PolicyEngine(demo_graph)
        result = engine.evaluate(request_for(demo_manifest, 0, PATIENT, PUBLIC_HEALTH))
        assert result.compliant is True
        assert result.custodian_has_data is True
        assert result.custodian_complete is True
        assert engine.penalty_for(result) is None

    def test_no_dua_user_short_circuits(self, demo_graph, demo_manifest):
        engine = PolicyEngine(demo_graph)
        # user index 7 belongs to the eighth organization, which has no agreement
        result = engine.evaluate(request_for(demo_manifest, 7, PATIENT, PUBLIC_HEALTH))
        assert result.outcome(P_DUA_EXISTS) is False
        assert result.outcome(P_REQUESTED_DATA) is None
        assert result.outcome(P_CUSTODIAN_HAS_CATEGORY) is None
        assert result.outcome(P_PURPOSE_PERMITTED) is None
        assert result.compliant is False
        assert engine.penalty_for(result) == NO_DUA_REQUEST

    def test_category_outside_dua_fails_requested_data(self, demo_graph, demo_manifest):
        engine = PolicyEngine(demo_graph)
        # fifth organization's agreement grants Encounter only
        result = engine.evaluate(request_for(demo_manifest, 4, PATIENT, IRB))
        assert result.outcome(P_DUA_EXISTS) is True
        assert result.outcome(P_REQUESTED_DATA) is False
        assert result.compliant is False
        assert engine.penalty_for(result) == DUA_VIOLATION

    def test_wrong_purpose_fails_purpose_policy(self, demo_graph, demo_manifest):
        engine = PolicyEngine(demo_graph)
        # third organization's agreement grants Patient for IRB research only
        result = engine.evaluate(request_for(demo_manifest, 2, PATIENT, PUBLIC_HEALTH))
        assert result.outcome(P_REQUESTED_DATA) is True
        assert result.outcome(P_PURPOSE_PERMITTED) is False
        assert result.compliant is False
        assert engine.penalty_for(result) == DUA_VIOLATION

    def test_missing_category_does_not_deny(self, demo_graph, demo_manifest):
        engine = PolicyEngine(demo_graph)
        # seventh organization's agreement asks only for Symptom data, which
        # the custodian does not hold
        result = engine.evaluate(request_for(demo_manifest, 6, SYMPTOM, IRB))
        assert result.compliant is True
        assert result.custodian_has_data is False
        assert result.custodian_complete is None
        assert engine.penalty_for(result) == MISSING_CATEGORY

    def test_missing_properties_detected(self, stripped_graph, demo_manifest):
        engine = PolicyEngine(stripped_graph)
        # sixth organization's agreement grants Observation, whose property
        # group was stripped
        result = engine.evaluate(request_for(demo_manifest, 5, OBSERVATION, HCO))
        assert result.compliant is True
        assert result.custodian_has_data is True
        assert result.custodian_complete is False
        assert engine.penalty_for(result) == MISSING_PROPERTIES

    def test_evaluate_is_pure(self, demo_graph, demo_manifest):
        engine = PolicyEngine(demo_graph)
        request = request_for(demo_manifest, 0, PATIENT, PUBLIC_HEALTH)
        assert engine.evaluate(request) == engine.evaluate(request)

    def test_graph_growth_is_monotone(self, demo_graph, demo_manifest):
        engine = PolicyEngine(demo_graph)
        request = request_for(demo_manifest, 7, PATIENT, PUBLIC_HEALTH)
        before = engine.evaluate(request)
        assert before.compliant is False
        org = demo_manifest.users[7].org_iri
        write_dua(
            demo_graph,
            DuaRecord(
                iri=SYN_NS + "dua_extra",
                custodian=demo_manifest.custodian_iri,
                recipient=org,
                requested_data={PATIENT},
                permitted_use={PUBLIC_HEALTH},
            ),
        )
        engine = PolicyEngine(demo_graph)
        after = engine.evaluate(request)
        assert after.compliant is True
        for pid, passed in before.per_policy:
            if passed is True:
                assert after.outcome(pid) is True

    def test_verdict_survives_ast_cache_turnover(self, demo_graph, demo_manifest, monkeypatch):
        # once the outcome table is cleared, CPython may place a new object
        # at a freed one's address; model that deterministically by giving
        # every object one id, so any cache keyed on id() serves a stale
        # verdict
        monkeypatch.setattr(policy_module, "id", lambda obj: 0, raising=False)
        engine = PolicyEngine(demo_graph)
        granted = engine.evaluate(request_for(demo_manifest, 0, PATIENT, PUBLIC_HEALTH))
        assert granted.outcome(P_DUA_EXISTS) is True
        engine._outcomes.clear()
        # user index 7 belongs to the eighth organization, which has no agreement
        denied = engine.evaluate(request_for(demo_manifest, 7, PATIENT, PUBLIC_HEALTH))
        assert denied.outcome(P_DUA_EXISTS) is False
        assert engine.penalty_for(denied) == NO_DUA_REQUEST

    def test_one_engine_follows_agreement_and_inventory_writes(self, demo_graph, demo_manifest):
        engine = PolicyEngine(demo_graph)
        request = request_for(demo_manifest, 7, PATIENT, PUBLIC_HEALTH)
        assert engine.evaluate(request).outcome(P_DUA_EXISTS) is False
        write_dua(
            demo_graph,
            DuaRecord(
                iri=SYN_NS + "dua_extra",
                custodian=demo_manifest.custodian_iri,
                recipient=demo_manifest.users[7].org_iri,
                requested_data={PATIENT},
                permitted_use={PUBLIC_HEALTH},
            ),
        )
        granted = engine.evaluate(request)
        assert granted.outcome(P_DUA_EXISTS) is True
        assert granted.outcome(P_CUSTODIAN_HAS_CATEGORY) is True
        # the custodian stops holding the only category the agreement requests
        held = Triple(iri(demo_manifest.custodian_iri), vocab.HAS_DATA_CATEGORY, iri(PATIENT))
        assert demo_graph.remove(held)
        dropped = engine.evaluate(request)
        assert dropped.compliant is True
        assert dropped.outcome(P_CUSTODIAN_HAS_CATEGORY) is False
        assert engine.penalty_for(dropped) == MISSING_CATEGORY
        demo_graph.insert(held)
        assert engine.evaluate(request).outcome(P_CUSTODIAN_HAS_CATEGORY) is True

    def test_outcome_table_holds_one_entry_per_policy_and_bound_terms(self, demo_graph,
                                                                       demo_manifest):
        engine = PolicyEngine(demo_graph)
        for index in range(10):
            engine.evaluate(request_for(demo_manifest, index, PATIENT, PUBLIC_HEALTH))
        # one plan per policy evaluated, whichever request made it
        assert set(engine._plans) <= set(engine.templates)
        # a key is the policy id and the terms its query binds, in the order
        # the text first uses them
        custodian = plain(demo_manifest.custodian_label)
        user = plain(demo_manifest.users[0].label)
        assert (P_DUA_EXISTS, custodian, user) in engine._outcomes
        assert (P_REQUESTED_DATA, custodian, user, plain(PATIENT)) in engine._outcomes
        # the completeness probe keeps no entry
        assert all(key[0] in engine.templates for key in engine._outcomes)

    def test_shared_engine_under_thread_churn(self, demo_graph, demo_manifest):
        # readers share one outcome table that another thread keeps
        # clearing; every verdict must still be the one a fresh engine gives
        requests = [request_for(demo_manifest, i, PATIENT, PUBLIC_HEALTH) for i in range(10)]
        reference = PolicyEngine(demo_graph)
        expected = [reference.evaluate(request) for request in requests]
        engine = PolicyEngine(demo_graph)
        errors = []
        done = threading.Event()

        def worker(offset):
            try:
                for n in range(200):
                    i = (n + offset) % len(requests)
                    assert engine.evaluate(requests[i]) == expected[i]
            except AssertionError as exc:  # pragma: no cover
                errors.append(exc)

        def clearer():
            while not done.is_set():
                engine._outcomes.clear()
                engine._plans.clear()

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        churn = threading.Thread(target=clearer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            churn.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            done.set()
            churn.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_unlabeled_custodian_is_error(self, demo_manifest):
        engine = PolicyEngine(Graph())
        with pytest.raises(PolicyError):
            engine.evaluate(request_for(demo_manifest, 0, PATIENT, PUBLIC_HEALTH))


class TestPenaltyMapping:
    def outcome(self, p1, p2, p3, p4, compliant, has_data, complete):
        return ComplianceResult(
            per_policy=(
                (P_DUA_EXISTS, p1),
                (P_REQUESTED_DATA, p2),
                (P_CUSTODIAN_HAS_CATEGORY, p3),
                (P_PURPOSE_PERMITTED, p4),
            ),
            compliant=compliant,
            custodian_has_data=has_data,
            custodian_complete=complete,
        )

    def test_all_five_outcome_classes(self):
        penalty_for = PolicyEngine(Graph()).penalty_for
        assert penalty_for(self.outcome(False, None, None, None, False, None, None)) == NO_DUA_REQUEST
        assert penalty_for(self.outcome(True, False, None, None, False, None, None)) == DUA_VIOLATION
        assert penalty_for(self.outcome(True, True, None, False, False, None, None)) == DUA_VIOLATION
        assert penalty_for(self.outcome(True, True, False, True, True, False, None)) == MISSING_CATEGORY
        assert penalty_for(self.outcome(True, True, True, True, True, True, False)) == MISSING_PROPERTIES
        assert penalty_for(self.outcome(True, True, True, True, True, True, True)) is None

    def test_targets(self):
        assert NO_DUA_REQUEST in USER_PENALTIES
        assert DUA_VIOLATION in USER_PENALTIES
        assert MISSING_CATEGORY in ORG_PENALTIES
        assert MISSING_PROPERTIES in ORG_PENALTIES


class TestCompletenessProbe:
    def test_no_declared_groups_is_vacuously_complete(self):
        assert completeness_probe(Graph(), iri(SYN_NS + "Symptom")) is True

    def test_no_instances_is_incomplete(self):
        assert completeness_probe(Graph(), vocab.SYN_PATIENT) is False

    def test_sampling_is_capped(self, demo_graph):
        assert completeness_probe(demo_graph, vocab.SYN_PATIENT, sample_size=3) is True


class TestRequestValidation:
    def test_unknown_category_rejected(self, demo_manifest):
        with pytest.raises(OntologyError, match="undeclared data category"):
            request_for(demo_manifest, 0, SYN_NS + "Starship", PUBLIC_HEALTH)

    def test_unknown_purpose_rejected(self, demo_manifest):
        with pytest.raises(PolicyError):
            request_for(demo_manifest, 0, PATIENT, SYN_NS + "Fun")

    def test_declared_category_accepted(self, demo_manifest):
        assert request_for(demo_manifest, 0, PATIENT, PUBLIC_HEALTH).category == PATIENT


class TestPolicyDir:
    def test_load_policies_from_directory(self, tmp_path):
        (tmp_path / "clearance.rq").write_text(
            'ASK{\n   ?user rdfs:label "{userLabel}"^^rdf:PlainLiteral .\n}\n'
        )
        (tmp_path / "clearance.json").write_text(
            json.dumps({"id": "clearance", "description": "user is known", "side": "user"})
        )
        templates = load_policy_dir(tmp_path)
        assert [t.id for t in templates] == ["clearance"]

    def test_missing_sidecar_is_error(self, tmp_path):
        (tmp_path / "orphan.rq").write_text("ASK{}")
        with pytest.raises(PolicyError):
            load_policy_dir(tmp_path)

    def test_bad_template_fails_at_load(self, tmp_path):
        (tmp_path / "broken.rq").write_text("ASK{ ?x a }")
        (tmp_path / "broken.json").write_text(json.dumps({"id": "broken"}))
        with pytest.raises(Exception):
            load_policy_dir(tmp_path)

    def test_undeclared_vocabulary_rejected(self, tmp_path):
        (tmp_path / "rogue.rq").write_text("ASK{ ?x dua:hasSecretHandshake ?y . }")
        (tmp_path / "rogue.json").write_text(json.dumps({"id": "rogue"}))
        with pytest.raises(PolicyError) as exc:
            load_policy_dir(tmp_path)
        assert "undeclared" in str(exc.value)

    def test_unknown_penalty_kind_rejected(self, tmp_path):
        (tmp_path / "odd.rq").write_text("ASK{ ?x a tst:User . }")
        (tmp_path / "odd.json").write_text(
            json.dumps({"id": "odd", "failure_penalty": "walkThePlank"})
        )
        with pytest.raises(PolicyError):
            load_policy_dir(tmp_path)


    @staticmethod
    def write_policy(directory, stem, meta, query='ASK{ ?x a tst:User . }'):
        (directory / f"{stem}.rq").write_text(query)
        (directory / f"{stem}.json").write_text(meta if isinstance(meta, str) else json.dumps(meta))

    @pytest.mark.parametrize("policy_id", [
        P_DUA_EXISTS, P_REQUESTED_DATA, P_CUSTODIAN_HAS_CATEGORY, P_PURPOSE_PERMITTED,
    ])
    def test_sidecar_reusing_a_builtin_id_is_refused(self, tmp_path, policy_id):
        self.write_policy(tmp_path, "replacement", {"id": policy_id})
        with pytest.raises(PolicyError, match="already in use"):
            load_policy_dir(tmp_path)

    def test_two_sidecars_with_one_id_are_refused(self, tmp_path):
        self.write_policy(tmp_path, "first", {"id": "clearance"})
        self.write_policy(tmp_path, "second", {"id": "clearance"})
        with pytest.raises(PolicyError, match="already in use"):
            load_policy_dir(tmp_path)

    @pytest.mark.parametrize("side", ["custodian", "recipient", None])
    def test_side_other_than_user_is_refused(self, tmp_path, side):
        self.write_policy(tmp_path, "held", {"id": "held", "side": side})
        with pytest.raises(PolicyError, match="user-side"):
            load_policy_dir(tmp_path)

    def test_category_list_placeholder_is_refused(self, tmp_path):
        self.write_policy(
            tmp_path, "listed", {"id": "listed"},
            query="ASK{ ?x dua:requestedData ?c . FILTER(STR(?c) IN ( {categoryList} )) }",
        )
        with pytest.raises(PolicyError, match="unknown placeholders"):
            load_policy_dir(tmp_path)

    @pytest.mark.parametrize("meta", [
        '["clearance"]', '"clearance"', "3", "null", "{id: 1", '{"id": ["clearance"]}',
    ])
    def test_sidecar_that_is_not_a_json_object_is_refused(self, tmp_path, meta):
        self.write_policy(tmp_path, "clearance", meta)
        with pytest.raises(PolicyError, match="clearance.json"):
            load_policy_dir(tmp_path)

    def test_engine_refuses_an_extension_with_a_builtin_id(self, demo_graph):
        replacement = PolicyTemplate(
            id=P_REQUESTED_DATA, failure_penalty=None,
            query_template='ASK{ ?user rdfs:label "{userLabel}"^^rdf:PlainLiteral . }',
        )
        with pytest.raises(PolicyError, match="cannot be replaced"):
            PolicyEngine(demo_graph, extensions=[replacement])


class TestExtensionPolicies:
    def engine_with_extension(self, graph, tmp_path, failure_penalty=None):
        meta = {"id": "label-allowlist", "side": "user"}
        if failure_penalty:
            meta["failure_penalty"] = failure_penalty
        # an extension clause only the first organization's users satisfy
        (tmp_path / "label-allowlist.rq").write_text(
            "ASK{\n"
            '   ?user rdfs:label "{userLabel}"^^rdf:PlainLiteral .\n'
            "   ?user syn:isAffiliatedWith syn:org_01 .\n"
            "}\n"
        )
        (tmp_path / "label-allowlist.json").write_text(json.dumps(meta))
        return PolicyEngine(graph, load_policy_dir(tmp_path))

    def test_extension_participates_in_compliance(self, demo_graph, demo_manifest, tmp_path):
        engine = self.engine_with_extension(demo_graph, tmp_path)
        passing = engine.evaluate(request_for(demo_manifest, 0, PATIENT, PUBLIC_HEALTH))
        assert passing.outcome("label-allowlist") is True
        assert passing.compliant is True
        # second organization's users fail the extension clause
        failing = engine.evaluate(request_for(demo_manifest, 1, PATIENT, PUBLIC_HEALTH))
        assert failing.outcome("label-allowlist") is False
        assert failing.compliant is False
        assert engine.penalty_for(failing) == DUA_VIOLATION

    def test_extension_declared_penalty_wins(self, demo_graph, demo_manifest, tmp_path):
        engine = self.engine_with_extension(
            demo_graph, tmp_path, failure_penalty=NO_DUA_REQUEST
        )
        failing = engine.evaluate(request_for(demo_manifest, 1, PATIENT, PUBLIC_HEALTH))
        assert engine.penalty_for(failing) == NO_DUA_REQUEST


class TestPlaceholders:
    @pytest.mark.parametrize("query", [
        'ASK{ ?user rdfs:label "user {userLabel}" . }',
        'ASK{ ?user rdfs:label "{userLabel}{custodianLabel}" . }',
        'ASK{ <http://example.org/{userLabel}> a tst:User . }',
        'ASK{ ?user rdfs:label "{userLabel}"^^xsd:string . }',
        'ASK{ ?user rdfs:label {userLabel} . }',
        'ASK{ ?dua dua:requestedData "{categoryIri}" . }',
        'ASK{ ?dua dua:requestedData {categoryIri}^^rdf:PlainLiteral . }',
        'ASK{ ?dua dua:requestedData ?c . FILTER(STR(?c) = STR("x{categoryIri}")) }',
    ])
    def test_placeholder_that_is_not_a_whole_term_is_refused_at_load(self, tmp_path, query):
        TestPolicyDir.write_policy(tmp_path, "partial", {"id": "partial"}, query=query)
        # the refusal names the file it is about
        with pytest.raises(PolicyError, match="^partial.rq: line 1, column .*placeholder"):
            load_policy_dir(tmp_path)

    def test_whole_term_placeholders_load(self, tmp_path):
        TestPolicyDir.write_policy(
            tmp_path, "whole", {"id": "whole"},
            query='ASK{ ?user rdfs:label "{userLabel}" . ?dua dua:requestedData {categoryIri} .'
                  ' ?dua dua:hasPermittedUseOrDisclosure ?use . FILTER(?use IN ({purposeIri})) }',
        )
        assert [t.id for t in load_policy_dir(tmp_path)] == ["whole"]

    def test_query_without_parameters_takes_no_placeholder(self):
        with pytest.raises(ParseError):
            parse("ASK{ ?dua dua:requestedData {categoryIri} . }")
        # inside a string it is only text
        (pattern,) = parse('ASK{ ?user rdfs:label "{userLabel}" . }').bgp
        assert pattern.object == plain("{userLabel}")


# the property below runs its operations on this fixture's graph
_SPEC = GeneratorSpec(seed=11, patient_count=24)
_MANIFEST = demographics_manifest(_SPEC)
_CATEGORIES = [c.lexical for c in vocab.DATA_CATEGORIES]
_PURPOSES = [p.lexical for p in vocab.PERMITTED_USE_INDIVIDUALS]

# an extension whose outcome follows the custodian's inventory, with its
# parameters in a FILTER and a label written without a datatype
_HELD_CATEGORY = PolicyTemplate(
    id="held-category", failure_penalty=None, query_template="""ASK{
   ?custodian rdfs:label "{custodianLabel}" .
   ?custodian syn:hasDataCategory ?held .
   ?user rdfs:label "{userLabel}"^^rdf:PlainLiteral .
   FILTER(STR(?held) = STR({categoryIri}))
}""")

_USERS = st.one_of(
    st.sampled_from(_MANIFEST.users).map(lambda u: u.ref()),
    st.text("abcdefghijklmnopqrstuvwxyz_0123456789 ", min_size=1, max_size=12).map(
        lambda label: PrincipalRef(iri=SYN_NS + "user_unknown", kind=vocab.USER, label=label)),
)
_OPERATIONS = st.lists(st.one_of(
    st.tuples(st.just("request"), _USERS, st.sampled_from(_CATEGORIES),
              st.sampled_from(_PURPOSES)),
    st.tuples(st.just("agreement"), st.integers(0, 2), st.sampled_from(_MANIFEST.orgs),
              st.frozensets(st.sampled_from(_CATEGORIES), min_size=1),
              st.frozensets(st.sampled_from(_PURPOSES), min_size=1)),
    st.tuples(st.just("inventory"), st.sampled_from(_CATEGORIES), st.booleans()),
), min_size=1, max_size=25)


def reference_verdict(engine, request):
    """Per-policy outcomes and whether the custodian holds the data, each
    policy run from its instantiated text as the engine ran before it
    prepared its queries."""
    graph = engine.graph
    custodian = iri(request.custodian)
    (label,) = graph.objects_for(custodian, vocab.RDFS_LABEL)
    substitutions = {
        "userLabel": request.user.label,
        "custodianLabel": label.lexical,
        "categoryIri": f"<{request.category}>^^rdf:PlainLiteral",
        "purposeIri": f"<{request.purpose}>",
    }

    def ask(policy_id, **extra):
        text = instantiate(engine.templates[policy_id], {**substitutions, **extra})
        return eval_ask(parse(text), graph)

    outcomes = {}
    failed = False
    for policy_id in (P_DUA_EXISTS, P_REQUESTED_DATA, P_PURPOSE_PERMITTED, _HELD_CATEGORY.id):
        outcomes[policy_id] = None if failed else ask(policy_id)
        failed = failed or not outcomes[policy_id]
    held = None
    if not failed:
        inventory = sorted(o.lexical for o in graph.objects_for(custodian, vocab.HAS_DATA_CATEGORY))
        held = bool(inventory) and ask(P_CUSTODIAN_HAS_CATEGORY, categoryList=", ".join(
            f"STR(<{value}>)" for value in inventory))
    outcomes[P_CUSTODIAN_HAS_CATEGORY] = held
    return outcomes


class TestPreparedMatchesInstantiated:
    @settings(max_examples=150, deadline=None)
    @given(operations=_OPERATIONS)
    def test_prepared_outcome_equals_the_instantiated_texts(self, operations):
        graph = Graph()
        bootstrap_vocabulary(graph)
        generate_dataset(_SPEC, into=graph)
        engine = PolicyEngine(graph, [_HELD_CATEGORY])
        custodian = _MANIFEST.custodian_iri
        for operation in operations:
            kind = operation[0]
            if kind == "request":
                _, user, category, purpose = operation
                request = DataRequest(user=user, custodian=custodian, category=category,
                                      purpose=purpose)
                result = engine.evaluate(request)
                assert dict(result.per_policy) == reference_verdict(engine, request)
                assert result.custodian_has_data == result.outcome(P_CUSTODIAN_HAS_CATEGORY)
            elif kind == "agreement":
                # slot 0 rewrites the organization's own agreement, if it has one
                _, slot, org, requested, permitted = operation
                write_dua(graph, DuaRecord(
                    iri=(slot == 0 and org.dua_iri) or f"{SYN_NS}dua_drawn_{slot}",
                    custodian=custodian, recipient=org.iri,
                    requested_data=requested, permitted_use=permitted,
                ))
            else:
                _, category, held = operation
                triple = Triple(iri(custodian), vocab.HAS_DATA_CATEGORY, iri(category))
                graph.insert(triple) if held else graph.remove(triple)
