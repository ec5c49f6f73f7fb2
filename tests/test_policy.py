import json
import sys
import threading

import pytest

from trustgate import ontology as vocab
from trustgate import policy as policy_module
from trustgate.ontology import DuaRecord, OntologyError, write_dua
from trustgate.policy import (
    P_CUSTODIAN_HAS_CATEGORY,
    P_DUA_EXISTS,
    P_PURPOSE_PERMITTED,
    P_REQUESTED_DATA,
    ComplianceResult,
    DataRequest,
    PolicyEngine,
    PolicyError,
    SubstitutionError,
    completeness_probe,
    instantiate,
    load_policy_dir,
    register_builtin_policies,
)
from trustgate.query import parse
from trustgate.store import SYN_NS, Graph, Triple, iri
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

    def test_p1_reproduces_dua_existence_policy(self):
        template = register_builtin_policies()[0]
        text = instantiate(
            template, {"userLabel": "physician_105", "custodianLabel": "DataCustodian"}
        )
        assert normalized(text) == normalized(DUA_EXISTENCE_POLICY)
        assert parse(text).bgp == parse(DUA_EXISTENCE_POLICY).bgp

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

    def test_empty_label_is_substitution_error(self):
        template = register_builtin_policies()[0]
        with pytest.raises(SubstitutionError):
            instantiate(template, {"userLabel": "", "custodianLabel": "DataCustodian"})

    def test_missing_placeholder_is_error(self):
        template = register_builtin_policies()[1]
        with pytest.raises(SubstitutionError):
            instantiate(template, {"userLabel": "x", "custodianLabel": "y"})


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
        # once the compiled-query table is cleared, CPython may place a new
        # AST at a freed one's address; model that deterministically by
        # giving every object one id, so any cache keyed on id() serves a
        # stale verdict
        monkeypatch.setattr(policy_module, "id", lambda obj: 0, raising=False)
        engine = PolicyEngine(demo_graph)
        granted = engine.evaluate(request_for(demo_manifest, 0, PATIENT, PUBLIC_HEALTH))
        assert granted.outcome(P_DUA_EXISTS) is True
        engine._compiled.clear()
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

    def test_compiled_table_is_bounded(self, demo_graph, demo_manifest, monkeypatch):
        monkeypatch.setattr(policy_module, "_TABLE_LIMIT", 5)
        engine = PolicyEngine(demo_graph)
        for index in range(10):
            engine.evaluate(request_for(demo_manifest, index, PATIENT, PUBLIC_HEALTH))
            assert len(engine._compiled) <= 5
        engine._compiled.clear()
        engine.evaluate(request_for(demo_manifest, 0, PATIENT, PUBLIC_HEALTH))
        # the completeness probe shares the one table
        assert ("probe", PATIENT) in engine._compiled
        denied = engine.evaluate(request_for(demo_manifest, 7, PATIENT, PUBLIC_HEALTH))
        assert denied.outcome(P_DUA_EXISTS) is False

    def test_shared_engine_under_thread_churn(self, demo_graph, demo_manifest, monkeypatch):
        # readers share one table that keeps clearing; every verdict must
        # still be the one a fresh engine gives
        monkeypatch.setattr(policy_module, "_TABLE_LIMIT", 3)
        requests = [request_for(demo_manifest, i, PATIENT, PUBLIC_HEALTH) for i in range(10)]
        reference = PolicyEngine(demo_graph)
        expected = [reference.evaluate(request) for request in requests]
        engine = PolicyEngine(demo_graph)
        errors = []

        def worker(offset):
            try:
                for n in range(200):
                    i = (n + offset) % len(requests)
                    assert engine.evaluate(requests[i]) == expected[i]
            except AssertionError as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
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


class TestExtensionPolicies:
    def engine_with_extension(self, graph, tmp_path, failure_penalty=None):
        from trustgate.policy import register_builtin_policies

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
        templates = register_builtin_policies() + load_policy_dir(tmp_path)
        return PolicyEngine(graph, templates=templates)

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
