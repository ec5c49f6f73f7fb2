import gc
import inspect
import json
import random
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path
from decimal import Decimal
from typing import Optional

import pytest

from trustgate import ontology as vocab
from trustgate.middleware import (
    CONFIG_KEYS,
    STAGE_CREDIBILITY,
    STAGE_POLICY,
    STAGE_RETRIEVAL,
    STAGE_TRUST_UPDATE,
    DataResponse,
    ExchangeMiddleware,
    MiddlewareError,
    RequestValidationError,
    ScoreUpdate,
    configs_from_mapping,
    parse_config_text,
    start_server,
)
from trustgate.ontology import DuaRecord, bootstrap_vocabulary
from trustgate.policy import P_REQUESTED_DATA, PolicyError, load_policy_dir
from trustgate.store import XSD_FLOAT, Graph, SYN_NS, Triple, _json_row, iri, plain, serialize_term, typed
from trustgate.synth import GeneratorSpec, demographics_manifest, generate_dataset
from trustgate.trust import AssessmentConfig, PenaltyConfig, UnknownPrincipalError

from graph_match import match

PUBLIC_HEALTH = vocab.PUBLIC_HEALTH.lexical
IRB = vocab.IRB_APPROVED_RESEARCH.lexical
HCO = vocab.HEALTH_CARE_OPERATION.lexical
PATIENT = SYN_NS + "Patient"
OBSERVATION = SYN_NS + "Observation"
SYMPTOM = SYN_NS + "Symptom"


@pytest.fixture()
def service(demo_graph):
    return ExchangeMiddleware(demo_graph, node_id="node-a")


@pytest.fixture()
def stripped_service(stripped_graph):
    return ExchangeMiddleware(stripped_graph, node_id="node-a")


def user(manifest, index):
    return manifest.users[index].iri


def build(spec, **kwargs):
    """A service over a fresh graph generated from `spec`."""
    graph = Graph()
    bootstrap_vocabulary(graph)
    generate_dataset(spec, into=graph)
    return ExchangeMiddleware(graph, **kwargs)


def read_log(path):
    """The transaction records a service appended to its log file."""
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestExchangeCycle:
    def test_clean_request_granted_without_penalties(self, service, demo_manifest, demo_spec):
        request = service.build_request(user(demo_manifest, 0), PATIENT, PUBLIC_HEALTH)
        response = service.handle_request(request)
        assert response.decision.granted is True
        assert response.decision.applied_penalties == ()
        assert len(response.records) == demo_spec.patient_count
        assert response.decision.invariant_holds()
        assert set(response.timings) == {
            STAGE_POLICY, STAGE_CREDIBILITY, STAGE_TRUST_UPDATE, STAGE_RETRIEVAL,
        }

    def test_no_dua_user_denied_with_stronger_deduction(self, service, demo_manifest):
        request = service.build_request(user(demo_manifest, 7), PATIENT, PUBLIC_HEALTH)
        response = service.handle_request(request)
        assert response.decision.granted is False
        assert response.records is None
        penalty = response.decision.applied_penalties[0]
        assert penalty.kind == "noDuaRequest"
        assert (penalty.before, penalty.after) == ("1.0", "0.98")
        assert response.decision.invariant_holds()

    def test_missing_category_grants_with_notice(self, service, demo_manifest):
        request = service.build_request(user(demo_manifest, 6), SYMPTOM, IRB)
        response = service.handle_request(request)
        assert response.decision.granted is True
        assert response.decision.compliance.custodian_has_data is False
        penalty = response.decision.applied_penalties[0]
        assert penalty.kind == "missingCategory"
        assert (penalty.before, penalty.after) == ("1.0", "0.98")
        assert any(n["type"] == "missingCategory" for n in response.custodian_notices)
        assert len(response.records) == 0
        assert response.decision.invariant_holds()

    def test_missing_properties_grants_with_credibility_deduction(
        self, stripped_service, demo_manifest
    ):
        request = stripped_service.build_request(user(demo_manifest, 5), OBSERVATION, HCO)
        response = stripped_service.handle_request(request)
        assert response.decision.granted is True
        penalty = response.decision.applied_penalties[0]
        assert penalty.kind == "missingProperties"
        assert (penalty.before, penalty.after) == ("1.0", "0.99")
        assert response.decision.invariant_holds()

    def test_org_identity_flag_records_both_penalties(self, demo_graph, demo_manifest):
        service = ExchangeMiddleware(
            demo_graph, penalties=PenaltyConfig(penalize_org_identity=True)
        )
        request = service.build_request(user(demo_manifest, 7), PATIENT, PUBLIC_HEALTH)
        response = service.handle_request(request)
        kinds = [(p.principal, p.after) for p in response.decision.applied_penalties]
        assert kinds == [
            (user(demo_manifest, 7), "0.98"),
            (demo_manifest.users[7].org_iri, "0.98"),
        ]

    def test_extension_with_an_org_penalty_charges_the_custodian(
        self, demo_graph, demo_manifest, tmp_path
    ):
        # an extension clause only the first organization's users satisfy,
        # whose failure is declared the custodian's fault
        (tmp_path / "label-allowlist.rq").write_text(
            "ASK{\n"
            '   ?user rdfs:label "{userLabel}"^^rdf:PlainLiteral .\n'
            "   ?user syn:isAffiliatedWith syn:org_01 .\n"
            "}\n"
        )
        (tmp_path / "label-allowlist.json").write_text(json.dumps(
            {"id": "label-allowlist", "side": "user", "failure_penalty": "missingCategory"}
        ))
        service = ExchangeMiddleware(
            demo_graph, policies=load_policy_dir(tmp_path)
        )
        # the second organization's agreement grants Patient for public health
        request = service.build_request(user(demo_manifest, 1), PATIENT, PUBLIC_HEALTH)
        response = service.handle_request(request)
        assert response.decision.granted is False
        custodian = demo_manifest.custodian_iri
        assert [p.to_dict() for p in response.decision.applied_penalties] == [
            {"principal": custodian, "kind": "missingCategory", "before": "1.0", "after": "0.98"}
        ]
        assert response.custodian_notices == (
            {"type": "missingCategory", "category": PATIENT, "custodian": custodian},
        )
        assert service.registry.get(user(demo_manifest, 1)).behavior == Decimal("1")

    def test_sidecar_reusing_a_builtin_id_cannot_grant(self, demo_graph, demo_manifest, tmp_path):
        # a replacement of the agreement-scope check that holds for every
        # user; org_05's agreement covers only Encounter, so in place of the
        # built-in it would grant org_05's user every Patient row
        (tmp_path / "scope.rq").write_text(
            "ASK {\n"
            "   ?user a tst:User .\n"
            '   ?user rdfs:label "{userLabel}"^^rdf:PlainLiteral .\n'
            "}\n"
        )
        (tmp_path / "scope.json").write_text(json.dumps({"id": P_REQUESTED_DATA}))
        with pytest.raises(PolicyError, match="already in use"):
            load_policy_dir(tmp_path)
        service = ExchangeMiddleware(demo_graph)
        request = service.build_request(user(demo_manifest, 4), PATIENT, PUBLIC_HEALTH)
        assert request.user.affiliation == SYN_NS + "org_05"
        response = service.handle_request(request)
        assert response.decision.granted is False
        assert response.decision.compliance.outcome(P_REQUESTED_DATA) is False
        assert response.records is None

    def test_low_trust_denies_without_penalty(self, service, demo_manifest):
        service.registry.set_score(user(demo_manifest, 0), "behavior", "0.5")
        request = service.build_request(user(demo_manifest, 0), PATIENT, PUBLIC_HEALTH)
        response = service.handle_request(request)
        assert response.decision.compliance.compliant is True
        assert response.decision.assessment.passed is False
        assert response.decision.granted is False
        assert response.decision.applied_penalties == ()
        assert response.decision.invariant_holds()

    def test_unknown_user_not_found(self, service, demo_manifest):
        from trustgate.ontology import PrincipalRef
        from trustgate.policy import DataRequest

        ghost = PrincipalRef(
            iri=SYN_NS + "user_999", kind="user", label="ghost_999",
            affiliation=demo_manifest.orgs[0].iri,
        )
        request = DataRequest(
            user=ghost, custodian=demo_manifest.custodian_iri,
            category=PATIENT, purpose=PUBLIC_HEALTH,
        )
        with pytest.raises(UnknownPrincipalError):
            service.handle_request(request)

    def test_borrowed_label_or_affiliation_is_refused(self, service, demo_manifest):
        # the policies find the user by label: user 8 (org_08, no agreement)
        # sending user 1's label and org was checked, and granted, as user 1
        from trustgate.policy import DataRequest

        own = service.registry.get(user(demo_manifest, 7)).principal
        other = service.registry.get(user(demo_manifest, 0)).principal
        for label, org in (
            (other.label, other.affiliation),
            (other.label, own.affiliation),
            (own.label, other.affiliation),
            ("", own.affiliation),
        ):
            request = DataRequest(
                user=replace(own, label=label, affiliation=org),
                custodian=demo_manifest.custodian_iri,
                category=PATIENT, purpose=PUBLIC_HEALTH,
            )
            with pytest.raises(RequestValidationError):
                service.handle_request(request)
        assert service.registry.get(own.iri).behavior == Decimal("1.0")
        honest = service.handle_request(
            service.build_request(own.iri, PATIENT, PUBLIC_HEALTH)
        )
        assert honest.decision.granted is False
        assert honest.decision.compliance.outcome("dua-exists") is False

    def test_score_projection_refreshed_in_graph(self, service, demo_manifest):
        from trustgate.store import TriplePattern, Var, iri

        request = service.build_request(user(demo_manifest, 7), PATIENT, PUBLIC_HEALTH)
        service.handle_request(request)
        got = match(
            service.graph, TriplePattern(iri(user(demo_manifest, 7)), vocab.BEHAVIOR_TRUST, Var("v"))
        )
        assert [t.object.lexical for t in got] == ["0.98"]


class TestRetrieve:
    def test_patient_rows_match_patient_count(self, service, demo_spec):
        assert len(service.retrieve(PATIENT)) == demo_spec.patient_count

    def test_observation_rows_one_per_patient(self, service, demo_spec):
        assert len(service.retrieve(OBSERVATION)) == demo_spec.patient_count

    def test_empty_category(self, service):
        assert len(service.retrieve(SYMPTOM)) == 0

    def test_retrieving_and_serializing_allocates_nothing_per_row(self):
        # a one-term tuple per row kept the collector busy on every reply
        graph = Graph()
        spec = GeneratorSpec(seed=21, patient_count=5000)
        generate_dataset(spec, into=graph)
        service = ExchangeMiddleware(graph)
        user_iri = demographics_manifest(spec).users[0].iri
        response = service.handle_request(service.build_request(user_iri, PATIENT, PUBLIC_HEALTH))
        response.to_json()
        gc.disable()
        try:
            for category in (PATIENT, OBSERVATION):  # filled rows, then fresh ones
                before = gc.get_count()[0]
                records = service.retrieve(category)
                body = replace(response, records=records).to_json()
                grown = gc.get_count()[0] - before
                assert len(records) == 5000
                assert grown < 100, (category, grown)
                del records, body
            # the served path: the request cycle and the chunks the handler sends
            for category in (PATIENT, OBSERVATION, SYN_NS + "Encounter"):
                request = service.build_request(user_iri, category, PUBLIC_HEALTH)
                service.handle_request(request)  # compiles the category's policy queries
                before = gc.get_count()[0]
                served = service.handle_request(request)
                chunks = served.body()
                grown = gc.get_count()[0] - before
                assert len(served.records) == 5000
                assert grown < 100, (category, grown)
                del served, chunks
        finally:
            gc.enable()

    def test_thousand_patient_scale(self):
        graph = Graph()
        spec = GeneratorSpec(seed=21, patient_count=1000)
        generate_dataset(spec, into=graph)
        service = ExchangeMiddleware(graph)
        manifest = demographics_manifest(spec)
        request = service.build_request(manifest.users[0].iri, PATIENT, PUBLIC_HEALTH)
        response = service.handle_request(request)
        assert response.decision.granted
        assert len(response.records) == 1000


class TestLockoutProtocol:
    def drain_custodian(self, service, manifest):
        request = service.build_request(user(manifest, 6), SYMPTOM, IRB)
        for _ in range(50):
            response = service.handle_request(request)
        return response

    def test_repeated_missing_category_locks_pair(self, service, demo_manifest):
        last = self.drain_custodian(service, demo_manifest)
        assert last.decision.applied_penalties[0].after == "0.0"
        blocked = service.handle_request(
            service.build_request(user(demo_manifest, 6), SYMPTOM, IRB)
        )
        assert blocked.decision.granted is False
        assert blocked.decision.lockout_triggered is True
        assert blocked.decision.invariant_holds()

    def test_rewrite_dua_lifts_lockout(self, service, demo_manifest):
        self.drain_custodian(service, demo_manifest)
        org7 = demo_manifest.orgs[6]
        outcome = service.admin_rewrite_dua(
            DuaRecord(
                iri=org7.dua_iri,
                custodian=demo_manifest.custodian_iri,
                recipient=org7.iri,
                requested_data=frozenset({PATIENT}),
                permitted_use=frozenset({IRB}),
                term="1 year",
            )
        )
        assert outcome["locked"] is False
        assert outcome["custodian"]["credibility"] == "1.0"
        response = service.handle_request(
            service.build_request(user(demo_manifest, 6), PATIENT, IRB)
        )
        assert response.decision.granted is True
        assert response.decision.lockout_triggered is False

    def test_other_pairs_unaffected_by_lock_mark(self, service, demo_manifest):
        # lock marks are pairwise; a zero custodian credibility still blocks
        # everyone, so reset it and keep only the explicit mark
        self.drain_custodian(service, demo_manifest)
        service.registry.set_score(demo_manifest.custodian_iri, "credibility", "0.5")
        blocked = service.handle_request(
            service.build_request(user(demo_manifest, 6), SYMPTOM, IRB)
        )
        assert blocked.decision.lockout_triggered is True
        fine = service.handle_request(
            service.build_request(user(demo_manifest, 0), PATIENT, PUBLIC_HEALTH)
        )
        assert fine.decision.granted is True


def reference_rows(graph: Graph, category: str) -> list[list[str]]:
    """A served grant's expected rows, taken from the graph and not from the
    reply's row bytes: the category's instances sorted by lexical form."""
    instances = graph.subjects_for(vocab.RDF_TYPE, iri(category))
    return [[serialize_term(t)] for t in sorted(instances, key=lambda t: t.lexical)]


def reference_body(response: DataResponse, rows: Optional[list[list[str]]] = None) -> str:
    """The reply body as `json.dumps` of a dict with one list per row. The
    reply's rows are bytes, so the expected `rows` are given apart."""
    records = None if response.records is None else {"variables": ["x"], "rows": rows}
    return json.dumps({
        "requestId": response.request_id,
        "decision": response.decision.to_dict(),
        "records": records,
        "custodianNotices": list(response.custodian_notices),
        "timings": dict(response.timings),
    })


ODD_TERMS = [
    iri(SYN_NS + "patient_é"),
    plain('quote " backslash \\ newline \n tab \t nul \x00 del \x7f'),
    plain("漢字 😀 lone \ud800 surrogate"),
    typed("0.25", XSD_FLOAT),
    typed('{"a": 1}', SYN_NS + "Json"),
    plain(""),
]


class TestResponseJson:
    def assert_body(self, response, rows=None):
        body = response.to_json()
        assert body == reference_body(response, rows)
        assert response.to_dict() == json.loads(body)

    def test_granted_one_column(self, service, demo_manifest, demo_spec):
        response = service.handle_request(
            service.build_request(user(demo_manifest, 0), PATIENT, PUBLIC_HEALTH)
        )
        assert len(response.records) == demo_spec.patient_count
        self.assert_body(response, reference_rows(service.graph, PATIENT))
        self.assert_body(replace(response, records=[_json_row(t) for t in ODD_TERMS]),
                         [[serialize_term(t)] for t in ODD_TERMS])
        # a second reply reuses the rows the first one built
        self.assert_body(response, reference_rows(service.graph, PATIENT))

    def test_empty_rows(self, service, demo_manifest):
        response = service.handle_request(
            service.build_request(user(demo_manifest, 6), SYMPTOM, IRB)
        )
        assert response.records == []
        assert '"rows": []' in response.to_json()
        self.assert_body(response, reference_rows(service.graph, SYMPTOM))

    def test_refused_decision(self, service, demo_manifest):
        response = service.handle_request(
            service.build_request(user(demo_manifest, 7), PATIENT, PUBLIC_HEALTH)
        )
        assert response.records is None
        self.assert_body(response)

    def test_lockout_response(self, service, demo_manifest):
        request = service.build_request(user(demo_manifest, 6), SYMPTOM, IRB)
        for _ in range(51):
            response = service.handle_request(request)
        assert response.decision.lockout_triggered is True
        assert response.custodian_notices[0]["type"] == "lockout"
        self.assert_body(response)


class TestPropagationQueue:
    def test_no_peers_means_no_queue(self, service, demo_manifest):
        service.handle_request(
            service.build_request(user(demo_manifest, 7), PATIENT, PUBLIC_HEALTH)
        )
        assert service.pending_updates() == []

    def test_updates_enqueued_with_peers(self, demo_graph, demo_manifest):
        service = ExchangeMiddleware(demo_graph, peers=["http://127.0.0.1:9"])
        service.handle_request(
            service.build_request(user(demo_manifest, 7), PATIENT, PUBLIC_HEALTH)
        )
        pending = service.pending_updates()
        assert len(pending) == 1
        assert pending[0].score == "behavior"
        assert pending[0].value == "0.98"

    def test_unreachable_peer_retains_updates(self, demo_graph, demo_manifest):
        service = ExchangeMiddleware(demo_graph, peers=["http://127.0.0.1:9"])
        service.handle_request(
            service.build_request(user(demo_manifest, 7), PATIENT, PUBLIC_HEALTH)
        )
        results = service.propagate_scores()
        assert results["http://127.0.0.1:9"]["ok"] is False
        assert len(service.pending_updates()) == 1

    def test_peer_that_fails_first_loses_no_update_to_pruning(self, demo_graph, demo_manifest):
        # peer b refuses every POST of the first two rounds, so peer a's
        # acknowledgements run ahead of b's; pruning must keep what b lacks
        peer_a, peer_b = "http://peer-a", "http://peer-b"
        service = ExchangeMiddleware(demo_graph, peers=[peer_a, peer_b])
        sent: dict[str, list[int]] = {}
        down = [peer_b]

        def post(url, payload):
            if url.startswith(tuple(down)):
                raise OSError("connection refused")
            sent.setdefault(url, []).extend(u["version"] for u in payload["updates"])

        service._post_json = post
        principal = user(demo_manifest, 3)

        def queue(versions):
            service._enqueue([(principal, "behavior", Decimal("0.5"), v) for v in versions])

        queue([1, 2])
        assert service.propagate_scores()[peer_b]["ok"] is False
        queue([3, 4, 5])
        service.propagate_scores()
        assert min(service._peer_cursor.values()) >= 0
        assert [u.version for u in service.pending_updates()] == [1, 2, 3, 4, 5]
        down.clear()
        queue([6, 7, 8, 9])
        service.propagate_scores()
        assert sent[peer_a + "/peers/scores"] == [1, 2, 3, 4, 5, 6, 7, 8, 9]
        assert sent[peer_b + "/peers/scores"] == [1, 2, 3, 4, 5, 6, 7, 8, 9]
        assert min(service._peer_cursor.values()) >= 0
        assert service.pending_updates() == []


class TestReceiveScores:
    def test_apply_then_duplicate(self, service, demo_manifest):
        update = ScoreUpdate(
            principal=user(demo_manifest, 3), score="behavior",
            value="0.7", version=10, origin="node-b",
        )
        assert service.receive_scores([update]) == 1
        assert service.receive_scores([update]) == 0

    def test_version_reordering(self, service, demo_manifest):
        principal = user(demo_manifest, 3)
        v3 = ScoreUpdate(principal, "behavior", "0.7", 3, "node-b")
        v2 = ScoreUpdate(principal, "behavior", "0.9", 2, "node-b")
        assert service.receive_scores([v3]) == 1
        assert service.receive_scores([v2]) == 0
        assert service.trust_record_dict(principal)["scores"]["behavior"] == "0.7"

    def test_unknown_principal_auto_registered(self, service):
        stranger = SYN_NS + "org_virtual"
        update = ScoreUpdate(stranger, "credibility", "0.6", 4, "node-b")
        assert service.receive_scores([update]) == 1
        assert service.trust_record_dict(stranger)["kind"] == "organization"


class TestScoreProjection:
    def test_repeated_clean_request_writes_nothing(self, service, demo_manifest):
        service.handle_request(service.build_request(user(demo_manifest, 0), PATIENT, PUBLIC_HEALTH))
        version = service.graph.version
        response = service.handle_request(
            service.build_request(user(demo_manifest, 0), PATIENT, PUBLIC_HEALTH)
        )
        assert response.decision.granted is True
        assert service.graph.version == version


class TestTransactionLog:
    def test_log_carries_request_and_timings(self, demo_graph, demo_manifest, tmp_path):
        path = tmp_path / "transactions.ldjson"
        service = ExchangeMiddleware(demo_graph, node_id="node-a", log_path=str(path))
        request = service.build_request(
            user(demo_manifest, 0), PATIENT, PUBLIC_HEALTH, request_id="req-1"
        )
        service.handle_request(request)
        service.close()
        log = read_log(path)
        assert len(log) == 1
        entry = log[0]
        assert entry["requestId"] == "req-1"
        assert entry["request"]["category"] == PATIENT
        # the line is written when the decision commits, before retrieval
        assert set(entry["timings"]) == {STAGE_POLICY, STAGE_CREDIBILITY, STAGE_TRUST_UPDATE}

    def test_log_file_is_line_delimited_json(self, demo_graph, demo_manifest, tmp_path):
        path = tmp_path / "transactions.ldjson"
        service = ExchangeMiddleware(demo_graph, log_path=str(path))
        service.handle_request(
            service.build_request(user(demo_manifest, 0), PATIENT, PUBLIC_HEALTH)
        )
        service.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["decision"]["granted"] is True

    def test_replay_from_log_file_lines(self, demo_spec, demo_manifest, tmp_path):
        path = tmp_path / "txns.ldjson"
        first = build(demo_spec, log_path=str(path))
        for i in range(20):
            first.handle_request(
                first.build_request(
                    user(demo_manifest, i % 10), PATIENT, PUBLIC_HEALTH,
                    request_id=f"file-{i}",
                )
            )
        first.close()
        replayed = build(demo_spec)
        with open(path) as handle:
            assert replayed.replay_log(handle) == 20
        assert replayed.registry.snapshot() == first.registry.snapshot()

    def test_log_line_carries_penalties_once(self, demo_spec, demo_manifest, tmp_path):
        path = tmp_path / "txns.ldjson"
        first = build(demo_spec, log_path=str(path))
        first.handle_request(
            first.build_request(user(demo_manifest, 7), PATIENT, PUBLIC_HEALTH)
        )
        first.close()
        assert path.read_text().count('"noDuaRequest"') == 1
        (entry,) = read_log(path)
        assert entry["decision"]["appliedPenalties"] == [{
            "principal": user(demo_manifest, 7), "kind": "noDuaRequest",
            "before": "1.0", "after": "0.98",
        }]
        replayed = build(demo_spec)
        assert replayed.replay_log([entry]) == 1
        assert replayed.registry.snapshot() == first.registry.snapshot()

    def test_replay_reproduces_registry(self, demo_spec, demo_manifest, tmp_path):
        path = tmp_path / "txns.ldjson"
        first = build(demo_spec, node_id="node-a", log_path=str(path))
        rng = random.Random(42)
        categories = [PATIENT, OBSERVATION, SYMPTOM]
        purposes = [PUBLIC_HEALTH, IRB, HCO]
        for i in range(200):
            request = first.build_request(
                user(demo_manifest, rng.randrange(len(demo_manifest.users))),
                rng.choice(categories),
                rng.choice(purposes),
                request_id=f"replay-{i}",
            )
            first.handle_request(request)
        first.close()
        replayed = build(demo_spec, node_id="node-a")
        assert replayed.replay_log(read_log(path)) == 200
        assert replayed.registry.snapshot() == first.registry.snapshot()


class TestConcurrency:
    def test_parallel_requests_keep_invariants(self, service, demo_manifest):
        errors = []

        def worker(index):
            try:
                for _ in range(10):
                    response = service.handle_request(
                        service.build_request(
                            user(demo_manifest, index), PATIENT, PUBLIC_HEALTH
                        )
                    )
                    assert response.decision.invariant_holds()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1, 7, 8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        snapshot = service.registry.snapshot()
        for record in snapshot.values():
            for value in record["scores"].values():
                assert 0.0 <= float(value) <= 1.0

    def test_lock_sections_run_one_at_a_time(self, service, demo_manifest, demo_spec):
        lock = service._lock
        results = []

        # a score write waits for a held read section
        update = ScoreUpdate(user(demo_manifest, 3), "behavior", "0.7", 10, "node-b")
        writer = threading.Thread(target=lambda: results.append(service.receive_scores([update])))
        with lock.read():
            writer.start()
            writer.join(timeout=0.2)
            assert writer.is_alive()
            assert service.trust_record_dict(update.principal)["scores"]["behavior"] == "1.0"
        writer.join(timeout=10)
        assert not writer.is_alive() and results == [1]

        # a grant's retrieval waits for a write section taken between the
        # request's commit and its retrieval
        class Gate:
            arrived, held = threading.Event(), threading.Event()

            def write(self):
                return lock.write()

            def read(self):
                self.arrived.set()
                self.held.wait(timeout=10)
                return lock.read()

        gate = service._lock = Gate()
        request = service.build_request(user(demo_manifest, 0), PATIENT, PUBLIC_HEALTH)
        reader = threading.Thread(target=lambda: results.append(service.handle_request(request)))
        reader.start()
        assert gate.arrived.wait(timeout=10)
        with lock.write():
            gate.held.set()
            reader.join(timeout=0.2)
            assert reader.is_alive()
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert len(results[1].records) == demo_spec.patient_count

    @staticmethod
    def run_threads(target, count):
        """`target(k)` on `count` threads, switching as often as the
        interpreter can; returns what the threads raised."""
        errors = []

        def guarded(k):
            try:
                target(k)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=guarded, args=(k,)) for k in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        return errors

    def test_concurrent_requests_replay_to_the_logged_decisions(
        self, demo_spec, demo_manifest, tmp_path
    ):
        # each verdict must follow from the request and the state committed
        # before it, so the log replayed in order gives every decision again
        penalties = PenaltyConfig(
            dua_violation=Decimal("0.05"), no_dua_request=Decimal("0.05"),
            penalize_org_identity=True,
        )
        path, replay_path = tmp_path / "txns.ldjson", tmp_path / "replay.ldjson"
        first = build(demo_spec, penalties=penalties, log_path=str(path))

        def worker(k):
            rng = random.Random(k)
            for _ in range(60):
                first.handle_request(first.build_request(
                    user(demo_manifest, rng.randrange(6)),
                    rng.choice((PATIENT, OBSERVATION, SYMPTOM)),
                    rng.choice((PUBLIC_HEALTH, IRB, HCO)),
                ))

        assert self.run_threads(worker, 4) == []
        first.close()
        log = read_log(path)
        assert len(log) == 240
        replayed = build(demo_spec, penalties=penalties, log_path=str(replay_path))
        assert replayed.replay_log(log) == 240
        replayed.close()
        for entry, again in zip(log, read_log(replay_path), strict=True):
            assert again["decision"] == entry["decision"], entry["requestId"]
        assert replayed.registry.snapshot() == first.registry.snapshot()

    def test_overlapping_propagation_calls_skip_no_update(self, demo_spec, demo_manifest):
        # one call may prune the queue while another is still delivering
        # from its older snapshot; neither may move a cursor past an update
        # the peer never got
        service = build(demo_spec, peers=["http://peer"])
        rng = random.Random(5)
        sent: list[int] = []

        def post(url, payload):
            time.sleep(rng.random() * 0.002)
            sent.extend(u["version"] for u in payload["updates"])

        service._post_json = post
        principal = user(demo_manifest, 3)
        done = []

        def worker(k):
            if k:
                while not done:
                    service.propagate_scores()
                return
            for version in range(1, 301):
                with service._lock.write():
                    service._enqueue([(principal, "behavior", Decimal("0.5"), version)])
                time.sleep(0.0001)
            done.append(k)

        assert self.run_threads(worker, 3) == []
        service.propagate_scores()
        assert set(sent) == set(range(1, 301))
        assert service.pending_updates() == []

    def test_propagation_loses_no_update_under_concurrent_requests(
        self, demo_spec, demo_manifest
    ):
        node_b = build(demo_spec, node_id="node-b")
        delivered: list[ScoreUpdate] = []
        receive = node_b.receive_scores

        def recording(updates):
            delivered.extend(updates)
            return receive(updates)

        node_b.receive_scores = recording
        server_b = start_server(node_b)
        try:
            node_a = build(demo_spec, node_id="node-a", peers=[server_b.url])
            finished = []

            def worker(k):
                if k == 4:  # one propagator runs beside the four senders
                    while len(finished) < 4:
                        node_a.propagate_scores()
                    return
                try:
                    for _ in range(20):
                        node_a.handle_request(
                            node_a.build_request(user(demo_manifest, k), SYMPTOM, PUBLIC_HEALTH)
                        )
                finally:
                    finished.append(k)

            assert self.run_threads(worker, 5) == []
            results = node_a.propagate_scores()
        finally:
            server_b.shutdown()
            server_b.server_close()
        assert results[server_b.url]["ok"] is True
        assert node_a.pending_updates() == []
        touched = {update.principal for update in delivered}
        assert {user(demo_manifest, k) for k in range(4)} <= touched
        for principal in touched:
            assert node_b.trust_record_dict(principal)["scores"] == \
                node_a.trust_record_dict(principal)["scores"]
        held: dict[str, int] = {}
        for update in delivered:
            assert update.version > held.get(update.principal, 0), update
            held[update.principal] = update.version


class TestConfig:
    def test_parse_and_build(self):
        text = (
            "# weights\n"
            "w_behavior=0.7\n"
            "w_identity=0.3\n"
            "threshold=0.8\n"
            "dua_violation=0.05\n"
            "tolerance_grace=2\n"
            "penalize_org_identity=true\n"
            "completeness_sample=10\n"
        )
        options = configs_from_mapping(parse_config_text(text))
        assessment, penalties = options["assessment"], options["penalties"]
        assert str(assessment.threshold) == "0.8"
        assert str(penalties.dua_violation) == "0.05"
        assert penalties.tolerance_grace == 2
        assert penalties.penalize_org_identity is True
        assert options["completeness_sample"] == 10

    def test_bad_line_is_error(self):
        with pytest.raises(MiddlewareError):
            parse_config_text("threshold 0.8")

    def test_key_set_twice_is_refused(self):
        with pytest.raises(MiddlewareError, match="line 3: threshold is already set"):
            parse_config_text("threshold=0.5\n# stricter\nthreshold=0.95\n")

    def test_keys_left_out_keep_the_class_defaults(self):
        assert configs_from_mapping({}) == {
            "assessment": AssessmentConfig(), "penalties": PenaltyConfig(),
        }
        assert configs_from_mapping({"tolerance_grace": "3"}) == {
            "assessment": AssessmentConfig(), "penalties": PenaltyConfig(tolerance_grace=3),
        }

    @pytest.mark.parametrize("line", [
        "treshold=0.5",
        "threshold=abc",
        "threshold=2",
        "w_behavior=-1",
        "dua_violation=0",
        "tolerance_grace=x",
        "tolerance_grace=-1",
        "penalize_org_identity=ture",
        "completeness_sample=0",
        "completeness_sample=-3",
        "completeness_sample=2.5",
    ])
    def test_unknown_key_or_bad_value_is_refused_by_name(self, line):
        key = line.partition("=")[0]
        with pytest.raises(MiddlewareError, match=key):
            configs_from_mapping(parse_config_text(line))

    def test_weights_that_are_both_zero_are_refused(self):
        with pytest.raises(MiddlewareError, match="weights"):
            configs_from_mapping({"w_behavior": "0", "w_identity": "0"})

    @pytest.mark.parametrize("text, expected", [
        ("true", True), ("YES", True), ("1", True), ("false", False), ("No", False), ("0", False),
    ])
    def test_flag_spellings(self, text, expected):
        options = configs_from_mapping({"penalize_org_identity": text})
        assert options["penalties"].penalize_org_identity is expected

    def test_readme_config_block_lists_every_key_with_its_default(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## Configuration\n", 1)[1].split("```", 2)[1]
        documented = parse_config_text(block)
        assert set(documented) == set(CONFIG_KEYS)
        applied = {"assessment": AssessmentConfig(), "penalties": PenaltyConfig()}
        sample = inspect.signature(ExchangeMiddleware).parameters["completeness_sample"].default
        # each documented value, set alone, changes nothing the node applies
        for key, text in documented.items():
            expected = dict(applied, completeness_sample=sample) if key == "completeness_sample" \
                else applied
            assert configs_from_mapping({key: text}) == expected, key
        assert configs_from_mapping(documented) == dict(applied, completeness_sample=sample)
