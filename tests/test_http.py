import gc
import json
import socket
import urllib.error
import urllib.request
from urllib.parse import quote

import pytest

from trustgate import ontology as vocab
from trustgate.middleware import ExchangeMiddleware, start_server
from trustgate.ontology import bootstrap_vocabulary
from trustgate.store import Graph, SYN_NS, serialize_term
from trustgate.synth import generate_dataset

PUBLIC_HEALTH = vocab.PUBLIC_HEALTH.lexical
IRB = vocab.IRB_APPROVED_RESEARCH.lexical
PATIENT = SYN_NS + "Patient"
SYMPTOM = SYN_NS + "Symptom"


def http(method, url, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


@pytest.fixture()
def server(demo_graph):
    service = ExchangeMiddleware(demo_graph, node_id="node-http")
    server = start_server(service)
    yield server
    server.shutdown()


def test_building_and_starting_a_service_freezes_nothing(demo_graph):
    # freezing applies to the whole process, so only the serve command may
    # do it; a library caller building services must keep a normal heap
    before = gc.get_freeze_count()
    service = ExchangeMiddleware(demo_graph, node_id="node-gc")
    assert gc.get_freeze_count() == before
    server = start_server(service)
    try:
        assert http("GET", server.url + "/healthz")[0] == 200
        assert gc.get_freeze_count() == before
    finally:
        server.shutdown()


class TestEndpoints:
    def test_healthz(self, server):
        status, body = http("GET", server.url + "/healthz")
        assert status == 200
        assert body == {"status": "ok", "node": "node-http"}

    def test_post_request_grants(self, server, demo_manifest):
        status, body = http("POST", server.url + "/requests", {
            "user": demo_manifest.users[0].iri,
            "category": PATIENT,
            "purpose": PUBLIC_HEALTH,
            "requestId": "http-1",
        })
        assert status == 200
        assert body["requestId"] == "http-1"
        assert body["decision"]["granted"] is True
        assert len(body["records"]["rows"]) == demo_manifest.spec.patient_count

    def test_granted_rows_are_the_retrieved_rows(self, server, demo_manifest):
        status, body = http("POST", server.url + "/requests", {
            "user": demo_manifest.users[0].iri,
            "category": PATIENT,
            "purpose": PUBLIC_HEALTH,
        })
        assert status == 200
        expected = server.service.retrieve(PATIENT)
        assert body["records"]["variables"] == list(expected.variables)
        assert body["records"]["rows"] == [[serialize_term(t) for t in row] for row in expected.rows]

    def test_post_request_denied_for_no_dua_user(self, server, demo_manifest):
        status, body = http("POST", server.url + "/requests", {
            "user": demo_manifest.users[7].iri,
            "category": PATIENT,
            "purpose": PUBLIC_HEALTH,
        })
        assert status == 200
        assert body["decision"]["granted"] is False
        assert body["records"] is None
        assert body["decision"]["appliedPenalties"][0]["kind"] == "noDuaRequest"

    def test_get_trust_record(self, server, demo_manifest):
        principal = demo_manifest.users[0].iri
        status, body = http("GET", server.url + "/trust/" + quote(principal, safe=""))
        assert status == 200
        assert body["scores"] == {"identity": "1.0", "behavior": "1.0"}

    def test_unknown_principal_is_404(self, server):
        status, _ = http("GET", server.url + "/trust/" + quote(SYN_NS + "user_x", safe=""))
        assert status == 404
        status, _ = http("POST", server.url + "/requests", {
            "user": SYN_NS + "user_x", "category": PATIENT, "purpose": PUBLIC_HEALTH,
        })
        assert status == 404

    def test_malformed_request_is_400(self, server, demo_manifest):
        status, _ = http("POST", server.url + "/requests", {
            "user": demo_manifest.users[0].iri,
            "category": SYN_NS + "Starship",
            "purpose": PUBLIC_HEALTH,
        })
        assert status == 400

    def test_admin_dua_without_lock_is_409(self, server, demo_manifest):
        org = demo_manifest.orgs[0]
        status, _ = http("POST", server.url + "/admin/dua", {
            "iri": org.dua_iri,
            "custodian": demo_manifest.custodian_iri,
            "recipient": org.iri,
            "requestedData": [PATIENT],
            "permittedUseOrDisclosure": [PUBLIC_HEALTH],
        })
        assert status == 409

    def test_peers_scores_endpoint(self, server, demo_manifest):
        principal = demo_manifest.users[3].iri
        status, body = http("POST", server.url + "/peers/scores", {
            "updates": [{
                "principal": principal, "score": "behavior",
                "value": "0.75", "version": 9, "origin": "node-x",
            }],
        })
        assert (status, body) == (200, {"applied": 1})
        status, body = http("GET", server.url + "/trust/" + quote(principal, safe=""))
        assert body["scores"]["behavior"] == "0.75"

    @pytest.mark.parametrize("path, payload", [
        ("/requests", [1, 2]),
        ("/requests", "abc"),
        ("/peers/scores", [1]),
        ("/peers/scores", {"updates": 5}),
        ("/peers/scores", {"updates": [1]}),
        ("/peers/scores", {"updates": ["x"]}),
        ("/admin/dua", [1]),
    ])
    def test_malformed_body_is_bad_request(self, server, path, payload):
        status, body = http("POST", server.url + path, payload)
        assert status == 400
        assert body["error"]

    @pytest.mark.parametrize("bad", [
        {"value": "abc"},
        {"value": "7"},
        {"value": None},
        {"version": "x"},
        {"version": 9.5},
        {"version": True},
        {"score": "karma"},
        {"principal": ""},
        {"principal": "has space"},
    ])
    def test_bad_score_update_refuses_the_whole_batch(self, server, demo_manifest, bad):
        first = demo_manifest.users[3].iri
        record_url = server.url + "/trust/" + quote(first, safe="")
        before = http("GET", record_url)
        update = {"principal": demo_manifest.users[4].iri, "score": "behavior",
                  "value": "0.6", "version": 9, "origin": "node-x"}
        status, body = http("POST", server.url + "/peers/scores", {
            "updates": [
                {"principal": first, "score": "behavior", "value": "0.5",
                 "version": 9, "origin": "node-x"},
                {**update, **bad},
            ],
        })
        assert status == 400
        assert body["error"]
        assert http("GET", record_url) == before
        assert before[1]["scores"]["behavior"] == "1.0"

    def test_negative_content_length_is_bad_request(self, server):
        # read(-1) would block until the client closed the socket
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=3) as sock:
            sock.sendall(
                b"POST /requests HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n{}"
            )
            reply = b""
            while b"\r\n" not in reply:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        assert reply.split(b" ")[1] == b"400"


class TestPropagationOverHttp:
    def build_node(self, spec, node_id, peers=()):
        graph = Graph()
        bootstrap_vocabulary(graph)
        generate_dataset(spec, into=graph)
        return ExchangeMiddleware(graph, node_id=node_id, peers=list(peers))

    def test_two_peers_ack_and_queue_drains(self, demo_spec, demo_manifest):
        node_b = self.build_node(demo_spec, "node-b")
        node_c = self.build_node(demo_spec, "node-c")
        server_b = start_server(node_b)
        server_c = start_server(node_c)
        try:
            node_a = self.build_node(demo_spec, "node-a", peers=[server_b.url, server_c.url])
            node_a.handle_request(
                node_a.build_request(demo_manifest.users[7].iri, PATIENT, PUBLIC_HEALTH)
            )
            assert len(node_a.pending_updates()) == 1
            results = node_a.propagate_scores()
            assert all(r["ok"] for r in results.values())
            assert node_a.pending_updates() == []
            for node in (node_b, node_c):
                assert node.trust_record_dict(demo_manifest.users[7].iri)["scores"]["behavior"] == "0.98"
        finally:
            server_b.shutdown()
            server_c.shutdown()

    def test_one_peer_down_retains_for_retry(self, demo_spec, demo_manifest):
        node_b = self.build_node(demo_spec, "node-b")
        server_b = start_server(node_b)
        dead = "http://127.0.0.1:9"
        try:
            node_a = self.build_node(demo_spec, "node-a", peers=[server_b.url, dead])
            node_a._http_timeout = 0.2
            node_a.handle_request(
                node_a.build_request(demo_manifest.users[7].iri, PATIENT, PUBLIC_HEALTH)
            )
            results = node_a.propagate_scores(max_attempts=2, backoff=0.01)
            assert results[server_b.url]["ok"] is True
            assert results[dead]["ok"] is False
            assert len(node_a.pending_updates()) == 1
            assert node_b.trust_record_dict(demo_manifest.users[7].iri)["scores"]["behavior"] == "0.98"
        finally:
            server_b.shutdown()

    def test_empty_queue_no_traffic(self, demo_spec):
        node_a = self.build_node(demo_spec, "node-a", peers=["http://127.0.0.1:9"])
        results = node_a.propagate_scores(max_attempts=1)
        assert results == {"http://127.0.0.1:9": {"ok": True, "delivered": 0}}
