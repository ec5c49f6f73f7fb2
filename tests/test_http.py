import dataclasses
import gc
import http.client as http_client
import json
import logging
import re
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
from decimal import Decimal
from urllib.parse import quote

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from trustgate import ontology as vocab
from trustgate.middleware import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    MAX_LINE_BYTES,
    ExchangeMiddleware,
    _Handler,
    _send_all,
    start_server,
)
from trustgate.ontology import bootstrap_vocabulary, read_dua
from trustgate.store import Graph, SYN_NS, iri, serialize_term
from trustgate.synth import demographics_manifest, generate_dataset
from trustgate.trust import BEHAVIOR, CREDIBILITY_SCORE, IDENTITY, PenaltyConfig

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
    server.server_close()


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
        server.server_close()


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
        assert body["records"]["variables"] == ["x"]
        # the terms come from the graph, not from the row bytes the reply was joined from
        instances = server.service.graph.subjects_for(vocab.RDF_TYPE, iri(PATIENT))
        terms = sorted(instances, key=lambda t: t.lexical)
        assert len(expected) == len(terms)
        assert body["records"]["rows"] == [[serialize_term(t)] for t in terms]

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
        # an empty batch is well formed; a batch with no updates field is not
        assert http("POST", server.url + "/peers/scores", {"updates": []}) == (200, {"applied": 0})

    @pytest.mark.parametrize("path, payload", [
        ("/requests", [1, 2]),
        ("/requests", "abc"),
        ("/peers/scores", [1]),
        ("/peers/scores", {"updates": 5}),
        ("/peers/scores", {"updates": [1]}),
        ("/peers/scores", {"updates": ["x"]}),
        ("/admin/dua", [1]),
        ("/peers/scores", {}),
    ])
    def test_malformed_body_is_bad_request(self, server, path, payload):
        status, body = http("POST", server.url + path, payload)
        assert status == 400
        assert body["error"]

    @pytest.mark.parametrize("path", ["/requests", "/peers/scores", "/admin/dua"])
    @pytest.mark.parametrize("raw", [
        b"[" * 100_000 + b"]" * 100_000,
        b'{"a": ' + b"[" * 5_000 + b"]" * 5_000 + b"}",
    ], ids=["array", "object"])
    def test_deeply_nested_body_is_bad_request(self, server, path, raw):
        # the decoder gives up on deep nesting with a RecursionError
        request = urllib.request.Request(
            server.url + path, data=raw, method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=5)
        assert caught.value.code == 400
        assert json.loads(caught.value.read())["error"].startswith("bad request body")

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
        {"origin": 5},
        {"origin": ["a"]},
        {"origin": {"x": 1}},
        {"origin": None},
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

    def test_borrowed_label_and_org_are_refused(self, server, demo_manifest):
        # user 8 of org_08 has no agreement; with user 1's label and org the
        # label-keyed policies used to grant it user 1's rows
        own, other = demo_manifest.users[7], demo_manifest.users[0]
        record_url = server.url + "/trust/" + quote(own.iri, safe="")
        before = http("GET", record_url)
        request = {"user": own.iri, "category": PATIENT, "purpose": PUBLIC_HEALTH}
        for label, org in ((other.label, other.org_iri), (other.label, own.org_iri),
                           (own.label, other.org_iri)):
            status, body = http("POST", server.url + "/requests",
                                {**request, "userLabel": label, "userOrg": org})
            assert status == 400, (label, org)
            assert "records" not in body
        assert http("GET", record_url) == before
        status, body = http("POST", server.url + "/requests",
                            {**request, "userLabel": own.label, "userOrg": own.org_iri})
        assert status == 200
        assert body["decision"]["granted"] is False
        assert ["dua-exists", False] in body["decision"]["compliance"]["perPolicy"]

    @pytest.mark.parametrize("bad", [
        {"user": [SYN_NS + "user_001"]},
        {"user": {"iri": SYN_NS + "user_001"}},
        {"custodian": [SYN_NS + "DataCustodian"]},
        {"custodian": {}},
        {"userOrg": [SYN_NS + "org_01"]},
        {"userOrg": {}},
        {"userLabel": 5},
        {"userLabel": ["x"]},
        {"requestId": ["r"]},
        # falsy, but not strings: none of them may pass for an absent ID
        {"requestId": 0},
        {"requestId": False},
        {"requestId": []},
        {"requestId": {}},
        {"timestamp": "noon"},
        # sent as the NaN and Infinity that json reads, and that no log line may hold
        {"timestamp": float("nan")},
        {"timestamp": float("inf")},
        {"timestamp": float("-inf")},
    ])
    def test_wrongly_typed_request_field_is_bad_request(self, server, demo_manifest, bad):
        status, body = http("POST", server.url + "/requests", {
            "user": demo_manifest.users[0].iri, "category": PATIENT,
            "purpose": PUBLIC_HEALTH, **bad,
        })
        assert status == 400
        assert body["error"]

    @pytest.mark.parametrize("blank", ["", None])
    def test_empty_or_null_request_id_gets_a_fresh_one(self, server, demo_manifest, blank):
        status, body = http("POST", server.url + "/requests", {
            "user": demo_manifest.users[0].iri, "category": PATIENT,
            "purpose": PUBLIC_HEALTH, "requestId": blank,
        })
        assert status == 200
        assert isinstance(body["requestId"], str) and body["requestId"]

    @pytest.mark.parametrize("bad", [
        {"requestedData": 5},
        {"requestedData": None},
        {"requestedData": True},
        {"requestedData": PATIENT},  # would be split into characters
        {"requestedData": [PATIENT, 7]},
        {"permittedUseOrDisclosure": 5},
        {"permittedUseOrDisclosure": None},
        {"permittedUseOrDisclosure": True},
        {"custodian": [SYN_NS + "DataCustodian"]},
        {"custodian": {}},
        {"recipient": [SYN_NS + "org_01"]},
        {"recipient": {}},
        {"iri": 3},
        {"term": ["x"]},
    ])
    def test_wrongly_typed_agreement_field_is_bad_request(self, server, demo_manifest, bad):
        org = demo_manifest.orgs[0]
        server.service.registry.lock_pair(demo_manifest.custodian_iri, org.iri)
        status, body = http("POST", server.url + "/admin/dua", {
            "iri": org.dua_iri, "custodian": demo_manifest.custodian_iri,
            "recipient": org.iri, "requestedData": [PATIENT],
            "permittedUseOrDisclosure": [PUBLIC_HEALTH], **bad,
        })
        assert status == 400
        assert body["error"]
        assert server.service.registry.check_lockout(demo_manifest.custodian_iri, org.iri)

    def test_bad_purpose_iri_leaves_the_agreement_whole(self, server, demo_manifest):
        org = demo_manifest.orgs[0]
        graph = server.service.graph
        before = sorted(map(repr, graph.iter_terms(iri(org.dua_iri), None, None)))
        server.service.registry.lock_pair(demo_manifest.custodian_iri, org.iri)
        status, _ = http("POST", server.url + "/admin/dua", {
            "iri": org.dua_iri, "custodian": demo_manifest.custodian_iri,
            "recipient": org.iri, "requestedData": [PATIENT],
            "permittedUseOrDisclosure": [PUBLIC_HEALTH, "not an iri"],
        })
        assert status == 400
        assert sorted(map(repr, graph.iter_terms(iri(org.dua_iri), None, None))) == before

    def test_rewrite_aimed_at_the_custodian_is_refused(self, server, demo_manifest):
        # the rewrite used to delete every triple of the named IRI, here the
        # custodian's data inventory, and each later request answered 500
        org = demo_manifest.orgs[0]
        graph = server.service.graph
        custodian = iri(demo_manifest.custodian_iri)
        before = sorted(map(repr, graph.iter_terms(custodian, None, None)))
        server.service.registry.lock_pair(demo_manifest.custodian_iri, org.iri)
        status, body = http("POST", server.url + "/admin/dua", {
            "iri": demo_manifest.custodian_iri, "custodian": demo_manifest.custodian_iri,
            "recipient": org.iri, "requestedData": [PATIENT],
            "permittedUseOrDisclosure": [PUBLIC_HEALTH],
        })
        assert 400 <= status < 500
        assert body["error"]
        assert sorted(map(repr, graph.iter_terms(custodian, None, None))) == before
        status, _ = http("POST", server.url + "/requests", {
            "user": demo_manifest.users[0].iri, "category": PATIENT, "purpose": PUBLIC_HEALTH,
        })
        assert status == 200

    def test_rewrite_aimed_at_another_pairs_agreement_is_refused(self, server, demo_manifest):
        # the lock on org_01 used to let its rewrite take over org_02's
        # agreement, after which org_02's users were denied
        org_01, org_02 = demo_manifest.orgs[:2]
        graph = server.service.graph
        before = read_dua(graph, org_02.dua_iri)
        user, category, purpose = next(
            combo for combo in demo_manifest.clean_requests() if combo[0].org_iri == org_02.iri
        )
        clean = {"user": user.iri, "category": category, "purpose": purpose}
        status, body = http("POST", server.url + "/requests", clean)
        assert status == 200 and body["decision"]["granted"] is True
        server.service.registry.lock_pair(demo_manifest.custodian_iri, org_01.iri)
        status, body = http("POST", server.url + "/admin/dua", {
            "iri": org_02.dua_iri, "custodian": demo_manifest.custodian_iri,
            "recipient": org_01.iri, "requestedData": [PATIENT],
            "permittedUseOrDisclosure": [PUBLIC_HEALTH],
        })
        assert status == 409
        assert body["error"]
        assert read_dua(graph, org_02.dua_iri) == before
        assert server.service.registry.check_lockout(demo_manifest.custodian_iri, org_01.iri)
        status, body = http("POST", server.url + "/requests", clean)
        assert status == 200 and body["decision"]["granted"] is True

    def test_rewrite_aimed_at_a_peer_registered_principal_is_refused(self, server, demo_manifest):
        # a principal registered by a peer's update carries no rdf:type, and
        # the rewrite used to retype its IRI as an agreement
        remote = "http://example.org/remote/user_x"
        org = demo_manifest.orgs[6]
        graph = server.service.graph
        status, _ = http("POST", server.url + "/peers/scores", {"updates": [{
            "principal": remote, "score": "behavior", "value": "0.5", "version": 5,
            "origin": "node-x",
        }]})
        assert status == 200
        before = sorted(map(repr, graph.iter_terms(iri(remote), None, None)))
        server.service.registry.lock_pair(demo_manifest.custodian_iri, org.iri)
        status, body = http("POST", server.url + "/admin/dua", {
            "iri": remote, "custodian": demo_manifest.custodian_iri,
            "recipient": org.iri, "requestedData": [PATIENT],
            "permittedUseOrDisclosure": [PUBLIC_HEALTH],
        })
        assert status == 409
        assert remote in body["error"]
        assert sorted(map(repr, graph.iter_terms(iri(remote), None, None))) == before
        assert server.service.registry.check_lockout(demo_manifest.custodian_iri, org.iri)
        status, body = http("GET", server.url + "/trust/" + quote(remote, safe=""))
        assert (status, body["scores"]) == (200, {"identity": "1.0", "behavior": "0.5"})

    @staticmethod
    def raw_post_status(server, content_length: str) -> bytes:
        """The status code of a POST that sends `{}` under the given `Content-Length`."""
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=3) as sock:
            sock.sendall(
                b"POST /requests HTTP/1.1\r\nHost: localhost\r\n"
                b"Content-Type: application/json\r\nContent-Length: "
                + content_length.encode() + b"\r\n\r\n{}"
            )
            reply = b""
            while b"\r\n" not in reply:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                reply += chunk
        return reply.split(b" ")[1]

    def test_negative_content_length_is_bad_request(self, server):
        # read(-1) would block until the client closed the socket
        assert self.raw_post_status(server, "-1") == b"400"

    def test_oversized_body_is_refused_unread(self, server):
        # reading the claimed billion bytes would hold the handler until the
        # client gave up
        assert self.raw_post_status(server, "1000000000") == b"413"


def healthz_within(server, seconds: float) -> int:
    """The status of `GET /healthz`, failing the test if it takes longer."""
    started = time.monotonic()
    request = urllib.request.Request(server.url + "/healthz")
    with urllib.request.urlopen(request, timeout=seconds) as response:
        status = response.status
    assert time.monotonic() - started < seconds
    return status


def idle_clients(server, count: int) -> list[socket.socket]:
    """Connections that never send a byte, each already taken by a worker."""
    clients = [socket.create_connection(server.server_address[:2], timeout=3)
               for _ in range(count)]
    # a served request after them shows the server got past every one
    assert healthz_within(server, 1.0) == 200
    return clients


def shutdown_within(server, seconds: float) -> None:
    """Shut the server down, failing the test if that takes longer."""
    stopper = threading.Thread(target=server.shutdown, daemon=True)
    stopper.start()
    stopper.join(timeout=seconds)
    assert not stopper.is_alive()
    server.server_close()


def wait_until(predicate, seconds: float = 2.0) -> bool:
    deadline = time.monotonic() + seconds
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestWorkerPool:
    """Handler threads accept their own connections: stalled clients hold
    only their own thread, and shutdown waits for no handler."""

    def test_idle_connections_do_not_hold_up_healthz(self, demo_graph):
        before = set(threading.enumerate())
        server = start_server(ExchangeMiddleware(demo_graph, node_id="node-pool"))
        clients = idle_clients(server, 5)
        try:
            assert healthz_within(server, 1.0) == 200
        finally:
            for client in clients:
                client.close()

        def pool_size():
            return len([t for t in threading.enumerate() if t not in before])

        # once the stalled clients leave, their workers exit: what stays is
        # the serve_forever thread, the next acceptor and one spare
        assert wait_until(lambda: pool_size() <= 3), threading.enumerate()
        server.shutdown()
        server.server_close()

    def test_concurrent_clients_leave_a_consistent_pool(self, demo_graph):
        # more clients than cores, switching often: a lost update of the
        # accepting count would hang shutdown or keep threads alive
        before = set(threading.enumerate())
        server = start_server(ExchangeMiddleware(demo_graph, node_id="node-pool"))
        statuses = []

        def client():
            for _ in range(40):
                statuses.append(http("GET", server.url + "/healthz")[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(4)]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=20)
        finally:
            sys.setswitchinterval(interval)
        assert statuses == [200] * 160
        shutdown_within(server, 1.0)
        pool = [t for t in threading.enumerate() if t not in before]
        for thread in pool:
            thread.join(timeout=1.0)
        assert not [t for t in pool if t.is_alive()]

    def test_shutdown_returns_while_a_client_idles(self, server):
        clients = idle_clients(server, 1)
        try:
            shutdown_within(server, 1.0)
        finally:
            clients[0].close()

    def test_shutdown_right_after_start_leaves_no_server_thread(self, demo_graph):
        before = set(threading.enumerate())
        server = start_server(ExchangeMiddleware(demo_graph, node_id="node-pool"))
        server.shutdown()
        server.server_close()
        started = [t for t in threading.enumerate() if t not in before]
        for thread in started:
            thread.join(timeout=1.0)
        assert not [t for t in started if t.is_alive()]

    def test_failed_handlers_leave_the_pool_serving(self, server, demo_manifest, monkeypatch,
                                                    caplog):
        def fail(*args):
            raise RuntimeError("decision exploded")

        monkeypatch.setattr(server.service, "handle_request", fail)
        monkeypatch.setattr(server.service, "receive_scores", fail)
        request = {"user": demo_manifest.users[0].iri, "category": PATIENT,
                   "purpose": PUBLIC_HEALTH}
        with caplog.at_level(logging.ERROR, logger="trustgate.middleware"):
            for n in range(5):
                status, body = http("POST", server.url + "/requests",
                                    {**request, "requestId": f"boom-{n}"})
                assert (status, body) == (500, {"error": "decision exploded"})
            # a requestId that is not a string is not echoed
            status, _ = http("POST", server.url + "/peers/scores",
                             {"updates": [], "requestId": ["x"]})
            assert status == 500
        messages = [r.getMessage() for r in caplog.records if r.levelno == logging.ERROR]
        assert messages == [f"request failed: POST /requests, requestId boom-{n}"
                            for n in range(5)] + ["request failed: POST /peers/scores, requestId -"]
        assert healthz_within(server, 1.0) == 200
        monkeypatch.undo()
        status, body = http("POST", server.url + "/requests", request)
        assert status == 200 and body["decision"]["granted"] is True

    def test_a_handler_that_raises_out_leaves_the_pool_serving(self, server, monkeypatch):
        def crash(handler):
            raise RuntimeError("handler crashed")

        monkeypatch.setattr(_Handler, "do_GET", crash)
        for _ in range(5):
            with pytest.raises((http_client.RemoteDisconnected, ConnectionError)):
                urllib.request.urlopen(server.url + "/healthz", timeout=3)
        monkeypatch.undo()
        assert healthz_within(server, 1.0) == 200


class _TrickleSocket:
    """Takes at most `step` bytes per `sendmsg`, as a full send buffer does."""

    def __init__(self, step: int):
        self.step, self.received, self.calls = step, bytearray(), 0

    def sendmsg(self, buffers):
        self.calls += 1
        taken = bytes(b"".join(bytes(b) for b in buffers)[:self.step])
        self.received += taken
        return len(taken)


class TestReplyWrites:
    @pytest.mark.parametrize("head, body", [
        (b"HTTP/1.0 200 OK\r\n\r\n", bytes(range(256)) * 3),
        (b"", b"{}"),  # an HTTP/0.9 reply has no head
    ])
    def test_send_all_resumes_after_partial_sends(self, head, body):
        for step in (1, 7, len(head) or 1, len(head) + 1, 4096):
            sock = _TrickleSocket(step)
            _send_all(sock, [head, body])
            assert bytes(sock.received) == head + body
            assert sock.calls == -(-(len(head) + len(body)) // step)

    def test_reply_larger_than_the_receive_buffer_arrives_whole(self, demo_spec):
        spec = dataclasses.replace(demo_spec, patient_count=4000)
        graph = Graph()
        bootstrap_vocabulary(graph)
        generate_dataset(spec, into=graph)
        service = ExchangeMiddleware(graph, node_id="node-big")
        sent = []
        handle = service.handle_request
        service.handle_request = lambda request: sent.append(handle(request)) or sent[-1]
        server = start_server(service)
        try:
            user = demographics_manifest(spec).users[0].iri
            payload = json.dumps({"user": user, "category": PATIENT,
                                  "purpose": PUBLIC_HEALTH}).encode()
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.settimeout(10)
                sock.connect(server.server_address[:2])
                sock.sendall(b"POST /requests HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s"
                             % (len(payload), payload))
                received = bytearray()
                while chunk := sock.recv(512):
                    received += chunk
                    time.sleep(0.0002)
                buffer_size = sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
        finally:
            server.shutdown()
            server.server_close()
        head, _, body = bytes(received).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 ")
        assert len(body) > 10 * buffer_size
        length = re.search(rb"\r\nContent-Length: (\d+)(?:\r\n|$)", head)
        assert int(length.group(1)) == len(body)
        assert sent[0].decision.granted
        assert body.decode() == sent[0].to_json()


_TOKEN = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7e), max_size=8)
_HEADER_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                       max_size=12)


@st.composite
def _raw_requests(draw) -> tuple[bytes, str]:
    """A request line, headers and a body, each possibly malformed or cut
    short; returns the bytes and the method word."""
    method = draw(st.sampled_from(["GET", "POST", "PUT", "get", ""]) | _TOKEN)
    target = draw(st.sampled_from([
        "/healthz", "/healthz?x=1", "//healthz", "/requests", "/peers/scores", "/admin/dua",
        "/trust/x", "/trust/%ZZ", "/nope", "*", "http://[::1/healthz", "http://[/", "",
    ]) | _TOKEN)
    version = draw(st.sampled_from(["HTTP/1.0", "HTTP/1.1", "HTTP/2.0", "HTTP/1", "HTTP/a.b",
                                    "HTTP/1.0 extra", ""]) | _TOKEN)
    line = " ".join(word for word in (method, target, version) if word)
    headers = draw(st.lists(st.tuples(
        st.sampled_from(["Content-Length", "Content-Type", "Transfer-Encoding", "Host"])
        | _TOKEN,
        st.sampled_from(["0", "2", "-1", "abc", "99999999999", " 5", "chunked", ""])
        | _HEADER_TEXT,
    ), max_size=4))
    body = draw(st.sampled_from([
        b'{"user": "' + SYN_NS.encode() + b'user_001", "category": "' + PATIENT.encode()
        + b'", "purpose": "' + PUBLIC_HEALTH.encode() + b'"}',
        b'{"updates": [{"principal": "x", "score": "behavior"}]}',
        b"[1, 2]",
    ]) | st.binary(max_size=24))
    # strictly shorter than what it was drawn from: never a whole valid body
    body = body[:draw(st.integers(0, max(len(body) - 1, 0)))]
    text = line + "\r\n" + "".join(f"{name}: {value}\r\n" for name, value in headers)
    raw = text.encode("utf-8") + draw(st.sampled_from([b"\r\n", b""])) + body
    return raw, method


def raw_reply(server, raw: bytes) -> bytes:
    """Everything the server sends back for `raw`, written to a socket that
    is then half-closed."""
    with socket.create_connection(server.server_address[:2], timeout=3) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        reply = bytearray()
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass  # the server closed with part of the request unread
    return bytes(reply)


class TestRawRequests:
    """Arbitrary request bytes on a raw socket that is then half-closed:
    the parser answers 4xx in JSON with a status line, a valid `/healthz`
    gets 200, and nothing hangs or fails the server."""

    @pytest.mark.parametrize("line, status", [
        (b"GET / HTTP/a.b", 400),
        (b"GET /healthz HTTP/2.0", 505),
        (b"PUT /healthz HTTP/1.0", 501),
    ])
    def test_parser_refusals_carry_a_status_line_and_json(self, server, line, status):
        reply = raw_reply(server, line + b"\r\n\r\n")
        head, _, body = reply.partition(b"\r\n\r\n")
        status_line, *headers = head.decode("latin-1").split("\r\n")
        assert status_line.startswith(f"HTTP/1.0 {status} "), reply
        fields = dict(h.split(": ", 1) for h in headers)
        assert fields["Content-Type"] == "application/json"
        assert int(fields["Content-Length"]) == len(body)
        assert json.loads(body)["error"]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=_raw_requests())
    # an unclosed IPv6 bracket made urlparse raise, and the connection
    # closed with no reply
    @example(drawn=(b"GET http://[/ HTTP/1.0\r\n\r\n", "GET"))
    @example(drawn=(b"POST http://[::1/requests HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}", "POST"))
    # a score batch with no updates field got 200 {"applied": 0}
    @example(drawn=(b"POST /peers/scores HTTP/1.0\r\n\r\n", "POST"))
    def test_raw_request_bytes_never_get_a_server_error(self, server, drawn):
        raw, method = drawn
        reply = raw_reply(server, raw)
        # the request line as the parser splits it
        words = raw.split(b"\n", 1)[0].decode("latin-1").split()
        if not reply:
            # only a request with no request line is closed without a reply
            assert not words, raw
        else:
            if reply.startswith(b"HTTP/"):
                head, _, body = reply.partition(b"\r\n\r\n")
                status = int(head.split()[1])
            else:
                # only a two-word GET line is an HTTP/0.9 request, answered
                # with the GET handler's JSON body alone
                assert len(words) == 2 and words[0] == "GET", (raw, reply)
                body = reply
                status = 200 if b'"status"' in body else 404
            if status == 200:
                assert json.loads(body) == {"status": "ok", "node": "node-http"}, raw
            else:
                assert json.loads(body)["error"], (raw, reply)
                # 5xx only as the parser's protocol answers: a method it has
                # no handler for, or an HTTP major version above 1
                assert (400 <= status < 500
                        or status == 501 and method not in ("GET", "POST")
                        or status == 505), (raw, reply)
        assert healthz_within(server, 1.0) == 200


def _request(head: str, body: bytes = b"", end: str = "\r\n") -> bytes:
    """A request whose head lines are joined by `end`, with a blank line after them."""
    lines = head.split("\n")
    return (end.join(lines) + end + end).encode("utf-8") + body


_HEALTHY = {"status": "ok", "node": "node-http"}
_NO_UPDATES = b'{"updates": []}'
_PAD = "x" * MAX_LINE_BYTES


class TestRequestReader:
    """The request reader's bounds and edge cases, one raw request a row:
    the status it gets and, for a 200, its JSON body. The rows marked RFC
    9112 are answered 400 where the email parser behind http.server gave
    200."""

    @pytest.mark.parametrize("raw, status, body", [
        pytest.param(_request("GET /healthz?" + _PAD[:MAX_LINE_BYTES - 24] + " HTTP/1.0"),
                     200, _HEALTHY, id="longest-request-line"),
        pytest.param(_request("GET /healthz?" + _PAD[:MAX_LINE_BYTES - 23] + " HTTP/1.0"),
                     414, None, id="request-line-over-64KiB"),
        pytest.param(_request("GET /healthz HTTP/1.0\nX-Pad: " + _PAD[:MAX_LINE_BYTES - 9]),
                     200, _HEALTHY, id="longest-header-line"),
        pytest.param(_request("GET /healthz HTTP/1.0\nX-Pad: " + _PAD[:MAX_LINE_BYTES - 8]),
                     431, None, id="header-line-over-64KiB"),
        pytest.param(_request("GET /healthz HTTP/1.0" + "\nX-N: 1" * (MAX_HEADER_LINES - 1)),
                     200, _HEALTHY, id="99-header-lines"),
        pytest.param(_request("GET /healthz HTTP/1.0" + "\nX-N: 1" * MAX_HEADER_LINES),
                     431, None, id="100-header-lines"),
        pytest.param(_request("POST /peers/scores HTTP/1.0\ncontent-length: 15", _NO_UPDATES),
                     200, {"applied": 0}, id="lower-case-content-length"),
        pytest.param(_request("POST /peers/scores HTTP/1.0\nContent-Length: 15", _NO_UPDATES,
                              end="\n"),
                     200, {"applied": 0}, id="bare-LF-line-endings"),
        pytest.param(_request("GET /healthz HTTP/1.0\nX-Name: Zoë 東京"),
                     200, _HEALTHY, id="non-ASCII-header-value"),
        pytest.param(_request("POST /peers/scores HTTP/1.1\nHost: x\nExpect: 100-continue\n"
                              "Content-Length: 15", _NO_UPDATES),
                     200, {"applied": 0}, id="expect-100-continue"),
        pytest.param(_request("POST /peers/scores HTTP/1.1\nHost: x\n"
                              "Transfer-Encoding: chunked", b"f\r\n" + _NO_UPDATES + b"\r\n0\r\n\r\n"),
                     400, None, id="chunked-body"),
        pytest.param(_request("POST /peers/scores HTTP/1.0\nContent-Length: 15\n"
                              "Content-Length: 15", _NO_UPDATES),
                     200, {"applied": 0}, id="same-content-length-twice"),
        pytest.param(_request("GET /healthz"), None, _HEALTHY, id="HTTP/0.9-GET"),
        # RFC 9112 section 5.2: a folded line may be refused
        pytest.param(_request("GET /healthz HTTP/1.0\nX-A: 1\n  2"),
                     400, None, id="RFC-9112-folded-header-line"),
        # the email parser dropped the line and every header after it
        pytest.param(_request("GET /healthz HTTP/1.0\nNo colon here\nX-A: 1"),
                     400, None, id="RFC-9112-header-line-without-colon"),
        # RFC 9112 section 6.3: the framing is invalid; the first value was taken
        pytest.param(_request("POST /peers/scores HTTP/1.0\nContent-Length: 15\n"
                              "Content-Length: 2", _NO_UPDATES),
                     400, None, id="RFC-9112-conflicting-content-lengths"),
        pytest.param(_request("POST /peers/scores HTTP/1.0\nContent-Length: \t15 \t",
                              _NO_UPDATES),
                     200, {"applied": 0}, id="content-length-in-whitespace"),
        # RFC 9110 section 8.6: Content-Length is digits; int() also reads these
        pytest.param(_request("POST /peers/scores HTTP/1.0\nContent-Length: +15", _NO_UPDATES),
                     400, None, id="RFC-9110-signed-content-length"),
        pytest.param(_request("POST /peers/scores HTTP/1.0\nContent-Length: 1_5", _NO_UPDATES),
                     400, None, id="RFC-9110-underscored-content-length"),
    ])
    def test_request_gets_its_answer(self, server, raw, status, body):
        reply = raw_reply(server, raw)
        if status is None:
            assert json.loads(reply) == body
            return
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 %d " % status), reply[:200]
        if status == 200:
            assert json.loads(payload) == body
        else:
            assert json.loads(payload)["error"]

    def test_reply_head_carries_its_headers_in_order(self, server):
        head = raw_reply(server, _request("GET /healthz HTTP/1.1\nHost: x")).split(b"\r\n\r\n")[0]
        status_line, *headers = head.decode("latin-1").split("\r\n")
        assert status_line == "HTTP/1.0 200 OK"
        assert [h.split(": ", 1)[0] for h in headers] == [
            "Server", "Date", "Content-Type", "Content-Length"]
        # an IMF-fixdate, RFC 9110 section 5.6.7
        assert re.fullmatch(r"Date: (Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d "
                            r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} "
                            r"\d\d:\d\d:\d\d GMT", headers[1])

    def test_three_word_line_gets_a_status_line_whatever_its_version(self, server):
        # only a two-word line is an HTTP/0.9 request; http.server sent the
        # body alone to a three-word line ending in HTTP/0.9
        reply = raw_reply(server, _request("GET /healthz HTTP/0.9"))
        assert reply.startswith(b"HTTP/1.0 200 OK\r\n")


class TestPropagationOverHttp:
    def build_node(self, spec, node_id, peers=(), **kwargs):
        graph = Graph()
        bootstrap_vocabulary(graph)
        generate_dataset(spec, into=graph)
        return ExchangeMiddleware(graph, node_id=node_id, peers=list(peers), **kwargs)

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
            server_b.server_close()
            server_c.shutdown()
            server_c.server_close()

    def test_one_peer_down_retains_for_retry(self, demo_spec, demo_manifest):
        node_b = self.build_node(demo_spec, "node-b")
        server_b = start_server(node_b)
        dead = "http://127.0.0.1:9"
        try:
            node_a = self.build_node(demo_spec, "node-a", peers=[server_b.url, dead])
            node_a.handle_request(
                node_a.build_request(demo_manifest.users[7].iri, PATIENT, PUBLIC_HEALTH)
            )
            results = node_a.propagate_scores()
            assert results[server_b.url]["ok"] is True
            assert results[dead]["ok"] is False
            assert len(node_a.pending_updates()) == 1
            assert node_b.trust_record_dict(demo_manifest.users[7].iri)["scores"]["behavior"] == "0.98"
        finally:
            server_b.shutdown()
            server_b.server_close()

    def test_backlog_over_the_body_cap_arrives_in_slices(self, demo_spec, demo_manifest):
        # in one POST this backlog would be refused with 413 on every call,
        # and the peer would never catch up
        node_b = self.build_node(demo_spec, "node-b")
        server_b = start_server(node_b)
        try:
            node_a = self.build_node(
                demo_spec, "node-a", peers=[server_b.url],
                penalties=PenaltyConfig(no_dua_request=Decimal("0.0001"), penalize_org_identity=True),
            )
            request = node_a.build_request(demo_manifest.users[7].iri, PATIENT, PUBLIC_HEALTH)
            for _ in range(4500):
                node_a.handle_request(request)
            backlog = node_a.pending_updates()
            assert len(json.dumps({"updates": [u.to_dict() for u in backlog]})) > MAX_BODY_BYTES
            results = node_a.propagate_scores()
        finally:
            server_b.shutdown()
            server_b.server_close()
        assert results[server_b.url] == {"ok": True, "delivered": len(backlog)}
        assert node_a.pending_updates() == []
        for principal in (request.user.iri, request.user.affiliation):
            assert node_b.trust_record_dict(principal)["scores"] == \
                node_a.trust_record_dict(principal)["scores"]

    def test_empty_queue_no_traffic(self, demo_spec):
        node_a = self.build_node(demo_spec, "node-a", peers=["http://127.0.0.1:9"])
        results = node_a.propagate_scores()
        assert results == {"http://127.0.0.1:9": {"ok": True, "delivered": 0}}


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_MISSING = object()


def _fields(valid: dict) -> st.SearchStrategy:
    """Bodies whose every field is left out, given a value that could pass,
    or given an arbitrary JSON value."""
    return st.fixed_dictionaries({
        name: st.one_of(st.just(_MISSING), st.sampled_from(choices), _JSON)
        for name, choices in valid.items()
    }).map(lambda body: {k: v for k, v in body.items() if v is not _MISSING})


class TestArbitraryFields:
    """Whatever JSON value a field of /requests or /admin/dua holds, the
    reply is never a server error."""

    @pytest.fixture()
    def node(self, demo_graph, demo_manifest):
        service = ExchangeMiddleware(demo_graph, node_id="node-fuzz")
        server = start_server(service)
        yield server, demo_manifest
        server.shutdown()
        server.server_close()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_requests_never_get_a_server_error(self, node, data):
        server, manifest = node
        users = [manifest.users[0], manifest.users[7]]
        body = data.draw(_fields({
            "user": [u.iri for u in users] + [manifest.orgs[0].iri, manifest.custodian_iri],
            "userLabel": [u.label for u in users],
            "userOrg": [u.org_iri for u in users],
            "custodian": [manifest.custodian_iri, manifest.orgs[0].iri, users[0].iri],
            "category": [PATIENT, SYMPTOM],
            "purpose": [PUBLIC_HEALTH, IRB],
            "requestId": ["r-1"],
            "timestamp": [1.5],
        }))
        status, reply = http("POST", server.url + "/requests", body)
        assert status < 500, (body, reply)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_agreement_rewrites_never_get_a_server_error(self, node, data):
        server, manifest = node
        org = manifest.orgs[0]
        # the pair is locked, so a well-formed rewrite gets past the lock check
        server.service.registry.lock_pair(manifest.custodian_iri, org.iri)
        body = data.draw(_fields({
            "iri": [org.dua_iri],
            "custodian": [manifest.custodian_iri],
            "recipient": [org.iri],
            "requestedData": [[PATIENT], [PATIENT, SYMPTOM], []],
            "permittedUseOrDisclosure": [[PUBLIC_HEALTH], [IRB, "not an iri"]],
            "term": ["one year"],
            "terminationEffect": ["delete"],
            "terminationCause": ["breach"],
            "storage": ["encrypted"],
            "access": ["role based"],
            "protections": ["audit"],
        }))
        status, reply = http("POST", server.url + "/admin/dua", body)
        assert status < 500, (body, reply)


_BAD_UPDATE_FIELDS = st.sampled_from([
    {"value": "abc"}, {"value": "7"}, {"value": "-0.5"}, {"value": None}, {"value": [0.5]},
    {"version": "x"}, {"version": 9.5}, {"version": True}, {"version": None},
    {"score": "karma"}, {"score": 3},
    {"principal": ""}, {"principal": "has space"}, {"principal": 5},
    {"origin": 5}, {"origin": ["a"]}, {"origin": {"x": 1}}, {"origin": None},
])
_REQUIRED_UPDATE_KEYS = st.sampled_from(["principal", "score", "value", "version"])


class TestScoreBatches:
    """Batches of propagated score updates: one bad update refuses the whole
    batch, and a good batch applies exactly the updates that are newer and
    name a score the principal's kind carries."""

    @pytest.fixture()
    def node(self, demo_graph, demo_manifest):
        service = ExchangeMiddleware(demo_graph, node_id="node-scores")
        server = start_server(service)
        yield server, demo_manifest
        server.shutdown()
        server.server_close()

    @staticmethod
    def _updates(manifest):
        principals = [manifest.users[0].iri, manifest.users[1].iri,
                      manifest.orgs[0].iri, SYN_NS + "peer_only_principal"]
        return st.fixed_dictionaries({
            "principal": st.sampled_from(principals),
            "score": st.sampled_from([BEHAVIOR, IDENTITY, CREDIBILITY_SCORE]),
            "value": st.decimals(min_value=0, max_value=1, places=4).map(str),
            "version": st.integers(min_value=-2, max_value=40),
            "origin": st.just("node-x"),
        })

    @staticmethod
    def _score_triples(graph):
        return sorted(
            repr(t) for p in (vocab.BEHAVIOR_TRUST, vocab.IDENTITY_TRUST, vocab.CREDIBILITY)
            for t in graph.iter_terms(None, p, None)
        )

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_a_malformed_update_refuses_the_batch_and_changes_nothing(self, node, data):
        server, manifest = node
        service = server.service
        batch = data.draw(st.lists(self._updates(manifest), max_size=5))
        bad = dict(data.draw(self._updates(manifest)))
        if data.draw(st.booleans()):
            del bad[data.draw(_REQUIRED_UPDATE_KEYS)]
        else:
            bad.update(data.draw(_BAD_UPDATE_FIELDS))
        batch.insert(data.draw(st.integers(0, len(batch))), bad)
        snapshot, triples = service.registry.snapshot(), self._score_triples(service.graph)
        status, body = http("POST", server.url + "/peers/scores", {"updates": batch})
        assert status == 400, (batch, body)
        assert body["error"]
        assert service.registry.snapshot() == snapshot
        assert self._score_triples(service.graph) == triples

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_applied_counts_the_updates_newer_than_the_held_version(self, node, data):
        server, manifest = node
        batch = data.draw(st.lists(self._updates(manifest), max_size=8))
        held = {p: (record["version"], set(record["scores"]))
                for p, record in server.service.registry.snapshot().items()}
        newer = 0
        for update in batch:
            principal, score, version = update["principal"], update["score"], update["version"]
            if principal not in held and version > 0:
                # registered by its first newer update: a user for a behavior score
                held[principal] = (0, {BEHAVIOR, IDENTITY} if score == BEHAVIOR
                                   else {IDENTITY, CREDIBILITY_SCORE})
            if principal in held and version > held[principal][0] and score in held[principal][1]:
                held[principal] = (version, held[principal][1])
                newer += 1
        status, body = http("POST", server.url + "/peers/scores", {"updates": batch})
        assert (status, body) == (200, {"applied": newer}), batch
