import gc
import json
import socket
import urllib.error
import urllib.request
from decimal import Decimal
from urllib.parse import quote

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trustgate import ontology as vocab
from trustgate.middleware import MAX_BODY_BYTES, ExchangeMiddleware, start_server
from trustgate.ontology import bootstrap_vocabulary, read_dua
from trustgate.store import Graph, SYN_NS, iri, serialize_term
from trustgate.synth import generate_dataset
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
        {"timestamp": "noon"},
    ])
    def test_wrongly_typed_request_field_is_bad_request(self, server, demo_manifest, bad):
        status, body = http("POST", server.url + "/requests", {
            "user": demo_manifest.users[0].iri, "category": PATIENT,
            "purpose": PUBLIC_HEALTH, **bad,
        })
        assert status == 400
        assert body["error"]

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
        assert results[server_b.url] == {"ok": True, "delivered": len(backlog)}
        assert node_a.pending_updates() == []
        for principal in (request.user.iri, request.user.affiliation):
            assert node_b.trust_record_dict(principal)["scores"] == \
                node_a.trust_record_dict(principal)["scores"]

    def test_empty_queue_no_traffic(self, demo_spec):
        node_a = self.build_node(demo_spec, "node-a", peers=["http://127.0.0.1:9"])
        results = node_a.propagate_scores(max_attempts=1)
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
])
_REQUIRED_UPDATE_KEYS = st.sampled_from(["principal", "score", "value", "version"])


class TestScoreBatches:
    """Batches of propagated score updates: one bad update refuses the whole
    batch, and a good batch applies exactly the updates that are newer."""

    @pytest.fixture()
    def node(self, demo_graph, demo_manifest):
        service = ExchangeMiddleware(demo_graph, node_id="node-scores")
        server = start_server(service)
        yield server, demo_manifest
        server.shutdown()

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
        held = {p: record["version"] for p, record in server.service.registry.snapshot().items()}
        newer = 0
        for update in batch:
            if update["version"] > held.get(update["principal"], 0):
                held[update["principal"]] = update["version"]
                newer += 1
        status, body = http("POST", server.url + "/peers/scores", {"updates": batch})
        assert (status, body) == (200, {"applied": newer}), batch
