"""The exchange service: runs the full request cycle over a graph and a
trust registry, mutates scores, retrieves data, and ships score updates to
peer nodes.

Every request executes in order: lockout check, recipient policy checks,
custodian checks, trust assessment, grant or deny, penalties, projection
refresh, update enqueue, transaction log, retrieval. Everything up to the
log append runs in one section under the node's one lock, so the log lists
decisions in the order they changed the state; retrieval follows in a
section of its own. The lock's sections run one at a time. The four
instrumented stages are timed with a monotonic clock (the two policy stages
inside `PolicyEngine.evaluate`) so the benchmark harness measures the real
code path.
"""

from __future__ import annotations

import json
import logging
import math
import re
import socket
import socketserver
import threading
import time
from dataclasses import asdict, dataclass, fields
from http import HTTPStatus
from typing import Iterable, Optional
from urllib.parse import unquote, urlparse

from . import ontology as vocab
from .ontology import DuaRecord, OntologyError, PrincipalRef
from .policy import (
    COMPLETENESS_SAMPLE,
    STAGE_CREDIBILITY,
    STAGE_POLICY,
    ComplianceResult,
    DataRequest,
    PolicyEngine,
    PolicyError,
    PolicyTemplate,
)
from .query import RDF_TYPE
from .query import eval_select  # not called here; perfbench/traced_serve.py wraps it by name
from .store import Graph, StoreError, TermError, iri
from .trust import (
    SCORE_NAMES,
    AssessmentConfig,
    Assessment,
    DuaMismatchError,
    LockStateError,
    PenaltyConfig,
    TrustError,
    TrustRegistry,
    UnknownPrincipalError,
    as_score,
    canonical_score,
)

logger = logging.getLogger(__name__)

STAGE_TRUST_UPDATE = "trustScoreUpdate"
STAGE_RETRIEVAL = "dataRetrieval"
# the stages timed before a request's decision commits; retrieval follows it
DECISION_STAGES = (STAGE_POLICY, STAGE_CREDIBILITY, STAGE_TRUST_UPDATE)
STAGES = DECISION_STAGES + (STAGE_RETRIEVAL,)

# the id a node gives its score updates and health reply, unless one is set
DEFAULT_NODE_ID = "node-1"

# a POST body longer than this is refused before any of it is read
MAX_BODY_BYTES = 1 << 20

# a peer POST's timeout (s); a batch's tries, PEER_BACKOFF s then twice that apart
PEER_TIMEOUT = 5.0
PEER_ATTEMPTS = 3
PEER_BACKOFF = 0.05


class MiddlewareError(Exception):
    pass


class RequestValidationError(MiddlewareError):
    pass


class RequestTooLargeError(MiddlewareError):
    pass


class RWLock:
    """One plain lock: `read()` and `write()` both return it, so every
    locked section runs alone. The two names say what a section does to
    the state, and the benchmark's tracer (`perfbench/traced_serve.py`)
    times entry to each of them by name."""

    def __init__(self):
        self._lock = threading.Lock()

    def read(self):
        return self._lock

    def write(self):
        return self._lock


@dataclass(frozen=True)
class ScoreUpdate:
    """One propagated score mutation, ordered by the origin's version."""

    principal: str
    score: str
    value: str
    version: int
    origin: str

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScoreUpdate":
        """Parse and check one update, so that a batch with a bad update can
        be refused before any of it is applied."""
        principal, score, value = data["principal"], data["score"], data["value"]
        try:
            iri(principal)
        except (TermError, TypeError):
            raise RequestValidationError(f"principal must be an IRI: {principal!r}") from None
        if score not in SCORE_NAMES:
            raise RequestValidationError(f"unknown score name: {score!r}")
        try:
            as_score(value)
        except (ArithmeticError, TrustError):
            raise RequestValidationError(f"score value must be a number in [0, 1]: {value!r}") from None
        version = data["version"]
        if not isinstance(version, int) or isinstance(version, bool):
            raise RequestValidationError(f"version must be an integer: {version!r}")
        return cls(
            principal=principal,
            score=score,
            value=value,
            version=version,
            origin=_text(data, "origin", ""),
        )


@dataclass(frozen=True)
class AppliedPenalty:
    principal: str
    kind: str
    before: str
    after: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class AccessDecision:
    granted: bool
    compliance: Optional[ComplianceResult]
    assessment: Optional[Assessment]
    applied_penalties: tuple[AppliedPenalty, ...]
    lockout_triggered: bool

    def invariant_holds(self) -> bool:
        if self.lockout_triggered:
            return not self.granted
        return self.granted == (
            self.compliance is not None
            and self.compliance.compliant
            and self.assessment is not None
            and self.assessment.passed
        )

    def to_dict(self) -> dict:
        compliance = None
        if self.compliance is not None:
            compliance = {
                "perPolicy": [[pid, passed] for pid, passed in self.compliance.per_policy],
                "compliant": self.compliance.compliant,
                "custodianHasData": self.compliance.custodian_has_data,
                "custodianComplete": self.compliance.custodian_complete,
            }
        assessment = None
        if self.assessment is not None:
            assessment = {
                "passed": self.assessment.passed,
                "weightedAverage": str(self.assessment.weighted_average),
            }
        return {
            "granted": self.granted,
            "compliance": compliance,
            "assessment": assessment,
            "appliedPenalties": [p.to_dict() for p in self.applied_penalties],
            "lockoutTriggered": self.lockout_triggered,
        }


@dataclass(frozen=True)
class DataResponse:
    request_id: str
    decision: AccessDecision
    records: Optional[list[bytes]]
    custodian_notices: tuple[dict, ...]
    timings: dict[str, float]

    def body(self) -> list[bytes]:
        """The reply body as byte chunks, which join to the UTF-8 of the text
        `json.dumps` gives for this response. The rows, one variable `x`
        each, are one chunk joined from their JSON bytes; no text of the
        whole body is built."""
        dumps = json.dumps
        head = (
            f'{{"requestId": {dumps(self.request_id)}, '
            f'"decision": {dumps(self.decision.to_dict())}, "records": '
        )
        tail = (
            f', "custodianNotices": {dumps(self.custodian_notices)}, '
            f'"timings": {dumps(self.timings)}}}'
        )
        if self.records is None:
            return [(head + "null" + tail).encode()]
        head += '{"variables": ["x"], "rows": ['
        return [head.encode(), b", ".join(self.records), ("]}" + tail).encode()]

    def to_json(self) -> str:
        """The reply body as text."""
        return b"".join(self.body()).decode()

    def to_dict(self) -> dict:
        """The reply body parsed back into a dict."""
        return json.loads(self.to_json())


def _body_slices(updates: list[ScoreUpdate]) -> Iterable[list[dict]]:
    """`updates` as dicts, in runs whose `{"updates": [...]}` body each
    encodes within MAX_BODY_BYTES; 64 bytes are kept for the envelope."""
    batch, size = [], 64
    for data in map(ScoreUpdate.to_dict, updates):
        length = len(json.dumps(data)) + 2  # the item and its ", "
        if batch and size + length > MAX_BODY_BYTES:
            yield batch
            batch, size = [], 64
        batch.append(data)
        size += length
    if batch:
        yield batch


def _request_to_dict(request: DataRequest) -> dict:
    return {
        "requestId": request.request_id,
        "user": request.user.iri,
        "userLabel": request.user.label,
        "userOrg": request.user.affiliation,
        "custodian": request.custodian,
        "category": request.category,
        "purpose": request.purpose,
        "timestamp": request.timestamp,
    }


def _text(data: dict, name: str, default: Optional[str] = None) -> str:
    """`data[name]`, which must be a string; required when no default."""
    value = data.get(name, default)
    if not isinstance(value, str):
        raise RequestValidationError(f"{name} must be a string, got {value!r}")
    return value


def _texts(data: dict, name: str) -> list[str]:
    values = data.get(name, [])
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise RequestValidationError(f"{name} must be a list of strings, got {values!r}")
    return values


def _request_from_dict(data: dict) -> DataRequest:
    org = data.get("userOrg")
    user = PrincipalRef(
        iri=_text(data, "user"),
        kind=vocab.USER,
        label=_text(data, "userLabel", ""),
        affiliation=None if org is None else _text(data, "userOrg"),
    )
    kwargs = {}
    # an empty or null requestId asks for a fresh one, as an absent one does
    if data.get("requestId") is not None and _text(data, "requestId"):
        kwargs["request_id"] = data["requestId"]
    timestamp = data.get("timestamp")
    if timestamp is not None:
        if (not isinstance(timestamp, (int, float)) or isinstance(timestamp, bool)
                or isinstance(timestamp, float) and not math.isfinite(timestamp)):
            # NaN and the infinities would make the log line not JSON
            raise RequestValidationError(f"timestamp must be a finite number, got {timestamp!r}")
        kwargs["timestamp"] = timestamp
    return DataRequest(
        user=user,
        custodian=_text(data, "custodian"),
        category=_text(data, "category"),
        purpose=_text(data, "purpose"),
        **kwargs,
    )


def _dua_from_dict(data: dict) -> DuaRecord:
    return DuaRecord(
        iri=_text(data, "iri"),
        custodian=_text(data, "custodian"),
        recipient=_text(data, "recipient"),
        requested_data=frozenset(_texts(data, "requestedData")),
        permitted_use=frozenset(_texts(data, "permittedUseOrDisclosure")),
        term=_text(data, "term", ""),
        termination_effect=_text(data, "terminationEffect", ""),
        termination_cause=_text(data, "terminationCause", ""),
        storage=_text(data, "storage", ""),
        access=_text(data, "access", ""),
        protections=_text(data, "protections", ""),
    )


class ExchangeMiddleware:
    """One trusted node mediating every exchange against its graph."""

    def __init__(
        self,
        graph: Graph,
        assessment: Optional[AssessmentConfig] = None,
        penalties: Optional[PenaltyConfig] = None,
        policies: Iterable[PolicyTemplate] = (),  # extensions; the built-ins always run
        node_id: str = DEFAULT_NODE_ID,
        peers: Iterable[str] = (),
        log_path: Optional[str] = None,
        completeness_sample: int = COMPLETENESS_SAMPLE,
    ):
        vocab.bootstrap_vocabulary(graph)
        self.graph = graph
        self.node_id = node_id
        self.assessment_cfg = assessment or AssessmentConfig()
        self.penalty_cfg = penalties or PenaltyConfig()
        self.registry = TrustRegistry(graph)
        self.engine = PolicyEngine(graph, policies, completeness_sample)
        self.peers = list(peers)
        self._log_file = open(log_path, "a", encoding="utf-8") if log_path else None
        # the node's one lock, whose sections run one at a time: requests
        # decide and commit in one section, retrieval and the propagation
        # snapshot read in sections of their own
        self._lock = RWLock()
        # the queue holds the update stream from _pending_base on; a peer's
        # cursor counts the updates it acknowledged from the stream's start
        self._pending: list[ScoreUpdate] = []
        self._pending_base = 0
        self._peer_cursor: dict[str, int] = dict.fromkeys(self.peers, 0)
        self._register_principals()
        # registration may emit events; initial scores are not propagated
        self.registry.take_events()

    # -- principals ---------------------------------------------------------

    def _register_principals(self) -> None:
        graph = self.graph

        def first(subject, prop, default):
            return next((o.lexical for o in graph.objects_for(subject, prop)), default)

        for org in graph.subjects_for(vocab.RDF_TYPE, vocab.SYN_ORGANIZATION):
            self.registry.register(PrincipalRef(
                iri=org.lexical, kind=vocab.ORGANIZATION, label=first(org, vocab.RDFS_LABEL, "")
            ))
        for user in graph.subjects_for(vocab.RDF_TYPE, vocab.TST_USER):
            self.registry.register(PrincipalRef(
                iri=user.lexical, kind=vocab.USER, label=first(user, vocab.RDFS_LABEL, ""),
                affiliation=first(user, vocab.IS_AFFILIATED_WITH, None),
            ))

    def build_request(self, user_iri: str, category: str, purpose: str,
                      request_id: Optional[str] = None) -> DataRequest:
        """Request against this node's single custodian, resolving the user
        from the registry."""
        user = self.registry.get(user_iri).principal
        kwargs = {"request_id": request_id} if request_id else {}
        return DataRequest(
            user=user,
            custodian=self.custodian_iri(),
            category=category,
            purpose=purpose,
            **kwargs,
        )

    def custodian_iri(self) -> str:
        for subject, _, _ in self.graph.iter_terms(None, vocab.HAS_DATA_CATEGORY, None):
            return subject.lexical
        raise MiddlewareError("no custodian inventory in the graph")

    # -- exchange cycle -------------------------------------------------------

    def handle_request(self, request: DataRequest) -> DataResponse:
        timings = dict.fromkeys(DECISION_STAGES, 0.0)
        registry = self.registry
        try:
            user = request.user
            if not registry.is_registered(user.iri):
                raise UnknownPrincipalError(f"unknown user: {user.iri}")
            if not registry.is_registered(request.custodian):
                raise UnknownPrincipalError(f"unknown custodian: {request.custodian}")
            # the policies find the user by label, so a label or affiliation
            # other than the registry's would be checked as someone else
            known = registry.get(user.iri).principal
            if (user.label, user.affiliation) != (known.label, known.affiliation):
                raise RequestValidationError(
                    f"user label or affiliation differs from the record of {user.iri}"
                )
            org = user.affiliation
            if org is None or not registry.is_registered(org):
                raise RequestValidationError(f"user has no registered affiliation: {user.iri}")
        except Exception as exc:
            logger.warning("request %s rejected: %s", request.request_id, exc)
            raise

        # the verdict, its score mutations and its log line commit as one
        # step, so the log order is the order the state changed in
        clock = time.perf_counter
        compliance = assessment = None
        applied: list[AppliedPenalty] = []
        notices: list[dict] = []
        with self._lock.write():
            locked = registry.check_lockout(request.custodian, org)
            if locked:
                granted = False
                notices.append({"type": "lockout", "custodian": request.custodian, "organization": org})
            else:
                compliance = self.engine.evaluate(request, timings)
                t0 = clock()
                assessment = registry.assess(user.iri, self.assessment_cfg)
                granted = compliance.compliant and assessment.passed
                penalty = self.engine.penalty_for(compliance)
                if penalty is not None:
                    for principal, before, after in registry.penalize(
                        penalty, user.iri, request.custodian, self.penalty_cfg
                    ):
                        applied.append(AppliedPenalty(
                            principal, penalty, canonical_score(before), canonical_score(after)
                        ))
                    if applied[0].principal == request.custodian:
                        notices.append({
                            "type": penalty,
                            "category": request.category,
                            "custodian": request.custodian,
                        })
                self._enqueue(registry.take_events())
                timings[STAGE_TRUST_UPDATE] += clock() - t0
            decision = AccessDecision(
                granted=granted,
                compliance=compliance,
                assessment=assessment,
                applied_penalties=tuple(applied),
                lockout_triggered=locked,
            )
            self._append_log(request, decision, timings)

        records = None
        timings[STAGE_RETRIEVAL] = 0.0
        if granted:
            t0 = clock()
            with self._lock.read():
                records = self.retrieve(request.category)
            timings[STAGE_RETRIEVAL] = clock() - t0
        return DataResponse(
            request_id=request.request_id,
            decision=decision,
            records=records,
            custodian_notices=tuple(notices),
            timings=timings,
        )

    def retrieve(self, category_iri: str) -> list[bytes]:
        """All instances of the category in lexical order, each as the bytes
        of its one-element JSON row, read from the graph's current index leaf."""
        return self.graph.subject_rows(RDF_TYPE, iri(category_iri))

    # -- score propagation -----------------------------------------------------

    def _enqueue(self, events) -> None:
        """Queue committed score events for the peers, under the node lock."""
        if not self.peers or not events:
            return
        for principal, score, value, version in events:
            self._pending.append(ScoreUpdate(
                principal=principal,
                score=score,
                value=canonical_score(value),
                version=version,
                origin=self.node_id,
            ))

    def pending_updates(self) -> list[ScoreUpdate]:
        with self._lock.read():
            return list(self._pending)

    def propagate_scores(self) -> dict[str, dict]:
        """Deliver pending updates to each peer at least once, in POSTs that
        each fit MAX_BODY_BYTES; a peer's cursor moves past each one it
        acknowledges, and only forward, so overlapping calls skip nothing.

        A peer that stays unreachable keeps its undelivered updates queued
        for the next call; the queue is pruned once every peer has
        acknowledged a prefix.
        """
        results: dict[str, dict] = {}
        with self._lock.read():
            base = self._pending_base
            snapshot = list(self._pending)
            cursors = dict(self._peer_cursor)
        for peer in self.peers:
            delivered, error = 0, None
            for batch in _body_slices(snapshot[cursors[peer] - base:]):
                for attempt in range(PEER_ATTEMPTS):
                    try:
                        self._post_json(peer.rstrip("/") + "/peers/scores", {"updates": batch})
                        error = None
                        break
                    except Exception as exc:
                        error = exc
                        if attempt + 1 < PEER_ATTEMPTS:
                            time.sleep(PEER_BACKOFF * (2 ** attempt))
                if error is not None:
                    break
                delivered += len(batch)
            cursors[peer] += delivered
            results[peer] = {"ok": error is None, "delivered": delivered}
            if error is not None:
                results[peer]["error"] = str(error)
                logger.warning("peer %s unreachable: %s", peer, error)
        with self._lock.write():
            head = self._pending_base
            for peer, cursor in cursors.items():
                self._peer_cursor[peer] = max(self._peer_cursor[peer], cursor)
            low = min(self._peer_cursor.values(), default=head)
            del self._pending[:low - head]
            self._pending_base = low
        return results

    def receive_scores(self, updates: Iterable[ScoreUpdate]) -> int:
        """Apply propagated updates; stale versions and duplicates are
        ignored idempotently."""
        applied = 0
        with self._lock.write():
            for update in updates:
                if self.registry.apply_remote(
                    update.principal, update.score, update.value, update.version
                ):
                    applied += 1
        return applied

    # -- agreements ---------------------------------------------------------------

    def admin_rewrite_dua(self, record: DuaRecord) -> dict:
        """Rewrite the agreement for a locked pair and lift the lockout."""
        with self._lock.write():
            custodian, recipient = self.registry.rewrite_dua_reset(
                record.custodian, record.recipient, record
            )
            self._enqueue(self.registry.take_events())
            locked = self.registry.check_lockout(record.custodian, record.recipient)
        return {
            "custodian": {"iri": custodian.principal.iri,
                          "credibility": canonical_score(custodian.credibility)},
            "recipient": {"iri": recipient.principal.iri,
                          "identity": canonical_score(recipient.identity)},
            "locked": locked,
        }

    def trust_record_dict(self, principal_iri: str) -> dict:
        return self.registry.get(principal_iri).to_dict()

    # -- transaction log --------------------------------------------------------

    def _append_log(self, request: DataRequest, decision: AccessDecision,
                    timings: dict[str, float]) -> None:
        """Write the committed decision with the stages timed before it."""
        if self._log_file is None:
            return
        record = {
            "requestId": request.request_id,
            "request": _request_to_dict(request),
            "decision": decision.to_dict(),
            "timings": timings,
        }
        self._log_file.write(json.dumps(record, sort_keys=True) + "\n")
        self._log_file.flush()

    def replay_log(self, records: Iterable) -> int:
        """Re-run the logged requests; with the same initial state this
        reproduces the final registry exactly."""
        count = 0
        for entry in records:
            if isinstance(entry, str):
                entry = json.loads(entry)
            self.handle_request(_request_from_dict(entry["request"]))
            count += 1
        return count

    def close(self) -> None:
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None

    # -- http client ---------------------------------------------------------------

    def _post_json(self, url: str, payload: dict) -> dict:
        # imported here: it loads http.client, email and ssl, which a node
        # with no peers never needs
        import urllib.request

        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"}, method="POST"
        )
        with urllib.request.urlopen(request, timeout=PEER_TIMEOUT) as response:
            return json.loads(response.read() or b"{}")


# -- http server ---------------------------------------------------------------


class MiddlewareHTTPServer(socketserver.TCPServer):
    """The HTTP API. Its handler threads each block in `accept()` on the
    listening socket and serve the connection they get, so no thread is
    started per connection.

    One thread always waits in `accept()`: a worker that takes the last
    waiting slot starts another before it serves. A worker that finishes
    while two others wait (the next acceptor and one spare) exits, so a
    client that connects and stalls holds up only its own thread, and the
    pool shrinks back after a burst.
    """

    allow_reuse_address = True

    def __init__(self, address, service: ExchangeMiddleware):
        super().__init__(address, _Handler)
        self.service = service
        self._pool = threading.Condition()
        self._accepting = 0  # threads in accept(), or about to call it
        self._stopping = False

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Start the first worker and block until `shutdown`."""
        with self._pool:
            if self._stopping:
                return
            self._start_worker()
            while not self._stopping:
                self._pool.wait()

    def shutdown(self) -> None:
        """Stop accepting and return once no thread is in `accept()`.
        Handlers still serving a connection finish on their own."""
        with self._pool:
            if not self._stopping:
                self._stopping = True
                # wakes every accept() with EINVAL, and fails each later one
                self.socket.shutdown(socket.SHUT_RDWR)
                self._pool.notify_all()
            while self._accepting:
                self._pool.wait()

    def _start_worker(self) -> None:
        threading.Thread(target=self._work, daemon=True).start()

    def _work(self) -> None:
        while True:
            with self._pool:
                if self._stopping or self._accepting > 1:
                    return
                self._accepting += 1
            try:
                request, address = self.socket.accept()
            except OSError:
                request = None
            with self._pool:
                self._accepting -= 1
                if self._stopping:
                    self._pool.notify_all()
                waiting = self._accepting
            if request is None:
                continue
            try:
                if not waiting:
                    self._start_worker()
                self.finish_request(request, address)
            except Exception:
                self.handle_error(request, address)
            finally:
                self.shutdown_request(request)


def _send_all(sock: socket.socket, buffers: list) -> None:
    """Write the buffers in order with as few `sendmsg` calls as the socket
    allows, slicing views rather than joining copies."""
    views = [memoryview(b) for b in buffers]
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views.pop(0))
        if views:
            views[0] = views[0][sent:]


# the reader's bounds: a request or header line longer than MAX_LINE_BYTES,
# its line ending counted, is refused, and so is a header block of
# MAX_HEADER_LINES lines or more, its closing blank line counted
MAX_LINE_BYTES = 65536
MAX_HEADER_LINES = 100

_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")
# a header field name: visible ASCII but the colon
_FIELD_NAME = re.compile(rb"[!-9;-~]+")
_DIGITS = re.compile(r"[ \t]*[0-9]+[ \t]*")
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _http_date() -> str:
    """The time now as an HTTP date (RFC 9110 section 5.6.7), in English
    whatever the locale."""
    t = time.gmtime()
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} "
            f"{t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")


class _Handler:
    """One connection: read one request from the accepted socket, call its
    `do_<METHOD>` and send one HTTP/1.0 reply; the server then closes the
    connection. `MiddlewareHTTPServer.finish_request`, which `socketserver`
    provides, builds one per connection."""

    def __init__(self, request: socket.socket, client_address, server: MiddlewareHTTPServer):
        self.connection = request
        self.client_address = client_address
        self.server = server
        self.requestline = ""
        self.http09 = False  # a two-word GET line, whose reply is the body alone
        self.rfile = request.makefile("rb")
        try:
            handler = self._read_request()
            if handler is not None:
                handler()
        finally:
            self.rfile.close()

    def _read_request(self):
        """The `do_` method for the request on the socket; None once a
        refused request has had its reply, or when there is no request
        line."""
        rfile = self.rfile
        line = rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            return self._refuse(414)
        self.requestline = text = str(line, "iso-8859-1").rstrip("\r\n")
        words = text.split()
        if not words:
            return None
        if len(words) >= 3:
            version = words[-1]
            match = _VERSION.fullmatch(version)
            if match is None:
                return self._refuse(400, f"Bad request version ({version!r})")
            if int(match[1]) >= 2:
                return self._refuse(505, f"Invalid HTTP version ({version[5:]})")
        if not 2 <= len(words) <= 3:
            return self._refuse(400, f"Bad request syntax ({text!r})")
        command, path = words[:2]
        if len(words) == 2:
            if command != "GET":
                return self._refuse(400, f"Bad HTTP/0.9 request type ({command!r})")
            self.http09 = True
        # a client reads "//x/y" as host x, so the target loses its extra slashes
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        # every header line is read before a bad one is refused; only
        # Content-Length is used, by its first value
        bad = length = None
        for count in range(MAX_HEADER_LINES + 1):
            line = rfile.readline(MAX_LINE_BYTES + 1)
            if len(line) > MAX_LINE_BYTES:
                return self._refuse(431, "Line too long")
            if count == MAX_HEADER_LINES:
                return self._refuse(431, "Too many headers")
            if line in (b"\r\n", b"\n", b""):
                break
            if bad is not None:
                continue
            name, colon, value = line.partition(b":")
            if not colon or not _FIELD_NAME.fullmatch(name):
                # no colon, a space before it, or a folded line (RFC 9112 section 5)
                bad = f"Bad header line ({str(line, 'iso-8859-1').rstrip()!r})"
            elif name.lower() == b"content-length":
                value = str(value, "iso-8859-1").lstrip(" \t").rstrip("\r\n")
                if length is None:
                    length = value
                elif value != length:  # RFC 9112 section 6.3
                    bad = f"Conflicting Content-Length values ({length!r}, {value!r})"
        if bad is not None:
            return self._refuse(400, bad)
        self.content_length = length
        handler = getattr(self, "do_" + command, None)
        if handler is None:
            return self._refuse(501, f"Unsupported method ({command!r})")
        return handler

    def _refuse(self, status: int, message: Optional[str] = None) -> None:
        """The reader's refusals, in JSON like every other reply, and with a
        status line also for an HTTP/0.9 request."""
        self.http09 = False
        self._reply(status, {"error": message or HTTPStatus(status).phrase})

    def _reply(self, status: int, payload) -> None:
        """Send `payload`, a dict to encode or a body already encoded as a
        list of byte chunks; the status line, headers and body leave in one
        write."""
        body = payload if isinstance(payload, list) else [json.dumps(payload).encode()]
        logger.debug('http: %s "%s" %d', self.client_address[0], self.requestline, status)
        head = b""
        if not self.http09:
            head = (
                f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\nServer: trustgate\r\n"
                f"Date: {_http_date()}\r\nContent-Type: application/json\r\n"
                f"Content-Length: {sum(map(len, body))}\r\n\r\n"
            ).encode("latin-1")
        _send_all(self.connection, [head, *body])

    def _body(self) -> dict:
        value = "0" if self.content_length is None else self.content_length
        if not _DIGITS.fullmatch(value):  # RFC 9110 section 8.6; int() also takes "+15", "1_5"
            raise ValueError(f"Content-Length is not a number of bytes: {value!r}")
        length = int(value)
        if length > MAX_BODY_BYTES:
            # reading a false length would hold this thread until the client left
            raise RequestTooLargeError(f"request body of {length} bytes exceeds {MAX_BODY_BYTES}")
        raw = self.rfile.read(length) if length else b""
        return json.loads(raw or b"{}")

    def _path(self) -> Optional[str]:
        """The path of the request target, or None once a target that does
        not parse has had its 400."""
        try:
            return urlparse(self.path).path
        except ValueError as exc:  # e.g. an unclosed "[" in the host
            self._reply(400, {"error": f"bad request target: {exc}"})
            return None

    def do_GET(self):
        service = self.server.service
        path = self._path()
        if path is None:
            return
        if path == "/healthz":
            self._reply(200, {"status": "ok", "node": service.node_id})
        elif path.startswith("/trust/"):
            principal = unquote(path[len("/trust/"):])
            try:
                self._reply(200, service.trust_record_dict(principal))
            except UnknownPrincipalError as exc:
                self._reply(404, {"error": str(exc)})
        else:
            self._reply(404, {"error": f"no such path: {path}"})

    def do_POST(self):
        service = self.server.service
        path = self._path()
        if path is None:
            return
        try:
            body = self._body()
        except RequestTooLargeError as exc:
            self._reply(413, {"error": str(exc)})
            return
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError is a ValueError; deep nesting exhausts the decoder's stack
            self._reply(400, {"error": f"bad request body: {exc}"})
            return
        if not isinstance(body, dict):
            self._reply(400, {"error": "request body must be a JSON object"})
            return
        try:
            if path == "/requests":
                request = _request_from_dict(self._fill_request(body))
                response = service.handle_request(request)
                self._reply(200, response.body())
            elif path == "/peers/scores":
                updates = body.get("updates")
                if not isinstance(updates, list) or not all(isinstance(u, dict) for u in updates):
                    raise RequestValidationError("updates must be a list of JSON objects")
                updates = [ScoreUpdate.from_dict(u) for u in updates]
                applied = service.receive_scores(updates)
                self._reply(200, {"applied": applied})
            elif path == "/admin/dua":
                self._reply(200, service.admin_rewrite_dua(_dua_from_dict(body)))
            else:
                self._reply(404, {"error": f"no such path: {path}"})
        except UnknownPrincipalError as exc:
            self._reply(404, {"error": str(exc)})
        except (LockStateError, DuaMismatchError) as exc:
            self._reply(409, {"error": str(exc)})
        except (RequestValidationError, PolicyError, OntologyError, TrustError, StoreError,
                KeyError) as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # last-resort guard
            request_id = body.get("requestId")
            logger.exception("request failed: POST %s, requestId %s", path,
                             request_id if isinstance(request_id, str) else "-")
            self._reply(500, {"error": str(exc)})

    def _fill_request(self, body: dict) -> dict:
        service = self.server.service
        data = dict(body)
        user = data.get("user")
        # a user that is not a string is refused by _request_from_dict
        if isinstance(user, str) and ("userLabel" not in data or "userOrg" not in data):
            record = service.registry.get(user)
            data.setdefault("userLabel", record.principal.label)
            data.setdefault("userOrg", record.principal.affiliation)
        data.setdefault("custodian", service.custodian_iri())
        return data


def start_server(service: ExchangeMiddleware) -> MiddlewareHTTPServer:
    """Start the HTTP API on a free loopback port in a daemon thread."""
    server = MiddlewareHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


# -- configuration ---------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    """key=value lines; '#' starts a comment, also after a value."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MiddlewareError(f"config line {line_no}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise MiddlewareError(f"config line {line_no}: {key} is already set")
        out[key] = value
    return out


_FLAGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_CONFIG_CLASSES = {"assessment": AssessmentConfig, "penalties": PenaltyConfig}
# each config key: the config argument of `ExchangeMiddleware` whose field
# it is (None for an argument of its own), and the type its value reads as
CONFIG_KEYS = {f.name: (arg, type(f.default))
               for arg, cls in _CONFIG_CLASSES.items() for f in fields(cls)}
CONFIG_KEYS["completeness_sample"] = (None, int)


def configs_from_mapping(mapping: dict[str, str]) -> dict:
    """`ExchangeMiddleware` keyword arguments from the keys a config file
    sets; the defaults are those `AssessmentConfig`, `PenaltyConfig` and
    `ExchangeMiddleware` declare. An unknown key, or a value that does not
    read or lies out of range, is refused by name."""
    options: dict = {}
    chosen: dict[str, dict] = {arg: {} for arg in _CONFIG_CLASSES}
    for key, text in mapping.items():
        if key not in CONFIG_KEYS:
            raise MiddlewareError(f"unknown config key: {key}")
        arg, kind = CONFIG_KEYS[key]
        try:
            value = _FLAGS[text.lower()] if kind is bool else kind(text)
            if arg is not None:
                _CONFIG_CLASSES[arg](**{key: value})  # a range error names its key
            elif value < 1:  # the probe samples at least one instance
                raise ValueError(text)
        except (ArithmeticError, LookupError, ValueError, TrustError) as exc:
            reason = f" ({exc})" if isinstance(exc, TrustError) else ""
            raise MiddlewareError(f"config key {key}: bad value {text!r}{reason}") from None
        (options if arg is None else chosen[arg])[key] = value
    try:
        options.update((arg, cls(**chosen[arg])) for arg, cls in _CONFIG_CLASSES.items())
    except TrustError as exc:  # weights that are both zero
        raise MiddlewareError(f"config: {exc}") from None
    return options


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return configs_from_mapping(parse_config_text(handle.read()))
