"""Seeded workloads: the dataset each one serves, the operations each client
sends, and the oracle that checks every reply.

Each client is a `Driver`: `next_op()` yields the next operation and
`check()` compares the server's reply with what the oracle expects. Every
driver mirrors the state it depends on (user behavior scores, custodian
credibility, peer score versions) from its own inputs. Only after a reply
has been counted as wrong does the mirror adopt the scores that reply
reports, so that one wrong verdict counts once instead of failing every
later request of the same principal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional

from trustgate import ontology as vocab
from trustgate.ontology import read_dua
from trustgate.store import SYN_NS, serialize_lines
from trustgate.synth import GeneratorSpec, demographics_manifest, generate_dataset

# the policy outcomes a reply lists, in the order it lists them
DUA_EXISTS = "dua-exists"
REQUESTED_DATA = "requested-data-in-dua"
CUSTODIAN_HAS_CATEGORY = "custodian-has-category"
PURPOSE_PERMITTED = "purpose-permitted"

# deductions and the grant threshold of the default configuration
NO_DUA_DEDUCTION = Decimal("0.02")
VIOLATION_DEDUCTION = Decimal("0.01")
MISSING_CATEGORY_DEDUCTION = Decimal("0.02")
THRESHOLD = Decimal("0.9")
HALF = Decimal("0.5")
ONE = Decimal("1.0000")
ZERO = Decimal("0.0000")

# verdicts-1k's request mix: kind -> share
VERDICT_MIX = (
    ("clean", 0.70),
    ("no-agreement", 0.08),
    ("category-not-granted", 0.07),
    ("purpose-not-permitted", 0.07),
    ("missing-category", 0.08),
)

PEER_PRINCIPALS = 50
PEER_BATCH = 20

# contended-10k's writer pauses for a random time, exponential with this
# mean, after each operation. Back to back, its operations lock into step
# with the reader's, and whether they land in its retrievals then depends on
# the host's speed of the moment; random pauses spread them over the
# reader's cycle, so the share of writes that wait for the read lock is the
# share of time a retrieval holds it.
WRITER_THINK_S = 0.005

_INSTANCE_PREFIX = {
    vocab.SYN_PATIENT.lexical: "patient",
    vocab.SYN_ENCOUNTER.lexical: "encounter",
    vocab.SYN_OBSERVATION.lexical: "observation",
}


@dataclass(frozen=True)
class Workload:
    patients: int
    users: int
    # (driver, requests between two peer score batches; 0 for none)
    clients: tuple[tuple[str, int], ...]


# The one-client workloads send a peer score batch after every few requests,
# spread over the whole window, so that write latency is measured under the
# same conditions as the reads at a small share (about 5%) of the server's
# time. contended-10k's writer alternates one batch with one request.
#
# verdicts-1k runs like the others but is not listed in BENCHMARK.json: on
# most seeds the server's stale-verdict cache bug (ROADMAP.md) answers a few
# org_07 requests with `custodian-has-category: true`, the oracle rejects
# them and the run reports `correct: false`. It stays here so that the bug,
# and the policy-cache churn it comes from, can be reproduced and measured.
WORKLOADS = {
    "retrieve-10k": Workload(patients=10_000, users=100, clients=(("reads", 1),)),
    "verdicts-1k": Workload(patients=1_000, users=2_000, clients=(("verdicts", 10),)),
    "contended-10k": Workload(patients=10_000, users=100,
                              clients=(("reads", 0), ("writes", 1))),
}


def canonical(value: Decimal) -> str:
    """A score as the server writes it: shortest decimal, at least one
    fractional digit."""
    text = format(value.normalize(), "f")
    return text if "." in text else text + ".0"


@dataclass
class Op:
    kind: str  # "request" for POST /requests, "write" for the others
    path: str
    payload: dict
    expect: object = None


@dataclass
class Dataset:
    spec: GeneratorSpec
    path: str
    manifest: object
    rows: dict[str, list[list[str]]]
    agreements: dict[str, dict]


def build_dataset(seed: int, patients: int, users: int, path: str) -> Dataset:
    """Generate the dataset, write it where the server will load it, and
    derive the oracle's expectations from the generator's own naming."""
    spec = GeneratorSpec(seed=seed, patient_count=patients, user_count=users)
    graph = generate_dataset(spec)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(serialize_lines(graph))
    manifest = demographics_manifest(spec)
    rows = {
        category: sorted([f"<{SYN_NS}{prefix}_{n:07d}>"] for n in range(1, patients + 1))
        for category, prefix in _INSTANCE_PREFIX.items()
    }
    agreements = {}
    for org in manifest.orgs:
        if org.dua_iri is not None:
            record = read_dua(graph, org.dua_iri)
            agreements[org.iri] = {
                "iri": record.iri,
                "custodian": record.custodian,
                "recipient": record.recipient,
                "requestedData": sorted(record.requested_data),
                "permittedUseOrDisclosure": sorted(record.permitted_use),
                "term": record.term,
                "terminationEffect": record.termination_effect,
                "terminationCause": record.termination_cause,
                "storage": record.storage,
                "access": record.access,
                "protections": record.protections,
            }
    return Dataset(spec, path, manifest, rows, agreements)


@dataclass(frozen=True)
class Verdict:
    """What one POST /requests must answer. No workload expects a lockout:
    verdicts-1k lifts the only one it causes before its next request."""

    granted: bool
    per_policy: Optional[list]
    rows: Optional[int]
    penalties: list
    row_values: Optional[list] = None


def check_verdict(expect: Verdict, reply: dict) -> Optional[str]:
    """None if the reply matches, else what differs."""
    decision = reply.get("decision") or {}
    if decision.get("granted") != expect.granted:
        return f"granted {decision.get('granted')!r}, expected {expect.granted!r}"
    if decision.get("lockoutTriggered") is not False:
        return f"lockoutTriggered {decision.get('lockoutTriggered')!r}, expected False"
    compliance = decision.get("compliance")
    per_policy = compliance.get("perPolicy") if compliance else None
    if per_policy != expect.per_policy:
        return f"perPolicy {per_policy!r}, expected {expect.per_policy!r}"
    penalties = [
        {k: p.get(k) for k in ("principal", "kind", "before", "after")}
        for p in decision.get("appliedPenalties", [])
    ]
    if penalties != expect.penalties:
        return f"appliedPenalties {penalties!r}, expected {expect.penalties!r}"
    records = reply.get("records")
    if expect.rows is None:
        if records is not None:
            return "records returned for a refused request"
        return None
    if records is None:
        return "no records for a granted request"
    rows = records.get("rows")
    if not isinstance(rows, list) or len(rows) != expect.rows:
        return f"{len(rows) if isinstance(rows, list) else rows!r} rows, expected {expect.rows}"
    if expect.row_values is not None and rows != expect.row_values:
        return "rows differ from the category's instances in sorted order"
    return None


def _outcomes(*values) -> list:
    ids = (DUA_EXISTS, REQUESTED_DATA, CUSTODIAN_HAS_CATEGORY, PURPOSE_PERMITTED)
    return [[pid, value] for pid, value in zip(ids, values)]


def _request(client: str, seq: int, user, category: str, purpose: str) -> dict:
    return {"requestId": f"{client}-{seq:06d}", "user": user.iri,
            "category": category, "purpose": purpose}


class Driver:
    """One client's seeded operation stream and the oracle for its replies:
    the subclass's requests, with a peer score batch after every
    `writes_every` of them."""

    def __init__(self, name: str, dataset: Dataset, rng: random.Random, writes_every: int = 0):
        self.name = name
        self.dataset = dataset
        self.rng = rng
        self.writes_every = writes_every
        self.batches = PeerBatches(random.Random(rng.random()))
        self.mirror = BehaviorMirror()
        self.seq = 0
        self.since_write = 0

    def next_op(self) -> Op:
        if self.writes_every and self.since_write == self.writes_every:
            self.since_write = 0
            return self.batches.next_op()
        op = self.next_request()
        self.since_write += op.kind == "request"
        return op

    def next_request(self) -> Op:
        raise NotImplementedError

    def think_s(self) -> float:
        """Seconds to wait before the next operation."""
        return 0.0

    def check(self, op: Op, reply: dict) -> Optional[str]:
        if op.kind != "request":
            return None if reply == op.expect else f"reply {reply!r}, expected {op.expect!r}"
        problem = check_verdict(op.expect, reply)
        if problem is not None:
            self.resync(op.expect, reply)
        return problem

    def resync(self, expect: Verdict, reply: dict) -> dict[str, Decimal]:
        """Adopt the scores a wrong reply reports; returns those of
        principals other than users."""
        return self.mirror.resync(expect, reply)

    def _next_id(self) -> int:
        self.seq += 1
        return self.seq


class ReadDriver(Driver):
    """Clean requests drawn uniformly from the manifest: every one is
    granted and returns the category's full instance list."""

    def __init__(self, name, dataset, rng, writes_every=0):
        super().__init__(name, dataset, rng, writes_every)
        self.pool = dataset.manifest.clean_requests()
        self.clean = _outcomes(True, True, True, True)

    def next_request(self) -> Op:
        user, category, purpose = self.rng.choice(self.pool)
        rows = self.dataset.rows[category]
        expect = Verdict(True, self.clean, len(rows), [], rows)
        return Op("request", "/requests",
                  _request(self.name, self._next_id(), user, category, purpose), expect)


class PeerBatches:
    """`POST /peers/scores` batches: PEER_BATCH updates with rising
    versions, cycling over a fixed set of remote principals."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.principals = [f"http://peer.example.org/principal_{k:02d}"
                           for k in range(PEER_PRINCIPALS)]
        self.versions = [0] * PEER_PRINCIPALS
        self.cursor = 0

    def next_op(self) -> Op:
        updates = []
        for _ in range(PEER_BATCH):
            k = self.cursor % PEER_PRINCIPALS
            self.cursor += 1
            self.versions[k] += 1
            updates.append({"principal": self.principals[k], "score": "behavior",
                            "value": f"0.{self.rng.randrange(10000):04d}",
                            "version": self.versions[k], "origin": "peer-bench"})
        return Op("write", "/peers/scores", {"updates": updates}, {"applied": PEER_BATCH})


class BehaviorMirror:
    """User behavior scores as the default penalty arithmetic leaves them."""

    def __init__(self):
        self.behavior: dict[str, Decimal] = {}

    def resync(self, expect: Verdict, reply: dict) -> dict[str, Decimal]:
        """Undo the penalties the oracle expected, apply the ones the reply
        reports, and return the reported scores of other principals."""
        for penalty in expect.penalties:
            if penalty["principal"] in self.behavior:
                self.behavior[penalty["principal"]] = Decimal(penalty["before"])
        others = {}
        for penalty in (reply.get("decision") or {}).get("appliedPenalties", []):
            if penalty.get("kind") in ("noDuaRequest", "duaViolation"):
                self.behavior[penalty["principal"]] = Decimal(penalty["after"])
            else:
                others[penalty.get("principal")] = Decimal(penalty["after"])
        return others

    def passes(self, user_iri: str) -> bool:
        # identity stays at one: the default configuration never penalizes it
        return HALF * self.behavior.get(user_iri, ONE) + HALF * ONE >= THRESHOLD

    def penalize(self, user_iri: str, kind: str, deduction: Decimal) -> dict:
        before = self.behavior.get(user_iri, ONE)
        after = max(ZERO, before - deduction)
        self.behavior[user_iri] = after
        return {"principal": user_iri, "kind": kind,
                "before": canonical(before), "after": canonical(after)}


def _no_agreement_pool(manifest) -> list:
    inventory = list(manifest.inventory)
    purposes = [p.lexical for p in vocab.PERMITTED_USE_INDIVIDUALS]
    return [(user, category, purpose)
            for org in manifest.orgs if org.dua_iri is None
            for user in manifest.users_of(org.iri)
            for category in inventory for purpose in purposes]


class WriteDriver(Driver):
    """contended-10k's writer: no-agreement requests from the organizations
    without an agreement, which are denied and penalized, with a random
    pause after each operation. It shares no user with the reader."""

    def __init__(self, name, dataset, rng, writes_every=0):
        super().__init__(name, dataset, rng, writes_every)
        self.pool = _no_agreement_pool(dataset.manifest)
        self.denied = _outcomes(False, None, None, None)
        self.pauses = random.Random(rng.random())

    def think_s(self) -> float:
        return self.pauses.expovariate(1 / WRITER_THINK_S)

    def next_request(self) -> Op:
        user, category, purpose = self.rng.choice(self.pool)
        penalty = self.mirror.penalize(user.iri, "noDuaRequest", NO_DUA_DEDUCTION)
        expect = Verdict(False, self.denied, None, [penalty])
        return Op("request", "/requests",
                  _request(self.name, self._next_id(), user, category, purpose), expect)


class VerdictDriver(Driver):
    """verdicts-1k: a clean/violating mix over 2000 users. The oracle
    mirrors user deductions and custodian credibility; after the reply that
    drives credibility to zero it re-posts the missing-category
    organization's agreement through `POST /admin/dua`, as an operator
    would."""

    def __init__(self, name, dataset, rng, writes_every=0):
        super().__init__(name, dataset, rng, writes_every)
        manifest = dataset.manifest
        inventory = set(manifest.inventory)
        all_purposes = [p.lexical for p in vocab.PERMITTED_USE_INDIVIDUALS]
        self.pools = {kind: [] for kind, _ in VERDICT_MIX}
        self.pools["clean"] = manifest.clean_requests()
        self.pools["no-agreement"] = _no_agreement_pool(manifest)
        for org in manifest.orgs:
            if org.dua_iri is None:
                continue
            granted = [c for c in org.categories if c in inventory]
            users = manifest.users_of(org.iri)
            if not granted:
                self.missing_org = org.iri
                self.pools["missing-category"] += [
                    (u, c, p) for u in users for c in org.categories for p in org.purposes]
                continue
            self.pools["category-not-granted"] += [
                (u, c, p) for u in users for c in sorted(inventory - set(granted))
                for p in org.purposes]
            self.pools["purpose-not-permitted"] += [
                (u, c, p) for u in users for c in granted
                for p in all_purposes if p not in org.purposes]
        self.kinds = [kind for kind, _ in VERDICT_MIX]
        self.weights = [share for _, share in VERDICT_MIX]
        self.custodian = manifest.custodian_iri
        self.credibility = ONE
        self.locked = False

    def next_request(self) -> Op:
        if self.locked:
            self.locked = False
            self.credibility = ONE
            agreement = self.dataset.agreements[self.missing_org]
            expect = {"custodian": {"iri": self.custodian, "credibility": "1.0"},
                      "recipient": {"iri": self.missing_org, "identity": "1.0"},
                      "locked": False}
            return Op("write", "/admin/dua", agreement, expect)
        kind = self.rng.choices(self.kinds, self.weights)[0]
        user, category, purpose = self.rng.choice(self.pools[kind])
        payload = _request(self.name, self._next_id(), user, category, purpose)
        return Op("request", "/requests", payload, self._verdict(kind, user.iri, category))

    def resync(self, expect, reply):
        others = super().resync(expect, reply)
        if self.custodian in others:
            self.credibility = others[self.custodian]
        elif any(p["principal"] == self.custodian for p in expect.penalties):
            self.credibility = Decimal(expect.penalties[0]["before"])
        self.locked = self.credibility <= ZERO

    def _verdict(self, kind: str, user_iri: str, category: str) -> Verdict:
        passes = self.mirror.passes(user_iri)
        if kind == "clean":
            rows = self.dataset.spec.patient_count if passes else None
            return Verdict(passes, _outcomes(True, True, True, True), rows, [])
        if kind == "missing-category":
            before = self.credibility
            self.credibility = max(ZERO, before - MISSING_CATEGORY_DEDUCTION)
            self.locked = self.credibility <= ZERO
            penalty = {"principal": self.custodian, "kind": "missingCategory",
                       "before": canonical(before), "after": canonical(self.credibility)}
            # the custodian holds no instance of the category
            return Verdict(passes, _outcomes(True, True, False, True),
                           0 if passes else None, [penalty])
        if kind == "no-agreement":
            penalty = self.mirror.penalize(user_iri, "noDuaRequest", NO_DUA_DEDUCTION)
            return Verdict(False, _outcomes(False, None, None, None), None, [penalty])
        penalty = self.mirror.penalize(user_iri, "duaViolation", VIOLATION_DEDUCTION)
        if kind == "category-not-granted":
            return Verdict(False, _outcomes(True, False, None, None), None, [penalty])
        return Verdict(False, _outcomes(True, True, None, False), None, [penalty])


DRIVERS = {"reads": ReadDriver, "writes": WriteDriver, "verdicts": VerdictDriver}


def make_drivers(workload: Workload, dataset: Dataset, seed: int) -> list[Driver]:
    return [DRIVERS[client](client, dataset, random.Random(f"{seed}:{client}"), writes_every)
            for client, writes_every in workload.clients]
