"""Authoritative trust-score lifecycle for users and organizations.

Scores are fixed-point decimals with four fractional digits so that repeated
0.01 deductions land exactly on zero; the graph carries a projection of every
score (written in canonical decimal form) that each commit rewrites if it changed.

A penalty kind names who pays it (`USER_PENALTIES`, `ORG_PENALTIES`). The
lock rule: a custodian and a recipient organization stop exchanging once the
custodian's credibility or the recipient's identity is zero, or the pair
carries a lock mark, which a penalty that zeroes either score sets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Decimal
from typing import Optional

from .ontology import (
    BEHAVIOR_TRUST,
    CREDIBILITY,
    DUA_CLASS,
    HAS_DATA_CUSTODIAN,
    HAS_RECIPIENT,
    IDENTITY_TRUST,
    ORGANIZATION,
    RDF_TYPE,
    USER,
    DuaRecord,
    PrincipalRef,
    write_dua,
)
from .store import XSD_FLOAT, Graph, Triple, iri, typed

SCALE = Decimal("0.0001")
ZERO = Decimal("0.0000")
ONE = Decimal("1.0000")

# each score name is the TrustRecord field that holds it
BEHAVIOR = "behavior"
IDENTITY = "identity"
CREDIBILITY_SCORE = "credibility"
SCORE_NAMES = (IDENTITY, BEHAVIOR, CREDIBILITY_SCORE)
# each score's projected predicate, in the order a projection writes them
_SCORE_PREDICATES = {BEHAVIOR: BEHAVIOR_TRUST, IDENTITY: IDENTITY_TRUST,
                     CREDIBILITY_SCORE: CREDIBILITY}

DUA_VIOLATION = "duaViolation"
NO_DUA_REQUEST = "noDuaRequest"
MISSING_CATEGORY = "missingCategory"
MISSING_PROPERTIES = "missingProperties"

USER_PENALTIES = (DUA_VIOLATION, NO_DUA_REQUEST)
ORG_PENALTIES = (MISSING_CATEGORY, MISSING_PROPERTIES)


class TrustError(Exception):
    pass


class DuplicatePrincipalError(TrustError):
    pass


class UnknownPrincipalError(TrustError):
    pass


class PrincipalKindError(TrustError):
    pass


class LockStateError(TrustError):
    pass


class DuaMismatchError(TrustError):
    pass


def as_score(value) -> Decimal:
    """Quantize to the four-digit fixed-point grid and bounds-check [0, 1]."""
    score = Decimal(str(value)).quantize(SCALE)
    if score < ZERO or score > ONE:
        raise TrustError(f"score out of range [0, 1]: {value}")
    return score


def canonical_score(value: Decimal) -> str:
    """Shortest decimal form with at least one fractional digit.

    This is the exact lexical form projected into the graph, so 1 renders as
    "1.0" and 90 hundredths as "0.9" -- the forms the score-update policy
    deletes and inserts.
    """
    text = format(value.normalize(), "f")
    if "." not in text:
        text += ".0"
    return text


@dataclass(frozen=True)
class TrustRecord:
    """Scores for one principal; users carry behavior, organizations
    credibility, and both carry identity."""

    principal: PrincipalRef
    behavior: Optional[Decimal]
    identity: Decimal
    credibility: Optional[Decimal]
    version: int = 1
    locked_with: frozenset[str] = frozenset()
    grace_used: int = 0

    def is_user(self) -> bool:
        return self.principal.kind == USER

    def scores(self) -> dict[str, Decimal]:
        return {
            name: value for name in SCORE_NAMES if (value := getattr(self, name)) is not None
        }

    def to_dict(self) -> dict:
        """The record as `GET /trust` sends it."""
        return {
            "principal": self.principal.iri,
            "kind": self.principal.kind,
            "label": self.principal.label,
            "version": self.version,
            "scores": {name: canonical_score(value) for name, value in self.scores().items()},
            "lockedWith": sorted(self.locked_with),
        }


@dataclass(frozen=True)
class Assessment:
    passed: bool
    weighted_average: Decimal


@dataclass(frozen=True)
class AssessmentConfig:
    """Weights for the behavior/identity average and the grant threshold.

    Weights are normalized to sum to one at construction.
    """

    w_behavior: Decimal = Decimal("0.5")
    w_identity: Decimal = Decimal("0.5")
    threshold: Decimal = Decimal("0.9")

    def __post_init__(self):
        wb = Decimal(str(self.w_behavior))
        wi = Decimal(str(self.w_identity))
        if wb < 0 or wi < 0:
            raise TrustError("assessment weights must be non-negative")
        total = wb + wi
        if total == 0:
            raise TrustError("assessment weights must not both be zero")
        wb = wb / total
        object.__setattr__(self, "w_behavior", wb)
        object.__setattr__(self, "w_identity", Decimal(1) - wb)
        threshold = Decimal(str(self.threshold))
        if threshold < 0 or threshold > 1:
            raise TrustError("threshold must lie in [0, 1]")
        object.__setattr__(self, "threshold", threshold)


@dataclass(frozen=True)
class PenaltyConfig:
    """Deduction sizes per violation kind plus the tolerance grace count.

    `tolerance_grace` violations per principal are forgiven before deductions
    begin; `penalize_org_identity` extends user deductions to the affiliated
    organization's identity score.
    """

    dua_violation: Decimal = Decimal("0.01")
    no_dua_request: Decimal = Decimal("0.02")
    missing_category: Decimal = Decimal("0.02")
    missing_properties: Decimal = Decimal("0.01")
    tolerance_grace: int = 0
    penalize_org_identity: bool = False

    def __post_init__(self):
        for name in ("dua_violation", "no_dua_request", "missing_category", "missing_properties"):
            value = Decimal(str(getattr(self, name)))
            if not (Decimal(0) < value <= Decimal(1)):
                raise TrustError(f"{name} deduction must lie in (0, 1]")
            object.__setattr__(self, name, value)
        if self.tolerance_grace < 0:
            raise TrustError("tolerance_grace must be non-negative")

    def deduction(self, kind: str) -> Decimal:
        return {
            DUA_VIOLATION: self.dua_violation,
            NO_DUA_REQUEST: self.no_dua_request,
            MISSING_CATEGORY: self.missing_category,
            MISSING_PROPERTIES: self.missing_properties,
        }[kind]


def _zeroed(custodian: TrustRecord, recipient: TrustRecord) -> list[tuple[str, str]]:
    """(principal, score name) for each score of a custodian and recipient
    organization pair that is at zero and so locks the pair: the custodian's
    credibility and the recipient's identity."""
    zeroed = []
    if custodian.credibility is not None and custodian.credibility <= ZERO:
        zeroed.append((custodian.principal.iri, CREDIBILITY_SCORE))
    if recipient.identity <= ZERO:
        zeroed.append((recipient.principal.iri, IDENTITY))
    return zeroed


def assess(record: TrustRecord, cfg: AssessmentConfig) -> Assessment:
    """Weighted average of a user's behavior and identity against the
    threshold; the threshold is inclusive."""
    if not record.is_user():
        raise PrincipalKindError(f"{record.principal.iri} is not a user")
    average = cfg.w_behavior * record.behavior + cfg.w_identity * record.identity
    return Assessment(passed=average >= cfg.threshold, weighted_average=average)


class TrustRegistry:
    """Holds the authoritative records.

    The registry takes no lock: its owner serializes access, as
    `ExchangeMiddleware` does by making every mutation inside a section of
    its one node lock, whose sections run one at a time. A commit writes the
    projected triples of the scores it changed, all of them at registration.
    """

    def __init__(self, graph: Graph):
        self._records: dict[str, TrustRecord] = {}
        self._graph = graph
        self._events: list[tuple[str, str, Decimal, int]] = []
        self._subjects: dict[str, object] = {}

    # -- lifecycle -------------------------------------------------------

    def register(self, ref: PrincipalRef) -> TrustRecord:
        """Initialize a principal: users get behavior 1 and identity 1,
        organizations credibility 1 and identity 1."""
        if ref.iri in self._records:
            raise DuplicatePrincipalError(f"{ref.iri} is already registered")
        if ref.kind == USER:
            record = TrustRecord(ref, behavior=ONE, identity=ONE, credibility=None)
        else:
            record = TrustRecord(ref, behavior=None, identity=ONE, credibility=ONE)
        self._commit(record)
        return record

    def is_registered(self, principal_iri: str) -> bool:
        return principal_iri in self._records

    def get(self, principal_iri: str) -> TrustRecord:
        try:
            return self._records[principal_iri]
        except KeyError:
            raise UnknownPrincipalError(f"unknown principal: {principal_iri}") from None

    def principals(self) -> list[str]:
        return list(self._records)

    # -- assessment and penalties -----------------------------------------

    def assess(self, principal_iri: str, cfg: AssessmentConfig) -> Assessment:
        return assess(self.get(principal_iri), cfg)

    def penalize_user(self, principal_iri: str, kind: str, cfg: PenaltyConfig) -> TrustRecord:
        """Deduct from a user's behavior score, clamped at zero.

        While grace remains for the principal the score is left unchanged;
        the grace counter and version still advance.
        """
        if kind not in USER_PENALTIES:
            raise TrustError(f"not a user penalty kind: {kind}")
        record = self.get(principal_iri)
        if not record.is_user():
            raise PrincipalKindError(f"{principal_iri} is not a user")
        if record.grace_used < cfg.tolerance_grace:
            new = replace(record, grace_used=record.grace_used + 1,
                          version=record.version + 1)
            self._commit(new)
            return new
        new = self._write_score(record, BEHAVIOR, record.behavior - cfg.deduction(kind))
        if cfg.penalize_org_identity and record.principal.affiliation:
            org = self.get(record.principal.affiliation)
            self._write_score(org, IDENTITY, org.identity - cfg.deduction(kind))
        return new

    def penalize_org(self, principal_iri: str, kind: str, cfg: PenaltyConfig) -> TrustRecord:
        """Deduct from an organization's credibility score, clamped at zero."""
        if kind not in ORG_PENALTIES:
            raise TrustError(f"not an organization penalty kind: {kind}")
        record = self.get(principal_iri)
        if record.is_user():
            raise PrincipalKindError(f"{principal_iri} is not an organization")
        return self._write_score(
            record, CREDIBILITY_SCORE, record.credibility - cfg.deduction(kind)
        )

    def penalize(
        self, kind: str, user_iri: str, custodian_iri: str, cfg: PenaltyConfig
    ) -> list[tuple[str, Decimal, Decimal]]:
        """Charge the penalty `kind`, earned by the user's request to the
        custodian, to whoever pays it; then lock the custodian and the user's
        (registered) organization if a score the lock rule reads is zero.

        Returns (principal, before, after) per score charged: the user's
        behavior, equal under grace, then the organization's identity if it
        moved; or the custodian's credibility."""
        user = self.get(user_iri)
        org_iri = user.principal.affiliation
        if kind in USER_PENALTIES:
            org_before = self.get(org_iri).identity
            after = self.penalize_user(user_iri, kind, cfg).behavior
            charged = [(user_iri, user.behavior, after)]
            if self.get(org_iri).identity != org_before:
                charged.append((org_iri, org_before, self.get(org_iri).identity))
        else:
            before = self.get(custodian_iri).credibility
            after = self.penalize_org(custodian_iri, kind, cfg).credibility
            charged = [(custodian_iri, before, after)]
        if _zeroed(self.get(custodian_iri), self.get(org_iri)):
            self.lock_pair(custodian_iri, org_iri)
        return charged

    # -- lockout -----------------------------------------------------------

    def check_lockout(self, custodian_iri: str, recipient_org_iri: str) -> bool:
        """True iff exchanges between the pair are blocked: zero custodian
        credibility, zero recipient identity, or an explicit lock mark."""
        custodian = self.get(custodian_iri)
        recipient = self.get(recipient_org_iri)
        for record in (custodian, recipient):
            if record.is_user():
                raise PrincipalKindError(f"{record.principal.iri} is not an organization")
        return bool(_zeroed(custodian, recipient)) or (
            recipient_org_iri in custodian.locked_with
            or custodian_iri in recipient.locked_with
        )

    def lock_pair(self, custodian_iri: str, recipient_org_iri: str) -> None:
        for a, b in ((custodian_iri, recipient_org_iri), (recipient_org_iri, custodian_iri)):
            record = self.get(a)
            if b not in record.locked_with:
                new = replace(record, locked_with=record.locked_with | {b},
                              version=record.version + 1)
                self._commit(new)

    def unlock_pair(self, custodian_iri: str, recipient_org_iri: str) -> None:
        for a, b in ((custodian_iri, recipient_org_iri), (recipient_org_iri, custodian_iri)):
            record = self.get(a)
            if b in record.locked_with:
                new = replace(record, locked_with=record.locked_with - {b},
                              version=record.version + 1)
                self._commit(new)

    def rewrite_dua_reset(
        self, custodian_iri: str, recipient_org_iri: str, new_dua: DuaRecord
    ) -> tuple[TrustRecord, TrustRecord]:
        """Clear a lockout by writing a fresh agreement for the pair.

        The scores that triggered the lock are reset to one and the lock
        marks removed. The pair must currently be locked and the agreement
        must bind exactly this pair; an agreement already at its IRI must
        bind this pair too, so one pair's rewrite cannot take over another's,
        and its IRI must not name a registered principal.
        """
        if not self.check_lockout(custodian_iri, recipient_org_iri):
            raise LockStateError(
                f"{custodian_iri} and {recipient_org_iri} are not locked"
            )
        if new_dua.custodian != custodian_iri or new_dua.recipient != recipient_org_iri:
            raise DuaMismatchError(
                "agreement does not bind the locked pair: "
                f"{new_dua.custodian} -> {new_dua.recipient}"
            )
        if new_dua.iri in self._records:
            raise DuaMismatchError(f"{new_dua.iri} names a principal, not an agreement")
        graph = self._graph
        subject = iri(new_dua.iri)
        if graph.contains_spo(subject, RDF_TYPE, DUA_CLASS):
            custodians = set(graph.objects_for(subject, HAS_DATA_CUSTODIAN))
            recipients = set(graph.objects_for(subject, HAS_RECIPIENT))
            if (custodians, recipients) != ({iri(custodian_iri)}, {iri(recipient_org_iri)}):
                raise DuaMismatchError(
                    f"{new_dua.iri} is not the agreement of the locked pair: "
                    f"it binds {sorted(t.lexical for t in custodians)} -> "
                    f"{sorted(t.lexical for t in recipients)}"
                )
        write_dua(graph, new_dua)
        for principal_iri, score_name in _zeroed(
            self.get(custodian_iri), self.get(recipient_org_iri)
        ):
            self._write_score(self.get(principal_iri), score_name, ONE)
        self.unlock_pair(custodian_iri, recipient_org_iri)
        return self.get(custodian_iri), self.get(recipient_org_iri)

    # -- replication -------------------------------------------------------

    def apply_remote(self, principal_iri: str, score_name: str, value, version: int) -> bool:
        """Apply a propagated score if its version is newer and the
        principal's kind carries that score; stale or duplicate versions and
        scores of the other kind are ignored. An unknown principal is
        registered by the first update that applies to it, as a user for a
        behavior score and as an organization otherwise.
        """
        if score_name not in SCORE_NAMES:
            raise TrustError(f"unknown score name: {score_name}")
        score = as_score(value)
        record = self._records.get(principal_iri)
        if version <= (0 if record is None else record.version):
            return False
        if record is None:
            kind = USER if score_name == BEHAVIOR else ORGANIZATION
            ref = PrincipalRef(iri=principal_iri, kind=kind)
            record = (
                TrustRecord(ref, behavior=ONE, identity=ONE, credibility=None, version=0)
                if kind == USER
                else TrustRecord(ref, behavior=None, identity=ONE, credibility=ONE, version=0)
            )
        elif getattr(record, score_name) is None:
            return False
        self._commit(replace(record, **{score_name: score}, version=version))
        return True

    def set_score(self, principal_iri: str, score_name: str, value) -> TrustRecord:
        """Versioned direct write of a score its kind carries (harness and test resets)."""
        record = self.get(principal_iri)
        if score_name not in record.scores():
            raise PrincipalKindError(f"a {record.principal.kind} has no score {score_name!r}")
        return self._write_score(record, score_name, as_score(value))

    def take_events(self) -> list[tuple[str, str, Decimal, int]]:
        """Drain (principal, score, value, version) mutation events."""
        events, self._events = self._events, []
        return events

    def snapshot(self) -> dict[str, dict]:
        """Every record's `to_dict()` view by principal IRI, in IRI order:
        the canonical view used for replay and convergence comparison."""
        return {p: record.to_dict() for p, record in sorted(self._records.items())}

    # -- internals -----------------------------------------------------------

    def _write_score(self, record: TrustRecord, score_name: str, value: Decimal) -> TrustRecord:
        """Commit `value`, clamped at zero, as the record's `score_name` score
        under the next version, emitting its event."""
        new = replace(record, **{score_name: max(value, ZERO)}, version=record.version + 1)
        self._events.append((new.principal.iri, score_name, getattr(new, score_name), new.version))
        self._commit(new)
        return new

    def _commit(self, record: TrustRecord) -> None:
        old = self._records.get(record.principal.iri)
        self._records[record.principal.iri] = record
        self._project(record, [name for name in _SCORE_PREDICATES if old is None
                               or getattr(old, name) != getattr(record, name)])

    def touch_projection(self, principal_iri: str) -> None:
        """Make all of the principal's projected score triples match its
        record, repairing drift from direct graph updates; writes nothing
        when they already match. A commit writes the scores it changes, so
        the exchange cycle does not call this."""
        self._project(self.get(principal_iri), _SCORE_PREDICATES)

    def _project(self, record: TrustRecord, names) -> None:
        """Make the projected triples of the named scores match the record."""
        graph = self._graph
        subject = self._subjects.get(record.principal.iri)
        if subject is None:
            subject = iri(record.principal.iri)
            self._subjects[record.principal.iri] = subject
        for name in names:
            predicate, value = _SCORE_PREDICATES[name], getattr(record, name)
            wanted = typed(canonical_score(value), XSD_FLOAT) if value is not None else None
            existing = graph.objects_for(subject, predicate)
            if wanted is not None and len(existing) == 1 and wanted in existing:
                continue
            for obj in list(existing):
                if obj != wanted:
                    graph.remove(Triple(subject, predicate, obj))
            if wanted is not None and wanted not in graph.objects_for(subject, predicate):
                graph.insert(Triple(subject, predicate, wanted))
