"""Authoritative trust-score lifecycle for users and organizations.

Scores are fixed-point decimals with four fractional digits so that repeated
0.01 deductions land exactly on zero; the graph carries a projection of every
score (written in canonical decimal form) that is refreshed on each mutation.
"""

from __future__ import annotations

import threading
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

BEHAVIOR = "behavior"
IDENTITY = "identity"
CREDIBILITY_SCORE = "credibility"

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


_SCORE_TERMS: dict[Decimal, object] = {}


def score_term(value: Decimal):
    # the score grid has at most 10001 points; cache the projected terms
    term = _SCORE_TERMS.get(value)
    if term is None:
        term = typed(canonical_score(value), XSD_FLOAT)
        _SCORE_TERMS[value] = term
    return term


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
        out = {IDENTITY: self.identity}
        if self.behavior is not None:
            out[BEHAVIOR] = self.behavior
        if self.credibility is not None:
            out[CREDIBILITY_SCORE] = self.credibility
        return out


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


def assess(record: TrustRecord, cfg: AssessmentConfig) -> Assessment:
    """Weighted average of a user's behavior and identity against the
    threshold; the threshold is inclusive."""
    if not record.is_user():
        raise PrincipalKindError(f"{record.principal.iri} is not a user")
    average = cfg.w_behavior * record.behavior + cfg.w_identity * record.identity
    return Assessment(passed=average >= cfg.threshold, weighted_average=average)


class TrustRegistry:
    """Holds the authoritative records and serializes mutations.

    When constructed with a graph, every mutation refreshes that principal's
    projected score triples.
    """

    def __init__(self, graph: Optional[Graph] = None):
        self._records: dict[str, TrustRecord] = {}
        self._lock = threading.RLock()
        self._graph = graph
        self._events: list[tuple[str, str, Decimal, int]] = []
        self._subjects: dict[str, object] = {}

    # -- lifecycle -------------------------------------------------------

    def register(self, ref: PrincipalRef) -> TrustRecord:
        """Initialize a principal: users get behavior 1 and identity 1,
        organizations credibility 1 and identity 1."""
        with self._lock:
            if ref.iri in self._records:
                raise DuplicatePrincipalError(f"{ref.iri} is already registered")
            if ref.kind == USER:
                record = TrustRecord(ref, behavior=ONE, identity=ONE, credibility=None)
            else:
                record = TrustRecord(ref, behavior=None, identity=ONE, credibility=ONE)
            self._records[ref.iri] = record
            self._refresh_projection(record)
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
        with self._lock:
            record = self.get(principal_iri)
            if not record.is_user():
                raise PrincipalKindError(f"{principal_iri} is not a user")
            if record.grace_used < cfg.tolerance_grace:
                new = replace(record, grace_used=record.grace_used + 1,
                              version=record.version + 1)
                self._commit(new)
                return new
            behavior = record.behavior - cfg.deduction(kind)
            if behavior < ZERO:
                behavior = ZERO
            new = replace(record, behavior=behavior, version=record.version + 1)
            self._commit(new, changed=(BEHAVIOR,))
            if cfg.penalize_org_identity and record.principal.affiliation:
                self._penalize_identity(record.principal.affiliation, cfg.deduction(kind))
            return new

    def penalize_org(self, principal_iri: str, kind: str, cfg: PenaltyConfig) -> TrustRecord:
        """Deduct from an organization's credibility score, clamped at zero."""
        if kind not in ORG_PENALTIES:
            raise TrustError(f"not an organization penalty kind: {kind}")
        with self._lock:
            record = self.get(principal_iri)
            if record.is_user():
                raise PrincipalKindError(f"{principal_iri} is not an organization")
            credibility = record.credibility - cfg.deduction(kind)
            if credibility < ZERO:
                credibility = ZERO
            new = replace(record, credibility=credibility, version=record.version + 1)
            self._commit(new, changed=(CREDIBILITY_SCORE,))
            return new

    def _penalize_identity(self, principal_iri: str, deduction: Decimal) -> None:
        record = self.get(principal_iri)
        identity = record.identity - deduction
        if identity < ZERO:
            identity = ZERO
        new = replace(record, identity=identity, version=record.version + 1)
        self._commit(new, changed=(IDENTITY,))

    # -- lockout -----------------------------------------------------------

    def check_lockout(self, custodian_iri: str, recipient_org_iri: str) -> bool:
        """True iff exchanges between the pair are blocked: zero custodian
        credibility, zero recipient identity, or an explicit lock mark."""
        custodian = self.get(custodian_iri)
        recipient = self.get(recipient_org_iri)
        for record in (custodian, recipient):
            if record.is_user():
                raise PrincipalKindError(f"{record.principal.iri} is not an organization")
        if custodian.credibility is not None and custodian.credibility <= ZERO:
            return True
        if recipient.identity <= ZERO:
            return True
        return (
            recipient_org_iri in custodian.locked_with
            or custodian_iri in recipient.locked_with
        )

    def lock_pair(self, custodian_iri: str, recipient_org_iri: str) -> None:
        with self._lock:
            for a, b in ((custodian_iri, recipient_org_iri), (recipient_org_iri, custodian_iri)):
                record = self.get(a)
                if b not in record.locked_with:
                    new = replace(record, locked_with=record.locked_with | {b},
                                  version=record.version + 1)
                    self._commit(new)

    def unlock_pair(self, custodian_iri: str, recipient_org_iri: str) -> None:
        with self._lock:
            for a, b in ((custodian_iri, recipient_org_iri), (recipient_org_iri, custodian_iri)):
                record = self.get(a)
                if b in record.locked_with:
                    new = replace(record, locked_with=record.locked_with - {b},
                                  version=record.version + 1)
                    self._commit(new)

    def rewrite_dua_reset(
        self, custodian_iri: str, recipient_org_iri: str, new_dua: DuaRecord,
        graph: Optional[Graph] = None,
    ) -> tuple[TrustRecord, TrustRecord]:
        """Clear a lockout by writing a fresh agreement for the pair.

        The scores that triggered the lock are reset to one and the lock
        marks removed. The pair must currently be locked and the agreement
        must bind exactly this pair; an agreement already at its IRI must
        bind this pair too, so one pair's rewrite cannot take over another's.
        """
        with self._lock:
            if not self.check_lockout(custodian_iri, recipient_org_iri):
                raise LockStateError(
                    f"{custodian_iri} and {recipient_org_iri} are not locked"
                )
            if new_dua.custodian != custodian_iri or new_dua.recipient != recipient_org_iri:
                raise DuaMismatchError(
                    "agreement does not bind the locked pair: "
                    f"{new_dua.custodian} -> {new_dua.recipient}"
                )
            target = graph if graph is not None else self._graph
            if target is None:
                raise TrustError("no graph available to persist the agreement")
            subject = iri(new_dua.iri)
            if target.contains_spo(subject, RDF_TYPE, DUA_CLASS):
                custodians = set(target.objects_for(subject, HAS_DATA_CUSTODIAN))
                recipients = set(target.objects_for(subject, HAS_RECIPIENT))
                if (custodians, recipients) != ({iri(custodian_iri)}, {iri(recipient_org_iri)}):
                    raise DuaMismatchError(
                        f"{new_dua.iri} is not the agreement of the locked pair: "
                        f"it binds {sorted(t.lexical for t in custodians)} -> "
                        f"{sorted(t.lexical for t in recipients)}"
                    )
            write_dua(target, new_dua)
            custodian = self.get(custodian_iri)
            if custodian.credibility is not None and custodian.credibility <= ZERO:
                custodian = replace(custodian, credibility=ONE, version=custodian.version + 1)
                self._commit(custodian, changed=(CREDIBILITY_SCORE,))
            recipient = self.get(recipient_org_iri)
            if recipient.identity <= ZERO:
                recipient = replace(recipient, identity=ONE, version=recipient.version + 1)
                self._commit(recipient, changed=(IDENTITY,))
            self.unlock_pair(custodian_iri, recipient_org_iri)
            return self.get(custodian_iri), self.get(recipient_org_iri)

    # -- replication -------------------------------------------------------

    def apply_remote(self, principal_iri: str, score_name: str, value, version: int,
                     kind_hint: Optional[str] = None) -> bool:
        """Apply a propagated score if its version is newer; stale or
        duplicate versions are ignored. Unknown principals are auto-registered.
        """
        score = as_score(value)
        with self._lock:
            record = self._records.get(principal_iri)
            if record is None:
                kind = kind_hint or (USER if score_name == BEHAVIOR else ORGANIZATION)
                ref = PrincipalRef(iri=principal_iri, kind=kind)
                record = (
                    TrustRecord(ref, behavior=ONE, identity=ONE, credibility=None, version=0)
                    if kind == USER
                    else TrustRecord(ref, behavior=None, identity=ONE, credibility=ONE, version=0)
                )
                self._records[principal_iri] = record
            if version <= record.version:
                return False
            if score_name == BEHAVIOR:
                new = replace(record, behavior=score, version=version)
            elif score_name == CREDIBILITY_SCORE:
                new = replace(record, credibility=score, version=version)
            elif score_name == IDENTITY:
                new = replace(record, identity=score, version=version)
            else:
                raise TrustError(f"unknown score name: {score_name}")
            self._records[principal_iri] = new
            self._refresh_projection(new)
            return True

    def set_score(self, principal_iri: str, score_name: str, value) -> TrustRecord:
        """Versioned direct write (agreement resets, harness state resets)."""
        score = as_score(value)
        with self._lock:
            record = self.get(principal_iri)
            new = replace(record, **{
                BEHAVIOR: {"behavior": score},
                IDENTITY: {"identity": score},
                CREDIBILITY_SCORE: {"credibility": score},
            }[score_name], version=record.version + 1)
            self._commit(new, changed=(score_name,))
            return new

    def take_events(self) -> list[tuple[str, str, Decimal, int]]:
        """Drain (principal, score, value, version) mutation events."""
        with self._lock:
            events, self._events = self._events, []
            return events

    def snapshot(self) -> dict[str, dict]:
        """Canonical view used for replay and convergence comparison."""
        with self._lock:
            out = {}
            for principal_iri, record in sorted(self._records.items()):
                scores = {name: canonical_score(value) for name, value in record.scores().items()}
                out[principal_iri] = {
                    "kind": record.principal.kind,
                    "version": record.version,
                    "scores": scores,
                    "locked_with": sorted(record.locked_with),
                }
            return out

    # -- internals -----------------------------------------------------------

    def _commit(self, record: TrustRecord, changed: tuple[str, ...] = ()) -> None:
        self._records[record.principal.iri] = record
        for name in changed:
            self._events.append(
                (record.principal.iri, name, record.scores()[name], record.version)
            )
        self._refresh_projection(record)

    def touch_projection(self, principal_iri: str) -> None:
        """Make the principal's projected score triples match its record:
        the per-transaction score write of the exchange cycle. Writes nothing
        when they already match, and repairs drift from direct graph updates."""
        with self._lock:
            self._refresh_projection(self.get(principal_iri))

    def _refresh_projection(self, record: TrustRecord) -> None:
        if self._graph is None:
            return
        graph = self._graph
        subject = self._subjects.get(record.principal.iri)
        if subject is None:
            subject = iri(record.principal.iri)
            self._subjects[record.principal.iri] = subject
        for value, predicate in (
            (record.behavior, BEHAVIOR_TRUST),
            (record.identity, IDENTITY_TRUST),
            (record.credibility, CREDIBILITY),
        ):
            wanted = score_term(value) if value is not None else None
            existing = graph.objects_for(subject, predicate)
            if wanted is not None and len(existing) == 1 and wanted in existing:
                continue
            for obj in list(existing):
                if obj != wanted:
                    graph.remove(Triple(subject, predicate, obj))
            if wanted is not None and wanted not in graph.objects_for(subject, predicate):
                graph.insert(Triple(subject, predicate, wanted))
