import random
from collections import Counter
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from trustgate.ontology import (
    BEHAVIOR_TRUST,
    ORGANIZATION,
    USER,
    DuaRecord,
    PrincipalRef,
    bootstrap_vocabulary,
)
from trustgate.store import SYN_NS, Graph, Triple, TriplePattern, Var, iri, typed, XSD_FLOAT
from trustgate.trust import (
    BEHAVIOR,
    CREDIBILITY_SCORE,
    DUA_VIOLATION,
    IDENTITY,
    MISSING_CATEGORY,
    MISSING_PROPERTIES,
    NO_DUA_REQUEST,
    AssessmentConfig,
    DuaMismatchError,
    DuplicatePrincipalError,
    LockStateError,
    PenaltyConfig,
    PrincipalKindError,
    TrustRegistry,
    TrustError,
    as_score,
    assess,
    canonical_score,
)

from graph_match import match

CUSTODIAN = SYN_NS + "org_custodian"
ORG = SYN_NS + "org_01"
ALICE = SYN_NS + "user_001"


def make_registry(graph=None):
    registry = TrustRegistry(Graph() if graph is None else graph)
    registry.register(PrincipalRef(iri=CUSTODIAN, kind=ORGANIZATION, label="DataCustodian"))
    registry.register(PrincipalRef(iri=ORG, kind=ORGANIZATION, label="Organization_01"))
    registry.register(PrincipalRef(iri=ALICE, kind=USER, label="physician_105", affiliation=ORG))
    return registry


class TestCanonicalScores:
    def test_canonical_forms(self):
        assert canonical_score(as_score("1")) == "1.0"
        assert canonical_score(as_score("0.9")) == "0.9"
        assert canonical_score(as_score("0.99")) == "0.99"
        assert canonical_score(as_score("0.985")) == "0.985"
        assert canonical_score(as_score(0)) == "0.0"

    def test_out_of_range_rejected(self):
        with pytest.raises(TrustError):
            as_score("1.5")
        with pytest.raises(TrustError):
            as_score("-0.01")


class TestInit:
    def test_new_user_scores(self):
        registry = make_registry()
        record = registry.get(ALICE)
        assert record.behavior == Decimal("1.0000")
        assert record.identity == Decimal("1.0000")
        assert record.credibility is None

    def test_new_org_scores(self):
        registry = make_registry()
        record = registry.get(CUSTODIAN)
        assert record.credibility == Decimal("1.0000")
        assert record.identity == Decimal("1.0000")
        assert record.behavior is None

    def test_duplicate_registration_conflicts(self):
        registry = make_registry()
        with pytest.raises(DuplicatePrincipalError):
            registry.register(PrincipalRef(iri=ALICE, kind=USER))


class TestAssess:
    def test_fresh_scores_pass_any_threshold(self):
        registry = make_registry()
        got = registry.assess(ALICE, AssessmentConfig(threshold=Decimal("1.0")))
        assert got.passed and got.weighted_average == Decimal("1")

    def test_threshold_is_inclusive(self):
        registry = make_registry()
        registry.set_score(ALICE, BEHAVIOR, "0.9")
        cfg = AssessmentConfig(w_behavior="0.5", w_identity="0.5", threshold="0.95")
        got = registry.assess(ALICE, cfg)
        assert got.weighted_average == Decimal("0.95")
        assert got.passed is True

    def test_degenerate_weights(self):
        registry = make_registry()
        registry.set_score(ALICE, BEHAVIOR, "0")
        cfg = AssessmentConfig(w_behavior="1.0", w_identity="0.0", threshold="0.5")
        got = registry.assess(ALICE, cfg)
        assert got.weighted_average == Decimal("0")
        assert got.passed is False

    def test_weights_normalized(self):
        cfg = AssessmentConfig(w_behavior="2", w_identity="2", threshold="0.5")
        assert cfg.w_behavior + cfg.w_identity == Decimal(1)

    def test_org_record_rejected(self):
        registry = make_registry()
        with pytest.raises(PrincipalKindError):
            registry.assess(CUSTODIAN, AssessmentConfig())

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
        st.integers(min_value=0, max_value=100),
    )
    def test_passed_antitone_in_threshold(self, behavior_pct, low_pct, high_pct):
        low, high = sorted((low_pct, high_pct))
        registry = make_registry()
        registry.set_score(ALICE, BEHAVIOR, Decimal(behavior_pct) / 100)
        passed_low = registry.assess(
            ALICE, AssessmentConfig(threshold=Decimal(low) / 100)
        ).passed
        passed_high = registry.assess(
            ALICE, AssessmentConfig(threshold=Decimal(high) / 100)
        ).passed
        if passed_high:
            assert passed_low


class TestUserPenalties:
    def test_dua_violation_default(self):
        registry = make_registry()
        new = registry.penalize_user(ALICE, DUA_VIOLATION, PenaltyConfig())
        assert canonical_score(new.behavior) == "0.99"

    def test_clamped_at_zero(self):
        registry = make_registry()
        registry.set_score(ALICE, BEHAVIOR, "0.005")
        new = registry.penalize_user(ALICE, NO_DUA_REQUEST, PenaltyConfig())
        assert new.behavior == Decimal("0")

    def test_tenth_point_deduction(self):
        registry = make_registry()
        cfg = PenaltyConfig(dua_violation="0.1")
        new = registry.penalize_user(ALICE, DUA_VIOLATION, cfg)
        assert canonical_score(new.behavior) == "0.9"

    def test_hundred_violations_reach_exact_zero(self):
        registry = make_registry()
        cfg = PenaltyConfig()
        for n in range(1, 101):
            record = registry.penalize_user(ALICE, DUA_VIOLATION, cfg)
            expected = Decimal("1") - Decimal("0.01") * n
            assert record.behavior == expected
        assert record.behavior == Decimal("0")
        assert canonical_score(record.behavior) == "0.0"

    def test_tolerance_grace_forgives_first_violations(self):
        registry = make_registry()
        cfg = PenaltyConfig(tolerance_grace=2)
        first = registry.penalize_user(ALICE, DUA_VIOLATION, cfg)
        assert first.behavior == Decimal("1")
        second = registry.penalize_user(ALICE, DUA_VIOLATION, cfg)
        assert second.behavior == Decimal("1")
        third = registry.penalize_user(ALICE, DUA_VIOLATION, cfg)
        assert canonical_score(third.behavior) == "0.99"
        assert third.version > second.version > first.version

    def test_org_identity_flag_extends_penalty(self):
        registry = make_registry()
        cfg = PenaltyConfig(penalize_org_identity=True)
        registry.penalize_user(ALICE, NO_DUA_REQUEST, cfg)
        assert canonical_score(registry.get(ORG).identity) == "0.98"

    def test_penalty_touches_only_the_affected_score(self):
        registry = make_registry()
        registry.penalize_user(ALICE, DUA_VIOLATION, PenaltyConfig())
        assert registry.get(ALICE).identity == Decimal("1")
        assert registry.get(ORG).identity == Decimal("1")
        assert registry.get(CUSTODIAN).credibility == Decimal("1")
        registry.penalize_org(CUSTODIAN, MISSING_CATEGORY, PenaltyConfig())
        assert registry.get(CUSTODIAN).identity == Decimal("1")
        assert canonical_score(registry.get(ALICE).behavior) == "0.99"

    def test_wrong_kind_rejected(self):
        registry = make_registry()
        with pytest.raises(PrincipalKindError):
            registry.penalize_user(CUSTODIAN, DUA_VIOLATION, PenaltyConfig())
        with pytest.raises(TrustError):
            registry.penalize_user(ALICE, MISSING_CATEGORY, PenaltyConfig())


class TestOrgPenalties:
    def test_missing_category(self):
        registry = make_registry()
        new = registry.penalize_org(CUSTODIAN, MISSING_CATEGORY, PenaltyConfig())
        assert canonical_score(new.credibility) == "0.98"

    def test_missing_properties(self):
        registry = make_registry()
        new = registry.penalize_org(CUSTODIAN, MISSING_PROPERTIES, PenaltyConfig())
        assert canonical_score(new.credibility) == "0.99"

    def test_clamp(self):
        registry = make_registry()
        registry.set_score(CUSTODIAN, CREDIBILITY_SCORE, "0.01")
        new = registry.penalize_org(CUSTODIAN, MISSING_CATEGORY, PenaltyConfig())
        assert new.credibility == Decimal("0")


class TestPenalize:
    def test_user_kind_with_org_identity_charges_user_and_organization(self):
        registry = make_registry()
        cfg = PenaltyConfig(penalize_org_identity=True)
        charged = registry.penalize(NO_DUA_REQUEST, ALICE, CUSTODIAN, cfg)
        assert charged == [
            (ALICE, Decimal("1"), Decimal("0.98")),
            (ORG, Decimal("1"), Decimal("0.98")),
        ]
        assert registry.get(CUSTODIAN).credibility == Decimal("1")

    def test_user_kind_under_grace_charges_nothing_and_does_not_lock(self):
        registry = make_registry()
        registry.set_score(ORG, IDENTITY, "0.01")
        cfg = PenaltyConfig(tolerance_grace=1, penalize_org_identity=True)
        (charged,) = registry.penalize(DUA_VIOLATION, ALICE, CUSTODIAN, cfg)
        assert charged == (ALICE, Decimal("1"), Decimal("1"))
        assert registry.get(ORG).identity == Decimal("0.01")
        assert registry.get(ORG).locked_with == frozenset()
        assert registry.check_lockout(CUSTODIAN, ORG) is False

    def test_org_kind_charges_the_custodian(self):
        registry = make_registry()
        charged = registry.penalize(MISSING_PROPERTIES, ALICE, CUSTODIAN, PenaltyConfig())
        assert charged == [(CUSTODIAN, Decimal("1"), Decimal("0.99"))]
        assert registry.get(ALICE).behavior == Decimal("1")

    @pytest.mark.parametrize("kind, principal, score", [
        (MISSING_CATEGORY, CUSTODIAN, CREDIBILITY_SCORE),
        (NO_DUA_REQUEST, ORG, IDENTITY),
    ])
    def test_reaching_zero_locks_the_pair_once_without_check_lockout(
        self, monkeypatch, kind, principal, score
    ):
        registry = make_registry()
        registry.set_score(principal, score, "0.02")
        calls = Counter()
        for name in ("check_lockout", "lock_pair"):
            def counted(*args, _name=name, _method=getattr(TrustRegistry, name)):
                calls[_name] += 1
                return _method(*args)
            monkeypatch.setattr(TrustRegistry, name, counted)
        cfg = PenaltyConfig(penalize_org_identity=True)
        charged = registry.penalize(kind, ALICE, CUSTODIAN, cfg)
        assert charged[-1] == (principal, Decimal("0.02"), Decimal("0"))
        assert calls == {"lock_pair": 1}
        assert CUSTODIAN in registry.get(ORG).locked_with
        assert ORG in registry.get(CUSTODIAN).locked_with

    def test_unknown_kind_rejected(self):
        registry = make_registry()
        with pytest.raises(TrustError):
            registry.penalize("latePayment", ALICE, CUSTODIAN, PenaltyConfig())


class TestLockout:
    def test_fresh_pair_not_locked(self):
        registry = make_registry()
        assert registry.check_lockout(CUSTODIAN, ORG) is False

    def test_zero_custodian_credibility_locks(self):
        registry = make_registry()
        registry.set_score(CUSTODIAN, CREDIBILITY_SCORE, "0")
        assert registry.check_lockout(CUSTODIAN, ORG) is True

    def test_zero_recipient_identity_locks(self):
        registry = make_registry()
        registry.set_score(ORG, IDENTITY, "0")
        assert registry.check_lockout(CUSTODIAN, ORG) is True

    def test_explicit_lock_mark(self):
        registry = make_registry()
        registry.lock_pair(CUSTODIAN, ORG)
        assert registry.check_lockout(CUSTODIAN, ORG) is True

    def test_user_record_rejected(self):
        registry = make_registry()
        with pytest.raises(PrincipalKindError):
            registry.check_lockout(CUSTODIAN, ALICE)


def fresh_dua(custodian=CUSTODIAN, recipient=ORG):
    return DuaRecord(
        iri=SYN_NS + "dua_01",
        custodian=custodian,
        recipient=recipient,
        requested_data=frozenset({SYN_NS + "Patient"}),
        permitted_use=frozenset({"http://example.org/dua#PublicHealth"}),
        term="1 year",
    )


class TestRewriteReset:
    def test_rewrite_clears_lockout(self):
        graph = Graph()
        bootstrap_vocabulary(graph)
        registry = make_registry(graph)
        registry.set_score(CUSTODIAN, CREDIBILITY_SCORE, "0")
        registry.lock_pair(CUSTODIAN, ORG)
        assert registry.check_lockout(CUSTODIAN, ORG) is True
        registry.rewrite_dua_reset(CUSTODIAN, ORG, fresh_dua())
        assert registry.check_lockout(CUSTODIAN, ORG) is False
        assert registry.get(CUSTODIAN).credibility == Decimal("1")

    def test_unlocked_pair_is_state_error(self):
        graph = Graph()
        registry = make_registry(graph)
        with pytest.raises(LockStateError):
            registry.rewrite_dua_reset(CUSTODIAN, ORG, fresh_dua())

    def test_mismatched_dua_rejected(self):
        graph = Graph()
        registry = make_registry(graph)
        registry.lock_pair(CUSTODIAN, ORG)
        other = SYN_NS + "org_09"
        with pytest.raises(DuaMismatchError):
            registry.rewrite_dua_reset(CUSTODIAN, ORG, fresh_dua(recipient=other))

    def test_rewrite_aimed_at_a_peer_registered_principal_is_refused(self):
        # a principal a peer's update registered carries no rdf:type, so the
        # rewrite used to retype its IRI as an agreement and drop its score
        graph = Graph()
        bootstrap_vocabulary(graph)
        registry = make_registry(graph)
        remote = "http://example.org/remote/user_x"
        assert registry.apply_remote(remote, BEHAVIOR, "0.5", 5) is True
        registry.lock_pair(CUSTODIAN, ORG)
        triples, records = graph.triples(), registry.snapshot()
        with pytest.raises(DuaMismatchError, match=remote):
            registry.rewrite_dua_reset(CUSTODIAN, ORG, replace(fresh_dua(), iri=remote))
        assert graph.triples() == triples
        assert registry.snapshot() == records
        assert match(graph, TriplePattern(iri(remote), BEHAVIOR_TRUST, Var("o")))


class TestReplication:
    def test_fresh_update_applies(self):
        registry = make_registry()
        assert registry.apply_remote(ALICE, BEHAVIOR, "0.97", version=5) is True
        assert canonical_score(registry.get(ALICE).behavior) == "0.97"

    def test_duplicate_ignored(self):
        registry = make_registry()
        assert registry.apply_remote(ALICE, BEHAVIOR, "0.97", version=5) is True
        assert registry.apply_remote(ALICE, BEHAVIOR, "0.97", version=5) is False

    def test_stale_version_ignored(self):
        registry = make_registry()
        assert registry.apply_remote(ALICE, BEHAVIOR, "0.9", version=3) is True
        assert registry.apply_remote(ALICE, BEHAVIOR, "0.95", version=2) is False
        assert canonical_score(registry.get(ALICE).behavior) == "0.9"

    def test_unknown_principal_auto_registered(self):
        registry = make_registry()
        stranger = SYN_NS + "user_099"
        assert registry.apply_remote(stranger, BEHAVIOR, "0.8", version=2) is True
        assert registry.get(stranger).principal.kind == USER

    def test_stale_update_registers_no_principal(self):
        registry = make_registry()
        before = registry.snapshot()
        stranger = "http://example.org/x"
        assert registry.apply_remote(stranger, BEHAVIOR, "0.5", 0) is False
        assert not registry.is_registered(stranger)
        assert registry.snapshot() == before
        assert registry.apply_remote(stranger, BEHAVIOR, "0.5", 1) is True
        assert registry.is_registered(stranger)

    def test_score_the_kind_does_not_carry_is_not_applied(self):
        registry = make_registry()
        stranger = SYN_NS + "org_099"
        assert registry.apply_remote(stranger, IDENTITY, "0.5", 1) is True  # an organization
        before = registry.snapshot()
        for principal, score in ((ORG, BEHAVIOR), (ALICE, CREDIBILITY_SCORE), (stranger, BEHAVIOR)):
            assert registry.apply_remote(principal, score, "0.4", 50) is False, (principal, score)
        assert registry.snapshot() == before
        assert registry.snapshot()[stranger]["scores"] == {"identity": "0.5", "credibility": "1.0"}


    def test_set_score_refuses_a_score_the_kind_does_not_carry(self):
        registry = make_registry()
        before = registry.snapshot()
        for principal, score in ((ORG, BEHAVIOR), (ALICE, CREDIBILITY_SCORE)):
            with pytest.raises(PrincipalKindError):
                registry.set_score(principal, score, "0.5")
        assert registry.snapshot() == before
        assert registry.take_events() == []


class TestGraphProjection:
    def test_projection_tracks_mutations(self):
        graph = Graph()
        registry = make_registry(graph)
        registry.penalize_user(ALICE, DUA_VIOLATION, PenaltyConfig())
        got = match(
            graph, TriplePattern(iri(ALICE), iri("http://example.org/trust#behaviorTrust"), Var("v"))
        )
        assert [t.object for t in got] == [typed("0.99", XSD_FLOAT)]

    def test_users_have_no_credibility_triple(self):
        graph = Graph()
        make_registry(graph)
        got = match(
            graph, TriplePattern(iri(ALICE), iri("http://example.org/trust#credibility"), Var("v"))
        )
        assert got == []

    def test_score_churn_keeps_unsorted_keys_on_live_dict_leaves(self):
        # users registered in reverse order join each score leaf out of
        # lexical order; scores then move them between leaves, and dropped
        # score triples are put back by touch_projection
        graph = Graph()
        registry = TrustRegistry(graph)
        users = [SYN_NS + f"user_{i:03d}" for i in range(12, 0, -1)]
        for user in users:
            registry.register(PrincipalRef(iri=user, kind=USER, label=user))
        rng = random.Random(5)
        seen = 0
        for version in range(2, 40):
            for user in rng.sample(users, 4):
                registry.apply_remote(user, BEHAVIOR, rng.choice(["0.7", "0.8", "0.9", "1.0"]), version)
            subject = iri(rng.choice(users))
            for obj in list(graph.objects_for(subject, BEHAVIOR_TRUST)):
                graph.remove(Triple(subject, BEHAVIOR_TRUST, obj))
            for user in users:
                registry.touch_projection(user)
            dict_leaves = {
                (p, o) for p, inner in graph._pos.items()
                for o, leaf in inner.items() if isinstance(leaf, dict)
            }
            # every key names a live dict leaf, so the set cannot outgrow them
            assert graph._unsorted <= dict_leaves
            seen = max(seen, len(graph._unsorted))
        assert seen > 0


_ops = st.lists(
    st.tuples(
        st.sampled_from(["user-penalty", "org-penalty", "assess", "remote", "reset"]),
        st.sampled_from([DUA_VIOLATION, NO_DUA_REQUEST]),
        st.sampled_from([MISSING_CATEGORY, MISSING_PROPERTIES]),
        st.integers(min_value=1, max_value=50),
    ),
    max_size=60,
)


class TestScoreSafetyProperties:
    @settings(max_examples=60, deadline=None)
    @given(_ops)
    def test_scores_bounded_versions_monotone(self, ops):
        graph = Graph()
        registry = make_registry(graph)
        cfg = PenaltyConfig()
        versions = {p: registry.get(p).version for p in registry.principals()}
        for op, user_kind, org_kind, version in ops:
            if op == "user-penalty":
                registry.penalize_user(ALICE, user_kind, cfg)
            elif op == "org-penalty":
                registry.penalize_org(CUSTODIAN, org_kind, cfg)
            elif op == "assess":
                registry.assess(ALICE, AssessmentConfig())
            elif op == "remote":
                registry.apply_remote(ALICE, BEHAVIOR, "0.5", version=version)
            elif op == "reset":
                registry.set_score(CUSTODIAN, CREDIBILITY_SCORE, "1.0")
            for principal in registry.principals():
                record = registry.get(principal)
                for value in record.scores().values():
                    assert Decimal(0) <= value <= Decimal(1)
                assert record.version >= versions[principal]
                versions[principal] = record.version
