"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The latency criterion builds datasets up to 100K
patients and takes a few minutes.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest

from trustgate import ontology as vocab
from trustgate.bench import (
    SCENARIO_USER_VIOLATIONS,
    SCENARIO_USER_WITHOUT_DUA,
    run_latency,
    run_trajectory,
)
from trustgate.middleware import ExchangeMiddleware, ScoreUpdate, start_server
from trustgate.ontology import DuaRecord, PrincipalRef, bootstrap_vocabulary
from trustgate.query import QueryAst, eval_ask, eval_select, eval_update, parse
from trustgate.store import (
    Graph,
    SYN_NS,
    Term,
    Triple,
    TriplePattern,
    Var,
    iri,
    plain,
    typed,
)
from trustgate.synth import GeneratorSpec, demographics_manifest, generate_dataset, generate_demographics
from trustgate.trust import (
    BEHAVIOR,
    CREDIBILITY_SCORE,
    DUA_VIOLATION,
    IDENTITY,
    MISSING_CATEGORY,
    MISSING_PROPERTIES,
    NO_DUA_REQUEST,
    AssessmentConfig,
    PenaltyConfig,
    TrustRegistry,
    canonical_score,
)

from graph_match import match

XSD_FLOAT = "http://www.w3.org/2001/XMLSchema#float"
PATIENT = SYN_NS + "Patient"
SYMPTOM = SYN_NS + "Symptom"
OBSERVATION = SYN_NS + "Observation"
PUBLIC_HEALTH = vocab.PUBLIC_HEALTH.lexical
IRB = vocab.IRB_APPROVED_RESEARCH.lexical
HCO = vocab.HEALTH_CARE_OPERATION.lexical


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


# the reference policy texts the deployment runs against, byte-for-byte
# (data files preserve the exact whitespace, including trailing spaces)
_DATA_DIR = Path(__file__).parent / "data"
DUA_EXISTENCE_POLICY = (_DATA_DIR / "dua_existence.rq").read_text()
REQUESTED_DATA_POLICY = (_DATA_DIR / "requested_data.rq").read_text()
CUSTODIAN_CATEGORY_POLICY = (_DATA_DIR / "custodian_category.rq").read_text()
SCORE_UPDATE_POLICY = (_DATA_DIR / "score_update.rq").read_text()


SPEC = GeneratorSpec(seed=11)


def fresh_demographics():
    graph = Graph()
    bootstrap_vocabulary(graph)
    generate_demographics(SPEC, into=graph)
    return graph, demographics_manifest(SPEC)


def test_c1_policy_fidelity():
    with criterion("C1 policy-fidelity"):
        graph, manifest = fresh_demographics()
        started = time.perf_counter()

        assert eval_ask(parse(DUA_EXISTENCE_POLICY), graph) is True
        no_dua_label = manifest.users[7].label  # eighth organization: no agreement
        assert eval_ask(
            parse(DUA_EXISTENCE_POLICY.replace("physician_105", no_dua_label)), graph
        ) is False

        assert eval_ask(parse(REQUESTED_DATA_POLICY), graph) is True
        encounter_only_label = manifest.users[4].label  # agreement without Patient
        assert eval_ask(
            parse(REQUESTED_DATA_POLICY.replace("nurse_207", encounter_only_label)), graph
        ) is False

        assert eval_ask(parse(CUSTODIAN_CATEGORY_POLICY), graph) is True
        missing_category_label = manifest.users[6].label  # agreement asks only for Symptom
        assert eval_ask(
            parse(CUSTODIAN_CATEGORY_POLICY.replace("nurse_629", missing_category_label)), graph
        ) is False

        summary = eval_update(parse(SCORE_UPDATE_POLICY), graph)
        assert (summary.deleted, summary.inserted) == (1, 1)
        subject = iri(manifest.users[3].iri)  # carries the targeted label
        scores = match(graph, TriplePattern(subject, vocab.BEHAVIOR_TRUST, Var("v")))
        assert [t.object for t in scores] == [typed("0.9", XSD_FLOAT)]

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"policy fidelity took {elapsed:.2f}s"


def test_c2_demographics_exactness():
    with criterion("C2 demographics-exactness"):
        graph, manifest = fresh_demographics()
        orgs = match(graph, TriplePattern(Var("o"), vocab.RDF_TYPE, vocab.SYN_ORGANIZATION))
        recipient_orgs = [t for t in orgs if t.subject.lexical != manifest.custodian_iri]
        assert len(recipient_orgs) == 10
        users = match(graph, TriplePattern(Var("u"), vocab.RDF_TYPE, vocab.TST_USER))
        assert len(users) == 100
        duas = match(graph, TriplePattern(Var("d"), vocab.RDF_TYPE, vocab.DUA_CLASS))
        assert len(duas) == 7
        patient_duas = match(
            graph, TriplePattern(Var("d"), vocab.REQUESTED_DATA, plain(PATIENT))
        )
        assert len(patient_duas) == 4
        public_health = [
            t.subject
            for t in patient_duas
            if graph.contains_spo(t.subject, vocab.HAS_PERMITTED_USE, vocab.PUBLIC_HEALTH)
        ]
        assert len(public_health) == 2
        all_public_health = match(
            graph, TriplePattern(Var("d"), vocab.HAS_PERMITTED_USE, vocab.PUBLIC_HEALTH)
        )
        assert len(all_public_health) == 2


def test_c3_trajectory_reproduction():
    with criterion("C3 trajectory-reproduction"):
        started = time.perf_counter()
        report = run_trajectory(
            violation_prob=0.3,
            runs=1000,
            seed=20240817,
            scenarios=[SCENARIO_USER_VIOLATIONS, SCENARIO_USER_WITHOUT_DUA],
        )
        mean_with_dua = report.mean_transactions_to_zero(SCENARIO_USER_VIOLATIONS)
        mean_without = report.mean_transactions_to_zero(SCENARIO_USER_WITHOUT_DUA)
        # negative-binomial oracle: deductions-to-zero / violation probability
        assert mean_with_dua == pytest.approx(100 / 0.3, rel=0.05)
        assert mean_without == pytest.approx(50 / 0.3, rel=0.05)
        for runs in report.scenarios.values():
            assert len(runs) == 1000
            for run in runs:
                assert run.non_increasing()
                assert run.transactions_to_zero is not None
                assert Decimal(run.final_score()) == Decimal(0)
                assert run.final_score() == "0.0"
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"trajectory run took {elapsed:.1f}s"


def test_c4_latency_trends():
    with criterion("C4 latency-trends"):
        started = time.perf_counter()
        report = run_latency(sizes=[1000, 10_000, 100_000], transactions=1000, seed=7)
        retrieval = report.stage_means("dataRetrieval")
        assert retrieval[-1] / retrieval[0] >= 10.0
        for stage in ("recipientPolicyCheck", "dataCredibilityCheck", "trustScoreUpdate"):
            means = report.stage_means(stage)
            assert max(means) / min(means) < 3.0, f"{stage} varies {max(means)/min(means):.2f}x"
        elapsed = time.perf_counter() - started
        assert elapsed < 900.0, f"latency run took {elapsed:.1f}s"


def brute_force_solutions(patterns, graph):
    """Independent oracle: enumerate every assignment of the pattern
    variables over all terms occurring in the graph."""
    universe = set()
    for t in graph:
        universe.update((t.subject, t.predicate, t.object))
    names = []
    for p in patterns:
        for v in p.variables():
            if v not in names:
                names.append(v)
    triples = set(graph)
    out = []
    for combo in itertools.product(sorted(universe, key=Term.sort_key), repeat=len(names)):
        binding = dict(zip(names, combo))
        ok = True
        for p in patterns:
            parts = [
                binding[node.name] if isinstance(node, Var) else node
                for node in p
            ]
            if parts[0].kind != "iri" or parts[1].kind != "iri":
                ok = False
                break
            if Triple(parts[0], parts[1], parts[2]) not in triples:
                ok = False
                break
        if ok:
            out.append(binding)
    return out


def test_c5_query_oracle_equivalence():
    with criterion("C5 query-oracle-equivalence"):
        started = time.perf_counter()
        rng = random.Random(5150)
        subjects = [iri(f"s:n{i}") for i in range(5)]
        predicates = [iri(f"p:e{i}") for i in range(3)]
        objects = subjects + [plain("v1"), plain("v2")]
        variables = [Var("a"), Var("b"), Var("c")]
        cases = 0
        for _ in range(250):
            graph = Graph()
            for _ in range(rng.randrange(0, 31)):
                graph.insert(
                    Triple(rng.choice(subjects), rng.choice(predicates), rng.choice(objects))
                )
            patterns = [
                TriplePattern(
                    rng.choice(variables + subjects),
                    rng.choice(variables + predicates),
                    rng.choice(variables + objects),
                )
                for _ in range(rng.randrange(1, 5))
            ]
            expected = brute_force_solutions(patterns, graph)
            ast = QueryAst(form="ask", bgp=patterns)
            assert eval_ask(ast, graph) == (len(expected) > 0)
            got = eval_select(replace(ast, form="select"), graph)
            row_key = lambda row: tuple(t.sort_key() for t in row)
            expected_rows = sorted(
                (tuple(b[v] for v in got.variables) for b in expected), key=row_key
            )
            assert sorted(got.rows, key=row_key) == expected_rows
            cases += 1
        assert cases >= 200
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"


def test_c6_score_safety_fuzz():
    with criterion("C6 score-safety-fuzz"):
        graph, manifest = fresh_demographics()
        registry = TrustRegistry(graph)
        users = [u.iri for u in manifest.users[:6]]
        orgs = [o.iri for o in manifest.orgs[:3]] + [manifest.custodian_iri]
        for user in manifest.users[:6]:
            registry.register(user.ref())
        for org_iri in orgs:
            label = "DataCustodian" if org_iri == manifest.custodian_iri else ""
            registry.register(PrincipalRef(iri=org_iri, kind="organization", label=label))
        cfg = PenaltyConfig()
        assessment = AssessmentConfig()
        rng = random.Random(99099)
        versions = {p: registry.get(p).version for p in registry.principals()}
        score_preds = {
            BEHAVIOR: vocab.BEHAVIOR_TRUST,
            IDENTITY: vocab.IDENTITY_TRUST,
            CREDIBILITY_SCORE: vocab.CREDIBILITY,
        }

        def check(principal):
            record = registry.get(principal)
            for value in record.scores().values():
                assert Decimal(0) <= value <= Decimal(1)
            assert record.version >= versions[principal]
            versions[principal] = record.version
            subject = iri(principal)
            for name, predicate in score_preds.items():
                projected = [o.lexical for o in graph.objects_for(subject, predicate)]
                value = record.scores().get(name)
                expected = [canonical_score(value)] if value is not None else []
                assert projected == expected

        operations = 0
        for _ in range(10_000):
            op = rng.randrange(6)
            if op == 0:
                principal = rng.choice(users)
                registry.penalize_user(principal, rng.choice((DUA_VIOLATION, NO_DUA_REQUEST)), cfg)
            elif op == 1:
                principal = rng.choice(orgs)
                registry.penalize_org(
                    principal, rng.choice((MISSING_CATEGORY, MISSING_PROPERTIES)), cfg
                )
            elif op == 2:
                principal = rng.choice(users)
                registry.assess(principal, assessment)
            elif op == 3:
                principal = rng.choice(users + orgs)
                name = BEHAVIOR if principal in users else CREDIBILITY_SCORE
                registry.apply_remote(
                    principal, name, f"0.{rng.randrange(10)}", version=rng.randrange(1, 4000)
                )
            elif op == 4:
                principal = rng.choice(users + orgs)
                name = BEHAVIOR if principal in users else CREDIBILITY_SCORE
                registry.set_score(principal, name, "1.0")
            else:
                principal = manifest.custodian_iri
                recipient = rng.choice(orgs[:3])
                if recipient == principal:
                    continue
                if registry.check_lockout(principal, recipient):
                    registry.rewrite_dua_reset(
                        principal,
                        recipient,
                        DuaRecord(
                            iri=f"{SYN_NS}dua_fuzz",
                            custodian=principal,
                            recipient=recipient,
                            requested_data={PATIENT},
                            permitted_use={PUBLIC_HEALTH},
                        ),
                    )
                else:
                    registry.lock_pair(principal, recipient)
                    registry.unlock_pair(principal, recipient)
            check(principal)
            operations += 1
        assert operations == 10_000


def test_c7_lockout_protocol():
    with criterion("C7 lockout-protocol"):
        graph = Graph()
        bootstrap_vocabulary(graph)
        generate_dataset(GeneratorSpec(seed=11, patient_count=24), into=graph)
        manifest = demographics_manifest(GeneratorSpec(seed=11, patient_count=24))
        service = ExchangeMiddleware(graph, node_id="node-lock")
        server = start_server(service)
        try:
            import json
            import urllib.request

            def post(path, payload):
                request = urllib.request.Request(
                    server.url + path,
                    data=json.dumps(payload).encode(),
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                try:
                    with urllib.request.urlopen(request, timeout=5) as response:
                        return response.status, json.loads(response.read())
                except urllib.error.HTTPError as exc:
                    return exc.code, json.loads(exc.read())

            org7 = manifest.orgs[6]
            body = {
                "user": manifest.users[6].iri,
                "category": SYMPTOM,
                "purpose": IRB,
            }
            # each compliant request against the absent category costs the
            # custodian 0.02 credibility; fifty drive it to exactly zero
            for i in range(50):
                status, payload = post("/requests", body)
                assert status == 200
                assert payload["decision"]["granted"] is True
            assert payload["decision"]["appliedPenalties"][0]["after"] == "0.0"

            status, payload = post("/requests", body)
            assert status == 200
            assert payload["decision"]["granted"] is False
            assert payload["decision"]["lockoutTriggered"] is True

            status, payload = post("/admin/dua", {
                "iri": org7.dua_iri,
                "custodian": manifest.custodian_iri,
                "recipient": org7.iri,
                "requestedData": [SYMPTOM],
                "permittedUseOrDisclosure": [IRB],
                "term": "1 year",
            })
            assert status == 200
            assert payload["locked"] is False

            status, payload = post("/requests", body)
            assert status == 200
            assert payload["decision"]["granted"] is True
            assert payload["decision"]["lockoutTriggered"] is False
        finally:
            server.shutdown()
            server.server_close()


def test_c8_convergence():
    with criterion("C8 convergence"):
        spec = GeneratorSpec(seed=11, patient_count=12)

        def build(node_id):
            graph = Graph()
            bootstrap_vocabulary(graph)
            generate_dataset(spec, into=graph)
            return ExchangeMiddleware(graph, node_id=node_id, peers=["memory://peer"])

        nodes = [build(f"node-{i}") for i in range(3)]
        manifest = demographics_manifest(spec)
        # disjoint single-writer principals per node
        owned = {
            0: [manifest.users[0].iri, manifest.users[10].iri],
            1: [manifest.users[1].iri, manifest.users[11].iri],
            2: [manifest.users[2].iri, manifest.users[12].iri],
        }
        rng = random.Random(808)
        for round_index in range(6):
            for index, node in enumerate(nodes):
                for user_iri in owned[index]:
                    if rng.random() < 0.8:
                        node.handle_request(
                            node.build_request(user_iri, SYMPTOM, PUBLIC_HEALTH)
                        )
            # deliver every pending update to both other replicas with
            # random duplication and reordering
            for index, node in enumerate(nodes):
                updates = node.pending_updates()
                if not updates:
                    continue
                for target_index, target in enumerate(nodes):
                    if target_index == index:
                        continue
                    batch = list(updates)
                    batch.extend(rng.choices(updates, k=rng.randrange(0, 3)))
                    rng.shuffle(batch)
                    target.receive_scores(batch)
        # final at-least-once pass: every pending update to every replica
        for index, node in enumerate(nodes):
            for target_index, target in enumerate(nodes):
                if target_index != index:
                    target.receive_scores(node.pending_updates())

        snapshots = [node.registry.snapshot() for node in nodes]
        principals = set(snapshots[0])
        for snapshot in snapshots[1:]:
            assert set(snapshot) == principals
        drained = [iri for owned_list in owned.values() for iri in owned_list]
        for principal in principals:
            views = {
                (tuple(sorted(s[principal]["scores"].items())), s[principal]["version"])
                for s in snapshots
            }
            assert len(views) == 1, f"replicas diverge on {principal}: {views}"
        assert any(
            snapshots[0][p]["scores"][BEHAVIOR] != "1.0" for p in drained
        ), "harness produced no mutations"


def test_c9_replay_determinism(tmp_path):
    with criterion("C9 replay-determinism"):
        spec = GeneratorSpec(seed=11, patient_count=24)
        manifest = demographics_manifest(spec)
        path = tmp_path / "transactions.ldjson"

        def build(log_path=None):
            graph = Graph()
            bootstrap_vocabulary(graph)
            generate_dataset(spec, into=graph)
            return ExchangeMiddleware(graph, node_id="node-replay", log_path=log_path)

        first = build(str(path))
        rng = random.Random(31337)
        categories = [PATIENT, OBSERVATION, SYMPTOM, SYN_NS + "Encounter"]
        purposes = [PUBLIC_HEALTH, IRB, HCO]
        for i in range(1000):
            user = manifest.users[rng.randrange(len(manifest.users))]
            request = first.build_request(
                user.iri,
                rng.choice(categories),
                rng.choice(purposes),
                request_id=f"txn-{i:04d}",
            )
            first.handle_request(request)
        first.close()
        log = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(log) == 1000

        replayed = build()
        assert replayed.replay_log(log) == 1000
        assert replayed.registry.snapshot() == first.registry.snapshot()
