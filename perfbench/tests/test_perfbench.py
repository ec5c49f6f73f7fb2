"""Fast checks of the benchmark itself, on tiny datasets.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# the per-layer metrics the benchmark promises, by name
PER_LAYER = """
store.load_lines_s middleware.init_s store.triples store.bytes_per_triple
middleware.retrieve_ms query.eval_select_ms query.rows_per_request
query.eval_select_us_per_row middleware.to_dict_ms middleware.json_dumps_ms
http.response_bytes gc.gen2_collections gc.gen2_pause_p50_ms gc.gen2_pause_max_ms
gc.pause_share policy.user_checks_ms policy.custodian_checks_ms policy.parse_calls
policy.plan_calls policy.eval_ask_calls policy.eval_ask_ms policy.ask_hit_ratio
trust.check_lockout_ms trust.assess_ms trust.penalize_ms trust.touch_projection_ms
trust.touch_projection_calls trust.lockouts middleware.log_append_ms
middleware.log_bytes_per_request middleware.lock_read_wait_ms
middleware.lock_write_wait_ms middleware.receive_scores_ms
middleware.admin_rewrite_dua_ms trust.remote_applied middleware.handle_request_self_ms
http.handler_ms http.outside_handler_share trace.coverage trace.overhead
""".split()

TINY = (40, 60)  # patients, users


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.lines"
    return workloads.build_dataset(7, TINY[0], TINY[1], str(path))


def _granted_reply(rows):
    return {
        "decision": {
            "granted": True,
            "lockoutTriggered": False,
            "compliance": {"perPolicy": workloads._outcomes(True, True, True, True)},
            "appliedPenalties": [],
        },
        "records": {"variables": ["x"], "rows": copy.deepcopy(rows)},
    }


def test_read_oracle_accepts_the_exact_reply_and_rejects_tampered_ones(dataset):
    driver = workloads.ReadDriver("reads", dataset, random.Random(1))
    op = driver.next_op()
    rows = dataset.rows[op.payload["category"]]
    assert len(rows) == TINY[0] and rows == sorted(rows)
    assert driver.check(op, _granted_reply(rows)) is None

    swapped = _granted_reply(rows)
    swapped["records"]["rows"][0], swapped["records"]["rows"][1] = rows[1], rows[0]
    short = _granted_reply(rows[:-1])
    denied = _granted_reply(rows)
    denied["decision"]["granted"] = False
    policy = _granted_reply(rows)
    policy["decision"]["compliance"]["perPolicy"][2][1] = False
    renamed = _granted_reply(rows)
    renamed["records"]["rows"][5] = ["<http://example.org/contact-tracing#patient_9999999>"]
    for tampered in (swapped, short, denied, policy, renamed):
        assert driver.check(op, tampered) is not None


def test_verdict_oracle_mirrors_penalties_and_rejects_a_missing_one(dataset):
    driver = workloads.VerdictDriver("verdicts", dataset, random.Random(3))
    while True:
        op = driver.next_op()
        if op.kind == "request" and op.expect.penalties:
            break
    expect = op.expect
    reply = {"decision": {"granted": expect.granted, "lockoutTriggered": False,
                          "compliance": {"perPolicy": expect.per_policy},
                          "appliedPenalties": list(expect.penalties)},
             "records": None if expect.rows is None else {"rows": [["x"]] * expect.rows}}
    assert driver.check(op, reply) is None
    reply["decision"]["appliedPenalties"] = []
    assert driver.check(op, reply) is not None


def test_verdict_oracle_reposts_the_agreement_when_credibility_reaches_zero(dataset):
    driver = workloads.VerdictDriver("verdicts", dataset, random.Random(5))
    missing = 0
    for _ in range(20000):
        op = driver.next_op()
        if op.path == "/admin/dua":
            break
        if op.expect.per_policy == workloads._outcomes(True, True, False, True):
            missing += 1
    else:
        pytest.fail("no agreement re-post in 20000 operations")
    # a 0.02 deduction from 1.0 reaches zero on the 50th missing-category request
    assert missing == 50
    assert op.payload["recipient"] == driver.missing_org
    assert driver.next_op().path == "/requests"


def test_write_oracle_expects_every_update_applied():
    batches = workloads.PeerBatches(random.Random(2))
    first, second = batches.next_op(), batches.next_op()
    assert first.expect == {"applied": workloads.PEER_BATCH}
    versions = {}
    for op in (first, second):
        for update in op.payload["updates"]:
            assert update["version"] > versions.get(update["principal"], 0)
            versions[update["principal"]] = update["version"]


def test_self_time_subtracts_direct_children():
    spans = [[1, "a", 0.0, 10.0, None, 1, None], [2, "b", 1.0, 4.0, 1, 1, None],
             [3, "c", 2.0, 3.0, 2, 1, None], [4, "d", 5.0, 6.0, 1, 1, None]]
    assert layers.self_times(spans) == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_benchmark_json_follows_the_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    # verdicts-1k is runnable but left out: the server's stale-verdict cache
    # bug makes it report incorrect outputs (see workloads.WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in workloads.WORKLOADS if name != "verdicts-1k"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) == 0.25
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])
    assert set(PER_LAYER) <= {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("workload,trace", [("contended-10k", False), ("verdicts-1k", True),
                                            ("retrieve-10k", True)])
def test_a_tiny_run_prints_exactly_the_declared_metrics(workload, trace):
    result = run.run_benchmark(ROOT, workload, seed=3, seconds=1, trace=trace, sizes=TINY)
    assert result["correct"], result
    assert result["attempted"] > 0 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    if trace:
        assert set(PER_LAYER) <= set(printed)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "retrieve-10k",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
