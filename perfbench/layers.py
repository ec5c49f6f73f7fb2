"""Per-layer metrics from the spans `traced_serve.py` writes.

Times are given per request: the layer's total time over the traced
window divided by the number of `POST /requests` the server handled (unit
`ms/req`). Lock waits are per operation, writes included (`ms/op`). The
write handlers (`receive_scores`, `admin_rewrite_dua`) are per call. A
layer the workload never reaches reads 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

# `trace.policy_span_ratio` outside this range means the policy span and
# the server's own `timings.recipientPolicyCheck` disagree
POLICY_AGREEMENT = (0.9, 1.05)

REQUEST_ROOT = "middleware.handle_request"
WRITE_ROOTS = ("middleware.receive_scores", "middleware.admin_rewrite_dua")


def _ratio(part, whole):
    return part / whole if whole else 0.0


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.
    Children run on their parent's thread, so they never overlap."""
    children = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent] += end - start
    return {sid: (end - start) - children[sid] for sid, _, start, end, _, _, _ in spans}


def per_layer(traced, plain, spans_path: str) -> dict:
    """Metrics from the traced pass and the spans its server wrote, with the
    untraced pass of the same sequence as the reference for
    `trace.overhead`. Returns name -> (value, unit); the key
    `_policy_span_problem` is set when the cross-check fails."""
    with open(spans_path, encoding="utf-8") as handle:
        trace = json.load(handle)
    spans = trace["spans"]
    by_name = defaultdict(list)
    name_of = {}
    for span in spans:
        by_name[span[1]].append(span)
        name_of[span[0]] = span[1]

    request_ids = {s[5] for s in by_name[REQUEST_ROOT]}
    op_ids = request_ids | {s[5] for root in WRITE_ROOTS for s in by_name[root]}
    handlers = [s for s in by_name["http.finish_request"] if s[5] in op_ids]
    request_handlers = [s for s in handlers if s[5] in request_ids]
    n = len(by_name[REQUEST_ROOT])
    window_start = min(s[2] for s in handlers)
    window_end = max(s[3] for s in handlers)

    def total(name, only=None):
        return sum(s[3] - s[2] for s in by_name[name] if only is None or s[5] in only)

    def count(name, only=None):
        return sum(1 for s in by_name[name] if only is None or s[5] in only)

    def values(name):
        return sum(s[6] or 0 for s in by_name[name])

    def per_req_ms(*names):
        return _ratio(sum(total(name, request_ids) for name in names) * 1000, n)

    def per_call_ms(name):
        return _ratio(total(name) * 1000, count(name))

    load = by_name["store.load_lines"][0]
    init = by_name["middleware.init"][0]
    meta = trace["meta"]
    rows = values("query.eval_select")
    gc_in_window = [p for p in trace["gc"] if p[1] >= window_start and p[2] <= window_end]
    gen2 = [(end - start) * 1000 for gen, start, end in gc_in_window if gen == 2]
    outcomes = values("policy.evaluate_user_policies") + count("policy.evaluate_custodian")
    replies = {s[0] for s in by_name["http.reply"]}
    dumps = sum(s[3] - s[2] for s in by_name["json.dumps"] if s[4] in replies and s[5] in request_ids)
    lockouts = sum(1 for s in by_name["trust.check_lockout"]
                   if s[6] and name_of.get(s[4]) == REQUEST_ROOT)
    selfs = self_times(spans)
    handle_self = sum(selfs[s[0]] for s in by_name[REQUEST_ROOT])
    handler_total = sum(s[3] - s[2] for s in request_handlers)
    client_requests = [s for s in traced.window if s.kind == "request"]
    client_total = sum(s.latency_s for s in client_requests)
    reported_policy = sum(s.policy_s for s in client_requests)
    policy_ratio = _ratio(total("policy.evaluate_user_policies", request_ids), reported_policy)

    metrics = {
        "store.load_lines_s": (load[3] - load[2], "s"),
        "middleware.init_s": (init[3] - init[2], "s"),
        "store.triples": (meta["triples"], "count"),
        "store.bytes_per_triple": (_ratio(meta["load_rss_delta_kb"] * 1024, meta["triples"]), "B"),
        "middleware.retrieve_ms": (per_req_ms("middleware.retrieve"), "ms/req"),
        "query.eval_select_ms": (per_req_ms("query.eval_select"), "ms/req"),
        "query.rows_per_request": (_ratio(rows, n), "rows/req"),
        "query.eval_select_us_per_row": (_ratio(total("query.eval_select") * 1e6, rows), "us/row"),
        "middleware.to_dict_ms": (per_req_ms("middleware.to_dict"), "ms/req"),
        "middleware.json_dumps_ms": (_ratio(dumps * 1000, n), "ms/req"),
        "http.response_bytes": (_ratio(sum(s.response_bytes for s in client_requests),
                                       len(client_requests)), "B/req"),
        "gc.gen2_collections": (_ratio(len(gen2), n), "count/req"),
        "gc.gen2_pause_p50_ms": (statistics.median(gen2) if gen2 else 0.0, "ms"),
        "gc.gen2_pause_max_ms": (max(gen2, default=0.0), "ms"),
        "gc.pause_share": (_ratio(sum(p[2] - p[1] for p in gc_in_window),
                                  window_end - window_start), "ratio"),
        "policy.user_checks_ms": (per_req_ms("policy.evaluate_user_policies"), "ms/req"),
        "policy.custodian_checks_ms": (per_req_ms("policy.evaluate_custodian"), "ms/req"),
        "policy.parse_calls": (_ratio(count("policy.parse"), n), "calls/req"),
        "policy.plan_calls": (_ratio(count("policy.compile_plan"), n), "calls/req"),
        "policy.eval_ask_calls": (_ratio(count("policy.eval_ask"), n), "calls/req"),
        "policy.eval_ask_ms": (per_req_ms("policy.eval_ask"), "ms/req"),
        "policy.ask_hit_ratio": (1 - _ratio(count("policy.eval_ask"), outcomes), "ratio"),
        "trust.check_lockout_ms": (per_req_ms("trust.check_lockout"), "ms/req"),
        "trust.assess_ms": (per_req_ms("trust.assess"), "ms/req"),
        "trust.penalize_ms": (per_req_ms("trust.penalize_user", "trust.penalize_org"), "ms/req"),
        "trust.touch_projection_ms": (per_req_ms("trust.touch_projection"), "ms/req"),
        "trust.touch_projection_calls": (_ratio(count("trust.touch_projection", request_ids), n),
                                         "calls/req"),
        "trust.lockouts": (_ratio(lockouts, n), "count/req"),
        "middleware.log_append_ms": (per_req_ms("middleware._append_log"), "ms/req"),
        "middleware.log_bytes_per_request": (_ratio(traced.log_bytes, traced.log_lines), "B/req"),
        "middleware.lock_read_wait_ms": (_ratio(total("middleware.lock_read_wait") * 1000,
                                                len(handlers)), "ms/op"),
        "middleware.lock_write_wait_ms": (_ratio(total("middleware.lock_write_wait") * 1000,
                                                 len(handlers)), "ms/op"),
        "middleware.receive_scores_ms": (per_call_ms("middleware.receive_scores"), "ms/call"),
        "middleware.admin_rewrite_dua_ms": (per_call_ms("middleware.admin_rewrite_dua"), "ms/call"),
        "trust.remote_applied": (_ratio(values("trust.apply_remote"),
                                        count("middleware.receive_scores")), "updates/call"),
        "middleware.handle_request_self_ms": (_ratio(handle_self * 1000, n), "ms/req"),
        "http.handler_ms": (_ratio(handler_total * 1000, n), "ms/req"),
        "http.outside_handler_share": (_ratio(handler_total - total(REQUEST_ROOT), handler_total),
                                       "ratio"),
        "trace.coverage": (_ratio(handler_total, client_total), "ratio"),
        "trace.overhead": (1 - _ratio(traced.requests_per_s(), plain.requests_per_s()), "ratio"),
        "trace.policy_span_ratio": (policy_ratio, "ratio"),
    }
    low, high = POLICY_AGREEMENT
    if not low <= policy_ratio <= high:
        metrics["_policy_span_problem"] = (
            f"policy spans sum to {policy_ratio:.3f}x the server's recipientPolicyCheck timings")
    return metrics
