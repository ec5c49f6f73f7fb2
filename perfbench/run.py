"""End-to-end benchmark of `trustgate serve` over HTTP.

Run from the root of a checkout:

    python3 perfbench/run.py --workload retrieve-10k --seed 1 --seconds 30 --trace 0

It generates the workload's dataset from the seed, starts the shipped server
as its own process, drives it with closed-loop clients (one connection per
request, at most two client threads), checks every reply against the
workload's oracle and the server's transaction log, and prints one JSON
object as the last line of its output. With `--trace 0` the metrics are the
end-to-end ones; with `--trace 1` the same sequence runs once untraced and
once under `traced_serve.py`, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))

# set-ups per untraced run; setup_s is their median
SETUPS = 3


@dataclass
class Sample:
    kind: str
    client: str
    started: float
    latency_s: float
    ok: bool
    request_id: Optional[str] = None
    response_bytes: int = 0
    policy_s: float = 0.0


@dataclass
class Pass:
    """One server's life: its set-ups and the measured window."""

    setup_s: list[float] = field(default_factory=list)
    window: list[Sample] = field(default_factory=list)
    window_s: float = 0.0
    peak_rss_kb: int = 0
    log_lines: int = 0
    log_bytes: int = 0
    errors: list[str] = field(default_factory=list)

    def requests_per_s(self, client: Optional[str] = None) -> float:
        """Requests completed per second over the window, by one client or
        (None) by all."""
        return sum(s.kind == "request" and client in (None, s.client)
                   for s in self.window) / self.window_s


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _execute(server, driver, op, errors: list[str]) -> Sample:
    reply = server.post(op.path, op.payload)
    sample = Sample(op.kind, driver.name, reply.started, reply.latency_s, False,
                    op.payload.get("requestId"), len(reply.body))
    if reply.error is not None:
        problem = reply.error
    elif not 200 <= reply.status < 300:
        problem = f"HTTP {reply.status}: {reply.body[:200]!r}"
    else:
        try:
            body = json.loads(reply.body)
        except ValueError as exc:
            problem = f"unparsable reply: {exc}"
        else:
            problem = driver.check(op, body)
            if op.kind == "request" and isinstance(body, dict):
                sample.policy_s = float((body.get("timings") or {}).get("recipientPolicyCheck", 0.0))
    if problem is None:
        sample.ok = True
    elif len(errors) < 20:
        errors.append(f"{driver.name} {op.path} {sample.request_id or ''}: {problem}")
    return sample


def _closed_loop(server, driver, deadline: float, out: list[Sample], errors: list[str]) -> None:
    try:
        while time.perf_counter() < deadline:
            out.append(_execute(server, driver, driver.next_op(), errors))
            pause = driver.think_s()
            if pause:
                time.sleep(pause)
    except Exception as exc:  # a client that dies leaves the run incorrect, not hung
        errors.append(f"{driver.name} stopped: {type(exc).__name__}: {exc}")
        raise


def _check_log(path: str, samples: list[Sample], errors: list[str]) -> tuple[int, int]:
    """Every request sent has exactly one line in the server's log; a
    request without one, or with several, fails."""
    counts: Counter = Counter()
    lines = 0
    with open(path, "rb") as handle:
        raw = handle.read()
    for line in raw.splitlines():
        lines += 1
        counts[json.loads(line).get("requestId")] += 1
    sent = {s.request_id for s in samples if s.kind == "request"}
    for sample in samples:
        if sample.kind == "request" and counts.get(sample.request_id) != 1:
            if sample.ok and len(errors) < 20:
                errors.append(f"log has {counts.get(sample.request_id, 0)} lines for {sample.request_id}")
            sample.ok = False
    extra = sum(n for rid, n in counts.items() if rid not in sent)
    if extra and len(errors) < 20:
        errors.append(f"log has {extra} lines for requests never sent")
    return lines, len(raw)


def run_pass(root, workdir, tag, dataset, workload, seed, seconds, setups, launcher=None) -> Pass:
    from server import Server
    from workloads import make_drivers

    result = Pass()
    server = None
    try:
        for i in range(setups):
            if server is not None:
                server.stop()
            server = Server(root, workdir, dataset.path, f"{tag}-{i}", seed % 2**32, launcher)
            result.setup_s.append(server.setup_s)
        drivers = make_drivers(workload, dataset, seed)
        outs: list[list[Sample]] = [[] for _ in drivers]
        started = time.perf_counter()
        deadline = started + seconds
        threads = [threading.Thread(target=_closed_loop, daemon=True,
                                    args=(server, d, deadline, out, result.errors))
                   for d, out in zip(drivers, outs)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        result.window_s = time.perf_counter() - started
        result.window = [s for out in outs for s in out]
        result.peak_rss_kb = server.peak_rss_kb()
    finally:
        if server is not None:
            server.stop()
    result.log_lines, result.log_bytes = _check_log(server.log_path, result.window, result.errors)
    return result


def end_to_end(p: Pass, reader: str) -> dict:
    """Request latency and throughput are the first client's
    (contended-10k's reader; its writer's requests are denied at a tenth of
    the cost and would make the percentiles bimodal, and their rate is set
    mostly by the writer's pauses). Write latency is reported at its
    median only: a write takes 2-3 ms unless it waits for the read lock, so
    its tail follows how promptly the host schedules the server's threads
    more than anything the program does, and its p90 spread by more than
    a quarter over ten seeds on a shared 2-vCPU virtual machine."""
    requests = [s.latency_s * 1000 for s in p.window
                if s.kind == "request" and s.client == reader]
    writes = [s.latency_s * 1000 for s in p.window if s.kind == "write"]
    return {
        "setup_s": (statistics.median(p.setup_s), "s"),
        "requests_per_s": (p.requests_per_s(reader), "1/s"),
        "request_p50_ms": (percentile(requests, 50), "ms"),
        "request_p95_ms": (percentile(requests, 95), "ms"),
        "write_p50_ms": (percentile(writes, 50), "ms"),
        "server_peak_rss_mb": (p.peak_rss_kb / 1024, "MB"),
    }


def run_benchmark(root: str, workload_name: str, seed: int, seconds: float, trace: bool,
                  sizes: Optional[tuple[int, int]] = None) -> dict:
    """Run one workload; `sizes` (patients, users) replaces the workload's
    own sizes, for quick checks of the benchmark itself."""
    from workloads import WORKLOADS, Workload, build_dataset

    workload = WORKLOADS[workload_name]
    if sizes is not None:
        workload = Workload(sizes[0], sizes[1], workload.clients)
    workdir = os.path.join(root, ".perfbench_work", f"{os.getpid()}-{workload_name}-{seed}")
    os.makedirs(workdir, exist_ok=True)
    try:
        dataset = build_dataset(seed, workload.patients, workload.users,
                                os.path.join(workdir, "data.lines"))
        # the oracle's expected rows live as long as the run: keep them out
        # of the client's own collections
        gc.collect()
        gc.freeze()
        if not trace:
            passes = [run_pass(root, workdir, "serve", dataset, workload, seed, seconds, SETUPS)]
            metrics = end_to_end(passes[0], workload.clients[0][0])
        else:
            from layers import per_layer

            spans = os.path.join(workdir, "spans.json")
            launcher = [os.path.join(HERE, "traced_serve.py"), spans]
            passes = [run_pass(root, workdir, "plain", dataset, workload, seed, seconds, 1),
                      run_pass(root, workdir, "traced", dataset, workload, seed, seconds, 1,
                               launcher)]
            metrics = per_layer(passes[1], passes[0], spans)
            cross = metrics.pop("_policy_span_problem", None)
            if cross:
                passes[1].errors.append(cross)
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    samples = [s for p in passes for s in p.window]
    attempted = len(samples)
    failed = sum(not s.ok for s in samples)
    if trace:
        metrics["ops_failed_share"] = (failed / attempted, "ratio")
    errors = [e for p in passes for e in p.errors]
    for error in errors:
        print(f"perfbench: {error}", file=sys.stderr)
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # stopping the benchmark stops its server too: SystemExit runs the
    # `finally` blocks that terminate it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "trustgate", "cli.py")):
        print("perfbench: no src/trustgate here; run from the root of a trustgate checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run_benchmark(root, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
