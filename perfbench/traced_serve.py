"""Run the trustgate CLI with span recorders around its layers.

    python3 perfbench/traced_serve.py SPANS_OUT serve --data ... --log ...

Before calling `trustgate.cli.main` with the remaining arguments, this
launcher wraps the public functions of `store`, `query`, `policy`, `trust`
and `middleware` at the names their callers look up, and registers a
`gc.callbacks` hook. Spans are kept in memory and written to SPANS_OUT as
JSON when the server exits (SIGTERM stops it the way Ctrl-C would). No
program file is changed.

A span is `[id, name, start, end, parent, request, value]`: times are
`time.perf_counter()` seconds, `parent` is the id of the enclosing span on
the same thread, `request` numbers the `finish_request` call (one HTTP
connection) the span ran in, and `value` is a number the layer returned
where one is recorded (rows, outcomes evaluated, a boolean as 0/1).
"""

from __future__ import annotations

import gc
import itertools
import json
import signal
import sys
import threading
import time
import types
from contextlib import contextmanager

clock = time.perf_counter


class Recorder:
    """Spans, GC pauses and load facts of one server process, in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.gc_pauses: list[list] = []
        self.meta: dict = {}
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._gc_start = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, value=None, request_root=False):
        """`fn` recorded as a span; `value(result)` gives the span's value."""
        spans, ids, local, stack_of = self.spans, self._ids, self._local, self._stack
        requests = self._requests

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            if request_root:
                local.request = next(requests)
            request = getattr(local, "request", None)
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append([sid, name, start, end, parent, request,
                              value(result) if value is not None and result is not None else None])
                if request_root:
                    local.request = None

        return traced

    def wrap_wait(self, method, name):
        """A lock-entering context manager whose span is the wait to enter."""
        spans, ids, local, stack_of = self.spans, self._ids, self._local, self._stack

        @contextmanager
        def waiting(lock):
            stack = stack_of()
            start = clock()
            with method(lock):
                spans.append([next(ids), name, start, clock(), stack[-1] if stack else None,
                              getattr(local, "request", None), None])
                yield

        return waiting

    def on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = clock()
        else:
            self.gc_pauses.append([info["generation"], self._gc_start, clock()])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "gc": self.gc_pauses, "meta": self.meta}, handle)


def _rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    return 0


def install(rec: Recorder) -> None:
    from trustgate import cli, middleware, policy, trust

    def load_lines(graph, source):
        before = _rss_kb()
        added = loader(graph, source)
        rec.meta["load_rss_delta_kb"] = _rss_kb() - before
        rec.meta["triples"] = added
        return added

    loader = cli.load_lines
    cli.load_lines = rec.wrap(load_lines, "store.load_lines")

    for name in ("parse", "compile_plan", "eval_ask", "completeness_probe"):
        setattr(policy, name, rec.wrap(getattr(policy, name), f"policy.{name}"))
    middleware.eval_select = rec.wrap(middleware.eval_select, "query.eval_select", value=len)
    middleware.json = types.SimpleNamespace(
        dumps=rec.wrap(json.dumps, "json.dumps", value=len),
        loads=json.loads, JSONDecodeError=json.JSONDecodeError)

    engine = policy.PolicyEngine
    engine.evaluate_user_policies = rec.wrap(
        engine.evaluate_user_policies, "policy.evaluate_user_policies",
        value=lambda outcomes: sum(passed is not None for _, passed in outcomes))
    engine.evaluate_custodian = rec.wrap(engine.evaluate_custodian, "policy.evaluate_custodian")

    registry = trust.TrustRegistry
    for name in ("check_lockout", "assess", "penalize_user", "penalize_org", "touch_projection",
                 "lock_pair", "rewrite_dua_reset"):
        setattr(registry, name, rec.wrap(getattr(registry, name), f"trust.{name}",
                                         value=lambda r: int(r) if isinstance(r, bool) else None))
    registry.apply_remote = rec.wrap(registry.apply_remote, "trust.apply_remote", value=int)

    service = middleware.ExchangeMiddleware
    service.__init__ = rec.wrap(service.__init__, "middleware.init")
    for name in ("handle_request", "retrieve", "_append_log", "receive_scores",
                 "admin_rewrite_dua"):
        setattr(service, name, rec.wrap(getattr(service, name), f"middleware.{name}"))
    middleware.DataResponse.to_dict = rec.wrap(middleware.DataResponse.to_dict,
                                               "middleware.to_dict")
    middleware.RWLock.read = rec.wrap_wait(middleware.RWLock.read, "middleware.lock_read_wait")
    middleware.RWLock.write = rec.wrap_wait(middleware.RWLock.write, "middleware.lock_write_wait")
    middleware._Handler._reply = rec.wrap(middleware._Handler._reply, "http.reply")
    server = middleware.MiddlewareHTTPServer
    server.finish_request = rec.wrap(server.finish_request, "http.finish_request",
                                     request_root=True)
    gc.callbacks.append(rec.on_gc)


def _terminate(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    signal.signal(signal.SIGTERM, _terminate)
    from trustgate import cli

    try:
        return cli.main(cli_args)
    finally:
        gc.callbacks.remove(rec.on_gc)
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
