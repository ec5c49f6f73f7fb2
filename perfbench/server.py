"""The server under test as a child process, and the HTTP calls made to it.

The server is the shipped CLI, `trustgate serve`, started from the
checkout's `src/` with a fresh log file. It listens on a port the operating
system picks; the port is read from the line the CLI prints to stderr once
the dataset is loaded and every principal is registered.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+) ")

SETUP_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 30.0


class ServerError(Exception):
    pass


@dataclass
class Reply:
    status: int
    body: bytes
    latency_s: float
    started: float
    error: Optional[str] = None


def post(host: str, port: int, path: str, payload: dict) -> Reply:
    """One POST on a fresh connection; the latency includes the connect."""
    data = json.dumps(payload).encode("utf-8")
    started = time.perf_counter()
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", path, body=data, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = response.read()
        status = response.status
    except (OSError, http.client.HTTPException) as exc:
        return Reply(0, b"", time.perf_counter() - started, started, f"{type(exc).__name__}: {exc}")
    finally:
        conn.close()
    return Reply(status, body, time.perf_counter() - started, started)


def _healthy(host: str, port: int) -> bool:
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        response.read()
        return response.status == 200
    except OSError:
        return False
    finally:
        conn.close()


def read_status_kb(pid: int, field: str) -> int:
    """A `kB` field of /proc/<pid>/status, such as VmHWM or VmRSS."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise ServerError(f"no {field} in /proc/{pid}/status")


class Server:
    """A running `trustgate serve`; `setup_s` runs from the spawn to the
    first 200 from /healthz."""

    def __init__(self, root: str, workdir: str, data_path: str, tag: str,
                 hash_seed: int, launcher: Optional[list[str]] = None):
        self.log_path = os.path.join(workdir, f"{tag}.log")
        self.stderr_path = os.path.join(workdir, f"{tag}.stderr")
        prefix = launcher or ["-m", "trustgate.cli"]
        argv = [sys.executable, *prefix, "serve", "--data", data_path,
                "--log", self.log_path, "--listen", "127.0.0.1:0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONHASHSEED"] = str(hash_seed)
        self._stderr = open(self.stderr_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self._stderr)
        try:
            self.host, self.port = self._wait_listening(started)
            while not _healthy(self.host, self.port):
                self._check_alive()
                if time.perf_counter() - started > SETUP_TIMEOUT_S:
                    raise ServerError("server never answered /healthz")
                time.sleep(0.002)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _check_alive(self) -> None:
        if self.proc.poll() is not None:
            with open(self.stderr_path, encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-2000:]
            raise ServerError(f"server exited with {self.proc.returncode}: {tail}")

    def _wait_listening(self, started: float) -> tuple[str, int]:
        while True:
            with open(self.stderr_path, encoding="utf-8", errors="replace") as handle:
                match = _LISTENING.search(handle.read())
            if match:
                return match.group(1), int(match.group(2))
            self._check_alive()
            if time.perf_counter() - started > SETUP_TIMEOUT_S:
                raise ServerError("server never reported its address")
            time.sleep(0.002)

    def post(self, path: str, payload: dict) -> Reply:
        return post(self.host, self.port, path, payload)

    def peak_rss_kb(self) -> int:
        return read_status_kb(self.proc.pid, "VmHWM")

    def stop(self) -> None:
        """Terminate the server and wait for it to exit. The log is flushed
        after every line, so nothing logged is lost."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self._stderr.close()
