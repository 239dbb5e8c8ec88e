"""``nvscavenger serve`` end to end: a real daemon over real sockets.

The contract under test:

* the daemon starts, writes its ``--ready-file``, and answers
  ``/healthz``, ``/readyz``, ``/stats``, and ``POST /analyze``;
* repeated and concurrent requests for one spec produce bit-identical
  digests, with exactly one recording (the dedup counter proves it);
* malformed bodies and unknown routes are structured 400/404, never
  hangs or connection resets;
* a request deadline expiring mid-record surfaces as a structured 504
  and the daemon keeps serving afterwards;
* SIGTERM drains gracefully: ``/readyz`` flips 503 *while the listener
  still answers*, the drain journal lands under the cache root, and the
  exit code is ``128 + signum`` (143; SIGINT gives 130);
* a SIGKILLed daemon leaves no pins: ``engine gc`` keeps the key of a
  request the daemon is serving, and evicts it once the daemon is dead.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from tests.test_service import gc_elsewhere

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGTERM") or os.name == "nt",
    reason="daemon tests drive POSIX signals",
)


def request(host, port, method, path, payload=None, timeout=60.0):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"}
                     if body else {})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read()), dict(resp.getheaders())
    finally:
        conn.close()


class Daemon:
    def __init__(self, proc, host, port, cache_dir):
        self.proc = proc
        self.host = host
        self.port = port
        self.cache_dir = cache_dir

    def req(self, method, path, payload=None, timeout=60.0):
        return request(self.host, self.port, method, path, payload, timeout)


#: ``python -c`` body running the CLI with every cache hit held after
#: its read, its key pinned, until the daemon dies (``$HOLD_DIR/entered``
#: marks the first)
HOLD_HITS = """
import os, sys, time
from repro.service.server import AnalysisService
real = AnalysisService._verified_hit
def held(self, spec):
    out = real(self, spec)
    if out is not None:
        open(os.path.join(os.environ["HOLD_DIR"], "entered"), "w").close()
        time.sleep(3600)
    return out
AnalysisService._verified_hit = held
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def start_daemon(tmp_path, *extra, launcher=("-m", "repro.cli")):
    cache_dir = str(tmp_path / "cache")
    ready = str(tmp_path / "ready")
    env = dict(os.environ, PYTHONPATH=SRC, HOLD_DIR=str(tmp_path))
    proc = subprocess.Popen(
        [sys.executable, *launcher, "serve",
         "--cache-dir", cache_dir, "--port", "0",
         "--ready-file", ready, "--grace", "3", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    deadline = time.monotonic() + 30
    while not os.path.exists(ready):
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon died at startup:\n{proc.stdout.read()}")
        if time.monotonic() > deadline:
            proc.kill()
            raise RuntimeError("daemon never wrote its ready file")
        time.sleep(0.05)
    host, port = open(ready).read().split()
    return Daemon(proc, host, int(port), cache_dir)


def stop_daemon(d, sig=signal.SIGTERM):
    if d.proc.poll() is None:
        d.proc.send_signal(sig)
    try:
        d.proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        d.proc.kill()
        d.proc.wait(timeout=10)
    return d.proc.returncode


@pytest.fixture
def daemon(tmp_path):
    d = start_daemon(tmp_path)
    yield d
    stop_daemon(d)


REQ = {"app": "gtc", "refs_per_iteration": 300, "scale": 1.0 / 256.0,
       "n_iterations": 2}


class TestRoutes:
    def test_health_ready_stats_and_404(self, daemon):
        status, body, _ = daemon.req("GET", "/healthz")
        assert status == 200 and body["ok"] is True
        status, body, _ = daemon.req("GET", "/readyz")
        assert status == 200 and body["ready"] is True
        status, body, _ = daemon.req("GET", "/stats")
        assert status == 200 and "admission" in body
        status, body, _ = daemon.req("GET", "/no-such-route")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_analyze_cold_then_warm_identical_digest(self, daemon):
        s1, b1, _ = daemon.req("POST", "/analyze", REQ)
        assert s1 == 200, b1
        assert b1["cached"] is False
        assert b1["digest"].startswith("sha256:")
        s2, b2, _ = daemon.req("POST", "/analyze", REQ)
        assert s2 == 200
        assert b2["cached"] is True
        assert b2["digest"] == b1["digest"]
        assert b2["key"] == b1["key"]

    def test_malformed_bodies_are_structured_400(self, daemon):
        conn = http.client.HTTPConnection(daemon.host, daemon.port,
                                          timeout=30)
        try:
            conn.request("POST", "/analyze", body="this is not json",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 400
            assert body["error"]["code"] == "bad_request"
        finally:
            conn.close()
        status, body, _ = daemon.req("POST", "/analyze",
                                     {"app": "gtc", "bogus": True})
        assert status == 400
        assert "unknown request field" in body["error"]["message"]

    def test_concurrent_duplicates_record_once(self, daemon):
        spec = dict(REQ, seed=42)
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(
                lambda _i: daemon.req("POST", "/analyze", spec), range(6)))
        assert all(s == 200 for s, _b, _h in results)
        assert len({b["digest"] for _s, b, _h in results}) == 1
        _s, stats, _h = daemon.req("GET", "/stats")
        # exactly one recording; everyone else coalesced or hit cache
        assert stats["records"] == 1
        assert stats.get("coalesced", 0) + stats.get("cache_hits", 0) == 5

    def test_deadline_expiry_mid_record_is_504_and_daemon_survives(
            self, daemon):
        heavy = {"app": "gtc", "refs_per_iteration": 1_000_000,
                 "scale": 1.0, "n_iterations": 10, "deadline_s": 0.5}
        status, body, _ = daemon.req("POST", "/analyze", heavy)
        assert status == 504
        assert body["error"]["code"] == "deadline_exceeded"
        status, body, _ = daemon.req("POST", "/analyze", REQ)
        assert status == 200  # not poisoned


class TestDrain:
    def test_sigterm_flips_readyz_before_listener_closes_then_exits_143(
            self, tmp_path):
        d = start_daemon(tmp_path)
        # park a heavy recording in flight: an idle daemon drains (and
        # closes its listener) too fast to observe the readyz flip
        heavy = {"app": "gtc", "refs_per_iteration": 1_000_000,
                 "scale": 1.0, "n_iterations": 10, "deadline_s": 120}
        with ThreadPoolExecutor(max_workers=1) as pool:
            fut = pool.submit(d.req, "POST", "/analyze", heavy, 120.0)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                _s, stats, _h = d.req("GET", "/stats")
                if stats["admission"]["inflight"] >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("recording never became in-flight")
            d.proc.send_signal(signal.SIGTERM)
            # the listener must keep answering during the drain, and
            # report not-ready — that ordering is what lets load
            # balancers stop routing before the socket disappears
            saw_unready = False
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                try:
                    status, body, _ = d.req("GET", "/readyz", timeout=2)
                except (ConnectionError, OSError):
                    break  # listener closed — must have seen 503 first
                if status == 503 and body["draining"]:
                    saw_unready = True
                    break
                time.sleep(0.02)
            # the in-flight request resolves cleanly: finished within the
            # grace window, or cancelled as a structured shutting_down
            status, body, _ = fut.result(timeout=120)
            assert status in (200, 503)
            if status == 503:
                assert body["error"]["code"] == "shutting_down"
        assert saw_unready, "readyz never flipped 503 during drain"
        assert stop_daemon(d) == 143
        journal = os.path.join(d.cache_dir, "service", "drain.json")
        with open(journal) as fh:
            record = json.load(fh)
        assert record["signum"] == signal.SIGTERM
        assert "hint" in record

    def test_sigint_exits_130(self, tmp_path):
        d = start_daemon(tmp_path)
        assert d.req("GET", "/healthz")[0] == 200
        assert stop_daemon(d, signal.SIGINT) == 130


class TestPins:
    def test_sigkilled_daemon_pins_nothing(self, tmp_path):
        d = start_daemon(tmp_path, launcher=("-c", HOLD_HITS))
        try:
            # recorded in a child, which exits before the response
            status, body, _ = d.req("POST", "/analyze", REQ)
            assert status == 200
            key_dir = os.path.join(d.cache_dir, body["key"][:2], body["key"])
            with ThreadPoolExecutor(max_workers=1) as pool:
                held = pool.submit(d.req, "POST", "/analyze", REQ)
                deadline = time.monotonic() + 30
                while not (tmp_path / "entered").exists():
                    assert time.monotonic() < deadline, "hit never held"
                    time.sleep(0.02)
                assert gc_elsewhere(d.cache_dir) == 1
                assert os.path.exists(key_dir)
                d.proc.send_signal(signal.SIGKILL)
                d.proc.wait(timeout=30)
                assert held.exception(timeout=30) is not None
            assert gc_elsewhere(d.cache_dir) == 0
            assert not os.path.exists(key_dir)
        finally:
            stop_daemon(d)
