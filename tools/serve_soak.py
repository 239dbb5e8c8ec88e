"""Chaos soak for ``nvscavenger serve``: the daemon must never lie.

Drives a real daemon the way a hostile day in production would:

1. start ``serve`` with ChaosFS bit-flip injection under the cache root
   (every fresh recording is corrupted once, forcing the scrub →
   quarantine → re-record self-healing path) and tight admission limits
   so overload shedding actually fires;
2. fire N concurrent **mixed** requests from a client pool: duplicate
   specs (dedup pressure), distinct specs (admission pressure),
   malformed bodies, unknown apps, over-budget asks, and heavy specs
   with sub-second deadlines (mid-record cancellation);
3. mid-soak, SIGKILL one in-flight recording worker (the daemon must
   retry or fail that request cleanly — never hang), while a separate
   process runs ``engine gc --max-bytes 0`` in a loop: every key no
   request pins is evicted again and again, and the keys gc reports in
   use are printed;
4. assert the invariant the service exists for: **every** response is
   either a 200 whose digest is bit-identical to every other 200 for
   the same spec, or a structured JSON error with a known code — no
   hangs, no torn payloads, no silent corruption;
5. start a second burst, SIGTERM the daemon mid-burst, and verify the
   graceful drain: ``/readyz`` flips 503 *while the listener still
   answers*, in-flight clients get 200s or clean ``shutting_down`` /
   ``deadline_exceeded`` errors, the drain journal lands under the
   cache root, and the exit code is 143.

Exit 0 on success, 1 with a diagnostic on any violated expectation.
The soak's temporary root (cache, ready file) is removed on success and
kept, with its path printed, on failure.
Used by ``make serve-soak``; ``make serve-smoke`` is the quick CI cut.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.service.protocol import ERROR_CODES  # noqa: E402

N_REQUESTS = int(os.environ.get("SOAK_REQUESTS", "200"))
N_CLIENTS = int(os.environ.get("SOAK_CLIENTS", "12"))
CLIENT_TIMEOUT_S = 180.0  # any single hung request fails the soak

BASE = {"refs_per_iteration": 300, "scale": 1.0 / 256.0, "n_iterations": 2}


def fail(msg: str) -> None:
    print(f"serve soak FAILED: {msg}", file=sys.stderr)
    sys.exit(1)


def request(host: str, port: int, method: str, path: str,
            payload=None, timeout: float = CLIENT_TIMEOUT_S):
    """One HTTP exchange -> (status, decoded json). Raises on transport
    errors; the caller decides whether those are expected (drain)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"}
                     if body else {})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def repro_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    return env


def start_daemon(cache_dir: str, ready: str) -> subprocess.Popen:
    env = repro_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--cache-dir", cache_dir, "--port", "0", "--ready-file", ready,
         "--max-inflight", "2", "--max-queue", "6", "--grace", "5",
         "--chaos", "io-bitflip-refs", "--breaker-threshold", "4"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    deadline = time.monotonic() + 30
    while not os.path.exists(ready):
        if proc.poll() is not None:
            fail(f"daemon died at startup:\n{proc.stdout.read()}")
        if time.monotonic() > deadline:
            proc.kill()
            fail("daemon never wrote its ready file")
        time.sleep(0.05)
    return proc


def request_mix(n: int) -> list:
    """A deterministic stream of n mixed requests (id, kind, payload)."""
    mix = []
    for i in range(n):
        slot = i % 10
        if slot < 5:      # 50%: duplicates across 3 hot specs
            mix.append(("dup", dict(BASE, app="gtc", seed=slot % 3)))
        elif slot < 7:    # 20%: long-tail distinct specs
            mix.append(("tail", dict(BASE, app="cam", seed=100 + i)))
        elif slot == 7:   # 10%: malformed / invalid requests
            bad = [{"app": "no-such-app"},
                   {"app": "gtc", "bogus": 1},
                   {"app": "gtc", "refs_per_iteration": -4},
                   "not an object"][i % 4]
            mix.append(("bad", bad))
        elif slot == 8:   # 10%: over the reference budget
            mix.append(("huge", {"app": "gtc",
                                 "refs_per_iteration": 10_000_000,
                                 "n_iterations": 100}))
        else:             # 10%: heavy spec with a sub-second deadline
            mix.append(("rushed", {"app": "gtc",
                                   "refs_per_iteration": 150_000,
                                   "scale": 1.0 / 8.0, "n_iterations": 5,
                                   "deadline_s": 0.6, "seed": i}))
    return mix


def check_response(kind: str, status: int, body, digests: dict) -> str:
    """Validate one response against the soak invariant; '' or a
    diagnostic. *digests* accumulates key -> digest for 200s."""
    if status == 200:
        if not (body.get("ok") and body.get("digest", "").startswith("sha256:")):
            return f"malformed 200 body: {body}"
        key = body["key"]
        seen = digests.setdefault(key, body["digest"])
        if seen != body["digest"]:
            return (f"digest mismatch for {key[:12]}: "
                    f"{seen} vs {body['digest']}")
        return ""
    err = body.get("error") if isinstance(body, dict) else None
    if not err or err.get("code") not in ERROR_CODES:
        return f"unstructured error (status {status}): {body}"
    if kind == "bad" and err["code"] != "bad_request":
        return f"bad request got {err['code']}, want bad_request"
    if kind == "huge" and err["code"] != "bad_request":
        return f"over-budget request got {err['code']}, want bad_request"
    if kind == "dup" and err["code"] in ("bad_request", "not_found"):
        return f"well-formed duplicate rejected as {err['code']}"
    return ""


def kill_one_worker(daemon_pid: int) -> bool:
    """SIGKILL one live recording child of the daemon, if any."""
    try:
        children = subprocess.run(
            ["ps", "-o", "pid=", "--ppid", str(daemon_pid)],
            capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        return False
    for pid in children:
        try:
            os.kill(int(pid), signal.SIGKILL)
            return True
        except (OSError, ValueError):
            continue
    return False


def gc_loop(cache_dir: str, stop: threading.Event, in_use: list,
            failures: list) -> None:
    """Run ``engine gc --max-bytes 0`` from a separate process until
    *stop* is set, appending each run's count of in-use keys, or its
    failure (which ends the loop)."""
    while not stop.is_set():
        try:
            out = subprocess.run(
                [sys.executable, "-m", "repro.cli", "engine", "gc",
                 "--cache-dir", cache_dir, "--max-bytes", "0"],
                env=repro_env(), capture_output=True, text=True,
                timeout=CLIENT_TIMEOUT_S, check=True)
        except subprocess.SubprocessError as exc:
            failures.append(f"{exc} {exc.stderr or ''}"[:800])
            return
        kept = re.search(r"kept (\d+) in-use", out.stdout)
        in_use.append(int(kept.group(1)) if kept else 0)
        stop.wait(0.2)


def soak(tmp: str) -> None:
    """Both phases against a daemon whose cache lives under *tmp*; any
    violated expectation exits through :func:`fail`."""
    cache_dir = os.path.join(tmp, "cache")
    proc = start_daemon(cache_dir, os.path.join(tmp, "ready"))
    host, port = open(os.path.join(tmp, "ready")).read().split()
    port = int(port)
    print(f"soak: daemon pid {proc.pid} at {host}:{port}, "
          f"{N_REQUESTS} requests / {N_CLIENTS} clients, "
          f"chaos io-bitflip-refs")

    digests: dict[str, str] = {}
    problems: list[str] = []

    def one(item):
        kind, payload = item
        try:
            status, body = request(host, port, "POST", "/analyze", payload)
        except Exception as exc:  # noqa: BLE001 — transport failure = soak failure
            return f"{kind}: transport error {type(exc).__name__}: {exc}"
        return check_response(kind, status, body, digests)

    # -- phase 1: the full mixed burst, with a worker kill mid-flight --
    # -- and gc evicting every unpinned key from another process -------
    mix = request_mix(N_REQUESTS)
    gc_stop, gc_in_use, gc_failures = threading.Event(), [], []
    gc_thread = threading.Thread(
        target=gc_loop, args=(cache_dir, gc_stop, gc_in_use, gc_failures))
    t0 = time.monotonic()
    gc_thread.start()
    try:
        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            futures = [pool.submit(one, item) for item in mix]
            # murder the first recording worker seen; a fixed wait would
            # miss every one of them in a short burst
            while not all(f.done() for f in futures):
                if kill_one_worker(proc.pid):
                    print("soak: killed one in-flight recording worker")
                    break
                time.sleep(0.05)
            for fut in futures:
                diag = fut.result(timeout=CLIENT_TIMEOUT_S)
                if diag:
                    problems.append(diag)
    finally:
        gc_stop.set()
        gc_thread.join(timeout=CLIENT_TIMEOUT_S)
    wall = time.monotonic() - t0
    if problems:
        fail(f"{len(problems)} bad responses; first 5: {problems[:5]}")
    if gc_failures or not gc_in_use:
        fail(f"concurrent gc failed: {gc_failures or 'it never ran'}")
    print(f"soak: gc ran {len(gc_in_use)} time(s) from another process, "
          f"reporting {sum(gc_in_use)} in-use key(s) in all "
          f"(at most {max(gc_in_use)} at once)")
    if proc.poll() is not None:
        fail(f"daemon died during the soak:\n{proc.stdout.read()}")

    status, stats = request(host, port, "GET", "/stats")
    ok = stats.get("ok", 0)
    print(f"soak: phase 1 clean in {wall:.1f}s — {ok} OK, "
          f"{stats.get('records', 0)} recorded, "
          f"{stats.get('coalesced', 0)} coalesced, "
          f"{stats.get('cache_hits', 0)} cache hits, "
          f"{stats.get('quarantined', 0)} quarantined, "
          f"{len(digests)} distinct artifacts")
    if ok == 0:
        fail("no request succeeded; the soak proved nothing")
    if stats.get("coalesced", 0) + stats.get("cache_hits", 0) == 0:
        fail("duplicate-heavy mix produced no dedup at all")

    # -- phase 2: SIGTERM mid-burst; drain must be graceful -------------
    def tolerant(item):
        kind, payload = item
        try:
            status, body = request(host, port, "POST", "/analyze", payload)
        except Exception:  # noqa: BLE001 — refusals OK once listener closes
            return ""
        return check_response(kind, status, body, digests)

    burst = request_mix(40)
    with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
        futures = [pool.submit(tolerant, item) for item in burst]
        time.sleep(0.5)
        proc.send_signal(signal.SIGTERM)
        # the listener must answer /readyz with 503 before it closes
        saw_unready = False
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            try:
                s, body = request(host, port, "GET", "/readyz", timeout=2)
            except Exception:  # noqa: BLE001 — listener closed
                break
            if s == 503 and body.get("draining"):
                saw_unready = True
                break
            time.sleep(0.02)
        for fut in futures:
            diag = fut.result(timeout=CLIENT_TIMEOUT_S)
            if diag:
                problems.append(diag)
    if not saw_unready:
        fail("/readyz never reported 503+draining before the listener closed")
    if problems:
        fail(f"dirty responses during drain; first 5: {problems[:5]}")
    try:
        rc = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("daemon did not exit within 30s of SIGTERM")
    if rc != 143:
        fail(f"exit code {rc}, want 143 (128+SIGTERM)\n{proc.stdout.read()}")
    journal = os.path.join(cache_dir, "service", "drain.json")
    if not os.path.exists(journal):
        fail("drain journal missing after SIGTERM")
    record = json.load(open(journal))
    if record.get("signum") != 15 or "hint" not in record:
        fail(f"malformed drain journal: {record}")

    print("soak: phase 2 clean — drained on SIGTERM with readyz 503, "
          "exit 143, drain journal written")
    print("serve soak OK")


def main() -> int:
    tmp = tempfile.mkdtemp(prefix="serve-soak-")
    try:
        soak(tmp)
    except BaseException:
        print(f"serve soak: kept {tmp} for forensics", file=sys.stderr)
        raise
    shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
