"""The analysis daemon: asyncio HTTP front end over the artifact cache.

``nvscavenger serve`` starts one :class:`AnalysisService` behind a
minimal HTTP/1.1 front end (stdlib only — the container bakes no web
framework, and the protocol is four routes of JSON):

* ``POST /analyze`` — canonicalize the request into a
  :class:`~repro.engine.spec.RunSpec` and answer from the cache;
* ``GET /healthz`` — liveness: 200 while the process can answer at all;
* ``GET /readyz`` — readiness: 503 during drain and while the
  cache-root circuit breaker is open, so load balancers stop routing;
* ``GET /stats`` — structured counters (admission, breakers, dedup).

The request path composes the robustness layers in order:

1. **parse/validate** — malformed requests are rejected before they
   cost anything (:mod:`repro.service.protocol`);
2. **single-flight dedup** — concurrent identical specs coalesce onto
   one in-flight execution; losers await the winner's future and may
   *extend* the recording's deadline, never shorten it. Across
   processes the cache's per-key ``flock`` still arbitrates;
3. **admission** — bounded queue, explicit ``overloaded`` shedding,
   queued-deadline enforcement (:mod:`repro.service.admission`);
4. **cache fast path** — a committed artifact is verified once per
   daemon (scrub-on-first-use, quarantining corruption exactly like
   the engine does) and then served from disk with no worker;
5. **circuit breaker** — repeated recording failures fail fast with
   the last root cause (:mod:`repro.service.breaker`);
6. **deadline-aware recording** — the record runs in a killable child
   process; deadline expiry or drain cancels it without leaking the
   key lock (:mod:`repro.service.worker`).

SIGTERM/SIGINT trigger a graceful drain: admission closes and
``/readyz`` flips false *immediately* (while the listener still
answers), in-flight requests get ``grace_s`` seconds to finish, the
stragglers' workers are cancelled, unfinished keys are journaled to
``<root>/service/drain.json`` with a resume hint, and the process exits
``128 + signum`` (130/143). A second signal skips the grace window.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import math
import os
import signal
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.engine.artifacts import ArtifactCache
from repro.errors import TraceError
from repro.service.active import service_dir, write_active_keys
from repro.service.admission import AdmissionController
from repro.service.breaker import OPEN, BreakerBoard
from repro.service.protocol import (
    ERROR_STATUS,
    ServiceError,
    error_body,
    ok_body,
    parse_request,
)
from repro.service.worker import RecordHandle, run_record_worker
from repro.trace.fsio import publish_file

_log = logging.getLogger("repro.service")

#: Idle keep-alive timeout per connection.
_IDLE_TIMEOUT_S = 30.0
#: Largest accepted request body.
_MAX_BODY_BYTES = 1 << 20
#: Bound on header count per request (sanity, not a tuning knob).
_MAX_HEADERS = 100
#: Extra slack on top of a request's own deadline before the front end
#: force-fails it — the absolute no-hang backstop.
_DISPATCH_SLACK_S = 10.0
#: File journaling in-flight keys at shutdown.
DRAIN_FILE = "drain.json"


def _swallow(fn):
    """Wrap *fn* so best-effort background work never raises."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Exception:
            _log.debug("background task failed", exc_info=True)
    return wrapper


@dataclass
class ServeConfig:
    """Everything ``nvscavenger serve`` can tune."""

    cache_root: str
    host: str = "127.0.0.1"
    port: int = 8077
    max_inflight: int = 2
    max_queue: int = 16
    default_deadline_s: float = 60.0
    max_deadline_s: float = 600.0
    max_total_refs: int = 10_000_000
    grace_s: float = 10.0
    breaker_threshold: int = 3
    breaker_backoff_s: float = 0.5
    breaker_max_backoff_s: float = 30.0
    root_breaker_threshold: int = 10
    cache_budget_bytes: int | None = None
    gc_interval_s: float = 30.0
    active_refresh_s: float = 5.0
    chaos_scenario: str | None = None
    chaos_seed: int = 0
    ready_file: str | None = None
    seed: int = 0


class AnalysisService:
    """The daemon's core request machine (transport-independent)."""

    def __init__(self, cfg: ServeConfig, clock=time.monotonic) -> None:
        self.cfg = cfg
        self._clock = clock
        self.cache = ArtifactCache(cfg.cache_root)
        self.admission = AdmissionController(
            cfg.max_inflight, cfg.max_queue, clock=clock)
        self.breakers = BreakerBoard(
            threshold=cfg.breaker_threshold,
            base_backoff_s=cfg.breaker_backoff_s,
            max_backoff_s=cfg.breaker_max_backoff_s,
            root_threshold=cfg.root_breaker_threshold,
            seed=cfg.seed, clock=clock)
        self._executor = ThreadPoolExecutor(
            max_workers=cfg.max_inflight + 4, thread_name_prefix="svc")
        #: key -> (future every waiter awaits, the in-flight handle)
        self._inflight: dict[str, tuple[asyncio.Future, RecordHandle]] = {}
        #: refcounts of spec keys referenced by admitted requests
        self._active: Counter[str] = Counter()
        #: keys scrubbed once by this daemon (mirrors the engine's set)
        self._verified: set[str] = set()
        #: key -> content digest (warm responses skip re-hashing)
        self._digests: dict[str, str] = {}
        self._tasks: set[asyncio.Task] = set()
        self.draining = False
        self.force_drain = False
        self.stats: Counter[str] = Counter()

    # -- readiness ------------------------------------------------------
    @property
    def ready(self) -> bool:
        return not self.draining and self.breakers.root.state != OPEN

    def snapshot(self) -> dict:
        return {
            **{k: self.stats[k] for k in sorted(self.stats)},
            "inflight_keys": len(self._inflight),
            "active_keys": len(self._active),
            "admission": self.admission.snapshot(),
            "breakers": self.breakers.snapshot(),
            "draining": self.draining,
            "ready": self.ready,
        }

    # -- active-key accounting (gc protection) --------------------------
    def protect_keys(self) -> tuple[str, ...]:
        """The spec keys gc must not evict right now."""
        return tuple(self._active)

    def _retain(self, key: str) -> None:
        self._active[key] += 1
        self._publish_active()

    def _release_key(self, key: str) -> None:
        self._active[key] -= 1
        if self._active[key] <= 0:
            del self._active[key]
        self._publish_active()

    def _publish_active(self) -> None:
        """Fire-and-forget snapshot write; the heartbeat loop corrects
        any stale last-writer-wins race within ``active_refresh_s``."""
        keys = self.protect_keys()
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:  # unit tests drive the service synchronously
            return
        loop.run_in_executor(
            self._executor, _swallow(write_active_keys),
            self.cfg.cache_root, keys, self.cache.fs)

    # -- request path ---------------------------------------------------
    async def handle_analyze(self, payload: object) -> tuple[int, dict, dict]:
        """One analysis request → ``(http_status, body, headers)``."""
        self.stats["requests"] += 1
        t0 = self._clock()
        try:
            spec, rel_deadline = parse_request(
                payload,
                default_deadline_s=self.cfg.default_deadline_s,
                max_deadline_s=self.cfg.max_deadline_s,
                max_total_refs=self.cfg.max_total_refs)
        except ServiceError as exc:
            return self._respond(
                {"ok": False, "code": exc.code, "message": str(exc),
                 "detail": exc.detail}, coalesced=False, t0=t0)
        deadline = t0 + rel_deadline
        key = spec.key
        entry = self._inflight.get(key)
        if entry is not None:
            # single-flight loser: ride the winner's execution, lending
            # it our (possibly longer) deadline
            fut, handle = entry
            handle.extend_deadline(deadline)
            self.stats["coalesced"] += 1
            result = await self._await_result(fut, deadline)
            return self._respond(result, coalesced=True, t0=t0)
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        handle = RecordHandle(deadline)
        self._inflight[key] = (fut, handle)
        task = asyncio.create_task(self._run_request(spec, key, handle, fut))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        result = await self._await_result(fut, deadline)
        return self._respond(result, coalesced=False, t0=t0)

    async def _await_result(self, fut: asyncio.Future,
                            deadline: float) -> dict:
        """Wait for an in-flight result, but never past *deadline*: a
        waiter that times out leaves without cancelling the shared
        execution (other waiters may still want it)."""
        timeout = max(0.0, deadline - self._clock())
        try:
            return await asyncio.wait_for(asyncio.shield(fut), timeout=timeout)
        except asyncio.TimeoutError:
            return {
                "ok": False,
                "code": "deadline_exceeded",
                "message": "deadline expired while awaiting the in-flight "
                           "result for this spec",
            }

    async def _run_request(self, spec, key: str, handle: RecordHandle,
                           fut: asyncio.Future) -> None:
        """Winner-side execution; resolves *fut* for every waiter and
        never lets an internal error leave them hanging."""
        try:
            result = await self._execute(spec, key, handle)
        except ServiceError as exc:
            result = {"ok": False, "code": exc.code, "message": str(exc),
                      "retry_after_s": exc.retry_after_s,
                      "detail": exc.detail}
        except Exception as exc:  # noqa: BLE001 — waiters must not hang
            _log.exception("internal error serving %s", key[:12])
            result = {"ok": False, "code": "internal",
                      "error_type": type(exc).__name__, "message": str(exc)}
        finally:
            self._inflight.pop(key, None)
        if not fut.done():
            fut.set_result(result)

    async def _execute(self, spec, key: str, handle: RecordHandle) -> dict:
        """Admission → cache fast path → breaker → killable record."""
        await self.admission.acquire(handle.deadline)
        t_exec = self._clock()
        loop = asyncio.get_running_loop()
        self._retain(key)
        try:
            hit = await loop.run_in_executor(
                self._executor, self._verified_hit, spec)
            if hit is not None:
                self.stats["cache_hits"] += 1
                return hit
            root = self.breakers.root
            if not root.allow():
                raise ServiceError(
                    "breaker_open",
                    f"cache-root circuit breaker is open after repeated "
                    f"failures; last error: {root.last_error}",
                    retry_after_s=root.retry_after_s or None)
            br = self.breakers.for_key(key)
            if not br.allow():
                root.abandon_probe()
                raise ServiceError(
                    "breaker_open",
                    f"circuit breaker for this spec is open; "
                    f"last error: {br.last_error}",
                    retry_after_s=br.retry_after_s or None)
            payload = await loop.run_in_executor(
                self._executor,
                functools.partial(
                    run_record_worker, spec, self.cfg.cache_root, handle,
                    chaos_scenario=self.cfg.chaos_scenario,
                    chaos_seed=self.cfg.chaos_seed,
                    clock=self._clock))
            if payload.get("ok"):
                self.breakers.record_success(key)
                self.stats["records"] += 1
                if payload.get("retried_after_crash"):
                    self.stats["worker_crash_retries"] += int(
                        payload["retried_after_crash"])
                self._verified.add(key)
                self._digests[key] = payload["digest"]
                return {"ok": True, "key": key, "meta": payload["meta"],
                        "digest": payload["digest"], "cached": False}
            code = payload.get("code", "record_failed")
            message = payload.get("message", "recording failed")
            if code in ("deadline_exceeded", "shutting_down"):
                # the service was fine; the clock (or the drain) ran out.
                # Neither success nor failure for breaker accounting —
                # but a consumed half-open probe must be returned.
                br.abandon_probe()
                root.abandon_probe()
            else:
                self.breakers.record_failure(key, message)
            return payload
        finally:
            self._release_key(key)
            self.admission.release()
            self.admission.observe_service_time(self._clock() - t_exec)

    def _verified_hit(self, spec) -> dict | None:
        """Blocking (executor) cache fast path with scrub-on-first-use.

        Returns the OK payload for a committed, verified artifact, or
        ``None`` when the key must go down the recording path —
        including when the committed copy failed its scrub and was
        quarantined (the record path then self-heals it).
        """
        art = self.cache.get(spec)
        if art is None:
            return None
        key = art.key
        if key in self._verified and key in self._digests:
            try:
                meta = art.meta
            except TraceError:
                return None  # vanished or torn since: re-record
            return {"ok": True, "key": key, "meta": meta,
                    "digest": self._digests[key], "cached": True}
        try:
            # stored-CRC scrub + index-derived digest: no trace decode on
            # the warm path (v3 reads the CRCs straight from the index)
            art.verify_integrity()
            digest = art.content_digest()
        except TraceError as exc:
            self.stats["quarantined"] += 1
            self.cache.quarantine(key, reason=str(exc))
            return None
        self._verified.add(key)
        self._digests[key] = digest
        return {"ok": True, "key": key, "meta": art.meta,
                "digest": digest, "cached": True}

    def _respond(self, result: dict, *, coalesced: bool,
                 t0: float) -> tuple[int, dict, dict]:
        wall = self._clock() - t0
        if result.get("ok"):
            self.stats["ok"] += 1
            body = ok_body(result["key"], result.get("meta", {}),
                           result.get("digest", ""),
                           cached=bool(result.get("cached")),
                           coalesced=coalesced, wall_s=wall)
            return 200, body, {}
        code = result.get("code", "internal")
        self.stats[f"err_{code}"] += 1
        retry = result.get("retry_after_s")
        body = error_body(code, result.get("message", ""),
                          retry_after_s=retry,
                          detail=result.get("detail") or None)
        headers = {}
        if retry:
            headers["Retry-After"] = str(max(1, math.ceil(retry)))
        return ERROR_STATUS.get(code, 500), body, headers

    # -- background loops ----------------------------------------------
    async def heartbeat_loop(self) -> None:
        """Periodically refresh the active-keys snapshot so a reader's
        staleness check sees a live daemon."""
        loop = asyncio.get_running_loop()
        while True:
            await loop.run_in_executor(
                self._executor, _swallow(write_active_keys),
                self.cfg.cache_root, self.protect_keys(), self.cache.fs)
            await asyncio.sleep(self.cfg.active_refresh_s)

    async def gc_loop(self) -> None:
        """Enforce the cache byte budget without ever evicting a key an
        admitted request references."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.cfg.gc_interval_s)
            budget = self.cfg.cache_budget_bytes
            if budget is None:
                continue
            report = await loop.run_in_executor(
                self._executor,
                _swallow(functools.partial(
                    self.cache.gc, budget, protect=self.protect_keys())))
            if report is not None and report.evicted:
                self.stats["gc_evicted"] += len(report.evicted)

    # -- drain ----------------------------------------------------------
    async def drain(self, signum: int) -> None:
        """Stop admission, flip not-ready, let in-flight work finish
        within the grace window, cancel the rest, journal what was cut
        short. ``force_drain`` (a second signal) skips the grace wait."""
        self.draining = True
        self.admission.start_drain()
        deadline = self._clock() + max(0.0, self.cfg.grace_s)
        while (self._inflight and not self.force_drain
               and self._clock() < deadline):
            await asyncio.sleep(0.05)
        interrupted = sorted(self._inflight)
        for _fut, handle in list(self._inflight.values()):
            handle.cancel()
        # cancelled workers return promptly (terminate -> kill); bound it
        hard_stop = self._clock() + 2.0 + self.cfg.grace_s
        while self._inflight and self._clock() < hard_stop:
            await asyncio.sleep(0.05)
        self._journal_drain(signum, interrupted)
        self._executor.shutdown(wait=False, cancel_futures=True)

    def _journal_drain(self, signum: int, interrupted: list[str]) -> None:
        """Journal unfinished work with a resume hint, and retire the
        active-keys snapshot (nothing is in flight any more)."""
        try:
            fs = self.cache.fs
            directory = service_dir(self.cfg.cache_root)
            fs.makedirs(directory)
            publish_file(os.path.join(directory, DRAIN_FILE), json.dumps({
                "signum": signum,
                "drained_at": time.time(),
                "interrupted_keys": interrupted,
                "served": self.stats.get("ok", 0),
                "hint": "these spec keys were in flight at shutdown; "
                        "re-issue the requests after restart — anything "
                        "already committed is served from cache",
            }, indent=2), fs)
            write_active_keys(self.cfg.cache_root, (), fs=fs)
        except OSError:
            _log.warning("could not journal drain state", exc_info=True)


# ---------------------------------------------------------------------------
# HTTP front end


class HttpFrontend:
    """Minimal HTTP/1.1-with-keep-alive framing over asyncio streams."""

    def __init__(self, service: AnalysisService) -> None:
        self.service = service

    async def handle_conn(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                method, path, version, headers, body = request
                status, payload, extra = await self._dispatch(
                    method, path, body)
                keep = (version == "HTTP/1.1"
                        and headers.get("connection", "").lower() != "close"
                        and not self.service.draining)
                self._write_response(writer, status, payload, extra,
                                     keep=keep)
                await writer.drain()
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader, writer):
        """One framed request, or None on EOF/garbage/idle timeout."""
        try:
            line = await asyncio.wait_for(reader.readline(),
                                          timeout=_IDLE_TIMEOUT_S)
        except asyncio.TimeoutError:
            return None
        if not line:
            return None
        parts = line.decode("latin-1", "replace").split()
        if len(parts) != 3:
            self._write_response(
                writer, 400,
                error_body("bad_request", "malformed request line"),
                {}, keep=False)
            await writer.drain()
            return None
        method, target, version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            hline = await asyncio.wait_for(reader.readline(),
                                           timeout=_IDLE_TIMEOUT_S)
            if hline in (b"\r\n", b"\n", b""):
                break
            name, _, value = hline.decode("latin-1", "replace").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            clen = int(headers.get("content-length", "0") or "0")
        except ValueError:
            clen = -1
        if clen < 0 or clen > _MAX_BODY_BYTES:
            self._write_response(
                writer, 413,
                error_body("bad_request",
                           f"content-length must be 0..{_MAX_BODY_BYTES}"),
                {}, keep=False)
            await writer.drain()
            return None
        body = await reader.readexactly(clen) if clen else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, version, headers, body

    async def _dispatch(self, method: str, path: str,
                        body: bytes) -> tuple[int, dict, dict]:
        svc = self.service
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True, "status": "alive",
                         "draining": svc.draining}, {}
        if method == "GET" and path == "/readyz":
            ready = svc.ready
            info = {"ready": ready, "draining": svc.draining,
                    "root_breaker": svc.breakers.root.state}
            return (200 if ready else 503), info, {}
        if method == "GET" and path == "/stats":
            return 200, svc.snapshot(), {}
        if method == "POST" and path == "/analyze":
            try:
                payload = json.loads(body.decode())
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                svc.stats["requests"] += 1
                svc.stats["err_bad_request"] += 1
                return 400, error_body(
                    "bad_request", f"request body is not valid JSON: {exc}"), {}
            # the no-hang backstop: nothing may outlive its own deadline
            # by more than the dispatch slack, whatever goes wrong inside
            budget = (svc.cfg.max_deadline_s if not isinstance(payload, dict)
                      else float(min(
                          payload.get("deadline_s",
                                      svc.cfg.default_deadline_s)
                          if isinstance(payload.get("deadline_s"),
                                        (int, float)) else
                          svc.cfg.default_deadline_s,
                          svc.cfg.max_deadline_s)))
            try:
                return await asyncio.wait_for(
                    svc.handle_analyze(payload),
                    timeout=budget + _DISPATCH_SLACK_S)
            except asyncio.TimeoutError:
                svc.stats["err_internal"] += 1
                return 500, error_body(
                    "internal", "request processing exceeded its deadline "
                    "backstop"), {}
        return 404, error_body(
            "not_found", f"no route for {method} {path}"), {}

    @staticmethod
    def _write_response(writer, status: int, payload: dict,
                        extra: dict, *, keep: bool) -> None:
        blob = json.dumps(payload, separators=(",", ":")).encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  413: "Payload Too Large", 500: "Internal Server Error",
                  503: "Service Unavailable",
                  504: "Gateway Timeout"}.get(status, "Status")
        head = [f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json",
                f"Content-Length: {len(blob)}",
                f"Connection: {'keep-alive' if keep else 'close'}"]
        for name, value in extra.items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + blob)


# ---------------------------------------------------------------------------
# daemon entry point


def serve(cfg: ServeConfig) -> int:
    """Run the daemon until a signal stops it; returns the exit code
    (``128 + signum`` after a graceful drain)."""
    return asyncio.run(_serve_async(cfg))


async def _serve_async(cfg: ServeConfig) -> int:
    service = AnalysisService(cfg)
    frontend = HttpFrontend(service)
    server = await asyncio.start_server(frontend.handle_conn,
                                        cfg.host, cfg.port)
    host, port = server.sockets[0].getsockname()[:2]
    stop = asyncio.Event()
    signum_box: list[int] = []

    def _on_signal(signum: int) -> None:
        if not signum_box:
            signum_box.append(signum)
            # readiness must flip before the drain coroutine even runs
            service.draining = True
            stop.set()
        else:
            service.force_drain = True

    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, _on_signal, sig)

    background = [asyncio.create_task(service.heartbeat_loop()),
                  asyncio.create_task(service.gc_loop())]
    print(f"serving on http://{host}:{port} (cache {cfg.cache_root})",
          flush=True)
    if cfg.ready_file:
        publish_file(cfg.ready_file, f"{host} {port}\n", service.cache.fs)

    await stop.wait()
    signum = signum_box[0]
    _log.info("signal %d: draining (grace %.1fs)", signum, cfg.grace_s)
    # the listener stays open through the drain so /readyz answers 503;
    # it closes only after in-flight work is resolved and journaled
    await service.drain(signum)
    # the drain is done and the exit code is decided: ignore repeat
    # signals from here on, or a supervisor's second SIGTERM landing
    # after loop.close() restores SIG_DFL would kill the raw exit code
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.remove_signal_handler(sig)
        signal.signal(sig, signal.SIG_IGN)
    server.close()
    await server.wait_closed()
    for task in background:
        task.cancel()
    await asyncio.gather(*background, return_exceptions=True)
    print(f"drained after signal {signum}; exiting", flush=True)
    return 128 + signum
