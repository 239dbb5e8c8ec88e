"""repro.service: protocol, admission, breakers, workers, gc protection.

The contract under test:

* requests are validated **before** admission — malformed JSON shapes,
  unknown fields, bad types, unknown apps, and over-budget asks are all
  structured ``bad_request`` rejections;
* admission sheds load explicitly (``overloaded`` + retry hint) instead
  of queueing unboundedly, enforces deadlines while queued, and never
  strands a slot when a waiter times out;
* the circuit breaker opens after K consecutive failures, fails fast
  with the *last root cause*, half-opens after a jittered exponential
  backoff, admits exactly one probe, and never wedges when a probe ends
  without a verdict;
* a recording whose deadline expires mid-record is killed without
  leaking the key lock or a partial artifact — the cache stays
  recordable and a follow-up request succeeds (the satellite (c)
  regression);
* a live daemon's in-flight spec keys survive ``gc`` (the satellite (b)
  regression), while a dead daemon's stale snapshot protects nothing.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.engine.artifacts import ArtifactCache
from repro.engine.engine import PipelineEngine
from repro.engine.spec import RunSpec
from repro.service.active import (
    active_keys_path,
    clear_active_keys,
    read_active_keys,
    write_active_keys,
)
from repro.service.admission import AdmissionController
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN, BreakerBoard, CircuitBreaker
from repro.service.protocol import (
    ERROR_CODES,
    ERROR_STATUS,
    RequestError,
    ServiceError,
    digest_payload,
    error_body,
    parse_request,
)
from repro.service.server import AnalysisService, ServeConfig
from repro.service.worker import RecordHandle, run_record_worker

SMALL = dict(refs_per_iteration=300, scale=1.0 / 256.0, n_iterations=2)


def small_spec(**kw) -> RunSpec:
    return RunSpec(app="gtc", **{**SMALL, **kw})


# ----------------------------------------------------------------------
class TestProtocol:
    def test_minimal_request_parses_with_spec_defaults(self):
        spec, deadline = parse_request({"app": "gtc"})
        assert spec.app == "gtc"
        assert deadline == 60.0

    def test_full_request_round_trips_every_field(self):
        spec, deadline = parse_request({
            "app": "cam", "refs_per_iteration": 1000, "scale": 0.5,
            "n_iterations": 3, "seed": 7, "deadline_s": 12.5})
        assert (spec.app, spec.refs_per_iteration, spec.scale,
                spec.n_iterations, spec.seed) == ("cam", 1000, 0.5, 3, 7)
        assert deadline == 12.5

    def test_identical_requests_share_a_key(self):
        a, _ = parse_request({"app": "gtc", "seed": 1})
        b, _ = parse_request({"deadline_s": 99, "app": "gtc", "seed": 1})
        assert a.key == b.key  # deadline is not part of spec identity

    @pytest.mark.parametrize("payload,fragment", [
        ("not a dict", "JSON object"),
        ([1, 2], "JSON object"),
        ({}, "missing required field 'app'"),
        ({"app": "gtc", "bogus": 1}, "unknown request field"),
        ({"app": "no-such-app"}, "unknown application"),
        ({"app": 7}, "must be"),
        ({"app": "gtc", "refs_per_iteration": "many"}, "must be"),
        ({"app": "gtc", "seed": True}, "must be"),  # bool is not an int here
        ({"app": "gtc", "refs_per_iteration": -5}, "must be positive"),
        ({"app": "gtc", "scale": 0}, "must be positive"),
        ({"app": "gtc", "deadline_s": 0}, "must be positive"),
        ({"app": "gtc", "deadline_s": "soon"}, "must be a number"),
    ])
    def test_malformed_requests_rejected(self, payload, fragment):
        with pytest.raises(RequestError, match=fragment):
            parse_request(payload)

    def test_over_budget_request_rejected_with_detail(self):
        with pytest.raises(RequestError, match="at most 1000") as ei:
            parse_request({"app": "gtc", "refs_per_iteration": 600,
                           "n_iterations": 2}, max_total_refs=1000)
        assert ei.value.detail == {"max_total_refs": 1000}

    def test_excessive_deadline_clamped_not_rejected(self):
        _, deadline = parse_request(
            {"app": "gtc", "deadline_s": 1e9}, max_deadline_s=600.0)
        assert deadline == 600.0

    def test_variant_apps_accepted(self):
        spec, _ = parse_request({"app": "variant:gtc"})
        assert spec.app == "variant:gtc"

    def test_every_error_code_has_a_status(self):
        assert set(ERROR_STATUS) == set(ERROR_CODES)
        for code, status in ERROR_STATUS.items():
            assert 400 <= status <= 599, code

    def test_error_body_shape(self):
        body = error_body("overloaded", "queue full", retry_after_s=2.5,
                          detail={"queued": 4})
        assert body == {"ok": False, "error": {
            "code": "overloaded", "message": "queue full",
            "retry_after_s": 2.5, "detail": {"queued": 4}}}

    def test_service_error_status_and_body(self):
        exc = ServiceError("breaker_open", "failing fast", retry_after_s=3.0)
        assert exc.status == 503
        assert exc.body()["error"]["code"] == "breaker_open"

    def test_digest_stable_across_rerecords(self, tmp_path):
        spec = small_spec()
        payloads = []
        for sub in ("a", "b"):  # two fresh caches: fresh record each
            engine = PipelineEngine(cache=ArtifactCache(tmp_path / sub))
            events, batches = engine.record(spec).verify_load()
            payloads.append(digest_payload(events, batches))
        assert payloads[0] == payloads[1]
        assert payloads[0].startswith("sha256:")

    def test_digest_distinguishes_specs(self, tmp_path):
        engine = PipelineEngine(cache=ArtifactCache(tmp_path))
        d = []
        for seed in (0, 1):
            ev, b = engine.record(small_spec(seed=seed)).verify_load()
            d.append(digest_payload(ev, b))
        assert d[0] != d[1]


# ----------------------------------------------------------------------
def run(coro):
    return asyncio.run(coro)


class TestAdmission:
    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(0, 4)
        with pytest.raises(ValueError):
            AdmissionController(1, -1)

    def test_admits_up_to_max_inflight(self):
        async def scenario():
            adm = AdmissionController(2, 4)
            await adm.acquire(deadline=time.monotonic() + 5)
            await adm.acquire(deadline=time.monotonic() + 5)
            assert adm.inflight == 2 and adm.queued == 0
            adm.release()
            assert adm.inflight == 1
        run(scenario())

    def test_queue_overflow_sheds_with_retry_hint(self):
        async def scenario():
            adm = AdmissionController(1, 1)
            await adm.acquire(deadline=time.monotonic() + 5)
            waiter = asyncio.ensure_future(
                adm.acquire(deadline=time.monotonic() + 5))
            await asyncio.sleep(0)  # let it enqueue
            with pytest.raises(ServiceError) as ei:
                await adm.acquire(deadline=time.monotonic() + 5)
            assert ei.value.code == "overloaded"
            assert ei.value.retry_after_s > 0
            assert adm.stats["rejected_overload"] == 1
            adm.release()
            await waiter  # the queued request still gets its slot
            adm.release()
        run(scenario())

    def test_queued_deadline_expiry_frees_no_slot_and_is_fifo_safe(self):
        async def scenario():
            adm = AdmissionController(1, 4)
            await adm.acquire(deadline=time.monotonic() + 5)
            with pytest.raises(ServiceError) as ei:
                await adm.acquire(deadline=time.monotonic() + 0.05)
            assert ei.value.code == "deadline_exceeded"
            assert adm.stats["expired_in_queue"] == 1
            # the expired waiter must not have leaked the queue entry
            assert adm.queued == 0
            adm.release()
            # the slot is still usable
            await adm.acquire(deadline=time.monotonic() + 5)
        run(scenario())

    def test_release_wakes_waiters_in_fifo_order(self):
        async def scenario():
            adm = AdmissionController(1, 4)
            await adm.acquire(deadline=time.monotonic() + 5)
            order = []

            async def waiter(tag):
                await adm.acquire(deadline=time.monotonic() + 5)
                order.append(tag)

            tasks = [asyncio.ensure_future(waiter(i)) for i in range(3)]
            await asyncio.sleep(0.01)
            for _ in range(3):
                adm.release()
                await asyncio.sleep(0.01)
            await asyncio.gather(*tasks)
            assert order == [0, 1, 2]
        run(scenario())

    def test_drain_rejects_new_and_fails_queued(self):
        async def scenario():
            adm = AdmissionController(1, 4)
            await adm.acquire(deadline=time.monotonic() + 5)
            queued = asyncio.ensure_future(
                adm.acquire(deadline=time.monotonic() + 5))
            await asyncio.sleep(0)
            adm.start_drain()
            with pytest.raises(ServiceError) as ei:
                await queued
            assert ei.value.code == "shutting_down"
            with pytest.raises(ServiceError) as ei2:
                await adm.acquire(deadline=time.monotonic() + 5)
            assert ei2.value.code == "shutting_down"
            assert adm.stats["rejected_draining"] == 1
        run(scenario())

    def test_retry_hint_tracks_observed_service_time(self):
        adm = AdmissionController(2, 4)
        adm.observe_service_time(4.0)
        assert adm._service_s == 4.0
        adm.observe_service_time(2.0)  # EWMA moves toward the new sample
        assert 2.0 < adm._service_s < 4.0
        assert adm.retry_after_hint() >= 0.1


# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        clk = FakeClock()
        br = CircuitBreaker(threshold=3, clock=clk)
        br.record_failure("disk on fire")
        br.record_failure("disk on fire")
        assert br.state == CLOSED and br.allow()
        br.record_failure("disk on fire")
        assert br.state == OPEN
        assert not br.allow()
        assert br.last_error == "disk on fire"
        assert br.retry_after_s > 0

    def test_success_resets_the_streak(self):
        br = CircuitBreaker(threshold=2, clock=FakeClock())
        br.record_failure("x")
        br.record_success()
        br.record_failure("x")
        assert br.state == CLOSED  # streak broken: 1, not 2

    def test_half_open_admits_exactly_one_probe(self):
        clk = FakeClock()
        br = CircuitBreaker(threshold=1, base_backoff_s=1.0, jitter=0.0,
                            clock=clk)
        br.record_failure("boom")
        assert br.state == OPEN
        clk.t += 1.0
        assert br.state == HALF_OPEN
        assert br.allow()       # the probe
        assert not br.allow()   # everyone else keeps failing fast

    def test_failed_probe_reopens_with_doubled_backoff(self):
        clk = FakeClock()
        br = CircuitBreaker(threshold=1, base_backoff_s=1.0, jitter=0.0,
                            max_backoff_s=30.0, clock=clk)
        br.record_failure("boom")
        first = br.retry_after_s
        clk.t += first
        assert br.allow()
        br.record_failure("boom again")
        assert br.state == OPEN
        assert br.retry_after_s == pytest.approx(2.0)  # doubled

    def test_successful_probe_closes_and_resets_backoff(self):
        clk = FakeClock()
        br = CircuitBreaker(threshold=1, base_backoff_s=1.0, jitter=0.0,
                            clock=clk)
        br.record_failure("boom")
        clk.t += 1.0
        assert br.allow()
        br.record_success()
        assert br.state == CLOSED
        br.record_failure("later")
        assert br.retry_after_s == pytest.approx(1.0)  # back to base

    def test_backoff_bounded_by_max(self):
        clk = FakeClock()
        br = CircuitBreaker(threshold=1, base_backoff_s=1.0, jitter=0.0,
                            max_backoff_s=4.0, clock=clk)
        for _ in range(6):  # would be 32s unbounded
            br.record_failure("boom")
            clk.t += br.retry_after_s
            br.allow()
        br.record_failure("boom")
        assert br.retry_after_s <= 4.0

    def test_jitter_is_deterministic_per_seed(self):
        for seed in (1, 2):
            a = CircuitBreaker(threshold=1, jitter=0.5, seed=seed,
                               clock=FakeClock())
            b = CircuitBreaker(threshold=1, jitter=0.5, seed=seed,
                               clock=FakeClock())
            a.record_failure("x")
            b.record_failure("x")
            assert a.retry_after_s == b.retry_after_s

    def test_abandoned_probe_never_wedges_half_open(self):
        clk = FakeClock()
        br = CircuitBreaker(threshold=1, base_backoff_s=1.0, jitter=0.0,
                            clock=clk)
        br.record_failure("boom")
        clk.t += 1.0
        assert br.allow()
        # the probe's request timed out: neither success nor failure
        assert not br.allow()
        br.abandon_probe()
        assert br.allow()  # the next caller gets the probe slot

    def test_board_isolates_keys_but_feeds_root(self):
        clk = FakeClock()
        board = BreakerBoard(threshold=2, root_threshold=3, clock=clk)
        board.record_failure("k1", "bad spec")
        board.record_failure("k1", "bad spec")
        assert board.for_key("k1").state == OPEN
        assert board.for_key("k2").state == CLOSED  # unaffected
        assert board.root.state == CLOSED           # 2 < root threshold
        board.record_failure("k2", "bad disk")
        assert board.root.state == OPEN             # systemic now
        assert board.n_open >= 1
        snap = board.snapshot()
        assert snap["root_state"] == OPEN

    def test_board_success_heals_both_layers(self):
        clk = FakeClock()
        board = BreakerBoard(threshold=1, root_threshold=1,
                             base_backoff_s=1.0, clock=clk)
        board.record_failure("k", "boom")
        assert board.root.state == OPEN
        clk.t += 100.0
        board.record_success("k")
        assert board.root.state == CLOSED
        assert board.for_key("k").state == CLOSED


# ----------------------------------------------------------------------
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker tests exercise killable child processes",
)


@needs_fork
class TestRecordWorker:
    def test_successful_record_reports_payload(self, tmp_path):
        spec = small_spec()
        handle = RecordHandle(time.monotonic() + 120)
        out = run_record_worker(spec, str(tmp_path), handle)
        assert out["ok"] is True
        assert out["key"] == spec.key
        assert out["digest"].startswith("sha256:")
        assert ArtifactCache(tmp_path).get(spec) is not None

    def test_deadline_expiry_mid_record_releases_lock_and_cache_recovers(
            self, tmp_path):
        """The satellite (c) contract: a killed recording leaks nothing."""
        # a deliberately heavy spec so the deadline lands mid-record
        spec = RunSpec(app="gtc", refs_per_iteration=1_000_000,
                       scale=1.0, n_iterations=10)
        handle = RecordHandle(time.monotonic() + 0.4)
        t0 = time.monotonic()
        out = run_record_worker(spec, str(tmp_path), handle)
        assert out["ok"] is False
        assert out["code"] == "deadline_exceeded"
        assert time.monotonic() - t0 < 30  # killed, not run to completion
        cache = ArtifactCache(tmp_path)
        # no committed artifact leaked...
        assert cache.get(spec) is None
        # ...and the key lock was released by the kernel with the child
        lock = cache.lock_for(spec.key)
        assert lock.try_acquire()
        lock.release()
        # the cache is still recordable: a patient follow-up succeeds
        cheap = small_spec()
        out2 = run_record_worker(
            cheap, str(tmp_path), RecordHandle(time.monotonic() + 120))
        assert out2["ok"] is True
        assert ArtifactCache(tmp_path).get(cheap) is not None

    def test_cancel_kills_worker_with_shutting_down(self, tmp_path):
        spec = RunSpec(app="gtc", refs_per_iteration=1_000_000,
                       scale=1.0, n_iterations=10)
        handle = RecordHandle(time.monotonic() + 120)
        handle.cancel()  # drain began before the worker even started
        out = run_record_worker(spec, str(tmp_path), handle)
        assert out["ok"] is False
        assert out["code"] == "shutting_down"
        assert ArtifactCache(tmp_path).get(spec) is None

    def test_extend_deadline_only_grows(self):
        handle = RecordHandle(100.0)
        handle.extend_deadline(50.0)
        assert handle.deadline == 100.0  # a shorter deadline never wins
        handle.extend_deadline(200.0)
        assert handle.deadline == 200.0

    def test_chaos_failure_reports_structured_record_failed(self, tmp_path):
        spec = small_spec()
        handle = RecordHandle(time.monotonic() + 60)
        out = run_record_worker(
            spec, str(tmp_path), handle,
            chaos_scenario="io-bitflip-refs-persistent", chaos_seed=3)
        assert out["ok"] is False
        assert out["code"] == "record_failed"
        assert out["message"]


# ----------------------------------------------------------------------
class TestActiveKeys:
    def test_round_trip(self, tmp_path):
        write_active_keys(tmp_path, ["b", "a", "a"])
        assert read_active_keys(tmp_path) == ("a", "b")
        clear_active_keys(tmp_path)
        assert read_active_keys(tmp_path) == ()

    def test_missing_and_torn_files_read_as_empty(self, tmp_path):
        assert read_active_keys(tmp_path) == ()
        os.makedirs(os.path.dirname(active_keys_path(tmp_path)),
                    exist_ok=True)
        with open(active_keys_path(tmp_path), "w") as fh:
            fh.write('{"pid": 1, "upd')  # torn mid-write
        assert read_active_keys(tmp_path) == ()

    def test_concurrent_writers_never_tear_the_snapshot(self, tmp_path):
        """The daemon publishes snapshots from several executor threads
        at once: no write may fail, and a reader polling meanwhile never
        sees an unparseable file."""
        write_active_keys(tmp_path, ["k"])
        path = active_keys_path(tmp_path)
        errors, bad_reads = [], []
        writing = True

        def writer(n):
            for i in range(100):
                try:
                    write_active_keys(tmp_path, [f"k{n}-{i}"])
                except Exception as exc:  # noqa: BLE001 — collect, assert
                    errors.append(exc)

        def reader():
            while writing:
                try:
                    with open(path) as fh:
                        json.load(fh)
                except (OSError, ValueError) as exc:
                    bad_reads.append(exc)

        poller = threading.Thread(target=reader)
        writers = [threading.Thread(target=writer, args=(n,))
                   for n in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            poller.start()
            for t in writers:
                t.start()
            for t in writers:
                t.join(timeout=60.0)
            writing = False
            poller.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + [poller])
        assert not errors, f"{len(errors)} writes failed: {errors[0]!r}"
        assert not bad_reads, (
            f"{len(bad_reads)} unparseable reads: {bad_reads[0]!r}")
        assert len(read_active_keys(tmp_path)) == 1

    def test_stale_snapshot_is_a_dead_daemon(self, tmp_path):
        write_active_keys(tmp_path, ["k"])
        path = active_keys_path(tmp_path)
        payload = json.load(open(path))
        payload["updated"] -= 3600.0
        json.dump(payload, open(path, "w"))
        assert read_active_keys(tmp_path) == ()
        assert read_active_keys(tmp_path, max_age_s=7200) == ("k",)

    def test_gc_protects_live_daemons_keys(self, tmp_path):
        """The satellite (b) regression: an operator's ``engine gc``
        against a live daemon's root must not evict in-flight keys."""
        cache = ArtifactCache(tmp_path)
        engine = PipelineEngine(cache=cache)
        keep, evict = small_spec(seed=1), small_spec(seed=2)
        engine.record(keep)
        engine.record(evict)
        write_active_keys(tmp_path, [keep.key])
        protect = read_active_keys(tmp_path)
        report = cache.gc(0, protect=protect)  # zero budget: evict all
        assert cache.get(keep) is not None     # protected key survived
        assert cache.get(evict) is None
        assert keep.key not in report.evicted

    def test_gc_ignores_stale_protection(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        engine = PipelineEngine(cache=cache)
        spec = small_spec()
        engine.record(spec)
        write_active_keys(tmp_path, [spec.key])
        path = active_keys_path(tmp_path)
        payload = json.load(open(path))
        payload["updated"] -= 3600.0
        json.dump(payload, open(path, "w"))
        protect = read_active_keys(tmp_path)
        cache.gc(0, protect=protect)
        assert cache.get(spec) is None  # dead daemon protects nothing


# ----------------------------------------------------------------------
def make_service(tmp_path, **kw) -> AnalysisService:
    defaults = dict(cache_root=str(tmp_path / "cache"), max_inflight=2,
                    max_queue=4, default_deadline_s=60.0)
    return AnalysisService(ServeConfig(**{**defaults, **kw}))


REQ = {"app": "gtc", "refs_per_iteration": 300, "scale": 1.0 / 256.0,
       "n_iterations": 2}


class TestAnalysisService:
    def test_record_then_warm_hit_with_identical_digest(self, tmp_path):
        async def scenario():
            svc = make_service(tmp_path)
            s1, b1, _ = await svc.handle_analyze(REQ)
            s2, b2, _ = await svc.handle_analyze(REQ)
            assert (s1, s2) == (200, 200)
            assert b1["cached"] is False and b2["cached"] is True
            assert b1["digest"] == b2["digest"]
            assert b1["meta"]["refs"] > 0
            assert svc.stats["records"] == 1
            assert svc.stats["cache_hits"] == 1
            svc._executor.shutdown(wait=True)
        run(scenario())

    def test_concurrent_identical_specs_coalesce(self, tmp_path):
        async def scenario():
            svc = make_service(tmp_path)
            results = await asyncio.gather(
                *[svc.handle_analyze(REQ) for _ in range(4)])
            assert all(s == 200 for s, _b, _h in results)
            digests = {b["digest"] for _s, b, _h in results}
            assert len(digests) == 1  # bit-identical answers
            assert svc.stats["records"] == 1  # exactly one execution
            assert svc.stats["coalesced"] == 3
            svc._executor.shutdown(wait=True)
        run(scenario())

    def test_bad_request_is_structured_400(self, tmp_path):
        async def scenario():
            svc = make_service(tmp_path)
            status, body, _ = await svc.handle_analyze({"app": "gtc",
                                                        "bogus": 1})
            assert status == 400
            assert body["error"]["code"] == "bad_request"
            assert svc.stats["err_bad_request"] == 1
            svc._executor.shutdown(wait=True)
        run(scenario())

    def test_breaker_opens_and_fails_fast_with_root_cause(self, tmp_path):
        async def scenario():
            svc = make_service(
                tmp_path, breaker_threshold=2,
                breaker_backoff_s=60.0,  # stays open for the whole test
                chaos_scenario="io-bitflip-refs-persistent")
            s1, b1, _ = await svc.handle_analyze(REQ)
            s2, _b2, _ = await svc.handle_analyze(REQ)
            assert s1 == 500 and s2 == 500  # two real failed attempts
            t0 = time.monotonic()
            s3, b3, h3 = await svc.handle_analyze(REQ)
            fast = time.monotonic() - t0
            assert s3 == 503
            assert b3["error"]["code"] == "breaker_open"
            # the fail-fast carries the last root cause, not a generic msg
            assert b1["error"]["message"].split(":")[0] in \
                b3["error"]["message"]
            assert fast < 2.0  # no recording attempt was made
            assert "Retry-After" in h3
            svc._executor.shutdown(wait=True)
        run(scenario())

    def test_breaker_recovers_after_fault_clears(self, tmp_path):
        async def scenario():
            svc = make_service(tmp_path, breaker_threshold=1,
                               breaker_backoff_s=0.05,
                               chaos_scenario="io-bitflip-refs-persistent")
            s1, _b, _ = await svc.handle_analyze(REQ)
            assert s1 == 500
            svc.cfg.chaos_scenario = None  # the disk healed
            await asyncio.sleep(0.2)       # past the backoff: half-open
            s2, b2, _ = await svc.handle_analyze(REQ)
            assert s2 == 200               # the probe closed the breaker
            assert b2["cached"] is False
            svc._executor.shutdown(wait=True)
        run(scenario())

    def test_overload_sheds_with_503_and_retry_after(self, tmp_path):
        async def scenario():
            svc = make_service(tmp_path, max_inflight=1, max_queue=0)
            # a spec heavy enough to hold the only slot for seconds, so
            # the shed below is deterministic on any machine
            slow = {"app": "gtc", "refs_per_iteration": 1_000_000,
                    "scale": 1.0, "n_iterations": 10}
            fast = dict(REQ, seed=102)
            task = asyncio.ensure_future(svc.handle_analyze(slow))
            while not svc.admission.inflight:  # wait for slot claim
                await asyncio.sleep(0.01)
            status, body, headers = await svc.handle_analyze(fast)
            assert status == 503
            assert body["error"]["code"] == "overloaded"
            assert "Retry-After" in headers
            # cancel the occupant rather than waiting out the record
            for _fut, handle in svc._inflight.values():
                handle.cancel()
            s1, b1, _ = await task
            assert s1 == 503
            assert b1["error"]["code"] == "shutting_down"
            svc._executor.shutdown(wait=True)
        run(scenario())

    def test_drain_rejects_new_flips_ready_and_journals(self, tmp_path):
        async def scenario():
            svc = make_service(tmp_path, grace_s=0.2)
            s, _b, _ = await svc.handle_analyze(REQ)  # warm one key
            assert s == 200
            assert svc.ready
            drain = asyncio.ensure_future(svc.drain(signum=15))
            await asyncio.sleep(0.01)
            assert not svc.ready  # readiness flips during drain
            status, body, _ = await svc.handle_analyze(dict(REQ, seed=9))
            assert status == 503
            assert body["error"]["code"] == "shutting_down"
            await drain
            journal = os.path.join(svc.cfg.cache_root, "service",
                                   "drain.json")
            with open(journal) as fh:
                record = json.load(fh)
            assert record["signum"] == 15
            assert "hint" in record
        run(scenario())

    def test_deadline_exceeded_mid_record_is_504_and_cache_recovers(
            self, tmp_path):
        async def scenario():
            svc = make_service(tmp_path)
            heavy = {"app": "gtc", "refs_per_iteration": 1_000_000,
                     "scale": 1.0, "n_iterations": 10,
                     "deadline_s": 0.4}
            status, body, _ = await svc.handle_analyze(heavy)
            assert status == 504
            assert body["error"]["code"] == "deadline_exceeded"
            # the service is not poisoned: another spec succeeds
            s2, _b2, _ = await svc.handle_analyze(REQ)
            assert s2 == 200
            svc._executor.shutdown(wait=True)
        run(scenario())

    def test_in_flight_keys_are_advertised_for_gc(self, tmp_path):
        async def scenario():
            svc = make_service(tmp_path)
            heavy = {"app": "gtc", "refs_per_iteration": 1_000_000,
                     "scale": 1.0, "n_iterations": 10}
            spec, _ = parse_request(heavy)
            task = asyncio.ensure_future(svc.handle_analyze(heavy))
            while not svc.protect_keys():  # admitted -> advertised
                await asyncio.sleep(0.01)
            assert spec.key in svc.protect_keys()
            for _fut, handle in svc._inflight.values():
                handle.cancel()
            await task
            assert spec.key not in svc.protect_keys()  # released after
            svc._executor.shutdown(wait=True)
        run(scenario())

    def test_snapshot_is_json_serializable(self, tmp_path):
        async def scenario():
            svc = make_service(tmp_path)
            await svc.handle_analyze(REQ)
            snap = svc.snapshot()
            json.dumps(snap)
            assert snap["ready"] is True
            assert snap["admission"]["admitted"] == 1
            svc._executor.shutdown(wait=True)
        run(scenario())
