"""Analysis-as-a-service: a fault-tolerant daemon over the artifact cache.

``nvscavenger serve`` wraps the content-addressed compute store built by
the engine/scheduler layers in a long-running asyncio daemon that
accepts trace/analysis requests as JSON over HTTP, canonicalizes each
into a :class:`~repro.engine.spec.RunSpec`, and answers from the
artifact cache. The robustness machinery is the headline:

* **admission control** (:mod:`repro.service.admission`) — a bounded
  request queue with explicit load shedding and per-request deadlines
  propagated all the way into the recording worker;
* **single-flight dedup** (:mod:`repro.service.server`) — concurrent
  identical specs coalesce onto one in-flight record; cross-process the
  cache's :class:`~repro.engine.locks.KeyLock` still arbitrates;
* **circuit breaker** (:mod:`repro.service.breaker`) — after K
  consecutive recording failures for a spec (or for the cache root as a
  whole) requests fail fast with the last root cause, half-opening
  under jittered exponential backoff;
* **graceful degradation and drain** (:mod:`repro.service.server`) —
  SIGTERM stops admission, drains in-flight requests within a grace
  window, journals unfinished work with a resume hint, and exposes
  ``/healthz`` (liveness) and ``/readyz`` (readiness);
* **gc protection** (:mod:`repro.service.server`) — each admitted
  request pins its spec key with a shared ``flock``
  (:meth:`~repro.engine.artifacts.ArtifactCache.pin`), so no
  ``engine gc``, in this process or another, evicts an artifact a live
  request is about to read; the kernel drops the pins of a daemon that
  dies.
"""

from repro.service.admission import AdmissionController
from repro.service.breaker import BreakerBoard, CircuitBreaker
from repro.service.protocol import (
    ERROR_STATUS,
    RequestError,
    ServiceError,
    error_body,
    parse_request,
)
from repro.service.server import AnalysisService, ServeConfig, serve

__all__ = [
    "AdmissionController",
    "AnalysisService",
    "BreakerBoard",
    "CircuitBreaker",
    "ERROR_STATUS",
    "RequestError",
    "ServeConfig",
    "ServiceError",
    "error_body",
    "parse_request",
    "serve",
]
