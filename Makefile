# Standard loops for the repro package.
PY ?= python

.PHONY: install test lint chaos crashcheck bench bench-record bench-ab experiments sched-smoke resume-smoke serve-smoke serve-soak queue-soak policy-smoke validate examples all clean

install:
	pip install -e . --no-build-isolation || \
		( SITE=$$($(PY) -c "import site; print(site.getsitepackages()[0])") && \
		  echo "$$(pwd)/src" > $$SITE/repro-editable.pth && \
		  $(PY) -c "import repro; print('linked', repro.__version__)" )

test:
	$(PY) -m pytest tests/

# ruff, plus the durable-write lint: outside repro.trace.fsio and the two
# filesystem shims, src/ may not call os.replace/os.rename/os.fsync or a
# shim's replace/rename (matches CI's lint job).
lint:
	ruff check src tests
	$(PY) -m pytest -q --noconftest tests/test_durable_write_lint.py

# Fault-injection suite: crash-point sweep, bit-flip detection, fsck/gc,
# and the checkpoint engine against its scalar reference loop.
# -p no:randomly pins fault points and flip seeds (matches CI's chaos job).
chaos:
	$(PY) -m pytest -p no:randomly -q tests/test_engine_chaos.py \
		tests/test_engine_fsck_gc.py tests/test_resilience.py \
		tests/test_resilience_oracle.py tests/test_trace_durability.py

# Crash-consistency model checker: every durable protocol is run once
# under a recording FS, then every reachable crash state (drops, torn
# writes, reordered directory entries) is materialized and recovered.
# The four fsio durable-write primitives get one harness each. The
# minimized-reproducer corpus lands in CRASHCHECK_corpus.json (matches
# CI's crashcheck job, which uploads it as an artifact).
crashcheck:
	$(PY) -m pytest -p no:randomly -q tests/test_crashcheck_model.py \
		tests/test_crashcheck_protocols.py \
		tests/test_crashcheck_regressions.py \
		tests/test_trace_migrate_crash.py \
		tests/test_fsio_primitives.py
	$(PY) -m repro.cli crashcheck all --corpus CRASHCHECK_corpus.json

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# perfbench (BENCHMARK.json) over its four workloads at seed 0, each
# once untraced (end-to-end medians) and once traced (per-layer self
# times). BENCH_perfbench.json gets a JSON list of the eight runs, each
# with its provenance (refs, scale, iterations, commit, CPUs) and its
# final JSON line (~6 min).
BENCH_WORKLOADS = suite suite_jobs2 sweep_warm serve_mixed

bench-record:
	@set -e; tmp=.bench_record; rm -rf $$tmp; mkdir $$tmp; sep='['; \
	for w in $(BENCH_WORKLOADS); do for t in 0 1; do \
		echo "== $$w --trace $$t"; \
		$(PY) perfbench/run.py --workload $$w --seed 0 --seconds 30 \
			--trace $$t > $$tmp/run.out; \
		printf '%s\n{"provenance": %s,\n "result": %s}' "$$sep" \
			"$$(sed -n 's/^# provenance //p' $$tmp/run.out)" \
			"$$(tail -n 1 $$tmp/run.out)" >> $$tmp/all.json; \
		sep=','; \
	done; done; \
	echo ']' >> $$tmp/all.json; \
	mv $$tmp/all.json BENCH_perfbench.json; rm -rf $$tmp; \
	echo "wrote BENCH_perfbench.json"

# A/B of two trees on perfbench: BASE=<rev> against CHANGE=<rev> (the
# working tree when unset), PAIRS strictly alternating untraced runs of
# each of WORKLOADS (comma-separated) at SEED for BENCHMARK.json's
# run_seconds, then one traced run per side. Prints medians, quartiles,
# pairs won, verdicts (ok, OVER BOUND, unresolved), every run's
# correct/failed and the per-layer metrics (~1 min per run; see
# tools/bench_ab.py).
BASE ?= HEAD
CHANGE ?=
WORKLOADS ?= suite
PAIRS ?= 10
SEED ?= 0

bench-ab:
	$(PY) tools/bench_ab.py --base $(BASE) $(if $(CHANGE),--change $(CHANGE)) \
		--workloads $(WORKLOADS) --pairs $(PAIRS) --seed $(SEED)

experiments:
	$(PY) -m repro.experiments all --write

# Scheduler smoke: the parallel suite on a shared cache at test fidelity.
sched-smoke:
	$(PY) -m repro.experiments all --jobs 2 \
		--refs 4000 --scale 0.00390625 --iterations 4 > /dev/null
	@echo "sched smoke OK (jobs=2)"

# Resume smoke: SIGTERM a real jobs=2 suite mid-run, resume the journal,
# verify no journaled task is re-executed (matches CI's resume job).
resume-smoke:
	$(PY) tools/resume_smoke.py

# Service smoke: real daemon, 3 requests (duplicate pair + malformed),
# dedup counter asserted, SIGTERM -> exit 143 (matches CI's service job).
serve-smoke:
	$(PY) tools/serve_smoke.py

# Service soak: 200 concurrent mixed requests against a ChaosFS-backed
# daemon, worker kill mid-flight, SIGTERM drain mid-burst.
serve-soak:
	$(PY) tools/serve_soak.py

# Queue soak: a suite run over the filesystem work queue with workers
# SIGKILLed mid-record under ChaosFS bit flips; results must come back
# bit-identical to jobs=1 (matches CI's queue job).
queue-soak:
	$(PY) tools/queue_soak.py

# Policy smoke: `policies ls` + a cold and warm `policies sweep`;
# the warm replay must be bit-identical to the record run and threshold
# must beat no_migration on NVM writes (matches CI's policies job).
policy-smoke:
	$(PY) tools/policy_smoke.py

validate:
	$(PY) -m repro.validation

examples:
	for f in examples/*.py; do echo "== $$f"; $(PY) $$f > /dev/null || exit 1; done; echo "all examples OK"

all: test bench validate experiments

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
