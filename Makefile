# Convenience targets; everything also works with plain pytest.
# PYTHONPATH=src keeps the tree importable without an editable install
# (offline containers without `wheel`); `make install` is the other path.

PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test loc bench bench-smoke bench-hot bench-hot-smoke bench-e2e bench-e2e-trace bench-e2e-pairs front-smoke obs-smoke concurrency-smoke cache-smoke churn-smoke fleet-smoke chaos-smoke warm install

test:
	$(PY) -m pytest -x -q

# Code lines per package under src/repro (non-blank, non-comment,
# non-docstring; stdlib tokenize).  CI prints this after tier-1 so a
# PR's CHANGES.md entry can quote its delta against the parent.
loc:
	$(PY) tools/loc.py

install:
	$(PY) -m pip install -e .

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -q

# One tiny serve benchmark: catches batching perf/equivalence regressions
# in seconds (CI runs this on every push).
bench-smoke:
	$(PY) -m pytest benchmarks/test_serve_throughput.py -q \
	    --benchmark-disable-gc --benchmark-warmup=off

# Hot-loop benchmark: single-run absolute nodes/sec (all three
# algorithms over the document's layout), wave-composition scaling +
# cold-vs-shared-document serve throughput.  Writes BENCH_hype.json at
# the repo root — the kernel micro-record; the descent's regression
# guard is the calibrated descent_hot row of `make bench-e2e`.
bench-hot:
	$(PY) benchmarks/bench_hot.py --check

# Tiny-size variant with the acceptance floors enforced (width-8 wave
# composition >=1.3x, >=1.5x shared serve throughput, exactly one index
# build, cheap rewrite-bomb rejection). CI runs this.
bench-hot-smoke:
	$(PY) benchmarks/bench_hot.py --smoke --out /tmp/BENCH_hype.json

# The repo's benchmark (BENCHMARK.json; see benchmarks/e2e/README.md):
# end-to-end metrics of the five workloads at the default seed, one
# fresh interpreter each (~16 s per workload).
bench-e2e:
	@for w in $$(python3 -c "import json; print(*[w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']])"); do \
	    python3 benchmarks/e2e/run.py --workload $$w || exit 1; done

# Per-layer (traced) run of one workload: make bench-e2e-trace WORKLOAD=descent_hot
# (WORKLOAD=plan_churn re-reads the miss path's budget: compile.*,
# runtime.gc_us, budget.gc_share / budget.compile_share).
WORKLOAD ?= descent_hot
bench-e2e-trace:
	python3 benchmarks/e2e/run.py --workload $(WORKLOAD) --trace 1

# A performance claim's measuring protocol: alternating parent/change
# pairs of one workload, per-side medians and quartiles, wins per metric
# against the parent's own spread; fails on any run that is not correct.
#   make bench-e2e-pairs PARENT=/path/to/parent-checkout WORKLOAD=request_overhead [PAIRS=10] [SEED=n]
# CI runs it once against itself with PAIRS=1 PAIRS_FLAGS=--smoke.
PAIRS ?= 10
bench-e2e-pairs:
	python3 tools/e2e_pairs.py --parent $(PARENT) --workload $(WORKLOAD) \
	    --pairs $(PAIRS) $(if $(SEED),--seed $(SEED)) $(PAIRS_FLAGS)

# Front-end smoke: the protocol tests boot the asyncio NDJSON server on
# an ephemeral port and check the reply stream through the client helper
# (coalescing, answers, error mapping, metrics); the drain test boots
# `repro.cli serve-front` itself as a subprocess. CI runs this.
front-smoke:
	$(PY) -m pytest -q tests/test_serve_frontend.py \
	    tests/test_serve_drain.py::test_serve_front_sigterm_drains

# Observability smoke: a traced, access-logged front-end replays a seeded
# burst and the three obs surfaces are checked — complete span trees
# (request through compile/doc-store/evaluate, children within the
# root), a parseable Prometheus exposition whose +Inf latency bucket
# equals the request counter, a valid trace-correlated NDJSON access
# log — plus the golden metric/span names. CI runs this.
obs-smoke:
	$(PY) -m pytest -q tests/test_obs_trace.py::TestFrontendEndToEnd \
	    tests/test_obs_export.py tests/test_wire_golden.py

# Concurrency smoke: the concurrent-waves benchmark asserts >= 2 waves
# evaluated in flight at once (pool peak gauge) and that overlapped
# waves beat the serialised sum on wall-clock, with answers identical
# to sequential evaluation. CI runs this.
concurrency-smoke:
	$(PY) -m pytest benchmarks/test_concurrent_waves.py -q

# Persistent-cache smoke: a second process over a populated --plan-dir
# must skip every MFA rewrite (compile-stage counters at zero), beat the
# cold pipeline on compile time, and answer identically. CI runs this.
cache-smoke:
	$(PY) -m pytest benchmarks/test_warm_restart.py -q

# Plan- and document-churn hygiene smoke (outside pytest): never-seen
# queries through a continuously evicting plan cache, then never-seen
# documents through a continuously evicting document store behind
# services that are dropped.  Prints, per side, cyclic-garbage count,
# collections per generation and tracked objects per cached plan /
# ingested document (plans also: _compute_child_sets calls per compile);
# fails on any cyclic garbage (an evicted plan or document must die by
# reference count).  Re-read the traced budgets themselves with
# `make bench-e2e-trace WORKLOAD=plan_churn` / `WORKLOAD=doc_churn`.
# CI runs this.
churn-smoke:
	$(PY) benchmarks/churn_hygiene.py

# Fleet smoke: 3 workers over >= 2 structurally different documents
# behind the consistent-hash acceptor.  Asserts byte-identical answers
# vs a single-process service, warm workers with zero MFA rewrites and
# zero index builds, no acknowledged request lost when a worker is
# SIGKILLed mid-load, and a conservative (cpu-gated) scaling floor.
# CI runs this.
fleet-smoke:
	$(PY) -m pytest benchmarks/test_fleet.py -q

# Chaos smoke: the fleet under one seeded REPRO_FAULTS schedule that
# crashes a worker, hangs another past the request timeout, delays and
# corrupts plan/doc-store artifacts and drops a connection — all in a
# single run.  Asserts zero lost acknowledged requests (answers byte-
# identical to a fault-free reference), exact structured rejection
# kinds for the hostile requests, a health-loop restart, and a clean
# drain. CI runs this.
chaos-smoke:
	$(PY) -m pytest benchmarks/test_chaos.py -q

# Precompile the default hospital workload into ./plans (demo of the
# warm subcommand; serve-front --plan-dir plans then boots warm).
warm:
	$(PY) -m repro.cli warm --plan-dir plans
