# Convenience targets; everything also works with plain pytest.
# PYTHONPATH=src keeps the tree importable without an editable install
# (offline containers without `wheel`); `make install` is the other path.

PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test loc sanitize coverage-c mutants bench bench-smoke bench-hot bench-hot-smoke bench-e2e bench-e2e-trace bench-e2e-pairs front-smoke obs-smoke concurrency-smoke cache-smoke churn-smoke fleet-smoke chaos-smoke warm install

test:
	$(PY) -m pytest -x -q

# Code lines per package under src/repro (non-blank, non-comment,
# non-docstring; stdlib tokenize).  CI prints this after tier-1 so a
# PR's CHANGES.md entry can quote its delta against the parent.
loc:
	$(PY) tools/loc.py

install:
	$(PY) -m pip install -e .

# The compiled passes (_scan.c, _lean.c) under AddressSanitizer and
# UndefinedBehaviorSanitizer: the native, parser and doc-tier suites, the
# oracle lattice, the shape-template property (instances share one
# NFA's cached ε-closures with the compiled pass) and the plan store
# (every automaton decoded from disk is closed by the compiled pass on
# its first build: round trips, corrupt and stale files, the bit-flip
# sweep) — every differential,
# every lattice point under the compiled passes, the mangled and truncated inputs, the 300-deep
# and 400-wide documents, the label and distinct-mask boundaries — over
# three hypothesis seeds, so three times the examples.  The sanitized
# objects build into a cache of their own (the interpreter's pycache
# prefix), never beside the plain ones; the runtimes must come first in
# the process, hence LD_PRELOAD.  Leak reports are off: the interpreter
# keeps memory until exit by design.
SANITIZE_CC = gcc -fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=undefined
SANITIZE_ENV = CC="$(SANITIZE_CC)" PYTHONPYCACHEPREFIX="$(CURDIR)/.sanitize-cache" \
	LD_PRELOAD="$$(gcc -print-file-name=libasan.so) $$(gcc -print-file-name=libubsan.so)" \
	ASAN_OPTIONS=detect_leaks=0
SANITIZE_SUITES = tests/test_parse_native.py tests/test_parse_oracle.py \
	tests/test_descent_native.py tests/test_cold_native.py tests/test_docstore.py \
	tests/test_lattice.py tests/test_shape_templates.py tests/test_plan_store.py
sanitize:
	$(SANITIZE_ENV) $(PY) -c "from repro.hype import kernel; from repro.xtree import parse; \
	    assert (kernel.DESCENT, parse.SCAN) == ('compiled', 'compiled'), (kernel.DESCENT, parse.SCAN)"
	@for seed in 1 2 3; do \
	    $(SANITIZE_ENV) $(PY) -m pytest -q -p no:cacheprovider --hypothesis-seed=$$seed \
	        $(SANITIZE_SUITES) || exit 1; done

# Line coverage of the compiled passes: SANITIZE_SUITES once against a
# --coverage build (tools/coverage_cc.py is the CC: it keeps the stdin
# source as a file beside its gcov notes), in a build cache of its own,
# then per source the executed / executable lines and every function's
# unexecuted line numbers for _lean.c and _scan.c.  Report only: no
# threshold.  Each run starts from an empty .coverage-c/.
COVERAGE_DIR = $(CURDIR)/.coverage-c
COVERAGE_ENV = CC="$(PY) $(CURDIR)/tools/coverage_cc.py $(COVERAGE_DIR)/gcov" \
	PYTHONPYCACHEPREFIX="$(COVERAGE_DIR)/pycache"
coverage-c:
	rm -rf "$(COVERAGE_DIR)"
	$(COVERAGE_ENV) $(PY) -c "from repro.hype import kernel; from repro.xtree import parse; \
	    assert (kernel.DESCENT, parse.SCAN) == ('compiled', 'compiled'), (kernel.DESCENT, parse.SCAN)"
	$(COVERAGE_ENV) $(PY) -m pytest -q -p no:cacheprovider $(SANITIZE_SUITES)
	$(PY) tools/coverage_cc.py --report "$(COVERAGE_DIR)/gcov"

# Grade the oracle lattice with mutants: a seeded sample of operator
# flips, ±1 constants and dropped statements in the evaluator and the
# rewriter, plus hand-listed flips in _lean.c, each graded by
# tests/test_lattice.py in a temporary copy of the tree (its own
# PYTHONPYCACHEPREFIX; the working tree is never written).  Prints the
# kill rate; fails below 90 %.  Not part of tier-1 (~7 min on 2 cores).
mutants:
	$(PY) tools/mutate.py

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only -q

# One tiny serve benchmark: catches batching perf/equivalence regressions
# in seconds (CI runs this on every push).
bench-smoke:
	$(PY) -m pytest benchmarks/test_serve_throughput.py -q \
	    --benchmark-disable-gc --benchmark-warmup=off

# Hot-loop benchmark: single-run absolute nodes/sec (all three
# algorithms over the document's layout), waves against their lanes run
# one after another + cold-vs-shared-document serve throughput.  Writes BENCH_hype.json at
# the repo root — the kernel micro-record; the descent's regression
# guard is the calibrated descent_hot row of `make bench-e2e`.
bench-hot:
	$(PY) benchmarks/bench_hot.py --check

# Tiny-size variant with the acceptance floors enforced (a width-8 wave
# against its lanes run one after another, under every lean pass the
# process has; >=1.5x shared serve throughput, exactly one index build,
# cheap rewrite-bomb rejection). CI runs this, compiled and with CC=false.
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
# Run it from a clone of the change, as PARENT is a clone of the parent:
# a working checkout's untracked files and caches can move its numbers
# (peak_rss_mb read differently from one).
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
