"""The hot-loop benchmark: single-run nodes/sec + shared-document serving.

This script establishes (and re-measures, PR over PR) the perf
trajectory of the evaluation hot path.  It reports, under a strict
min-of-N wall-clock protocol:

1. **Single-run evaluation** — absolute nodes/sec for ``hype`` vs
   ``opthype`` vs ``opthype-c`` over the Fig. 8 query family plus a
   structural scan, over the document's columnar layout (the one path
   the evaluator has).  The regression guard for the descent itself is
   the calibrated ``descent_hot`` row of ``benchmarks/e2e``;
   The ``descent_passes`` rows time the lean pass itself per lane —
   interpreted (``_descend_lane_py``) and compiled (``_lean.c``, when
   this process has it: ``descent`` records ``kernel.DESCENT``, and
   ``parse`` the parser's token pass, ``repro.xtree.parse.SCAN``) — and
   the ``phase2_passes`` row times phase 2 alone per request, σ0 view
   queries under every algorithm, interpreted vs compiled;
2. **Wave-composition scaling** — the per-lane batch loop vs ONE
   :class:`repro.hype.compose.ComposedKernel` at wave widths 1/2/4/8/16
   over distinct queries, per-lane answers/stats asserted identical
   first; the ``wave_scaling`` rows carry the lanes-vs-lane-steps/sec
   curve, and the width-8 composed speedup is floor-checked at
   ``>= 1.3x`` on descent-bound (plain ``hype``) rows.  The floor
   compares composed sharing with the *same* interpreted loop stepped
   per lane; the compiled per-lane pass, which the composed machine
   does not beat, is recorded beside it as ``compiled_composed_speedup``
   without a floor.  The ``skew`` row replays the Zipf-hot-document
   scenario workload (:mod:`repro.workloads.skew`) per-request vs
   composed waves;
3. **Serve-batch throughput on a repeated-document workload** — the
   multi-tenant hospital traffic replayed (a) *cold*, where every
   request pays its own parse + OptHyPE index build (the pre-docstore
   behaviour), and (b) *shared*, where every request resolves the one
   document through a content-addressed
   :class:`repro.docstore.DocumentStore`; the store counters prove
   ``doc_index_builds == 1`` with ``doc_hits >= N - 1``.

``--parallel-scaling`` adds an :class:`repro.serve.pool.ExecutionPool`
row — one warmed plan evaluated W-ways concurrently vs sequentially —
recorded together with the build's ``gil_enabled`` flag: on a GIL build
the ratio hovers near 1.0 (overlap, not parallelism), on free-threaded
builds the shared-nothing run states let the kernel scale across cores.

``--fleet`` adds the multi-process scaling row: the 4-document multidoc
workload replayed through a real :class:`repro.serve.fleet.FleetAcceptor`
with one worker vs ``--fleet-workers`` (default 4), identical protocol
on both sides.  The row records ``cpus`` because process parallelism is
physical: the ``>= 2x`` scaling floor is enforced only on hosts with at
least 4 cores (on this repo's 1-cpu CI container the row is recorded,
not gated).  The warm-start counters (``warm_rewrites`` /
``warm_index_builds``) are always gated at zero: the N-worker fleet
boots against the plan/doc dirs the single-worker pass populated.

Results are written as JSON (default: ``BENCH_hype.json`` at the repo
root) so future PRs diff numbers instead of anecdotes.  The serve rows
carry p50/p95/p99 from the service's log-bucket histograms, and when the
committed baseline was produced under the identical protocol the run
also reports the tracing-off hot-loop overhead against it.  ``--check``
makes the script exit non-zero unless the acceptance floors hold
(width-8 composed waves >= 1.3x on descent-bound rows, shared-vs-cold
throughput >= 1.5x, one index build, cheap bomb rejection, tracing-off
overhead < 2%% when comparable); ``--smoke`` shrinks every size for CI.

Run: ``make bench-hot`` (full) / ``make bench-hot-smoke`` (CI).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.docstore import DocumentStore, IndexedDocument
from repro.hype import kernel
from repro.hype.api import ALGORITHMS, HYPE, OPTHYPE, OPTHYPE_C, compile_plan
from repro.serve.service import QueryRequest, QueryService
from repro.workloads.hospital import HospitalConfig, generate_hospital_document
from repro.workloads.queries import FIG8, FIG9
from repro.workloads.traffic import TrafficConfig, generate_traffic, waves
from repro.xtree.parse import SCAN, parse_xml
from repro.xtree.serialize import serialize

#: The single-run query set: the paper's Fig. 8 family + one structural
#: full scan (no predicates — isolates pure descent cost).
QUERIES = dict(FIG8, scan="//patient/record/treatment")


def best_of(callable_, repeats: int) -> float:
    """Min-of-N wall time: N timed runs, keep the minimum (noise floor)."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        times.append(time.perf_counter() - started)
    return min(times)


# ----------------------------------------------------------------------
def _document_plan(query, algorithm, doc):
    """A plan for ``doc``'s label table; asking the document for the
    index also parks its mask column on ``doc.layout``, where runs read
    it."""
    index = None if algorithm == HYPE else doc.index_for(algorithm == OPTHYPE_C)
    return compile_plan(query, algorithm=algorithm, index=index)


def bench_single_runs(tree, repeats: int) -> dict:
    """Nodes/sec per algorithm over the document's layout."""
    doc = IndexedDocument(tree)
    layout = doc.layout
    elements = tree.element_count
    results: dict = {}
    for name, query in QUERIES.items():
        per_algo: dict = {}
        for algorithm in ALGORITHMS:
            plan = _document_plan(query, algorithm, doc)
            # Warm the memo tables and rows before timing.
            reference = plan.run(tree.root, layout=layout)
            columnar_s = best_of(
                lambda: plan.run(tree.root, layout=layout), repeats
            )
            per_algo[algorithm] = {
                "visited_elements": reference.stats.visited_elements,
                "answers": reference.stats.answers,
                "columnar_s": columnar_s,
                "columnar_nodes_per_s": elements / columnar_s,
            }
        results[name] = per_algo
    return results


#: The lean passes this process can run, by name.
PASSES = {"python": kernel._descend_lane_py}
if kernel.DESCENT == "compiled":
    PASSES["compiled"] = kernel._descend_lane


@contextmanager
def lean_pass(name: str):
    """Run :func:`repro.hype.kernel.descend` with the named lean pass."""
    saved = kernel._descend_lane
    kernel._descend_lane = PASSES[name]
    try:
        yield
    finally:
        kernel._descend_lane = saved


def bench_descent_passes(tree, repeats: int) -> dict:
    """Per-lane nodes/sec of each lean pass over the document's layout:
    the structural scan, one plan per algorithm, warm tables."""
    doc = IndexedDocument(tree)
    layout = doc.layout
    elements = tree.element_count
    results: dict = {}
    for algorithm in ALGORITHMS:
        plan = _document_plan(WAVE_QUERIES["scan"], algorithm, doc)
        row: dict = {}
        for name in PASSES:
            with lean_pass(name):
                reference = plan.run(tree.root, layout=layout)
                seconds = best_of(lambda: plan.run(tree.root, layout=layout), repeats)
            visited = reference.stats.visited_elements
            row[name] = {
                "visited_elements": visited,
                "seconds": seconds,
                "nodes_per_s": elements / seconds,
                "ns_per_visit": seconds / visited * 1e9,
            }
        if "compiled" in row:
            row["compiled_speedup"] = row["python"]["seconds"] / row["compiled"]["seconds"]
        results[algorithm] = row
    return results


def bench_phase2_passes(tree, repeats: int) -> dict:
    """Phase 2 per request, each implementation over the same cans: the
    σ0 view queries rewritten to MFAs under every algorithm, one descent
    each, then the answer collection alone — interpreted
    (``_collect_answers_py``) and compiled (``_lean.c``, when this
    process has it) — on the plans' warm alive caches, answers asserted
    identical first."""
    from repro.hype.core import CompiledPlan, RunCursor
    from repro.rewrite.mfa_rewrite import rewrite_query
    from repro.views.samples import sigma0
    from repro.workloads.queries import VIEW_QUERIES

    doc = IndexedDocument(tree)
    layout = doc.layout
    spec = sigma0()
    requests = []
    deaths = 0
    for query in VIEW_QUERIES.values():
        mfa = rewrite_query(spec, query)
        for algorithm in ALGORITHMS:
            plan = _document_plan(mfa, algorithm, doc)
            cursor = RunCursor(plan)
            kernel.descend([(plan, cursor)], 0, layout)
            deaths += len(cursor.deaths)
            columns = (
                cursor.visit_ids,
                cursor.visit_parents,
                cursor.visit_mstates,
                cursor.deaths,
                cursor.finals_seen,
                layout.columns.label,
            )
            requests.append((plan, columns))
    phases = {"python": CompiledPlan._collect_answers_py}
    if kernel._collect_answers is not None:
        phases["compiled"] = kernel._collect_answers

    def collect_all(collect) -> list:
        return [collect(plan, *columns) for plan, columns in requests]

    expected = collect_all(phases["python"])  # also warms the alive caches
    for collect in phases.values():
        assert collect_all(collect) == expected, "phase 2 passes disagree"
    row: dict = {"requests": len(requests), "deaths": deaths}
    for name, collect in phases.items():
        seconds = best_of(lambda: collect_all(collect), repeats)
        row[name] = {"us_per_request": seconds / len(requests) * 1e6}
    if "compiled" in row:
        row["compiled_speedup"] = (
            row["python"]["us_per_request"] / row["compiled"]["us_per_request"]
        )
    return row


def _calibrated_inner(fn, target_s: float = 2e-3) -> int:
    """Inner-repeat count lifting one timed sample above timer noise."""
    started = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - started
    if elapsed >= target_s:
        return 1
    return min(64, max(1, round(target_s / max(elapsed, 1e-6)) + 1))


# ----------------------------------------------------------------------
#: Wave-composition floor: composed throughput at width 8 must beat the
#: per-lane batch path by this factor on *descent-bound* rows (plain
#: ``hype`` — no per-node index probes, so the one-composed-lookup win
#: is the dominant term).  The indexed algorithms are pop-bound: their
#: predicate-final pops are irreducibly per-lane, so their rows are
#: recorded for the curve but not floor-gated.
WAVE_FLOOR = 1.3
WAVE_FLOOR_WIDTH = 8
WAVE_WIDTHS = (1, 2, 4, 8, 16)
#: The wave rows keep a document floor and min-of-3 even under --smoke:
#: on a dozen-patient tree a full pass is ~0.5 ms and the per-run
#: constant costs (cursor setup, root handling) drown the per-node
#: signal the floor gates — the curve would measure noise, not stepping.
WAVE_MIN_PATIENTS = 120
WAVE_MIN_REPEATS = 3

#: Wave lanes must be DISTINCT queries: the service dedups identical
#: plans inside a wave (they share one lane), so a realistic width-W
#: wave is W different automata — the hard case for composition.
WAVE_QUERIES = {
    **FIG8,
    **FIG9,
    "scan": "//patient/visit/treatment",
    "flu": "//patient[.//diagnosis/text() = 'flu']",
    "asthma": "//patient[.//diagnosis/text() = 'asthma']",
    "xray": "//patient[.//test/text() = 'x-ray']",
    "oncology": "//patient[.//specialty/text() = 'oncology']",
    "city": "//patient[.//city/text() = 'edinburgh']",
    "tablet": "//visit[treatment/medication/type/text() = 'tablet']",
    "neuro": "//patient[visit/doctor/specialty/text() = 'neurology']/pname",
    "meds": "//treatment/medication/diagnosis",
    "addresses": "//patient/address/city",
}


def bench_wave_scaling(tree, repeats: int) -> dict:
    """Composed vs per-lane batch stepping at wave widths 1/2/4/8/16.

    Both sides drive the same compiled plans over the same layout from
    fresh :class:`repro.hype.core.RunCursor`s — the per-lane side is
    :func:`repro.hype.kernel.descend` with the interpreted lean pass
    (one pass per lane, W passes per wave: the loop the composed machine
    is the shared version of), the composed side is ONE
    :class:`repro.hype.compose.ComposedKernel` (one lookup per node).
    Answers and full per-lane ``HyPEStats`` are asserted identical
    before timing; samples interleave the sides per round.  The
    headline is ``lane_steps_per_s`` growing *sublinearly* in cost:
    composed wall time at width W sits well under W x width-1 time.
    Where the compiled pass is loaded it is timed per lane as a third
    side (``compiled_perlane_s``, ``compiled_composed_speedup``).
    """
    from repro.hype.compose import ComposedKernel, descend_composed
    from repro.hype.core import RunCursor
    from repro.hype.kernel import descend

    doc = IndexedDocument(tree)
    layout = doc.layout
    elements = tree.element_count
    pool = list(WAVE_QUERIES.values())
    results: dict = {}
    for algorithm in ALGORITHMS:
        # Composition requires the members to share one (label table,
        # variant): every lane is compiled against the document's own.
        all_plans = [_document_plan(query, algorithm, doc) for query in pool]
        rows = []
        for width in WAVE_WIDTHS:
            plans = all_plans[:width]

            def run_lanes():
                cursors = [RunCursor(plan) for plan in plans]
                descend(list(zip(plans, cursors)), tree.root, layout)
                return cursors

            def run_perlane():
                with lean_pass("python"):
                    return run_lanes()

            def run_compiled():
                with lean_pass("compiled"):
                    return run_lanes()

            if width < 2:
                # A singleton group never composes (the service routes
                # it per-lane) — the width-1 row anchors the curve with
                # the per-lane loop on both arms.
                composed_kernel = None
                run_composed = run_perlane
            else:
                composed_kernel = ComposedKernel(plans)

                def run_composed():
                    cursors = [RunCursor(plan) for plan in plans]
                    descend_composed(composed_kernel, cursors, tree.root, layout)
                    return cursors

            # Warm both sides (memos, composed tables) and prove the
            # composed pass byte-identical per lane before timing.
            reference = [cursor.finish() for cursor in run_perlane()]
            composed = [cursor.finish() for cursor in run_composed()]
            for lane, (ref, got) in enumerate(zip(reference, composed)):
                assert got.answers == ref.answers, f"lane {lane} answers"
                assert got.stats == ref.stats, f"lane {lane} stats"
            sides = {"perlane": run_perlane, "composed": run_composed}
            if "compiled" in PASSES:
                sides["compiled"] = run_compiled
            inner = _calibrated_inner(run_perlane)
            best = dict.fromkeys(sides, float("inf"))
            for _ in range(repeats):
                for side, run in sides.items():
                    started = time.perf_counter()
                    for _ in range(inner):
                        run()
                    elapsed = (time.perf_counter() - started) / inner
                    best[side] = min(best[side], elapsed)
            perlane_s, composed_s = best["perlane"], best["composed"]
            compiled_s = best.get("compiled")
            rows.append(
                {
                    "width": width,
                    "inner_repeats": inner,
                    "perlane_s": perlane_s,
                    "composed_s": composed_s,
                    "composed_speedup": perlane_s / composed_s,
                    "compiled_perlane_s": compiled_s,
                    # Unfloored: the compiled pass per lane vs composed.
                    "compiled_composed_speedup": (
                        None if compiled_s is None else compiled_s / composed_s
                    ),
                    # Lane-steps/sec: W lanes advanced over the whole
                    # document per pass — the axis the curve plots.
                    "perlane_lane_steps_per_s": width * elements / perlane_s,
                    "composed_lane_steps_per_s": width * elements / composed_s,
                    "composed": composed_kernel is not None,
                    "interned_ccfgs": (
                        0 if composed_kernel is None else composed_kernel.interned_ccfgs
                    ),
                    "descent_bound": algorithm == HYPE,
                }
            )
        results[algorithm] = rows
    return results


def wave_floor_failures(wave: dict) -> list[str]:
    """Floor check: width-8 composed speedup on descent-bound rows."""
    failures = []
    for algorithm, rows in wave.items():
        for row in rows:
            if row["width"] != WAVE_FLOOR_WIDTH or not row["descent_bound"]:
                continue
            if row["composed_speedup"] < WAVE_FLOOR:
                failures.append(
                    f"wave composition at width {row['width']} "
                    f"({algorithm}): x{row['composed_speedup']:.2f} < "
                    f"{WAVE_FLOOR} floor over the interpreted per-lane pass"
                )
    return failures


# ----------------------------------------------------------------------
def bench_skew(tenants: int, requests: int, repeats: int, seed: int) -> dict:
    """The Zipf-hot scenario: per-request vs composed waves, one hot key.

    First entry of the scenario-zoo matrix: N same-shape documents with
    a Zipf document draw (:mod:`repro.workloads.skew`).  The per-request
    side pays one sequential pass per query; the wave side batches the
    stream 8 requests at a time through a ``compose=True`` service, so
    same-view lanes piling onto the hot document fuse into composed
    groups — where the lean pass is interpreted; a compiled process
    steps them per lane.  Answers are asserted identical before timing.
    """
    from repro.workloads.skew import (
        SkewConfig,
        build_skew_service,
        document_share,
        generate_skew_traffic,
    )

    cfg = SkewConfig(
        tenants=tenants, num_requests=requests, seed=seed, patients=24
    )
    sequential, hashes = build_skew_service(cfg)
    traffic = generate_skew_traffic(cfg, hashes)
    share = document_share(traffic)
    hot_hash = hashes["hot"]

    def run_sequential() -> list:
        return [
            sequential.submit(r.tenant, r.query, document=r.document).ids()
            for r in traffic
        ]

    composed_service, _ = build_skew_service(cfg, compose=True)

    def run_waves() -> list:
        answers = []
        for wave in waves(traffic, 8):
            batch = [
                QueryRequest(r.tenant, r.query, document=r.document)
                for r in wave
            ]
            wave_answers, _stats = composed_service.submit_many(batch)
            answers.extend(a.ids() for a in wave_answers)
        return answers

    expected = run_sequential()
    got = run_waves()
    assert got == expected, "composed skew serving changed answers"
    sequential_s = best_of(run_sequential, repeats)
    composed_s = best_of(run_waves, repeats)
    snapshot = composed_service.metrics_snapshot()
    sequential.close()
    composed_service.close()
    return {
        "requests": len(traffic),
        "tenants": tenants,
        "documents": cfg.documents,
        "zipf_s": cfg.zipf_s,
        "hot_document_share": share.get(hot_hash, 0) / len(traffic),
        "sequential_s": sequential_s,
        "composed_waves_s": composed_s,
        "throughput_speedup": sequential_s / composed_s,
        "composed_groups": snapshot.composed_groups,
        "composed_lanes": snapshot.composed_lanes,
        "composed_fallbacks": snapshot.composed_fallbacks,
    }


# ----------------------------------------------------------------------
def bench_adversarial(tenants: int, requests: int, repeats: int, seed: int) -> dict:
    """The malicious-tenant scenario: rewrite bombs + a poisoning probe.

    A Mallory tenant salts rewrite bombs (the doubling ``(e/e)*`` family
    at a depth whose normalised AST busts the compile budget) into an
    honest stream.  Three guarantees are asserted before timing:

    * every bomb is rejected ``query-too-complex`` — on the per-request
      path AND inside a wave, where :meth:`submit_wave` must reject the
      bomb without sinking its wavemates (whose answers stay identical
      to the sequential reference);
    * the rejection is *cheap*: ``bomb_reject_s`` times one bomb's full
      admission round trip (linear parse + normalise, no rewrite);
    * a cache-poisoning attempt (re-registering the shared view with a
      hostile predicate) stays fingerprint-isolated — the canary answer
      is unchanged once the real view is restored.
    """
    from repro.errors import QueryTooComplexError, ReproError
    from repro.workloads.adversarial import (
        AdversarialConfig,
        bomb_family,
        build_adversarial_service,
        generate_adversarial_traffic,
        is_bomb,
        poison_attempt,
    )

    cfg = AdversarialConfig(
        tenants=tenants, num_requests=requests, seed=seed, patients=16
    )
    service, hashes = build_adversarial_service(cfg)
    traffic = generate_adversarial_traffic(cfg, hashes)
    bombs = sum(1 for r in traffic if is_bomb(r))
    bomb_query = bomb_family(cfg.bomb_depth)[-1]

    def reject_bomb():
        try:
            service.submit("mallory", bomb_query, document=hashes["hospital"])
        except QueryTooComplexError:
            return
        raise AssertionError("rewrite bomb compiled under the budget")

    def run_stream():
        answers, rejected = [], 0
        for r in traffic:
            try:
                answers.append(
                    service.submit(r.tenant, r.query, document=r.document).ids()
                )
            except ReproError:
                answers.append(None)
                rejected += 1
        return answers, rejected

    expected, rejected = run_stream()
    assert rejected == bombs, "a bomb slipped past the compile budget"

    wave_service, _ = build_adversarial_service(cfg, compose=True)

    def run_waves():
        answers, rejected = [], 0
        for wave in waves(traffic, 8):
            batch = [
                QueryRequest(r.tenant, r.query, document=r.document)
                for r in wave
            ]
            result = wave_service.submit_wave(batch)
            for outcome in result.outcomes:
                if isinstance(outcome, ReproError):
                    answers.append(None)
                    rejected += 1
                else:
                    answers.append(outcome.ids())
        return answers, rejected

    got, wave_rejected = run_waves()
    assert wave_rejected == bombs, "a bomb sank or slipped past its wave"
    assert got == expected, "adversarial wave serving changed honest answers"

    stream_s = best_of(run_stream, repeats)
    waves_s = best_of(run_waves, repeats)
    reject_s = best_of(reject_bomb, repeats)

    poison = poison_attempt(service)
    assert poison["isolated"], "cache poisoning crossed view fingerprints"

    kinds = dict(service.metrics_snapshot().rejected_kinds)
    service.close()
    wave_service.close()
    honest = len(traffic) - bombs
    return {
        "requests": len(traffic),
        "bombs": bombs,
        "honest": honest,
        "bomb_depth": cfg.bomb_depth,
        "rejected_kinds": kinds,
        "stream_s": stream_s,
        "waves_s": waves_s,
        "bomb_reject_s": reject_s,
        "honest_rps": honest / stream_s if stream_s else 0.0,
        "poison_isolated": poison["isolated"],
    }


# ----------------------------------------------------------------------
def bench_parallel_scaling(tree, repeats: int, workers: int = 4) -> dict:
    """W-way concurrent evaluation of one warmed plan vs sequential.

    The pool is created (and its workers warmed) outside the timed
    region; each sample evaluates ``2 * workers`` requests either
    back-to-back or dispatched across the pool.  ``gil_enabled`` records
    the build: rows from GIL and free-threaded builds are different
    experiments and are never compared against each other.
    """
    from repro.serve.pool import ExecutionPool

    doc = IndexedDocument(tree)
    layout = doc.layout
    query = QUERIES["fig8a"]
    plan = _document_plan(query, OPTHYPE, doc)
    expected = plan.run(tree.root, layout=layout).stats

    def one():
        result = plan.run(tree.root, layout=layout)
        assert result.stats == expected
        return result

    tasks = 2 * workers

    def sequential():
        for _ in range(tasks):
            one()

    with ExecutionPool(size=workers) as pool:

        def parallel():
            # A failed evaluation re-raises through Future.result().
            futures = [pool.dispatch(one) for _ in range(tasks)]
            for future in futures:
                future.result()

        parallel()  # spin every worker thread up before timing
        sequential_s = best_of(sequential, repeats)
        pool_s = best_of(parallel, repeats)
        peak = pool.peak_in_flight
    return {
        "workers": workers,
        "tasks": tasks,
        "gil_enabled": getattr(sys, "_is_gil_enabled", lambda: True)(),
        "sequential_s": sequential_s,
        "pool_s": pool_s,
        "parallel_scaling": sequential_s / pool_s,
        "peak_in_flight": peak,
    }


# ----------------------------------------------------------------------
#: Fleet scaling floor, applied only when the host has the cores to make
#: process parallelism physically possible (``cpus >= 4``).  The ring
#: routes whole documents, so scaling is additionally capped by the
#: number of distinct documents in the workload (4 here).
FLEET_FLOOR = 2.0
FLEET_MIN_CPUS = 4


def bench_fleet(
    requests: int,
    repeats: int,
    workers: int,
    patients: int,
    seed: int,
) -> dict:
    """N-worker fleet vs a single worker, same acceptor protocol.

    Both sides run the multidoc workload (hospital + 3 ontology
    variants = 4 distinct documents) through a real
    :class:`repro.serve.fleet.FleetAcceptor`, so the comparison isolates
    the worker count: identical routing, identical NDJSON framing.  The
    shared plan/doc dirs are populated by the single-worker pass, so the
    N-worker fleet boots warm — its rewrite and index-build counters
    stay at zero, which the metrics assertion below proves.
    """
    import asyncio
    import os
    import tempfile

    from repro.serve.fleet import FleetSpec, start_fleet
    from repro.serve.frontend import FrontendClient
    from repro.workloads.multidoc import (
        MultiDocConfig,
        build_multidoc_service,
        generate_multidoc_traffic,
    )

    cfg = MultiDocConfig(
        patients=patients,
        terms=max(12, patients // 2),
        seed=seed,
        num_requests=requests,
        ontology_variants=3,
        algorithm=OPTHYPE,
    )
    reference, hashes = build_multidoc_service(cfg)
    traffic = generate_multidoc_traffic(cfg, hashes)
    expected = [
        reference.submit(r.tenant, r.query, document=r.document).ids()
        for r in traffic
    ]
    reference.close()
    payloads = [
        {
            "tenant": r.tenant,
            "query": r.query,
            "document": r.document,
            "limit": -1,
        }
        for r in traffic
    ]

    async def run_with(count: int, plan_dir: str, doc_dir: str) -> dict:
        spec = FleetSpec(
            config=cfg.as_dict(), plan_dir=plan_dir, doc_dir=doc_dir
        )
        acceptor = await start_fleet(spec, workers=count)
        try:
            client = await FrontendClient.connect(
                acceptor.host, acceptor.port
            )
            try:
                warm = await client.query_many(payloads)
                assert [r.get("ids") for r in warm] == expected, (
                    f"{count}-worker fleet changed answers"
                )
                best = float("inf")
                for _ in range(repeats):
                    started = time.perf_counter()
                    replies = await client.query_many(payloads)
                    best = min(best, time.perf_counter() - started)
                    assert all(r.get("ok") for r in replies)
                metrics = await client.request({"op": "metrics"})
            finally:
                await client.aclose()
            rewrites = index_builds = 0
            for snapshot in (metrics.get("workers") or {}).values():
                if not snapshot:
                    continue
                rewrites += (
                    snapshot["compile"].get("rewrite", {}).get("count", 0)
                )
                index_builds += snapshot.get("doc_index_builds") or 0
            return {
                "best_s": best,
                "rewrites": rewrites,
                "index_builds": index_builds,
            }
        finally:
            await acceptor.close()

    with tempfile.TemporaryDirectory() as tmp:
        plan_dir, doc_dir = os.path.join(tmp, "plans"), os.path.join(tmp, "docs")
        single = asyncio.run(run_with(1, plan_dir, doc_dir))
        fleet = asyncio.run(run_with(workers, plan_dir, doc_dir))
    return {
        "workers": workers,
        "requests": len(traffic),
        "documents": len(hashes),
        "cpus": os.cpu_count(),
        "gil_enabled": getattr(sys, "_is_gil_enabled", lambda: True)(),
        "single_worker_s": single["best_s"],
        "fleet_s": fleet["best_s"],
        "single_worker_rps": len(traffic) / single["best_s"],
        "fleet_rps": len(traffic) / fleet["best_s"],
        "fleet_scaling": single["best_s"] / fleet["best_s"],
        # Warm-start proof: the N-worker fleet booted against the dirs
        # the single-worker pass populated.
        "warm_rewrites": fleet["rewrites"],
        "warm_index_builds": fleet["index_builds"],
    }


# ----------------------------------------------------------------------
def bench_serve(xml: str, tenants: int, requests: int, repeats: int) -> dict:
    """Cold (per-request parse + index) vs shared-store serve throughput."""
    config = TrafficConfig(num_tenants=tenants, num_requests=requests, seed=11)
    traffic = generate_traffic(config)
    from repro.workloads.traffic import register_tenants

    def run_cold() -> list:
        # Pre-docstore behaviour: every request re-parses the document
        # and rebuilds the OptHyPE index before evaluating.
        answers = []
        for request in traffic:
            tree = parse_xml(xml)
            with QueryService(tree, default_algorithm=OPTHYPE) as service:
                register_tenants(service, config)
                answers.append(
                    service.submit(request.tenant, request.query).ids()
                )
        return answers

    def make_shared():
        store = DocumentStore()
        service = QueryService(
            store.get(xml), default_algorithm=OPTHYPE, document_store=store
        )
        register_tenants(service, config)
        return store, service

    def run_shared(service) -> list:
        # Shared path: every request resolves the one document through
        # the store; batched waves share the evaluation pass too.
        answers = []
        for wave in waves(traffic, 4):
            batch = [QueryRequest(r.tenant, r.query) for r in wave]
            batch_answers, _stats = service.submit_many(batch)
            answers.extend(a.ids() for a in batch_answers)
        return answers

    cold_answers = run_cold()
    store, service = make_shared()
    with service:
        shared_answers = run_shared(service)
        assert sorted(map(tuple, shared_answers)) == sorted(
            map(tuple, cold_answers)
        ), "shared-store serving changed answers"
        cold_s = best_of(run_cold, repeats)
        shared_s = best_of(lambda: run_shared(service), repeats)
        snapshot = service.metrics_snapshot()
    return {
        "requests": len(traffic),
        "tenants": tenants,
        "cold_s": cold_s,
        "shared_s": shared_s,
        "cold_rps": len(traffic) / cold_s,
        "shared_rps": len(traffic) / shared_s,
        "throughput_speedup": cold_s / shared_s,
        "doc_index_builds": snapshot.doc_index_builds,
        "doc_hits": snapshot.doc_hits,
        # Tail percentiles from the service's log-bucket histograms —
        # the per-evaluation distribution across every shared run above.
        "evaluate_ms": {
            "p50": snapshot.latency.p50 * 1000,
            "p95": snapshot.latency.p95 * 1000,
            "p99": snapshot.latency.p99 * 1000,
        },
        "queue_wait_ms": {
            "p50": snapshot.queue_wait.p50 * 1000,
            "p95": snapshot.queue_wait.p95 * 1000,
            "p99": snapshot.queue_wait.p99 * 1000,
        },
    }


# ----------------------------------------------------------------------
#: Tracing-off overhead ceiling vs the committed baseline.  The hot loop
#: itself carries no obs code and the serve path only pays no-op
#: ``span()`` reads when no trace is active, so anything above this is a
#: regression, not noise (the aggregate over every row damps jitter).
OVERHEAD_CEILING = 0.02


def hot_loop_total(single: dict) -> float:
    """Aggregate single-run wall time — the overhead comparison basis.

    Summing every row (all queries x algorithms) damps the per-row
    timer noise that would make a 2%% per-query check flaky.
    """
    return sum(
        entry["columnar_s"]
        for per_algo in single.values()
        for entry in per_algo.values()
    )


def tracing_overhead(payload: dict, baseline_path: Path) -> dict | None:
    """Compare this run's hot loop against the committed baseline.

    Returns ``{"baseline_total_s", "total_s", "overhead"}`` when the
    committed ``BENCH_hype.json`` was produced under the identical
    protocol (same sizes, repeats, seed, non-smoke) and carries the
    current ``single_run`` schema, else ``None`` — CI smoke sizes differ
    from the committed full run, and numbers from another protocol (or
    a baseline that summed other columns) are not comparable.
    """
    if not baseline_path.exists():
        return None
    try:
        baseline = json.loads(baseline_path.read_text())
    except (json.JSONDecodeError, OSError):
        return None
    if baseline.get("protocol") != payload["protocol"]:
        return None
    try:
        baseline_total = hot_loop_total(baseline["single_run"])
    except (KeyError, TypeError, AttributeError):
        return None
    total = hot_loop_total(payload["single_run"])
    if baseline_total <= 0:
        return None
    return {
        "baseline_total_s": baseline_total,
        "total_s": total,
        "overhead": total / baseline_total - 1.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--patients", type=int, default=200)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--tenants", type=int, default=4)
    parser.add_argument("--requests", type=int, default=24)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_hype.json"),
        help="JSON output path (default: BENCH_hype.json at the repo root)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the acceptance floors hold",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes + --check (the CI configuration)",
    )
    parser.add_argument(
        "--parallel-scaling",
        action="store_true",
        help="also measure ExecutionPool W-way scaling (records the "
        "build's gil_enabled flag; meaningful on free-threaded builds)",
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help="also measure the multi-process fleet: N workers vs one, "
        "same acceptor and protocol, over the 4-document multidoc "
        "workload (records cpus; the scaling floor applies only on "
        f">= {FLEET_MIN_CPUS}-core hosts)",
    )
    parser.add_argument(
        "--fleet-workers",
        type=int,
        default=4,
        help="worker count for the --fleet row",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.patients = min(args.patients, 12)
        args.requests = min(args.requests, 8)
        args.repeats = min(args.repeats, 2)
        args.check = True

    tree = generate_hospital_document(
        HospitalConfig(num_patients=args.patients, seed=args.seed)
    )
    xml = serialize(tree)
    print(
        f"document: {args.patients} patients, {tree.size} nodes "
        f"({tree.element_count} elements); min-of-{args.repeats} protocol"
    )

    single = bench_single_runs(tree, args.repeats)
    for name, per_algo in single.items():
        for algorithm, entry in per_algo.items():
            print(
                f"  {name:6s} {algorithm:9s} "
                f"{entry['columnar_s'] * 1000:8.2f} ms "
                f"({entry['columnar_nodes_per_s'] / 1e3:7.0f}k nodes/s, "
                f"{entry['visited_elements']} visited)"
            )

    print(f"descent: {kernel.DESCENT}; parse: {SCAN}")
    passes = bench_descent_passes(tree, args.repeats)
    for algorithm, row in passes.items():
        print(
            f"  lean pass {algorithm:9s} "
            + "  ".join(
                f"{name} {row[name]['nodes_per_s'] / 1e6:5.2f}M nodes/s "
                f"({row[name]['ns_per_visit']:4.0f} ns/visit)"
                for name in PASSES
            )
            + (f"  x{row['compiled_speedup']:.2f}" if "compiled_speedup" in row else "")
        )
    phase2 = bench_phase2_passes(tree, args.repeats)
    print(
        f"  phase 2 ({phase2['requests']} view requests, {phase2['deaths']} deaths) "
        + "  ".join(
            f"{name} {phase2[name]['us_per_request']:6.1f} us/request"
            for name in ("python", "compiled")
            if name in phase2
        )
        + (
            f"  x{phase2['compiled_speedup']:.2f}"
            if "compiled_speedup" in phase2
            else ""
        )
    )

    wave_tree = tree
    if args.patients < WAVE_MIN_PATIENTS:
        wave_tree = generate_hospital_document(
            HospitalConfig(num_patients=WAVE_MIN_PATIENTS, seed=args.seed)
        )
    wave = bench_wave_scaling(wave_tree, max(args.repeats, WAVE_MIN_REPEATS))
    for algorithm, rows in wave.items():
        for row in rows:
            bound = "descent-bound" if row["descent_bound"] else ""
            print(
                f"  wave {algorithm:9s} width {row['width']:2d}  "
                f"per-lane {row['perlane_s'] * 1000:8.2f} ms  "
                f"composed {row['composed_s'] * 1000:8.2f} ms  "
                f"x{row['composed_speedup']:.2f} "
                f"({row['composed_lane_steps_per_s'] / 1e6:6.2f}M "
                f"lane-steps/s, {row['interned_ccfgs']} ccfgs) {bound}"
                + (
                    ""
                    if row["compiled_perlane_s"] is None
                    else f"  [compiled per-lane {row['compiled_perlane_s'] * 1000:.2f} ms: "
                    f"x{row['compiled_composed_speedup']:.2f}]"
                )
            )
    wave_failures = wave_floor_failures(wave)
    print(
        f"wave composition width-{WAVE_FLOOR_WIDTH} floor "
        f"x{WAVE_FLOOR} on descent-bound rows: "
        + ("HOLDS" if not wave_failures else "FAILED")
    )

    skew = bench_skew(args.tenants, args.requests, args.repeats, args.seed)
    print(
        f"skew scenario ({skew['documents']} documents, Zipf "
        f"s={skew['zipf_s']}, hot share "
        f"{skew['hot_document_share']:.0%}):\n"
        f"  per-request: {skew['sequential_s']:.3f} s; composed waves: "
        f"{skew['composed_waves_s']:.3f} s — "
        f"x{skew['throughput_speedup']:.2f} "
        f"({skew['composed_lanes']} lane(s) in "
        f"{skew['composed_groups']} composed group(s), "
        f"{skew['composed_fallbacks']} fallback(s))"
    )

    adversarial = bench_adversarial(
        args.tenants, args.requests, args.repeats, args.seed
    )
    print(
        f"adversarial scenario ({adversarial['bombs']} depth-"
        f"{adversarial['bomb_depth']} bomb(s) in "
        f"{adversarial['requests']} requests):\n"
        f"  all bombs rejected query-too-complex in "
        f"{adversarial['bomb_reject_s'] * 1000:.1f} ms each; honest "
        f"stream {adversarial['honest_rps']:.1f} req/s; poisoning "
        f"isolated={adversarial['poison_isolated']}"
    )

    serve = bench_serve(xml, args.tenants, args.requests, args.repeats)
    print(
        f"serve-batch, repeated document, {serve['requests']} requests / "
        f"{serve['tenants']} tenants:\n"
        f"  cold   (per-request parse+index): {serve['cold_s']:.3f} s "
        f"({serve['cold_rps']:.1f} req/s)\n"
        f"  shared (content-addressed store): {serve['shared_s']:.3f} s "
        f"({serve['shared_rps']:.1f} req/s)\n"
        f"  throughput speedup x{serve['throughput_speedup']:.2f}; "
        f"doc_index_builds={serve['doc_index_builds']}, "
        f"doc_hits={serve['doc_hits']}\n"
        f"  evaluate p50/p95/p99: "
        f"{serve['evaluate_ms']['p50']:.2f} / "
        f"{serve['evaluate_ms']['p95']:.2f} / "
        f"{serve['evaluate_ms']['p99']:.2f} ms; "
        f"queue wait p99 {serve['queue_wait_ms']['p99']:.2f} ms"
    )

    payload = {
        "protocol": {
            "timer": "perf_counter, min-of-N",
            "repeats": args.repeats,
            "patients": args.patients,
            "seed": args.seed,
            "smoke": args.smoke,
        },
        "document": {
            "nodes": tree.size,
            "elements": tree.element_count,
        },
        "single_run": single,
        "descent": kernel.DESCENT,
        "parse": SCAN,
        "descent_passes": passes,
        "phase2_passes": phase2,
        "wave_scaling": wave,
        "skew": skew,
        "adversarial": adversarial,
        "serve": serve,
    }
    if args.parallel_scaling:
        scaling = bench_parallel_scaling(tree, args.repeats)
        payload["parallel_scaling"] = scaling
        print(
            f"parallel scaling ({scaling['workers']} workers, "
            f"gil_enabled={scaling['gil_enabled']}): "
            f"sequential {scaling['sequential_s']:.3f} s vs pool "
            f"{scaling['pool_s']:.3f} s — x{scaling['parallel_scaling']:.2f} "
            f"(peak in flight {scaling['peak_in_flight']})"
        )

    fleet = None
    if args.fleet:
        fleet = bench_fleet(
            requests=args.requests,
            repeats=args.repeats,
            workers=args.fleet_workers,
            patients=max(8, args.patients // 5),
            seed=args.seed,
        )
        payload["fleet"] = fleet
        print(
            f"fleet scaling ({fleet['workers']} workers over "
            f"{fleet['documents']} documents, {fleet['cpus']} cpu(s), "
            f"gil_enabled={fleet['gil_enabled']}):\n"
            f"  single worker: {fleet['single_worker_s']:.3f} s "
            f"({fleet['single_worker_rps']:.1f} req/s)\n"
            f"  {fleet['workers']} workers:     {fleet['fleet_s']:.3f} s "
            f"({fleet['fleet_rps']:.1f} req/s) — "
            f"x{fleet['fleet_scaling']:.2f}\n"
            f"  warm fleet: {fleet['warm_rewrites']} rewrite(s), "
            f"{fleet['warm_index_builds']} index build(s) "
            "(shared plan/doc tiers)"
        )

    # Tracing-off overhead vs the *committed* baseline (always the
    # repo-root file, even when --out redirects this run's output).
    baseline_path = Path(__file__).resolve().parent.parent / "BENCH_hype.json"
    overhead = tracing_overhead(payload, baseline_path)
    if overhead is not None:
        payload["tracing_overhead"] = overhead
        print(
            f"tracing-off hot loop: {overhead['total_s'] * 1000:.2f} ms vs "
            f"{overhead['baseline_total_s'] * 1000:.2f} ms committed "
            f"({overhead['overhead']:+.2%})"
        )
    else:
        print(
            "tracing-off overhead check skipped: no committed baseline "
            "under this protocol and schema (expected for --smoke / "
            "changed sizes)"
        )

    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")

    if args.check:
        failures = []
        if overhead is not None and overhead["overhead"] >= OVERHEAD_CEILING:
            failures.append(
                f"tracing-off hot-loop overhead {overhead['overhead']:+.2%} "
                f">= {OVERHEAD_CEILING:.0%} ceiling vs committed baseline"
            )
        failures.extend(wave_failures)
        if adversarial["bomb_reject_s"] >= 5.0:
            failures.append(
                f"rewrite-bomb rejection took "
                f"{adversarial['bomb_reject_s']:.2f} s >= 5 s bound "
                "(budget must trip after the linear parse, not a rewrite)"
            )
        if serve["throughput_speedup"] < 1.5:
            failures.append(
                f"shared-vs-cold throughput x{serve['throughput_speedup']:.2f} "
                "< 1.5 floor"
            )
        if serve["doc_index_builds"] != 1:
            failures.append(
                f"doc_index_builds {serve['doc_index_builds']} != 1"
            )
        if serve["doc_hits"] < serve["requests"] - 1:
            failures.append(
                f"doc_hits {serve['doc_hits']} < N-1 ({serve['requests'] - 1})"
            )
        if fleet is not None:
            if fleet["warm_rewrites"] != 0:
                failures.append(
                    f"warm fleet performed {fleet['warm_rewrites']} MFA "
                    "rewrite(s); shared plan tier expected zero"
                )
            if fleet["warm_index_builds"] != 0:
                failures.append(
                    f"warm fleet built {fleet['warm_index_builds']} "
                    "index(es); shared doc tier expected zero"
                )
            if (
                (fleet["cpus"] or 1) >= FLEET_MIN_CPUS
                and fleet["workers"] >= 4
                and fleet["fleet_scaling"] < FLEET_FLOOR
            ):
                failures.append(
                    f"fleet scaling x{fleet['fleet_scaling']:.2f} < "
                    f"{FLEET_FLOOR} floor with {fleet['workers']} workers "
                    f"on {fleet['cpus']} cpus"
                )
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("all acceptance floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
