"""Command-line interface to the SMOQE reproduction.

Usage (``python -m repro.cli <command> ...``):

* ``generate  --patients N --seed S [--out FILE]`` — emit a hospital document
* ``validate  DOC.xml DTD.txt`` — check DTD conformance
* ``query     DOC.xml QUERY [--algorithm hype|opthype|opthype-c]`` — run a
  (regular) XPath query, print answer count and node paths
* ``materialize SPEC.view DOC.xml [--out FILE]`` — materialise a view
* ``view-query  SPEC.view DOC.xml QUERY`` — answer a query on the virtual
  view (rewrite + HyPE, no materialisation)
* ``rewrite     SPEC.view QUERY [--to xreg|mfa]`` — show a rewriting
* ``serve-batch DOC.xml QUERY [QUERY ...] [--spec SPEC.view]`` — answer
  many queries in ONE shared document pass (batched HyPE); with a spec
  the queries are view queries, without they run on the source directly
* ``warm --plan-dir DIR [--gc [--doc-dir DIR]] [--spec SPEC.view]
  [QUERY ...]`` — precompile queries (default: the hospital traffic
  workload's) into a persistent plan store, so services booted with the
  same ``--plan-dir`` skip the MFA rewrites entirely (``serve-batch``,
  ``serve-front`` and ``serve-fleet`` all accept ``--plan-dir``);
  ``--gc`` first reclaims stale/corrupt artifact files (with
  ``--doc-dir`` it also sweeps stale document-tier files).  The
  analogous ``--doc-dir`` (same three commands) persists built OptHyPE
  document indexes keyed by content hash (one record per document), so
  a restart also skips index construction
* ``serve-front [--document DOC.xml] [--host H --port P]`` — boot the
  asyncio NDJSON socket front-end (per-wave admission control in front
  of the query service; ``--pool-size`` bounds concurrent evaluations,
  ``--max-pending`` caps in-flight queries per connection)
* ``serve-fleet --workers N [--plan-dir DIR --doc-dir DIR]`` — boot the
  multi-process fleet: one acceptor routing requests to N worker
  processes by consistent-hashing each request's document hash; workers
  share the plan and document tiers, so a cold worker starts with zero
  MFA rewrites and zero index builds
* observability: ``serve-front`` accepts ``--trace-sample RATE``
  (request tracing; errored/slow traces always kept), ``--slow-ms MS``
  (slow-query threshold for trace retention and the slow log) and
  ``--access-log FILE`` (trace-correlated NDJSON access log)
* ``obs --host H --port P [P ...] [--limit N] [--prometheus]`` — fetch
  and pretty-print recent traces (span trees with durations and
  attributes) or the Prometheus text exposition from a running
  ``serve-front``; with ``--prometheus`` and several ports the
  expositions are merged into one (per-worker series stay distinct via
  the ``worker`` label)

The CLI only parses arguments and wires the library together: the
benchmarks are ``make bench-e2e`` / ``make bench-hot-smoke`` and the
front-end / observability smokes are pytest selections (``make
front-smoke`` / ``make obs-smoke``).

View-spec file format (see ``examples/research.view`` written by tests)::

    source <<<
    root hospital
    hospital -> department*
    ...
    >>>
    view <<<
    root hospital
    hospital -> patient*
    ...
    >>>
    hospital patient = department/patient[...]
    patient parent = parent
"""

from __future__ import annotations

import argparse
import sys

from .dtd.parse import parse_dtd
from .dtd.validate import validate
from .serve.frontend import DEFAULT_MAX_PENDING
from .serve.pool import DEFAULT_POOL_SIZE
from .engine.smoqe import SMOQE
from .errors import ReproError
from .hype.api import ALGORITHMS, HYPE
from .rewrite.direct import rewrite_to_xreg
from .rewrite.mfa_rewrite import rewrite_query
from .views.materialize import materialize
from .views.spec import ViewSpec, view_spec
from .workloads.hospital import HospitalConfig, generate_hospital_document
from .xpath.parser import parse_query
from .xpath.unparse import unparse
from .xtree.node import Node
from .xtree.parse import parse_xml
from .xtree.serialize import serialize
from .xtree.stats import tree_stats


def parse_view_spec_file(text: str) -> ViewSpec:
    """Parse the ``.view`` file format (see module docstring)."""
    source_dtd, view_dtd = None, None
    annotations: dict[tuple[str, str], str] = {}
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index].strip()
        index += 1
        if not line or line.startswith("#"):
            continue
        if line.startswith(("source", "view")) and line.endswith("<<<"):
            kind = line.split()[0]
            block: list[str] = []
            while index < len(lines) and lines[index].strip() != ">>>":
                block.append(lines[index])
                index += 1
            index += 1  # skip '>>>'
            dtd = parse_dtd("\n".join(block))
            if kind == "source":
                source_dtd = dtd
            else:
                view_dtd = dtd
            continue
        if "=" in line:
            left, query = line.split("=", 1)
            parts = left.split()
            if len(parts) != 2:
                raise ReproError(
                    f"bad annotation line (need 'PARENT CHILD = query'): {line!r}"
                )
            annotations[(parts[0], parts[1])] = query.strip()
            continue
        raise ReproError(f"unrecognised view-spec line: {line!r}")
    if source_dtd is None or view_dtd is None:
        raise ReproError("view-spec file needs both source<<<>>> and view<<<>>>")
    return view_spec(source_dtd, view_dtd, annotations)


def _node_path(node: Node) -> str:
    parts = [node.label]
    parts.extend(a.label for a in node.iter_ancestors())
    return "/" + "/".join(reversed(parts))


def _print_answers(nodes, limit: int = 10) -> None:
    ordered = sorted(nodes, key=lambda n: n.node_id)
    print(f"{len(ordered)} answer(s)")
    for node in ordered[:limit]:
        text = node.text()
        suffix = f"  {text!r}" if text else ""
        print(f"  node {node.node_id}: {_node_path(node)}{suffix}")
    if len(ordered) > limit:
        print(f"  ... and {len(ordered) - limit} more")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    doc = generate_hospital_document(
        HospitalConfig(num_patients=args.patients, seed=args.seed)
    )
    xml = serialize(doc, indent=1 if args.pretty else None)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(xml)
        print(f"wrote {args.out}: {tree_stats(doc).describe()}")
    else:
        print(xml)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    with open(args.document) as handle:
        tree = parse_xml(handle.read())
    with open(args.dtd) as handle:
        dtd = parse_dtd(handle.read())
    validate(tree, dtd)
    print(f"valid: {tree_stats(tree).describe()}")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    with open(args.document) as handle:
        tree = parse_xml(handle.read())
    engine = SMOQE(tree, default_algorithm=args.algorithm)
    answer = engine.evaluate(args.query)
    _print_answers(answer.nodes)
    print(
        f"visited {answer.stats.visited_elements}/{tree.element_count} "
        f"elements, |M| = {answer.mfa.size()}"
    )
    return 0


def cmd_materialize(args: argparse.Namespace) -> int:
    with open(args.spec) as handle:
        spec = parse_view_spec_file(handle.read())
    with open(args.document) as handle:
        tree = parse_xml(handle.read())
    view = materialize(spec, tree)
    xml = serialize(view.tree, indent=1 if args.pretty else None)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(xml)
        print(f"wrote {args.out}: {tree_stats(view.tree).describe()}")
    else:
        print(xml)
    return 0


def cmd_view_query(args: argparse.Namespace) -> int:
    with open(args.spec) as handle:
        spec = parse_view_spec_file(handle.read())
    with open(args.document) as handle:
        tree = parse_xml(handle.read())
    engine = SMOQE(tree, default_algorithm=args.algorithm)
    engine.register_view("view", spec)
    answer = engine.answer("view", args.query)
    _print_answers(answer.nodes)
    print(f"rewritten |M| = {answer.mfa.size()}")
    return 0


def cmd_rewrite(args: argparse.Namespace) -> int:
    with open(args.spec) as handle:
        spec = parse_view_spec_file(handle.read())
    query = parse_query(args.query)
    if args.to == "xreg":
        rewritten = rewrite_to_xreg(spec, query)
        print(unparse(rewritten))
        print(f"size: {rewritten.size()} AST nodes", file=sys.stderr)
    else:
        mfa = rewrite_query(spec, query)
        for key, value in mfa.stats().items():
            print(f"{key}: {value}")
    return 0


def _plan_store(args: argparse.Namespace):
    """The on-disk plan tier behind ``--plan-dir`` (``None`` without it)."""
    plan_dir = getattr(args, "plan_dir", None)
    if not plan_dir:
        return None
    from .compile.store import PlanStore

    return PlanStore(plan_dir)


def _document_store(args: argparse.Namespace):
    """The document store behind ``--doc-dir`` (``None`` without it).

    The store shares parsed documents and their OptHyPE indexes across
    every service of the process, and persists built indexes under the
    directory so a restart skips index construction for
    previously-seen documents.
    """
    doc_dir = getattr(args, "doc_dir", None)
    if not doc_dir:
        return None
    from .docstore import DocumentStore

    return DocumentStore(index_dir=doc_dir)


def cmd_serve_batch(args: argparse.Namespace) -> int:
    from .serve.service import QueryRequest, QueryService

    doc_store = _document_store(args)
    with open(args.document) as handle:
        content = handle.read()
    if doc_store is not None:
        # Content-addressed: the parse and the index builds are shared
        # with (and persisted for) every other holder of this document.
        document = doc_store.get(content)
    else:
        document = parse_xml(content)
    service = QueryService(
        document,
        default_algorithm=args.algorithm,
        plan_store=_plan_store(args),
        document_store=doc_store,
    )
    if args.spec:
        with open(args.spec) as handle:
            spec = parse_view_spec_file(handle.read())
        service.register_view("view", spec)
        service.register_tenant("cli", "view")
    else:
        service.register_tenant("cli", None)
    requests = [QueryRequest("cli", query) for query in args.queries]
    answers, stats = service.submit_many(requests)
    for query, answer in zip(args.queries, answers):
        print(f"query: {query}")
        _print_answers(answer.nodes, limit=args.limit)
    print(
        f"batched {len(requests)} query(ies) in {stats.lanes} lane(s): "
        f"{stats.visited_elements} element(s) visited "
        f"vs {stats.sequential_visited} summed over queries "
        f"(shared {stats.saved_visits})"
    )
    if args.plan_dir or args.doc_dir:
        # Surface the tier accounting so a warm restart is verifiable
        # from the outside (the warm-restart smoke greps these lines).
        print(service.metrics_snapshot().describe())
    service.close()
    return 0


def cmd_warm(args: argparse.Namespace) -> int:
    """Precompile a workload's queries into a persistent plan store.

    Compilation is document-independent (the rewrite works over the view
    specification alone), so warming needs no XML input: every process
    later booted with the same ``--plan-dir`` rehydrates these plans
    instead of rewriting.
    """
    from .compile import FORMAT_VERSION, PlanStore, QueryCompiler
    from .serve.cache import PlanCache

    store = PlanStore(args.plan_dir)
    targets: list[tuple[object, str]] = []
    if args.queries:
        spec = None
        if args.spec:
            with open(args.spec) as handle:
                spec = parse_view_spec_file(handle.read())
        targets = [(spec, query) for query in args.queries]
    else:
        if args.spec:
            raise ReproError("--spec without queries; pass the QUERY list too")
        # Default: the multi-tenant hospital traffic workload — σ0 view
        # queries plus the admin tenant's direct Fig. 8 family.
        from .views.samples import sigma0
        from .workloads.queries import FIG8, VIEW_QUERIES

        view = sigma0()
        targets = [(view, query) for _, query in sorted(VIEW_QUERIES.items())]
        targets += [(None, query) for _, query in sorted(FIG8.items())]

    if args.gc:
        removed = store.gc()
        print(
            f"gc: removed {removed} stale/corrupt artifact file(s) "
            f"(non-v{FORMAT_VERSION} or undecodable)"
        )
        doc_dir = getattr(args, "doc_dir", None)
        if doc_dir:
            from .docstore import DOC_FORMAT_VERSION, DocumentStore

            doc_store = DocumentStore(index_dir=doc_dir)
            doc_removed = doc_store.tier.gc()
            print(
                f"gc: removed {doc_removed} stale document-tier file(s) "
                f"from {doc_dir} (non-v{DOC_FORMAT_VERSION} or invalid)"
            )
    compiler = QueryCompiler()
    cache = PlanCache(
        capacity=max(1, len(targets)), store=store, compiler=compiler
    )
    for spec, query in targets:
        cache.plan(spec, query)
    stats = cache.stats
    print(
        f"warmed {args.plan_dir}: {stats.misses} compiled, "
        f"{stats.l2_hits} already stored, {stats.hits} duplicate(s); "
        f"store now holds {len(store)} plan(s) "
        f"(format v{FORMAT_VERSION})"
    )
    for stage, counters in compiler.metrics.snapshot().as_dict().items():
        if counters["count"]:
            print(
                f"  {stage}: {counters['count']}x "
                f"{counters['seconds'] * 1000:.2f} ms"
            )
    return 0


def _front_service(args: argparse.Namespace):
    """Build the service ``serve-front`` boots."""
    from .serve.service import QueryService
    from .workloads.traffic import TrafficConfig, register_tenants

    if args.document:
        with open(args.document) as handle:
            tree = parse_xml(handle.read())
    else:
        tree = generate_hospital_document(
            HospitalConfig(num_patients=args.patients, seed=args.seed)
        )
    doc_store = _document_store(args)
    if doc_store is not None:
        tree = doc_store.adopt(tree)
    service = QueryService(
        tree,
        pool_size=args.pool_size,
        plan_store=_plan_store(args),
        document_store=doc_store,
    )
    if args.spec:
        with open(args.spec) as handle:
            spec = parse_view_spec_file(handle.read())
        service.register_view("view", spec)
        service.register_tenant("cli", "view")
        service.register_tenant("admin", None)
    else:
        config = TrafficConfig(num_tenants=args.tenants, seed=args.seed)
        register_tenants(service, config)
    return service


def _admission_config(args: argparse.Namespace):
    from .serve.admission import AdmissionConfig

    return AdmissionConfig(
        max_wave=args.max_wave, max_wait=args.max_wait_ms / 1000.0
    )


def _obs_setup(args: argparse.Namespace):
    """Build the (tracer, access logger) pair the obs flags ask for."""
    from .obs.log import AccessLogger, StructuredLog
    from .obs.trace import Tracer

    slow_seconds = (
        None if args.slow_ms is None else args.slow_ms / 1000.0
    )
    tracer = None
    if args.trace_sample is not None:
        tracer = Tracer(
            sample_rate=args.trace_sample, slow_seconds=slow_seconds
        )
    access_logger = None
    if args.access_log is not None:
        access_logger = AccessLogger(
            StructuredLog(args.access_log),
            slow_seconds=slow_seconds,
            access=True,
        )
    elif slow_seconds is not None:
        access_logger = AccessLogger(
            StructuredLog(sys.stderr), slow_seconds=slow_seconds
        )
    return tracer, access_logger


def _install_faults(args: argparse.Namespace) -> None:
    """Arm ``--faults PLAN`` (inline JSON or a file path) for this process
    and export it through the environment so spawned fleet workers
    inherit the same seeded schedule."""
    text = getattr(args, "faults", None)
    if not text:
        return
    import os

    from . import faults

    if os.path.exists(text):
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
    plan = faults.FaultPlan.from_json(text)
    faults.install(plan)
    os.environ[faults.ENV_VAR] = plan.to_json()
    points = sorted({rule.point for rule in plan.rules})
    print(
        f"fault injection armed: {', '.join(points)} (seed {plan.seed})",
        flush=True,
    )


def cmd_serve_front(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.frontend import QueryFrontend
    from .serve.lines import serve_until_drained

    _install_faults(args)
    service = _front_service(args)
    admission = _admission_config(args)
    tracer, access_logger = _obs_setup(args)

    async def _serve() -> None:
        frontend = QueryFrontend(
            service,
            admission,
            max_pending=args.max_pending,
            max_line_bytes=args.max_line_bytes,
            tracer=tracer,
            access_log=access_logger,
        )
        host, port = await frontend.start(args.host, args.port)
        obs_note = ""
        if tracer is not None:
            obs_note = f", trace sample {tracer.sample_rate:g}"
        if access_logger is not None:
            target = access_logger.log.path or "stderr"
            obs_note += f", access log {target}"
        print(
            f"frontend listening on {host}:{port} "
            f"(tenants: {', '.join(service.tenants())}; "
            f"max wave {admission.max_wave}, "
            f"max wait {admission.max_wait * 1000:.0f} ms, "
            f"pool size {service.pool.size}, "
            f"max pending/conn {args.max_pending}{obs_note})",
            flush=True,
        )
        # Graceful drain on SIGTERM: refuse new admissions, finish every
        # in-flight wave, flush the access log — what a fleet restart
        # (or any supervisor) needs from a worker.
        async def drain() -> None:
            print("draining: refusing new admissions", flush=True)
            await frontend.drain()
            print("drained: all in-flight requests flushed", flush=True)

        await serve_until_drained(drain, frontend.close)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("frontend stopped")
    return 0


def cmd_serve_fleet(args: argparse.Namespace) -> int:
    """Boot the multi-process fleet: one acceptor, N workers."""
    import asyncio

    from .serve.fleet import FleetAcceptor, FleetSpec
    from .serve.lines import serve_until_drained
    from .workloads.multidoc import MultiDocConfig

    _install_faults(args)
    config = MultiDocConfig(
        patients=args.patients,
        tenants=args.tenants,
        terms=args.terms,
        seed=args.seed,
        algorithm=args.algorithm,
    )
    spec = FleetSpec(
        config=config.as_dict(),
        plan_dir=args.plan_dir,
        doc_dir=args.doc_dir,
        pool_size=args.pool_size,
        max_wave=args.max_wave,
        max_wait_ms=args.max_wait_ms,
        access_log=args.access_log,
    )

    async def _serve() -> None:
        acceptor = FleetAcceptor(
            spec,
            workers=args.workers,
            request_timeout=args.request_timeout,
        )
        host, port = await acceptor.start(args.host, args.port)
        shards = {
            doc_hash[:12]: acceptor.supervisor.ring.node_for(doc_hash)
            for doc_hash in sorted(acceptor.documents)
        }
        print(
            f"fleet acceptor listening on {host}:{port} "
            f"({args.workers} worker(s); documents {shards}; "
            f"plan dir {args.plan_dir or '-'}, doc dir {args.doc_dir or '-'})",
            flush=True,
        )
        # Graceful drain on SIGTERM: stop accepting, flush every
        # acknowledged request, SIGTERM the workers (they drain
        # in-process), exit 0.
        async def drain() -> None:
            print("draining: refusing new connections", flush=True)
            await acceptor.drain()
            print("drained: fleet stopped cleanly", flush=True)

        await serve_until_drained(drain, acceptor.close)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("fleet stopped")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Fetch and pretty-print traces (or metrics) from a live front-end."""
    import asyncio

    from .obs.trace import span_roots
    from .serve.frontend import FrontendClient

    def render_span(node: dict, depth: int) -> None:
        pad = "  " * depth
        attrs = " ".join(
            f"{key}={value}" for key, value in node["attributes"].items()
        )
        line = (
            f"{pad}{node['name']}  {node['duration_ms']:.2f} ms"
            f"{'  ' + attrs if attrs else ''}"
        )
        if node["error"]:
            line += f"  ERROR: {node['error']}"
        print(line)
        for child in node["children"]:
            render_span(child, depth + 1)

    ports = args.port if isinstance(args.port, list) else [args.port]

    async def fetch() -> int:
        if getattr(args, "fleet", False):
            # Per-worker resilience view from a fleet acceptor: liveness,
            # restart counts, and each worker's circuit-breaker state.
            client = await FrontendClient.connect(args.host, ports[0])
            try:
                reply = await client.request({"op": "fleet"})
            finally:
                await client.aclose()
            if reply.get("ok") is not True:
                print(f"error: {reply.get('message')}", file=sys.stderr)
                return 1
            workers = reply.get("workers", {})
            print(
                f"fleet: {len(workers)} worker(s), "
                f"{reply.get('restarts', 0)} restart(s), "
                f"{reply.get('reroutes', 0)} reroute(s), "
                f"{reply.get('timeouts', 0)} timeout(s)"
            )
            header = (
                f"{'worker':<12} {'pid':>7} {'port':>6} {'alive':>5} "
                f"{'restarts':>8} {'breaker':>9} {'fails':>5} "
                f"{'backoff-ms':>10}"
            )
            print(header)
            for name in sorted(workers):
                info = workers[name]
                breaker = info.get("breaker", {})
                print(
                    f"{name:<12} {info.get('pid') or '-':>7} "
                    f"{info.get('port') or '-':>6} "
                    f"{str(bool(info.get('alive'))).lower():>5} "
                    f"{info.get('restarts', 0):>8} "
                    f"{breaker.get('state', '-'):>9} "
                    f"{breaker.get('consecutive_failures', 0):>5} "
                    f"{breaker.get('backoff_ms', 0):>10.0f}"
                )
            return 0
        if args.prometheus:
            # Fetch every port's exposition and merge them into one
            # (fleet workers each export their own, labelled source).
            from .obs.export import merge_expositions

            texts = []
            for port in ports:
                client = await FrontendClient.connect(args.host, port)
                try:
                    reply = await client.prometheus()
                finally:
                    await client.aclose()
                if reply.get("ok") is not True:
                    print(f"error: {reply.get('message')}", file=sys.stderr)
                    return 1
                texts.append(reply["prometheus"])
            print(merge_expositions(texts) if len(texts) > 1 else texts[0], end="")
            return 0
        client = await FrontendClient.connect(args.host, ports[0])
        try:
            reply = await client.trace(limit=args.limit)
            if reply.get("ok") is not True:
                print(f"error: {reply.get('message')}", file=sys.stderr)
                return 1
            traces = reply.get("traces", [])
            print(
                f"{len(traces)} trace(s) "
                f"(kept {reply.get('kept')}, dropped {reply.get('dropped')}, "
                f"started {reply.get('started')})"
            )
            for trace in traces:
                print()
                print(
                    f"trace {trace['trace_id']}  {trace['duration_ms']:.2f} ms"
                    f"  kept={trace['kept']}  spans={len(trace['spans'])}"
                )
                for root in span_roots(trace):
                    render_span(root, 1)
            return 0
        finally:
            await client.aclose()

    return asyncio.run(fetch())


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a hospital document")
    gen.add_argument("--patients", type=int, default=50)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out")
    gen.add_argument("--pretty", action="store_true")
    gen.set_defaults(func=cmd_generate)

    val = sub.add_parser("validate", help="validate a document against a DTD")
    val.add_argument("document")
    val.add_argument("dtd")
    val.set_defaults(func=cmd_validate)

    qry = sub.add_parser("query", help="run a (regular) XPath query")
    qry.add_argument("document")
    qry.add_argument("query")
    qry.add_argument("--algorithm", choices=ALGORITHMS, default=HYPE)
    qry.set_defaults(func=cmd_query)

    mat = sub.add_parser("materialize", help="materialise a view")
    mat.add_argument("spec")
    mat.add_argument("document")
    mat.add_argument("--out")
    mat.add_argument("--pretty", action="store_true")
    mat.set_defaults(func=cmd_materialize)

    vq = sub.add_parser("view-query", help="answer a query on a virtual view")
    vq.add_argument("spec")
    vq.add_argument("document")
    vq.add_argument("query")
    vq.add_argument("--algorithm", choices=ALGORITHMS, default=HYPE)
    vq.set_defaults(func=cmd_view_query)

    rwr = sub.add_parser("rewrite", help="show the rewriting of a view query")
    rwr.add_argument("spec")
    rwr.add_argument("query")
    rwr.add_argument("--to", choices=("xreg", "mfa"), default="mfa")
    rwr.set_defaults(func=cmd_rewrite)

    srv = sub.add_parser(
        "serve-batch", help="answer many queries in one shared document pass"
    )
    srv.add_argument("document")
    srv.add_argument("queries", nargs="+", metavar="QUERY")
    srv.add_argument("--spec", help="view-spec file; queries become view queries")
    srv.add_argument("--algorithm", choices=ALGORITHMS, default=HYPE)
    srv.add_argument("--limit", type=int, default=10)
    srv.add_argument(
        "--plan-dir",
        help="persistent plan store directory (restarts reuse compiled plans)",
    )
    srv.add_argument(
        "--doc-dir",
        help="persistent document-index directory (restarts reuse "
        "OptHyPE indexes; documents shared by content hash)",
    )
    srv.set_defaults(func=cmd_serve_batch)

    wrm = sub.add_parser(
        "warm", help="precompile queries into a persistent plan store"
    )
    wrm.add_argument(
        "--plan-dir", required=True, help="plan store directory to populate"
    )
    wrm.add_argument(
        "--spec", help="view-spec file the QUERY list rewrites over"
    )
    wrm.add_argument(
        "queries",
        nargs="*",
        metavar="QUERY",
        help="queries to precompile (default: the hospital traffic workload)",
    )
    wrm.add_argument(
        "--gc",
        action="store_true",
        help="first remove stale (old-format) and corrupt artifact files",
    )
    wrm.add_argument(
        "--doc-dir",
        help="document-tier directory to sweep as well when --gc is given "
        "(old or damaged index records, retired layout sidecars)",
    )
    wrm.set_defaults(func=cmd_warm)

    sfr = sub.add_parser(
        "serve-front",
        help="boot the asyncio NDJSON front-end with admission control",
    )
    sfr.add_argument("--document", help="XML file to serve (default: generated)")
    sfr.add_argument("--spec", help="view-spec file (registers tenant 'cli')")
    sfr.add_argument("--patients", type=int, default=60)
    sfr.add_argument("--seed", type=int, default=0)
    sfr.add_argument("--tenants", type=int, default=4)
    sfr.add_argument("--host", default="127.0.0.1")
    sfr.add_argument("--port", type=int, default=7407)
    sfr.add_argument("--max-wave", type=int, default=8)
    sfr.add_argument("--max-wait-ms", type=float, default=20.0)
    sfr.add_argument(
        "--pool-size",
        type=int,
        default=DEFAULT_POOL_SIZE,
        help="bound on concurrently evaluating waves/requests",
    )
    sfr.add_argument(
        "--max-pending",
        type=int,
        default=DEFAULT_MAX_PENDING,
        help="per-connection cap on in-flight queries (backpressure)",
    )
    sfr.add_argument(
        "--max-line-bytes",
        type=int,
        default=1 << 20,
        help="cap on one NDJSON request line; oversized lines get a "
        "structured invalid-request reply and the connection closes",
    )
    sfr.add_argument(
        "--faults",
        help="fault-injection plan (inline JSON or a file path); "
        "deterministic, inert unless set",
    )
    sfr.add_argument(
        "--plan-dir",
        help="persistent plan store directory (restarts start warm)",
    )
    sfr.add_argument(
        "--doc-dir",
        help="persistent document-index directory (restarts skip index builds)",
    )
    sfr.add_argument(
        "--trace-sample",
        type=float,
        default=None,
        metavar="RATE",
        help="enable request tracing, keeping this fraction of traces "
        "(errored and slow traces are always kept)",
    )
    sfr.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="slow-query threshold: slower requests are always traced "
        "and logged",
    )
    sfr.add_argument(
        "--access-log",
        default=None,
        metavar="FILE",
        help="append one NDJSON entry per request to FILE "
        "(trace-correlated; without it --slow-ms logs slow/errored "
        "requests to stderr)",
    )
    sfr.set_defaults(func=cmd_serve_front)

    flt = sub.add_parser(
        "serve-fleet",
        help="boot the acceptor + N-worker fleet over the multidoc workload",
    )
    flt.add_argument("--workers", type=int, default=3)
    flt.add_argument("--patients", type=int, default=60)
    flt.add_argument("--terms", type=int, default=48)
    flt.add_argument("--tenants", type=int, default=4)
    flt.add_argument("--seed", type=int, default=0)
    flt.add_argument("--algorithm", choices=ALGORITHMS, default=HYPE)
    flt.add_argument("--host", default="127.0.0.1")
    flt.add_argument("--port", type=int, default=7408)
    flt.add_argument("--max-wave", type=int, default=8)
    flt.add_argument("--max-wait-ms", type=float, default=20.0)
    flt.add_argument(
        "--pool-size",
        type=int,
        default=None,
        help="per-worker bound on concurrently evaluating waves",
    )
    flt.add_argument(
        "--plan-dir",
        help="persistent plan store directory shared by every worker",
    )
    flt.add_argument(
        "--doc-dir",
        help="persistent document-index directory shared by every worker",
    )
    flt.add_argument(
        "--access-log",
        help="per-worker NDJSON access-log path; '{worker}' expands to "
        "the worker name",
    )
    flt.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="seconds the acceptor waits for a worker reply before "
        "rerouting the (unacknowledged) request",
    )
    flt.add_argument(
        "--faults",
        help="fault-injection plan (inline JSON or a file path); "
        "exported to workers via the environment",
    )
    flt.set_defaults(func=cmd_serve_fleet)

    obs = sub.add_parser(
        "obs",
        help="pretty-print traces or metrics from a running serve-front",
    )
    obs.add_argument("--host", default="127.0.0.1")
    obs.add_argument(
        "--port",
        type=int,
        nargs="+",
        default=[7407],
        help="front-end port(s); with --prometheus, several ports are "
        "fetched and merged into one exposition",
    )
    obs.add_argument(
        "--limit", type=int, default=None, help="newest N traces only"
    )
    obs.add_argument(
        "--prometheus",
        action="store_true",
        help="print the Prometheus text exposition instead of traces",
    )
    obs.add_argument(
        "--fleet",
        action="store_true",
        help="print the fleet resilience view (liveness, restarts, "
        "per-worker circuit-breaker state) from a fleet acceptor",
    )
    obs.set_defaults(func=cmd_obs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
