"""Structural guards on the serving stack (AST walks, no execution).

Like ``test_descend_is_the_only_descent_loop``: the serving stack has
ONE path per job, and a second copy growing back next to it fails here.

* every query takes the wave path — ``service.py`` hands evaluation to
  the pool, builds a ``QueryAnswer`` and records a served request in
  exactly one place each, and a grant is a record, never ``grant[6]``;
* one accept-side line loop under ``serve/``
  (:class:`repro.serve.lines.LineServer`);
* one SIGTERM → drain → close loop
  (:func:`repro.serve.lines.serve_until_drained`).
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import pytest

import repro

SRC = Path(inspect.getfile(repro)).parent
SERVE = sorted((SRC / "serve").glob("*.py"))

#: Loops that read *replies* (a client of some server), by function name.
CLIENT_READERS = {"_read_replies"}


def calls(tree: ast.AST):
    return (node for node in ast.walk(tree) if isinstance(node, ast.Call))


def functions(tree: ast.AST):
    return (
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text())


def is_pool_handoff(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr in ("execute", "dispatch")
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "pool"
    )


def test_service_evaluates_and_accounts_in_one_place():
    tree = parse(SRC / "serve" / "service.py")
    handoffs = [call.lineno for call in calls(tree) if is_pool_handoff(call)]
    answers = [
        call.lineno
        for call in calls(tree)
        if isinstance(call.func, ast.Name) and call.func.id == "QueryAnswer"
    ]
    recorded = [
        call.lineno
        for call in calls(tree)
        if isinstance(call.func, ast.Attribute)
        and call.func.attr == "record_request"
    ]
    assert len(handoffs) == 1, handoffs
    assert len(answers) == 1, answers
    assert len(recorded) == 1, recorded


def test_only_the_service_hands_work_to_the_pool():
    owners = [
        path.name
        for path in SERVE
        for call in calls(parse(path))
        if is_pool_handoff(call)
    ]
    assert owners == ["service.py"]


def test_grants_are_never_indexed_positionally():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in SERVE
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "grant"
        and isinstance(node.slice, ast.Constant)
        and isinstance(node.slice.value, int)
    ]
    assert offenders == []


def test_one_accept_side_line_loop():
    loops = []
    for path in SERVE:
        for function in functions(parse(path)):
            if function.name in CLIENT_READERS:
                continue
            for loop in ast.walk(function):
                if isinstance(loop, ast.While) and any(
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr == "readline"
                    for call in calls(loop)
                ):
                    loops.append(f"{path.name}:{function.name}")
    assert loops == ["lines.py:_handle_client"]


def test_sigterm_is_registered_in_one_function():
    registrars = []
    for path in [SRC / "cli.py", *SERVE]:
        for function in functions(parse(path)):
            if any(
                isinstance(node, ast.Attribute) and node.attr == "SIGTERM"
                for node in ast.walk(function)
            ):
                registrars.append(f"{path.name}:{function.name}")
    assert registrars == ["lines.py:serve_until_drained"]


# ----------------------------------------------------------------------
# The CLI parses arguments; a counter is declared once (PR 18)
# ----------------------------------------------------------------------
def test_cli_hosts_no_bench_or_smoke_driver():
    tree = parse(SRC / "cli.py")
    coroutines = [
        node.name for node in tree.body if isinstance(node, ast.AsyncFunctionDef)
    ]
    drivers = [
        function.name
        for function in functions(tree)
        if function.name.startswith("cmd_bench_") or function.name.endswith("_smoke")
    ]
    assert coroutines == []
    assert drivers == []


def test_serving_and_obs_never_import_the_bench_package():
    offenders = []
    for path in [*SERVE, *sorted((SRC / "obs").glob("*.py"))]:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
            elif isinstance(node, ast.Import):
                module = " ".join(alias.name for alias in node.names)
            else:
                continue
            if "bench" in module.split("."):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def string_literals(function: ast.AST) -> set[str]:
    return {
        node.value
        for node in ast.walk(function)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_table_families_are_spelled_only_in_the_table():
    """``render_prometheus`` and ``MetricsSnapshot.as_dict`` walk the
    declarations; neither spells a table row's family (nor ``as_dict``
    a row's attribute) by hand."""
    from repro.obs.export import FAMILIES

    families = {row.family for row in FAMILIES}
    attributes = {row.attribute for row in FAMILIES}
    snapshot_class = next(
        node
        for node in ast.walk(parse(SRC / "serve" / "metrics.py"))
        if isinstance(node, ast.ClassDef) and node.name == "MetricsSnapshot"
    )
    for name, scope, forbidden in (
        ("render_prometheus", parse(SRC / "obs" / "export.py"), families),
        ("as_dict", snapshot_class, families | attributes),
    ):
        (walker,) = [f for f in functions(scope) if f.name == name]
        assert string_literals(walker) & forbidden == set(), name


def test_no_snapshot_copies_fields_positionally():
    """A ``snapshot()`` is ``replace(self, ...)`` (or the ``Counters``
    base): adding a field never means editing one."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for function in functions(parse(path)):
            if function.name != "snapshot":
                continue
            for call in calls(function):
                own_fields = [
                    arg
                    for arg in call.args
                    if isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == "self"
                ]
                if len(own_fields) >= 3:
                    offenders.append(f"{path.name}:{call.lineno}")
    assert offenders == []


# ----------------------------------------------------------------------
# A tier is written once (PR 20)
# ----------------------------------------------------------------------
LIBRARY = sorted(SRC.rglob("*.py"))
TIER = "tier.py"

#: Modules that open files the tier does not own, by relative path: the
#: CLI reads and writes *user-named* files, the access log appends to one.
FILE_IO_EXEMPT = {"cli.py", "obs/log.py"}

#: Attribute calls that read, write or map a file.
FILE_IO_ATTRIBUTES = {
    "read_bytes",
    "read_text",
    "write_bytes",
    "write_text",
    "replace",
    "rename",
    "mmap",
}


def relative(path: Path) -> str:
    return path.relative_to(SRC).as_posix()


def is_file_io(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    if not isinstance(func, ast.Attribute) or func.attr not in FILE_IO_ATTRIBUTES:
        return False
    if func.attr in ("replace", "rename", "mmap"):
        # os.replace / os.rename / mmap.mmap — not str.replace.
        return isinstance(func.value, ast.Name) and func.value.id in ("os", "mmap")
    return True


def is_lock_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func).endswith("Lock")


def test_file_io_happens_in_the_tier_module_only():
    """ROADMAP's seam-coverage test: a read or write site outside
    ``repro.tier`` (whose every read and write names its fault seam)
    fails here."""
    sites = {
        relative(path)
        for path in LIBRARY
        for call in calls(parse(path))
        if is_file_io(call)
    }
    assert sites - FILE_IO_EXEMPT == {TIER}
    assert FILE_IO_EXEMPT <= sites  # the exemptions are still needed


def test_every_tier_read_and_write_names_a_registered_seam():
    """``FileTier.read`` / ``write`` are called with a literal seam name
    and every such name is in the ``repro.faults`` table."""
    import repro.faults

    named = set()
    for path in LIBRARY:
        for call in calls(parse(path)):
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("read", "write")
                and ast.unparse(func.value) in ("self", "self._tier")
                and len(call.args) >= 2
            ):
                seam = call.args[1] if func.attr == "read" else call.args[2]
                assert isinstance(seam, ast.Constant), relative(path)
                named.add(seam.value)
    assert named == {
        "plan-store.load",
        "plan-store.save",
        "doc-tier.load",
        "doc-tier.save",
    }
    assert all(f"``{seam}``" in repro.faults.__doc__ for seam in named)


def test_one_copy_of_each_tier_discipline():
    """Exactly one ``os.replace``, one temporary-file name, one per-key
    gate and one evicting ``popitem`` under ``src/repro`` — all in the
    tier module."""
    replaces, temporaries, evictions, gates = [], [], [], []
    for path in LIBRARY:
        tree = parse(path)
        where = relative(path)
        for call in calls(tree):
            func = call.func
            if not isinstance(func, ast.Attribute):
                continue
            if is_file_io(call) and func.attr == "replace":
                replaces.append(where)
            if func.attr == "popitem":
                evictions.append(where)
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr) and any(
                isinstance(part, ast.Constant) and ".tmp." in part.value
                for part in node.values
            ):
                temporaries.append(where)
            if (
                isinstance(node, ast.Assign)
                and is_lock_call(node.value)
                and any(isinstance(target, ast.Subscript) for target in node.targets)
            ):
                gates.append(where)
    assert replaces == [TIER]
    assert temporaries == [TIER]
    assert evictions == [TIER]
    assert gates == [TIER]


def test_the_replaced_copies_are_gone():
    from repro.compile.store import PlanStore
    from repro.docstore.store import DocStoreStats, DocumentStore
    from repro.serve.cache import ComposedCache, PlanCache

    for owner, names in (
        (PlanCache, ("put", "get_or_create", "invalidate", "_store", "_resolve")),
        (PlanStore, ("_count",)),
        (DocumentStore, ("_get", "_insert", "_alias")),
    ):
        assert [name for name in names if hasattr(owner, name)] == []
    assert "count" not in vars(DocStoreStats)  # the one in Counters serves
    assert "__post_init__" not in vars(DocStoreStats)  # no private lock
    for owner in (PlanCache, ComposedCache):
        parameters = inspect.signature(owner).parameters
        assert not [name for name in parameters if "composed" in name or "ccfg" in name]
    assert "capacity" not in inspect.signature(ComposedCache).parameters


def test_nothing_maps_a_file():
    """The sidecar was the only mapped kind: every tier read is a plain
    read now, and nothing under ``src/repro`` imports :mod:`mmap`."""
    importers = [
        relative(path)
        for path in LIBRARY
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "mmap" for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "mmap"
    ]
    assert importers == []


def imported_modules(path: Path):
    """Every module a file imports, relative imports made absolute, and
    ``module.name`` for each name a ``from`` import takes."""
    package = ["repro", *path.relative_to(SRC).parent.parts]
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join([*base, *filter(None, [node.module])])
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_nothing_imports_the_composed_machine():
    modules = {module for path in LIBRARY for module in imported_modules(path)}
    assert "repro.views.compose" in modules, "the walk is broken"
    assert not (SRC / "hype" / "compose.py").exists()
    assert [
        relative(path)
        for path in LIBRARY
        if any(
            module == "repro.hype.compose" or module.startswith("repro.hype.compose.")
            for module in imported_modules(path)
        )
    ] == []


# What is left of wave composition is inert: accepted, read, and without
# effect.  The frozen end-to-end harness touches exactly these.
def test_batch_evaluator_ignores_groups_and_composer():
    from repro.hype.api import compile_plan
    from repro.serve.batch import BatchEvaluator
    from repro.workloads import HospitalConfig, generate_hospital_document

    tree = generate_hospital_document(HospitalConfig(num_patients=3, seed=1))
    plans = [compile_plan(q) for q in ("//patient", "//patient/pname", "//record")]
    plain = BatchEvaluator(plans).run(tree.root)
    inert = BatchEvaluator(
        plans, groups=[(0, 1, 2)], composer=lambda members: None
    ).run(tree.root)
    assert [r.ids for r in inert] == [r.ids for r in plain]
    assert [r.stats for r in inert] == [r.stats for r in plain]
    assert inert.stats == plain.stats
    assert inert.stats.composed_fallbacks == 0


def test_service_compose_is_inert(hospital_doc):
    from repro.serve.service import QueryService

    with QueryService(hospital_doc, compose=True) as service:
        assert service.compose is False
        service.register_tenant("admin", None)
        before = service.submit("admin", "//patient")
        service.compose = True  # settable, and changes nothing
        after = service.submit("admin", "//patient")
    assert (after.ids(), after.stats) == (before.ids(), before.stats)


def test_snapshot_composed_properties_read_zero(hospital_doc):
    from repro.serve.service import QueryRequest, QueryService

    with QueryService(hospital_doc) as service:
        service.register_tenant("admin", None)
        service.submit_many(
            [QueryRequest("admin", "//patient"), QueryRequest("admin", "//patient/pname")]
        )
        snapshot = service.metrics_snapshot()
    names = ("composed_hits", "composed_builds", "composed_fallbacks", "interned_ccfgs")
    assert [getattr(snapshot, name) for name in names] == [0, 0, 0, 0]
    assert not [key for key in snapshot.as_dict() if "compos" in key or "ccfg" in key]


def test_composed_cache_is_inert():
    from repro.serve.cache import ComposedCache, PlanCache

    cache = ComposedCache()
    assert cache.kernel_for([], (), "hype", doc_key="d") is None
    assert cache.stats.builds == 0
    assert isinstance(PlanCache().composed, ComposedCache)


# ----------------------------------------------------------------------
# Socket I/O: every asyncio stream read / write under serve/ is a named
# site — the server-side ones behind their fault seams, so a chaos plan
# reaches every line a worker serves and every request the acceptor
# forwards — or a named exemption.
# ----------------------------------------------------------------------
#: Stream calls that move bytes (``StreamReader`` / ``StreamWriter``).
STREAM_CALLS = {"read", "readline", "readexactly", "readuntil", "write", "writelines"}

#: Receivers that are not sockets: blocking stdio, and the worker's
#: spawn handshake over its pipes.
NOT_SOCKETS = re.compile(r"^(sys\.|self\.proc\.)")

#: site (module, function qualname, call) -> (module, function, fault
#: point) of the seam it sits behind.
FRONTEND_MESSAGE = ("frontend.py", "QueryFrontend.reply_for", "worker.message")
WORKER_CONNECT = ("fleet.py", "WorkerHandle.call", "worker.connect")
GUARDED_SITES = {
    # Every line a frontend reads goes to reply_for; every reply it
    # writes is reply_for's (or the gate's refusal of that line).
    ("lines.py", "LineServer._handle_client", "reader.readline"): FRONTEND_MESSAGE,
    ("lines.py", "LineServer._send", "writer.write"): FRONTEND_MESSAGE,
    # The acceptor writes a request only past the seam, and reads only
    # the replies to what it wrote.
    ("fleet.py", "WorkerHandle.call", "self._writer.write"): WORKER_CONNECT,
    ("fleet.py", "WorkerHandle._read_replies", "self._reader.readline"): WORKER_CONNECT,
}

#: Named exemptions: (module, outermost class or function) -> why.
EXEMPT_SITES = {
    ("frontend.py", "FrontendClient"): "the protocol's client, not a server",
    ("lines.py", "_linger"): "drains a dropped connection; parses nothing",
}


def stream_sites() -> dict[tuple[str, str, str], int]:
    """Every socket stream call under ``serve/``: (module, enclosing
    function qualname, ``receiver.method``) -> line."""
    sites = {}

    def visit(node: ast.AST, scope: tuple[str, ...], module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,), module)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in STREAM_CALLS
            ):
                receiver = ast.unparse(child.func.value)
                if not NOT_SOCKETS.match(receiver + "."):
                    key = (module, ".".join(scope), f"{receiver}.{child.func.attr}")
                    sites[key] = child.lineno
            visit(child, scope, module)

    for path in SERVE:
        visit(parse(path), (), path.name)
    return sites


def function_named(module: str, qualname: str) -> ast.AST:
    owner, name = qualname.split(".")
    (klass,) = [
        node
        for node in ast.walk(parse(SRC / "serve" / module))
        if isinstance(node, ast.ClassDef) and node.name == owner
    ]
    (function,) = [node for node in functions(klass) if node.name == name]
    return function


def fault_fires(function: ast.AST) -> dict[str, int]:
    """Fault points ``function`` fires -> line."""
    return {
        call.args[0].value: call.lineno
        for call in calls(function)
        if isinstance(call.func, ast.Name)
        and call.func.id in ("fire", "_fault_fire")
        and call.args
        and isinstance(call.args[0], ast.Constant)
    }


def exemption(site: tuple[str, str, str]) -> tuple[str, str]:
    module, qualname, _call = site
    return module, qualname.split(".")[0]


def test_every_socket_io_site_is_guarded_or_exempt():
    sites = stream_sites()
    unnamed = [
        (site, line)
        for site, line in sites.items()
        if site not in GUARDED_SITES and exemption(site) not in EXEMPT_SITES
    ]
    assert not unnamed, f"socket I/O outside the allowlist: {unnamed}"
    assert set(GUARDED_SITES) <= set(sites), "a guarded site moved: update the table"


def test_each_guarded_site_sits_behind_its_fault_point():
    for site, (module, qualname, point) in GUARDED_SITES.items():
        assert f"``{point}``" in repro.faults.__doc__, point
        fired = fault_fires(function_named(module, qualname))
        assert point in fired, f"{qualname} no longer fires {point!r}"
        if site[:2] == (module, qualname):
            # Same function: the seam comes before the bytes move.
            assert fired[point] < stream_sites()[site], site
    # reply_for fires its seam before it looks at the message, and the
    # line loop hands every line it serves to reply_for.
    reply_for = function_named(*FRONTEND_MESSAGE[:2])
    first = reply_for.body[1] if ast.get_docstring(reply_for) else reply_for.body[0]
    assert "worker.message" in ast.unparse(first)
    serve = function_named("lines.py", "LineServer._serve")
    assert any(
        isinstance(call.func, ast.Attribute) and call.func.attr == "reply_for"
        for call in calls(serve)
    )


@pytest.mark.parametrize("exempt", sorted(EXEMPT_SITES), ids="/".join)
def test_each_exemption_still_exists(exempt):
    """An exemption whose site is gone is deleted, not kept."""
    assert exempt in {exemption(site) for site in stream_sites()}
