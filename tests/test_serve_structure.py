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
    from repro.obs.export import COMPOSED_GAUGES, FAMILIES

    rows = FAMILIES + COMPOSED_GAUGES
    families = {row.family for row in rows}
    attributes = {row.attribute for row in rows}
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
        "doc-tier.load-layout",
        "doc-tier.save-layout",
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


#: Composed tables are no longer persisted: the codec, the store API, the
#: write-back, the fault seams and the wire keys of that kind, by name.
RETIRED_COMPOSED_NAMES = (
    "load_composed",
    "save_composed",
    "composed_payload",
    "preload_composed",
    "check_composed",
    "COMPOSED_SUFFIX",
    "composed_path_for",
    "_decode_composed",
    "_composed_key",
    "_persist_composed",
    "persisted_shape",
    "preloaded_trans",
    "composed_rehydrated",
    "composed_stores",
    "composed_misses",
    "plan-store.load-composed",
    "plan-store.save-composed",
)


@pytest.mark.parametrize("name", RETIRED_COMPOSED_NAMES)
def test_a_retired_composed_persistence_name_is_gone(name):
    pattern = re.compile(rf"(?<![\w-]){re.escape(name)}(?![\w-])")
    assert [
        relative(path) for path in LIBRARY if pattern.search(path.read_text())
    ] == []


#: Members that went with composed persistence (or were only ever called
#: from tests), as (module, class, member).
RETIRED_MEMBERS = (
    ("compile/store.py", "PlanStore", "clear"),
    ("compile/store.py", "StoreStats", "composed_hits"),
    ("engine/smoqe.py", "SMOQE", "cache_stats"),
    ("hype/compose.py", "ComposedKernel", "preloaded"),
    ("serve/cache.py", "ComposedCache", "persist"),
    ("serve/cache.py", "ComposedStats", "rehydrated"),
    ("serve/cache.py", "ComposedStats", "persisted"),
)


def members(klass: ast.ClassDef) -> set[str]:
    """Every name the class defines: methods, class-level fields and
    attributes its methods assign on ``self``."""
    names = set()
    for node in ast.walk(klass):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                names.add(node.attr)
    return names


@pytest.mark.parametrize(
    "module,owner,member",
    RETIRED_MEMBERS,
    ids=[f"{owner}.{member}" for _module, owner, member in RETIRED_MEMBERS],
)
def test_a_retired_member_is_gone(module, owner, member):
    (klass,) = [
        node
        for node in ast.walk(parse(SRC / module))
        if isinstance(node, ast.ClassDef) and node.name == owner
    ]
    names = members(klass)
    assert names, f"{owner} defines nothing: the walk is broken"
    assert member not in names
