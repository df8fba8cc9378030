"""A retired name stays retired: one test per row of ``tests/retired.py``.

The rows' kinds say what is checked (see that module): the library's
sources and the wire golden for every name, the seam table and a live
fault plan for seams, ``gc``'s sweep and a restarted boot for file
suffixes, the class body for members.  The boots the seam and suffix
rows read run once per module: a cold and a restarted service over one
plan store and one document tier, with a fault plan naming every
retired seam installed.
"""

from __future__ import annotations

import ast
import re
import shutil
from pathlib import Path

import pytest

import repro
from repro import faults
from repro.compile import PlanStore
from repro.compile.store import PLAN_SUFFIX
from repro.docstore import DOC_FORMAT_VERSION, DOC_INDEX_SUFFIX, DocumentStore
from repro.faults import FaultPlan, FaultRule
from repro.hype.api import ALGORITHMS
from repro.serve.service import QueryService
from repro.tier import RETIRED_SUFFIXES
from repro.views import sigma0
from repro.workloads import VIEW_QUERIES, HospitalConfig, generate_hospital_document
from repro.xtree.serialize import serialize

from .retired import FAMILY, MEMBER, RETIRED, SEAM, SUFFIX, SYMBOL

SRC = Path(repro.__file__).parent
SOURCES = {
    path: path.read_text() for path in sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.c"))
}
GOLDEN = (Path(__file__).parent / "golden" / "wire.json").read_text()
XML = serialize(generate_hospital_document(HospitalConfig(num_patients=3, seed=1)))
QUERIES = sorted(VIEW_QUERIES.values())[:3]
SEAMS = [row.name for row in RETIRED if row.kind == SEAM]
#: What a boot leaves in each directory: the live kind's files only.
LIVE = {"plans": PLAN_SUFFIX, "docs": f".v{DOC_FORMAT_VERSION}{DOC_INDEX_SUFFIX}"}


def spelled_in(name: str) -> list[str]:
    """The sources (and the golden) that spell ``name`` as a word."""
    pattern = re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")
    found = [path.relative_to(SRC).as_posix() for path, text in SOURCES.items()
             if pattern.search(text)]
    return found + (["tests/golden/wire.json"] if pattern.search(GOLDEN) else [])


def members(owner: str) -> set[str]:
    """Every name class ``owner`` under ``src/repro`` defines: methods,
    class-level fields and attributes its methods assign on ``self``."""
    (klass,) = [
        node
        for path, text in SOURCES.items() if path.suffix == ".py"
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef) and node.name == owner
    ]
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


def boot(root: Path) -> tuple[list, dict]:
    """One process's worth of serving over ``root/plans`` and
    ``root/docs``: σ0 queries under every algorithm; the answers and the
    metrics payload, whose tiers counted no failure."""
    store = DocumentStore(index_dir=root / "docs")
    with QueryService(
        store.get(XML), document_store=store, plan_store=PlanStore(root / "plans")
    ) as service:
        service.register_view("research", sigma0())
        service.register_tenant("institute", "research")
        answers = [
            service.submit("institute", query, algorithm).ids()
            for query in QUERIES
            for algorithm in ALGORITHMS
        ]
        snapshot = service.metrics_snapshot().as_dict()
    for tier in ("plan_store", "doc_store"):
        assert (snapshot[tier]["errors"], snapshot[tier]["corrupt"]) == (0, 0), tier
    return answers, snapshot


def live_only(root: Path) -> None:
    """Each directory holds its live kind's files, and nothing else."""
    for directory, suffix in LIVE.items():
        names = [path.name for path in (root / directory).iterdir()]
        assert names and all(
            len(name) == 64 + len(suffix) and name.endswith(suffix) for name in names
        ), (directory, names)


@pytest.fixture(scope="module")
def booted(tmp_path_factory):
    """``(root, answers, schedule)``: a cold and a restarted boot under a
    plan naming every retired seam; each leaves only live files."""
    root = tmp_path_factory.mktemp("retired")
    schedule = faults.install(FaultPlan([FaultRule(seam, "corrupt") for seam in SEAMS]))
    try:
        answers, _snapshot = boot(root)
        live_only(root)
        again, snapshot = boot(root)
        live_only(root)
    finally:
        faults.install(None)
    assert again == answers
    assert snapshot["plan_store"]["hits"] == len(PlanStore(root / "plans")) > 0
    return root, answers, schedule


def test_the_walks_see_live_names(booted):
    _root, _answers, schedule = booted
    assert spelled_in("FileTier") and spelled_in("plan_cache_misses_total")
    assert {"gc", "load", "save"} <= members("PlanStore")
    assert schedule.hits("plan-store.load") and schedule.hits("doc-tier.load")
    assert set(RETIRED_SUFFIXES) == {row.name for row in RETIRED if row.kind == SUFFIX}


def test_no_seam_guards_a_layout_file():
    """The layout is rebuilt from the parse: no seam of any name in the
    table reads or writes one."""
    assert "layout" not in faults.__doc__


def _planted(directory: Path, live_suffix: str, suffix: str) -> Path:
    """A copy of one of the directory's live files under ``suffix``: a
    healthy record beside its own key, only under a retired kind's name."""
    live = sorted(directory.glob(f"*{live_suffix}"))[0]
    path = directory / (live.name[: -len(live_suffix)] + suffix)
    path.write_bytes(live.read_bytes())
    return path


@pytest.mark.parametrize("row", RETIRED, ids=[f"{row.kind}:{row.name}" for row in RETIRED])
def test_a_retired_name_stays_retired(row, booted, tmp_path):
    root, answers, schedule = booted
    if row.kind in (SYMBOL, FAMILY, SEAM):
        assert spelled_in(row.name) == []
    if row.kind == SEAM:
        assert row.name not in faults.__doc__
        assert schedule.hits(row.name) == 0
    if row.kind == MEMBER:
        owner, member = row.name.split(".")
        assert member not in members(owner)
    if row.kind != SUFFIX:
        return
    assert not list(root.rglob(f"*{row.name}"))  # no boot wrote one
    shutil.copytree(root, tmp_path / "copy")
    plans, docs = tmp_path / "copy" / "plans", tmp_path / "copy" / "docs"
    planted = [
        _planted(plans, ".plan.json", row.name),
        _planted(docs, ".docidx.bin", row.name),
    ]
    before = [(path.read_bytes(), path.stat().st_mtime_ns) for path in planted]
    again, snapshot = boot(tmp_path / "copy")
    assert again == answers
    assert snapshot["plan_store"]["hits"] == len(PlanStore(plans))  # loaded, not recompiled
    assert snapshot["doc_store"]["index_builds"] == 0
    assert [(path.read_bytes(), path.stat().st_mtime_ns) for path in planted] == before
    assert PlanStore(plans).gc() == 1
    assert DocumentStore(index_dir=docs).tier.gc() == 1
    assert not any(path.exists() for path in planted)
