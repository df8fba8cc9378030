"""The in-place, aliased dense closure against its all-columns reference.

``repro.hype.kernel.close`` closes a plan's table in place and computes,
per cfg, the OTHER column once plus the columns some state of the cfg
names — every other column aliases to OTHER.  The reference below is
the closure as it was before: a breadth-first sweep that computes every
(cfg, column) pair in a scratch plan and emits the v3 payload directly.
Persisted bytes, the closed table, and the answers of every executable
built from it must not be able to tell the two apart.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.automata.compile import compile_query
from repro.compile.artifact import PlanArtifact
from repro.compile.pipeline import QueryCompiler
from repro.docstore import IndexedDocument
from repro.hype.api import HYPE
from repro.hype.core import CompiledPlan
from repro.hype.kernel import DEAD, OTHER_LABEL, close, kernel_payload
from repro.serve.cache import PlanCache
from repro.views import sigma0
from repro.workloads import FIG8, VIEW_QUERIES, HospitalConfig
from repro.workloads import generate_hospital_document
from repro.workloads.adversarial import CANARY_QUERY, bomb_family, sigma0_variant
from repro.xtree.build import document, element, text_node

from .oracle import reference
from .strategies import CHURN, paths


def reference_payload(mfa, max_cfgs: int = 256) -> dict:
    """The all-columns closure BFS (kept verbatim as the reference)."""
    plan = CompiledPlan(mfa)
    kern = plan.kernel
    labels = sorted(kern.alphabet)
    columns = labels + [OTHER_LABEL]
    sets: dict = {}
    set_rows: list[list[int]] = []

    def set_id(fs) -> int:
        idx = sets.get(fs)
        if idx is None:
            idx = sets[fs] = len(set_rows)
            set_rows.append(sorted(fs))
        return idx

    root = kern.root_cfg(plan, None)
    trans_rows: list[list[int]] = []
    seen = {DEAD}
    queue: list[int] = []
    if root != DEAD:
        seen.add(root)
        queue.append(root)
    head = 0
    while head < len(queue):
        cfg = queue[head]
        head += 1
        mstates = kern.cfg_mstates[cfg]
        relevant = kern.cfg_relevant[cfg]
        for label_i, label in enumerate(columns):
            (
                base_v, _base_idv, mstates_v, m_idv, relevant_v, r_idv, watch,
                _has_final, _has_ann,
            ) = plan._compute_child_sets(mstates, relevant, label)
            if not mstates_v and not relevant_v:
                child = DEAD
            else:
                child = kern.cfg_of(mstates_v, m_idv, relevant_v, r_idv, watch)
            trans_rows.append([cfg, label_i, set_id(base_v), child])
            if child not in seen:
                seen.add(child)
                if len(seen) <= max_cfgs:
                    queue.append(child)
    cfg_rows = [
        [
            set_id(kern.cfg_mstates[cfg]),
            set_id(kern.cfg_relevant[cfg]),
            [[watcher, target] for watcher, target in kern.cfg_watch[cfg]],
        ]
        for cfg in range(len(kern.cfg_packed))
    ]
    return {"labels": labels, "sets": set_rows, "cfgs": cfg_rows, "trans": trans_rows}


def _golden() -> list:
    spec = sigma0()
    cases = [pytest.param(spec, query, id=f"churn-{i}") for i, query in enumerate(CHURN)]
    cases += [
        pytest.param(spec, query, id=f"view-{name}")
        for name, query in sorted(VIEW_QUERIES.items())
    ]
    cases += [
        pytest.param(None, query, id=name) for name, query in sorted(FIG8.items())
    ]
    cases += [
        pytest.param(None, query, id=f"bomb-{depth}")
        for depth, query in enumerate(bomb_family(4), start=1)
    ]
    cases.append(pytest.param(sigma0_variant(), CANARY_QUERY, id="poison-canary"))
    return cases


class TestPersistedBytes:
    @pytest.mark.parametrize("spec, query", _golden())
    def test_artifact_bytes_equal_the_reference(self, spec, query):
        """``to_bytes()`` of a compiled artifact — the payload encoded on
        demand from the closed tables — equals the bytes of the same
        artifact carrying the reference closure's payload."""
        artifact = QueryCompiler().compile(spec, query)
        assert isinstance(artifact.closure, CompiledPlan)
        reference = PlanArtifact(
            mfa=artifact.mfa,
            normalized_query=artifact.normalized_query,
            view_fingerprint=artifact.view_fingerprint,
            description=artifact.description,
            closure=reference_payload(artifact.mfa),
        )
        assert artifact.to_bytes() == reference.to_bytes()

    @pytest.mark.parametrize("max_cfgs", [1, 2, 3, 5])
    def test_a_truncated_closure_encodes_like_the_reference(self, max_cfgs):
        """``max_cfgs`` cuts the sweep short at the same cfg, and what
        the plan mints while it runs afterwards is not the closure's."""
        query = CHURN[-1]
        mfa = QueryCompiler().compile(sigma0(), query).mfa
        plan = CompiledPlan(mfa)
        expected = reference_payload(mfa, max_cfgs)
        assert kernel_payload(plan, max_cfgs) == expected
        tree = generate_hospital_document(HospitalConfig(num_patients=6, seed=3))
        plan.run(tree.root)  # fills the rest lazily, minting further cfgs
        assert len(plan.kernel.cfg_packed) >= len(expected["cfgs"])
        assert kernel_payload(plan, max_cfgs) == expected

    @given(paths())
    @settings(max_examples=60, deadline=None)
    def test_random_queries_encode_like_the_reference(self, query):
        mfa = compile_query(query)
        assert kernel_payload(CompiledPlan(mfa)) == reference_payload(mfa)


class TestClosedTable:
    @pytest.mark.parametrize("spec, query", _golden())
    def test_closed_entries_are_what_lazy_lookups_fill(self, spec, query):
        """Every ``(cfg, label)`` of a closed plan's ``trans`` — aliased
        columns included — holds the word a lazy ``lookup_trans`` on a
        fresh plan of the same MFA computes for that pair."""
        mfa = QueryCompiler().compile(spec, query).mfa
        closed = CompiledPlan(mfa)
        close(closed)
        lazy = CompiledPlan(mfa)
        theirs, mine = closed.kernel, lazy.kernel

        def structure(kern, packed):
            cfg = packed >> 2
            return (
                kern.cfg_mstates[cfg], kern.cfg_relevant[cfg],
                kern.cfg_watch[cfg], packed & 3,
            )

        order, _children, _bases, num_cfgs = theirs.closure
        assert num_cfgs == len(theirs.cfg_packed)
        columns = sorted(theirs.alphabet) + [OTHER_LABEL]
        assert len(theirs.trans) == len(order) * len(columns)
        for cfg in order:
            twin = mine.cfg_of(
                *lazy._intern(theirs.cfg_mstates[cfg]),
                *lazy._intern(theirs.cfg_relevant[cfg]),
                theirs.cfg_watch[cfg],
            )
            for label in columns:
                assert structure(theirs, theirs.trans[(cfg, label)]) == structure(
                    mine, mine.lookup_trans(lazy, twin, label)
                )


def _copy(node):
    """A fresh copy of ``node``'s subtree (a frozen node belongs to its
    tree for good)."""
    if node.is_text:
        return text_node(node.value)
    return element(node.label, *map(_copy, node.children))


def _relabelled(tree):
    """``tree``'s hospital re-rooted (a copy) under a wrapper of
    never-seen tags, siblings in another order: label ids are interned
    differently."""
    return document(
        element(
            "zz-archive",
            element("zz-note", text_node("x")),
            *[_copy(kid) for kid in reversed(tree.root.children) if kid.is_element],
        )
    )


class TestExecutables:
    def test_hype_executable_survives_unseen_labels(self):
        """One closed plan over a document whose labels it never named."""
        config = HospitalConfig(num_patients=4, seed=2)
        plain = IndexedDocument(generate_hospital_document(config))
        wrapped = IndexedDocument(_relabelled(generate_hospital_document(config)))
        cached = PlanCache(4).plan(None, "//diagnosis")
        plan = cached.compiled(HYPE, plain.tree, plain)
        assert plan is cached.compiled(HYPE, wrapped.tree, wrapped)
        for doc in (plain, wrapped, plain):
            got = plan.run(doc.tree.root, layout=doc.layout).answers
            assert {n.node_id for n in got} == reference(None, doc.tree, "//diagnosis")
