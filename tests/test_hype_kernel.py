"""Dense-kernel properties: one loop, one table, persistable closure.

The kernel's acceptance bar: for ANY document and ANY query, the single
:func:`repro.hype.kernel.descend` loop must produce byte-identical
answers and :class:`HyPEStats` across all three algorithm variants,
sequentially and batched — and a plan whose table was *preloaded* from a
persisted :func:`kernel_payload` closure must be indistinguishable from
one that filled lazily.  The payload itself must survive the artifact
codec (format v4) and be rejected structurally when mangled.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import ArtifactError, PlanArtifact, QueryCompiler
from repro.compile.artifact import _validate_kernel
from repro.docstore import IndexedDocument
from repro.hype.api import ALGORITHMS, compile_plan, to_mfa
from repro.hype.compose import ComposedKernel, descend_composed
from repro.hype.core import CompiledPlan, RunCursor
from repro.hype.kernel import OTHER_LABEL, DenseKernel, descend, kernel_payload
from repro.hype.index import build_index
from repro.serve.batch import BatchEvaluator, BatchStats
from repro.workloads import FIG8
from repro.workloads.hospital import HospitalConfig, generate_hospital_document

from .strategies import paths, trees


def _document_plan(query, algorithm, doc):
    """A plan for ``doc``'s label table (what serving builds): asking
    the document for the index also parks its mask column on
    ``doc.layout``; on-demand runs sweep their own."""
    index = None if algorithm == "hype" else doc.index_for(algorithm == "opthype-c")
    return compile_plan(query, algorithm=algorithm, index=index)


def _algorithm_plans(query, doc):
    return [_document_plan(query, algorithm, doc) for algorithm in ALGORITHMS]


class TestOneSharedLoop:
    @given(trees(), paths())
    @settings(max_examples=40, deadline=None)
    def test_batched_lanes_match_sequential_runs(self, tree, query):
        """All three algorithms in ONE batched pass == three sequential
        runs, over on-demand columns and over the document's layout."""
        doc = IndexedDocument(tree)
        plans = _algorithm_plans(query, doc)
        for batch_layout in (None, doc.layout):
            batch = BatchEvaluator(plans).run(tree.root, layout=batch_layout)
            for plan, lane in zip(plans, batch.results):
                solo = plan.run(tree.root, layout=batch_layout)
                assert lane.answers == solo.answers
                assert lane.stats == solo.stats

    def test_descend_is_the_only_descent_loop(self):
        """Structural guard: CompiledPlan.run and BatchEvaluator.run
        both drive repro.hype.kernel.descend, and no other descent
        implementation exists in the library — nor a second document
        mode (the evaluator walks layout columns only) or a second cfg
        codec beside the kernel's."""
        import ast as pyast
        import inspect
        import pathlib

        import repro

        src_root = pathlib.Path(inspect.getfile(repro)).parent
        callers = []
        for path in sorted(src_root.rglob("*.py")):
            tree = pyast.parse(path.read_text())
            for node in pyast.walk(tree):
                if (
                    isinstance(node, pyast.Call)
                    and isinstance(node.func, pyast.Name)
                    and node.func.id == "descend"
                ):
                    callers.append(path.name)
        assert sorted(callers) == ["batch.py", "core.py"]

        def pairs_of(comp, kind, what):
            """``comp`` builds 2-element ``kind`` nodes whose parts
            satisfy ``what`` (the shape of a watch-pair conversion)."""
            elt = comp.elt
            return (
                isinstance(elt, kind)
                and len(elt.elts) == 2
                and all(what(part) for part in elt.elts)
            )

        banned = {"element_children_cached", "columnar", "lookup_column"}
        encoders, decoders = [], []
        evaluator = sorted((src_root / "hype").glob("*.py"))
        evaluator.append(src_root / "serve" / "batch.py")
        for path in evaluator:
            tree = pyast.parse(path.read_text())
            names = {
                getattr(node, "id", None) or getattr(node, "attr", None)
                for node in pyast.walk(tree)
                if isinstance(node, (pyast.Name, pyast.Attribute))
            }
            names |= {
                node.name
                for node in pyast.walk(tree)
                if isinstance(node, pyast.FunctionDef)
            }
            assert not names & banned, (path.name, names & banned)
            for func in pyast.walk(tree):
                if not isinstance(func, pyast.FunctionDef):
                    continue
                for node in pyast.walk(func):
                    if not isinstance(node, (pyast.ListComp, pyast.GeneratorExp)):
                        continue
                    source = node.generators[0].iter
                    # Encoder: ``[[w, t] for w, t in <x>.cfg_watch[...]]``.
                    if (
                        isinstance(source, pyast.Subscript)
                        and getattr(source.value, "attr", None) == "cfg_watch"
                        and pairs_of(node, pyast.List, lambda p: True)
                    ):
                        encoders.append(func.name)
                    # Decoder: ``tuple((int(w), int(t)) for w, t in watch)``.
                    if pairs_of(
                        node,
                        pyast.Tuple,
                        lambda p: isinstance(p, pyast.Call)
                        and getattr(p.func, "id", None) == "int",
                    ):
                        decoders.append(func.name)
        assert encoders == ["encode_cfgs"]
        assert decoders == ["decode_cfgs"]


def _cans(cursor):
    """Everything one lane's descent recorded, by value (the visit
    column holds node ids since the descent stopped creating nodes)."""
    return (
        cursor.visit_ids,
        cursor.visit_parents,
        cursor.visit_mstates,
        cursor.deaths,
        cursor.finals_seen,
    )


class TestWaveLanes:
    """A wave is one lean pass per live lane: nothing a lane records may
    depend on its wavemates, and the shared counters describe the pass
    the wave has in common."""

    @given(
        trees(),
        st.lists(
            st.tuples(paths(), st.sampled_from(ALGORITHMS)),
            min_size=2,
            max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_wave_lanes_equal_sequential_descents(self, tree, members):
        """Mixed-algorithm waves of 2-6 lanes (random paths die at
        different depths): each lane's cans DAG, deaths, answers and
        HyPEStats equal its own one-lane descent, and the shared pass
        visits exactly the union of the lanes' visit sets."""
        doc = IndexedDocument(tree)
        plans = [
            _document_plan(query, algorithm, doc) for query, algorithm in members
        ]
        for layout in (None, doc.layout):
            cursors = [RunCursor(plan) for plan in plans]
            shared = BatchStats()
            descend(list(zip(plans, cursors)), tree.root, layout, shared=shared)
            union: set[int] = set()
            for plan, cursor in zip(plans, cursors):
                solo = RunCursor(plan)
                descend([(plan, solo)], tree.root, layout)
                assert _cans(cursor) == _cans(solo)
                lane, alone = cursor.finish(), solo.finish()
                assert lane.answers == alone.answers
                assert lane.stats == alone.stats
                assert alone.stats == plan.run(tree.root, layout).stats
                union.update(cursor.visit_ids)
            assert shared.visited_elements == len(union)
            examined = sum(
                len(tree.node(node_id).element_children()) for node_id in union
            )
            assert shared.skipped_subtrees == examined - max(len(union) - 1, 0)


class TestRootMemo:
    """The root cfg is derived once: a constant of an index-free plan,
    one entry per root mask key of an indexed one."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_runs_after_the_first_derive_nothing(self, algorithm, monkeypatch):
        """``initial_sets`` takes the context's mask key now (read from
        the run's document), not the context: the memo is per key across
        every document of the executable's label table."""
        tree = generate_hospital_document(HospitalConfig(num_patients=3, seed=5))
        doc = IndexedDocument(tree)
        plan = _document_plan(FIG8["fig8a"], algorithm, doc)
        derived = []
        real = plan.initial_sets
        monkeypatch.setattr(
            plan, "initial_sets", lambda key: derived.append(key) or real(key)
        )
        contexts = [tree.root, tree.root.children[0]]
        fresh = _document_plan(FIG8["fig8a"], algorithm, doc)
        for context in contexts * 3:
            result = plan.run(context, layout=doc.layout)
            expected = fresh.run(context, layout=doc.layout)
            assert result.answers == expected.answers
            assert result.stats == expected.stats
            fresh.kernel.roots.clear()  # the reference derives every time
        mask_keys = doc.layout.mask_keys(plan)
        keys = {None if mask_keys is None else mask_keys[c.node_id] for c in contexts}
        assert len(derived) == len(keys)  # once per key, ever
        assert set(derived) == keys == set(plan.kernel.roots)


class TestPopTable:
    def _doc(self):
        from repro.xtree.build import document, element, text_node

        def a(value):
            return element("a", element("b", text_node(value)))

        return document(element("r", a("x"), a("y"), a("x")))

    def test_text_predicate_resolves_both_outcomes_from_one_entry(self):
        """A cfg whose relevant set carries a ``text()`` predicate used
        to switch its memo off; now both outcomes live in ONE ``pops``
        entry, keyed by the predicate bit observed at the node."""
        tree = self._doc()
        plan = compile_plan("a[b/text() = 'x']")
        for layout in (None, IndexedDocument(tree).layout):
            assert len(plan.run(tree.root, layout).answers) == 2
        kern = plan.kernel
        gated = [entry for entry in kern.pops if entry[0]]
        assert len(gated) == 1, "exactly the cfg of <b> carries the predicate"
        preds, outcomes = gated[0]
        assert [bit for bit, _holds in preds] == [1]
        assert set(outcomes) == {0, 1}
        (_d0, report0, n0), (_d1, report1, n1) = outcomes[0], outcomes[1]
        assert report0 == () and len(report1) == 1  # only 'x' tells <a>
        assert n0 == n1 > 0

    def test_composed_pop_table_gathers_member_predicates(self):
        """The composed machine compiles its pops the same way: one
        ``cpops`` entry gathers both members' ``text()`` predicates, and
        each observed bit pattern resolves every lane in one probe."""
        tree = self._doc()
        plans = [compile_plan(f"a[b/text() = '{v}']") for v in ("x", "y")]
        composed = ComposedKernel(plans)
        for layout in (None, IndexedDocument(tree).layout):
            cursors = [RunCursor(plan) for plan in plans]
            descend_composed(composed, cursors, tree.root, layout)
            assert [len(c.finish().answers) for c in cursors] == [2, 1]
        gated = [entry for entry in composed.cpops if entry[0]]
        assert len(gated) == 1, "exactly the ccfg of <b> carries predicates"
        preds, outcomes = gated[0]
        assert [bit for bit, _holds in preds] == [1, 2]
        assert set(outcomes) == {1, 2}  # 'x' nodes, 'y' nodes
        for bits, lane in ((1, 0), (2, 1)):
            outcome = outcomes[bits]
            assert not outcome.simple
            assert [i for i, _watcher in outcome.report] == [lane]
            assert [i for i, _dead, _n in outcome.entries] == [0, 1]

    def test_pop_frame_is_never_entered_without_child_truths(self, monkeypatch):
        """Truth-free pops are table probes in every loop — lean pass
        (alone and in a wave) and composed."""
        calls = []
        real = DenseKernel.pop_frame

        # A pop reads its predicates off the layout at a node id.
        def checked(self, plan, cfg, columns, node_id, truths):
            assert truths, "pop_frame entered without child truths"
            calls.append(cfg)
            return real(self, plan, cfg, columns, node_id, truths)

        monkeypatch.setattr(DenseKernel, "pop_frame", checked)
        tree = generate_hospital_document(HospitalConfig(num_patients=6, seed=3))
        doc = IndexedDocument(tree)
        layouts = (None, doc.layout)
        queries = sorted(FIG8.values()) + ["//patient[.//diagnosis/text() = 'flu']"]
        for algorithm in ALGORITHMS:
            plans = [_document_plan(query, algorithm, doc) for query in queries]
            for layout in layouts:
                for plan in plans:
                    plan.run(tree.root, layout)
                BatchEvaluator(plans).run(tree.root, layout)
                descend_composed(
                    ComposedKernel(plans),
                    [RunCursor(plan) for plan in plans],
                    tree.root,
                    layout,
                )
        assert calls, "the workload must exercise truth-carrying pops too"

    def test_unseen_labels_store_no_alias(self):
        """A long-lived plan serving documents with ever-new labels must
        not grow: they resolve through the OTHER column, with or without
        a supplied layout, and only alphabet ∪ {OTHER} columns are ever
        stored (a bare-tree run used to keep one alias per label)."""
        from repro.xtree.build import document, element

        plan = compile_plan("//a/b")
        composed = ComposedKernel([plan, compile_plan("//a/c")])
        sizes = []
        for round_ in range(4):
            tree = document(
                element(
                    "r",
                    element("a", element("b"), element("c")),
                    *(element(f"fresh{round_}x{i}") for i in range(50)),
                )
            )
            for layout in (IndexedDocument(tree).layout, None):
                result = plan.run(tree.root, layout)
                assert [n.label for n in result.answers] == ["b"]
                assert result.stats.visited_elements == 54  # r, a, b, c + 50
                cursors = [RunCursor(member) for member in composed.plans]
                descend_composed(composed, cursors, tree.root, layout)
                assert cursors[0].finish().answers == result.answers
                sizes.append((len(plan.kernel.trans), len(composed.trans)))
        assert len(set(sizes)) == 1, sizes
        for kern in (plan.kernel, composed.plans[1].kernel, composed):
            columns = kern.alphabet | {OTHER_LABEL}
            assert kern.trans and {label for _cfg, label in kern.trans} <= columns


class TestPreloadedClosure:
    @given(trees(), paths())
    @settings(max_examples=30, deadline=None)
    def test_preloaded_plan_is_indistinguishable(self, tree, query):
        """A plan rehydrated from a persisted closure answers exactly
        like a lazily-filled one — every algorithm."""
        mfa = to_mfa(query)
        payload = kernel_payload(CompiledPlan(mfa))
        doc = IndexedDocument(tree)
        for algorithm in ALGORITHMS:
            lazy = CompiledPlan.for_algorithm(mfa, algorithm, tree, doc)
            eager = CompiledPlan.for_algorithm(
                mfa, algorithm, tree, doc, kernel=payload
            )
            for run_layout in (None, doc.layout):
                a = lazy.run(tree.root, layout=run_layout)
                b = eager.run(tree.root, layout=run_layout)
                assert a.answers == b.answers
                assert a.stats == b.stats

    def test_preload_installs_the_closure(self):
        mfa = to_mfa("a/b")
        payload = kernel_payload(CompiledPlan(mfa))
        assert payload["trans"], "closure of a/b cannot be empty"
        plan = CompiledPlan(mfa)
        installed = plan.kernel.preload(plan, payload)
        assert installed == len(payload["trans"])
        # Idempotent: a second preload finds every entry present.
        assert plan.kernel.preload(plan, payload) == 0

    def test_payload_requires_an_index_free_plan(self):
        tree = generate_hospital_document(HospitalConfig(num_patients=1, seed=0))
        mfa = to_mfa("//patient")
        indexed = CompiledPlan(mfa, index=build_index(tree, compressed=False))
        with pytest.raises(ValueError):
            kernel_payload(indexed)

    def test_trans_keys_stay_inside_the_alphabet(self):
        """Labels outside the automaton alphabet share ONE transition
        column — the aliasing that keeps the closed table finite and
        document-independent: after serving documents full of
        out-of-alphabet labels, every ``trans`` key of every member
        kernel and of the composed kernel names an alphabet label or
        OTHER, whichever way the documents were handed in."""
        from repro.xtree.build import document, element

        trees = [
            document(
                element(
                    "r",
                    element("a", element("b"), *(element(f"z{n}x{i}") for i in range(6))),
                )
            )
            for n in range(3)
        ]
        for algorithm in ALGORITHMS:
            for tree in trees:
                doc = IndexedDocument(tree)
                plans = [
                    CompiledPlan.for_algorithm(to_mfa(query), algorithm, tree, doc)
                    for query in ("a/b", "a//b")
                ]
                composed = ComposedKernel(plans)
                for layout in (None, doc.layout):
                    for plan in plans:
                        assert plan.run(tree.root, layout).stats.answers == 1
                    BatchEvaluator(plans).run(tree.root, layout)
                    descend_composed(
                        composed,
                        [RunCursor(plan) for plan in plans],
                        tree.root,
                        layout,
                    )
                for kern in (*(plan.kernel for plan in plans), composed):
                    assert not any(l.startswith("z") for l in kern.alphabet)
                    columns = kern.alphabet | {OTHER_LABEL}
                    labels = {label for _cfg, label in kern.trans}
                    assert OTHER_LABEL in labels, "unknown labels were probed"
                    assert labels <= columns


class TestStaleLayoutFallback:
    def test_refrozen_tree_stands_a_rehydrated_layout_down(self, tmp_path):
        """The freeze_count guard must hold for layouts loaded from the
        binary sidecar exactly as for built ones: after an edit +
        re-freeze, the loaded layout stands down — its mmap'ed columns
        are never indexed — and the kernel serves the new structure's
        answers and stats from fresh columns."""
        from repro.docstore import DocumentStore
        from repro.xtree.build import document, element
        from repro.xtree.node import Node, index_tree
        from repro.xtree.serialize import serialize

        tree = document(element("a", element("b"), element("c")))
        xml = serialize(tree)
        cold = DocumentStore(index_dir=tmp_path / "docs")
        cold.get(xml)
        warm = DocumentStore(index_dir=tmp_path / "docs")
        doc = warm.get(xml)
        assert warm.stats.layout_loads == 1  # rehydrated, not rebuilt
        stale = doc.layout
        plan = compile_plan("//b", algorithm="hype")
        assert len(plan.run(doc.tree.root, layout=stale).answers) == 1

        doc.tree.root.append(Node("b"))
        index_tree(doc.tree.root, doc.tree)

        assert not stale.covers(doc.tree.root)
        stale.kid_ids = stale.kid_labels = stale.kid_start = None  # unreadable
        expected = plan.run(doc.tree.root, layout=IndexedDocument(doc.tree).layout)
        assert len(expected.answers) == 2
        for layout in (stale, None):
            got = plan.run(doc.tree.root, layout=layout)
            assert got.answers == expected.answers
            assert got.stats == expected.stats
            batch = BatchEvaluator([plan, plan]).run(doc.tree.root, layout=layout)
            assert [lane.stats for lane in batch.results] == [expected.stats] * 2

    def test_refrozen_tree_refuses_the_index_of_its_old_freeze(self):
        """Regression: an IndexedDocument keeps handing out the index of
        the freeze it was built for, and OptHyPE / OptHyPE-C then pruned
        the re-frozen structure on stale masks (``//e`` -> 0 answers
        where HyPE finds 2).  An indexed run whose index and columns are
        of different freezes raises; a fresh IndexedDocument serves all
        three algorithms."""
        from repro.errors import EvaluationError
        from repro.hype.api import HYPE
        from repro.xtree.build import document, element
        from repro.xtree.node import Node, index_tree

        tree = document(element("a", element("b"), element("c", element("d"))))
        doc = IndexedDocument(tree)
        artifact = QueryCompiler().compile(None, "//e")
        stale = {
            algorithm: CompiledPlan.for_algorithm(
                artifact.mfa, algorithm, tree, doc
            )
            for algorithm in ALGORITHMS
        }
        for plan in stale.values():
            assert not plan.run(tree.root, layout=doc.layout).answers

        tree.root.append(Node("e"))
        tree.root.children[1].append(Node("e"))
        index_tree(tree.root, tree)

        for layout in (doc.layout, None):
            hype = stale[HYPE].run(tree.root, layout=layout)
            assert len(hype.answers) == 2
            for algorithm in ALGORITHMS:
                if algorithm == HYPE:
                    continue
                plan = stale[algorithm]
                with pytest.raises(EvaluationError, match="re-frozen"):
                    plan.run(tree.root, layout=layout)
                with pytest.raises(EvaluationError, match="re-frozen"):
                    BatchEvaluator([plan]).run(tree.root, layout=layout)
                with pytest.raises(EvaluationError, match="re-frozen"):
                    # Two lanes on one index: the composed pass.
                    BatchEvaluator([plan, plan]).run(tree.root, layout=layout)
        fresh = IndexedDocument(tree)
        plans = [
            CompiledPlan.for_algorithm(artifact.mfa, algorithm, tree, fresh)
            for algorithm in ALGORITHMS
        ]
        batch = BatchEvaluator(plans).run(tree.root, layout=fresh.layout)
        for plan, lane in zip(plans, batch.results):
            solo = plan.run(tree.root, layout=fresh.layout)
            assert lane.answers == solo.answers == hype.answers


class TestArtifactKernelField:
    def test_kernel_survives_the_codec(self):
        artifact = QueryCompiler().compile(None, "a[b]/c")
        assert artifact.kernel is not None
        decoded = PlanArtifact.from_bytes(artifact.to_bytes())
        assert decoded.kernel == artifact.kernel

    def test_kernel_field_is_optional(self):
        artifact = QueryCompiler().compile(None, "a/b")
        payload = artifact.to_payload()
        del payload["kernel"]
        decoded = PlanArtifact.from_payload(payload)
        assert decoded.kernel is None

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda k: "not a dict",
            lambda k: {key: v for key, v in k.items() if key != "trans"},
            lambda k: {**k, "labels": [1, 2]},
            lambda k: {**k, "sets": [["x"]]},
            lambda k: {**k, "cfgs": [[0, 10_000, []]]},
            lambda k: {**k, "cfgs": [[0, 0, [[1]]]]},
            lambda k: {**k, "trans": [[10_000, 0, 0, 0]]},
            lambda k: {**k, "trans": [[0, 10_000, 0, 0]]},
            lambda k: {**k, "trans": [[0, 0, 10_000, 0]]},
            lambda k: {**k, "trans": [[0, 0, 0]]},
        ],
    )
    def test_mangled_kernel_fails_the_decode(self, mangle):
        """A bad closure must fail as a counted ArtifactError at decode
        time, never crash a preload inside the evaluator."""
        artifact = QueryCompiler().compile(None, "a[b]/c")
        payload = artifact.to_payload()
        payload["kernel"] = mangle(payload["kernel"])
        with pytest.raises(ArtifactError):
            PlanArtifact.from_payload(payload)

    def test_validate_kernel_accepts_none(self):
        assert _validate_kernel(None) is None
