"""Dense-kernel structure: one loop, one table, persistable closure.

:func:`repro.hype.kernel.descend` is the only descent loop, the root
cfg is derived once, pops resolve from one table, and a persisted
:func:`kernel_payload` closure installs once, stays inside the alphabet,
survives the artifact codec (format v4) and is rejected structurally
when mangled.  That every algorithm answers alike — alone and in waves,
over a preloaded closure or a lazily filled one — is the oracle's claim
(``tests/test_lattice.py``).
"""

import pytest

from repro.compile import ArtifactError, PlanArtifact, QueryCompiler
from repro.compile.artifact import _validate_kernel
from repro.docstore import IndexedDocument
from repro.hype.api import ALGORITHMS, compile_plan, to_mfa
from repro.hype.core import CompiledPlan
from repro.hype.kernel import OTHER_LABEL, DenseKernel, kernel_payload
from repro.hype.index import build_index
from repro.serve.batch import BatchEvaluator
from repro.workloads import FIG8
from repro.workloads.hospital import HospitalConfig, generate_hospital_document



def _document_plan(query, algorithm, doc):
    """A plan for ``doc``'s label table (what serving builds): asking
    the document for the index also parks its mask column on
    ``doc.layout``; on-demand runs sweep their own."""
    index = None if algorithm == "hype" else doc.index_for(algorithm == "opthype-c")
    return compile_plan(query, algorithm=algorithm, index=index)


class TestOneSharedLoop:
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

    def test_pop_frame_is_never_entered_without_child_truths(self, monkeypatch):
        """Truth-free pops are table probes in the lean pass, alone and
        in a wave.  The reference pass runs: the compiled one resolves
        every pop in C and never calls ``pop_frame``."""
        from repro.hype import kernel

        monkeypatch.setattr(kernel, "_descend_lane", kernel._descend_lane_py)
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
        assert calls, "the workload must exercise truth-carrying pops too"

    def test_unseen_labels_store_no_alias(self):
        """A long-lived plan serving documents with ever-new labels must
        not grow: they resolve through the OTHER column, with or without
        a supplied layout, and only alphabet ∪ {OTHER} columns are ever
        stored (a bare-tree run used to keep one alias per label)."""
        from repro.xtree.build import document, element

        plan = compile_plan("//a/b")
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
                sizes.append(len(plan.kernel.trans))
        assert len(set(sizes)) == 1, sizes
        kern = plan.kernel
        columns = kern.alphabet | {OTHER_LABEL}
        assert kern.trans and {label for _cfg, label in kern.trans} <= columns


class TestPreloadedClosure:
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
        out-of-alphabet labels, every ``trans`` key of every plan's
        kernel names an alphabet label or OTHER, whichever way the
        documents were handed in."""
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
                for layout in (None, doc.layout):
                    for plan in plans:
                        assert plan.run(tree.root, layout).stats.answers == 1
                    BatchEvaluator(plans).run(tree.root, layout)
                for kern in (plan.kernel for plan in plans):
                    assert not any(l.startswith("z") for l in kern.alphabet)
                    columns = kern.alphabet | {OTHER_LABEL}
                    labels = {label for _cfg, label in kern.trans}
                    assert OTHER_LABEL in labels, "unknown labels were probed"
                    assert labels <= columns


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
