"""Query-compilation pipeline tests: stages, artifacts, codec, keys.

The golden-key tests pin the *exact* normalised-query texts and view
fingerprints: both are components of the on-disk plan-store key scheme,
so changing either output is a format change — bump
``repro.compile.artifact.FORMAT_VERSION`` and update the goldens
deliberately, never accidentally.
"""

import gzip
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata import CodecError, compile_query, mfa_from_dict, mfa_to_dict
from repro.compile import (
    FORMAT_VERSION,
    ArtifactError,
    PlanArtifact,
    QueryCompiler,
)
from repro.compile.pipeline import (
    DENSE,
    NORMALIZE,
    PARSE,
    REWRITE,
    TRANSLATE,
    TRIM,
)
from repro.hype import CompiledPlan
from repro.serve.cache import normalized_query_text
from repro.views.samples import sigma0
from repro.xpath import ast, parse_query
from repro.xpath.normalize import normal_form

from .strategies import paths, trees


class TestStages:
    def test_view_compilation_runs_rewrite_and_trim(self, sigma0_spec):
        compiler = QueryCompiler()
        artifact = compiler.compile(sigma0_spec, "patient/record")
        stats = compiler.metrics.snapshot()
        assert stats.stage(PARSE).count == 1
        assert stats.stage(NORMALIZE).count == 1
        assert stats.stage(REWRITE).count == 1
        assert stats.stage(TRIM).count == 1
        assert stats.stage(TRANSLATE).count == 0
        assert stats.stage(DENSE).count == 1
        assert stats.rewrites == 1
        assert stats.total_seconds > 0.0
        assert set(artifact.stages) == {REWRITE, TRIM, DENSE}

    def test_direct_compilation_runs_translate(self):
        compiler = QueryCompiler()
        artifact = compiler.compile(None, "a/b")
        stats = compiler.metrics.snapshot()
        assert stats.stage(TRANSLATE).count == 1
        assert stats.stage(REWRITE).count == 0
        assert artifact.view_fingerprint is None

    def test_ast_input_skips_the_parse_stage(self):
        compiler = QueryCompiler()
        compiler.compile(None, parse_query("a/b"))
        assert compiler.metrics.snapshot().stage(PARSE).count == 0

    def test_normalize_is_idempotent_through_the_compiler(self):
        compiler = QueryCompiler()
        first = compiler.normalize("//b")
        again = compiler.normalize(first)
        assert again is first  # already-normalised input passes through

    def test_plan_key_matches_artifact_key(self, sigma0_spec):
        compiler = QueryCompiler()
        key = compiler.plan_key(sigma0_spec, "patient")
        artifact = compiler.compile(sigma0_spec, "patient")
        assert artifact.cache_key() == key

    def test_compiled_plan_answers_match_uncached_engine(
        self, hospital_doc, sigma0_spec
    ):
        """The pipeline compiles from the normal-form AST; answers must
        be identical to the direct rewrite of the surface form."""
        from repro.rewrite import rewrite_query

        artifact = QueryCompiler().compile(sigma0_spec, "patient//record")
        got = CompiledPlan(artifact.mfa).run(hospital_doc.root).answers
        reference_mfa = rewrite_query(sigma0_spec, "patient//record")
        expected = CompiledPlan(reference_mfa).run(hospital_doc.root).answers
        assert {n.node_id for n in got} == {n.node_id for n in expected}


class TestGoldenKeys:
    """Pinned outputs: these are on-disk key components."""

    SIGMA0_FINGERPRINT = (
        "a3c2d8976f63abd92c04c7b9dd0bb09acdfac4963d99bcca42690cbbe58b70c9"
    )

    GOLDEN_TEXTS = {
        "//b": "**/b",
        "(*)*/b": "**/b",
        ".//treatment": "**/treatment",
        "patient/record/diagnosis": "patient/record/diagnosis",
        "a/b | (a/b)": "a/b",
        "(a | b)/c*": "(a | b)/c*",
        "//patient[.//diagnosis/text() = 'heart disease']": (
            "**/patient[**/diagnosis/text() = 'heart disease']"
        ),
    }

    def test_normalized_query_text_goldens(self):
        for query, expected in self.GOLDEN_TEXTS.items():
            assert normalized_query_text(query) == expected, query

    def test_sigma0_fingerprint_golden(self):
        assert sigma0().fingerprint() == self.SIGMA0_FINGERPRINT

    def test_fingerprint_changes_with_content(self, sigma0_spec):
        from repro.dtd import hospital_dtd, hospital_view_dtd
        from repro.views.samples import SIGMA0_ANNOTATIONS
        from repro.views.spec import view_spec

        restricted = view_spec(
            hospital_dtd(),
            hospital_view_dtd(),
            {**SIGMA0_ANNOTATIONS, ("patient", "parent"): "parent[not(.)]"},
        )
        assert restricted.fingerprint() != sigma0_spec.fingerprint()

    def test_fingerprint_ignores_annotation_syntax(self):
        from repro.dtd import hospital_dtd, hospital_view_dtd
        from repro.views.samples import SIGMA0_ANNOTATIONS
        from repro.views.spec import view_spec

        # A semantics-preserving syntactic variant of one annotation
        # (redundant parentheses) must not change the fingerprint.
        (parent, child), original = next(iter(sorted(SIGMA0_ANNOTATIONS.items())))
        variant = view_spec(
            hospital_dtd(),
            hospital_view_dtd(),
            {**SIGMA0_ANNOTATIONS, (parent, child): f"({original})"},
        )
        assert variant.fingerprint() == self.SIGMA0_FINGERPRINT


class TestVariantProperty:
    """Syntactic variants — re-associations, redundant stars, // sugar —
    map to one key."""

    @given(paths(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_syntactic_variants_share_one_key(self, query, data):
        variant = data.draw(_variants_of(query))
        assert normalized_query_text(variant) == normalized_query_text(query)

    @given(paths())
    @settings(max_examples=60, deadline=None)
    def test_normal_form_is_a_fixpoint(self, query):
        once = normal_form(query)
        assert normalized_query_text(once) == normalized_query_text(query)


def _variants_of(query: ast.Path) -> st.SearchStrategy[ast.Path]:
    """Semantics-preserving syntactic variants of ``query``."""

    def reassoc_right(node: ast.Path) -> ast.Path:
        # Rebuild / and | chains right-associated instead of left.
        if isinstance(node, ast.Concat):
            left = reassoc_right(node.left)
            right = reassoc_right(node.right)
            if isinstance(left, ast.Concat):
                return ast.Concat(
                    left.left, reassoc_right(ast.Concat(left.right, right))
                )
            return ast.Concat(left, right)
        if isinstance(node, ast.Union):
            left = reassoc_right(node.left)
            right = reassoc_right(node.right)
            if isinstance(left, ast.Union):
                return ast.Union(
                    left.left, reassoc_right(ast.Union(left.right, right))
                )
            return ast.Union(left, right)
        return node

    return st.sampled_from(
        [
            reassoc_right(query),
            ast.Concat(query, ast.Empty()),  # q/. == q
            ast.Concat(ast.Empty(), query),  # ./q == q
            ast.Union(query, query),  # q | q == q
        ]
    )


class TestArtifactRoundTrip:
    def test_bytes_round_trip_is_exact(self, sigma0_spec):
        artifact = QueryCompiler().compile(sigma0_spec, "patient[parent]")
        decoded = PlanArtifact.from_bytes(artifact.to_bytes())
        assert decoded.cache_key() == artifact.cache_key()
        assert decoded.to_bytes() == artifact.to_bytes()
        assert decoded.mfa.size() == artifact.mfa.size()

    def test_rehydrated_plan_answers_match(self, hospital_doc, sigma0_spec):
        artifact = QueryCompiler().compile(sigma0_spec, "patient/parent")
        decoded = PlanArtifact.from_bytes(artifact.to_bytes())
        original = CompiledPlan(artifact.mfa).run(hospital_doc.root)
        rehydrated = CompiledPlan(decoded.mfa).run(hospital_doc.root)
        assert {n.node_id for n in rehydrated.answers} == {
            n.node_id for n in original.answers
        }
        assert (
            rehydrated.stats.visited_elements
            == original.stats.visited_elements
        )

    def test_version_mismatch_raises(self):
        artifact = QueryCompiler().compile(None, "a/b")
        payload = artifact.to_payload()
        payload["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ArtifactError, match="format version"):
            PlanArtifact.from_payload(payload)

    def test_not_json_raises(self):
        with pytest.raises(ArtifactError, match="not a gzip stream"):
            PlanArtifact.from_bytes(b"\x00\x01not json")
        with pytest.raises(ArtifactError, match="JSON"):
            PlanArtifact.from_bytes(gzip.compress(b"\x00\x01not json"))

    def test_truncated_payload_raises(self):
        artifact = QueryCompiler().compile(None, "a/b")
        payload = artifact.to_payload()
        del payload["mfa"]
        with pytest.raises(ArtifactError):
            PlanArtifact.from_payload(payload)

    def test_tampered_mfa_raises(self):
        artifact = QueryCompiler().compile(None, "a[b]/c")
        payload = json.loads(gzip.decompress(artifact.to_bytes()))
        payload["mfa"]["nfa"]["start"] = 10_000  # dangling state id
        with pytest.raises(ArtifactError):
            PlanArtifact.from_payload(payload)


class TestMFACodec:
    @given(trees(), paths())
    @settings(max_examples=60, deadline=None)
    def test_codec_round_trip_preserves_evaluation(self, tree, query):
        mfa = compile_query(query)
        decoded = mfa_from_dict(mfa_to_dict(mfa))
        expected = CompiledPlan(mfa).run(tree.root).answers
        got = CompiledPlan(decoded).run(tree.root).answers
        assert {n.node_id for n in got} == {n.node_id for n in expected}

    def test_encoding_is_deterministic(self, sigma0_spec):
        first = QueryCompiler().compile(sigma0_spec, "patient/record")
        second = QueryCompiler().compile(sigma0_spec, "patient/record")
        assert json.dumps(mfa_to_dict(first.mfa), sort_keys=True) == json.dumps(
            mfa_to_dict(second.mfa), sort_keys=True
        )

    def test_unknown_state_kind_raises(self):
        mfa = compile_query(parse_query("a[b]"))
        payload = mfa_to_dict(mfa)
        payload["pool"][0]["kind"] = "xor"
        with pytest.raises(CodecError, match="kind"):
            mfa_from_dict(payload)

    def test_garbage_raises(self):
        with pytest.raises(CodecError):
            mfa_from_dict(["not", "an", "mfa"])

    def test_non_dict_pool_entry_raises_codec_error(self):
        """Regression: a truncated pool entry (a str where a state object
        belongs) must surface as CodecError, not AttributeError — the
        store layer turns only typed errors into cache misses."""
        payload = mfa_to_dict(compile_query(parse_query("a[b]")))
        payload["pool"][0] = "oops"
        with pytest.raises(CodecError):
            mfa_from_dict(payload)
