"""The plan cache's shape tier (``repro.compile.shape``).

A query with a non-empty literal is instantiated from its shape's
template — compiled once, from the shape, with slot sentinels — and the
instance must be a fresh compile byte for byte: ``to_bytes()``, the
closure tables (:func:`tests.oracle.closure_tables`) and ``mfa.size()``,
whatever literals the template was first asked for.
Beside the property: the unit behaviour of ``shape_of``, the tier's
counters and tier label, a failing template, a view annotation whose
literal reads like a sentinel, and the quoting that keeps two queries
off one key.

The frame tier above it (``frame_of`` / ``Frame``) is held to the full
path the same way: a text looked up after another text of its frame
gets the plan key, display text, shape, literals, artifact bytes and
closure tables — or the error kind — of a lookup in a cache that never
saw the frame.
"""

from __future__ import annotations

import gzip
import json
import re

import pytest
from hypothesis import HealthCheck, event, given, reject, settings
from hypothesis import strategies as st

from repro.compile import (
    FORMAT_VERSION,
    INSTANTIATE,
    NORMALIZE,
    PARSE,
    REWRITE,
    PlanStore,
    QueryCompiler,
    Slot,
    shape_of,
)
from repro.compile.shape import Frame, fill, frame_of
from repro.errors import (
    QuerySyntaxError,
    QueryTooComplexError,
    ReproError,
    RewriteError,
)
from repro.guard import CompileBudget
from repro.obs.trace import Tracer
from repro.serve.cache import PlanCache
from repro.serve.service import QueryService
from repro.views import sigma0
from repro.xpath import ast
from repro.xpath.parser import parse_query
from repro.xpath.unparse import unparse

from .oracle import closure_tables, reference
from .strategies import (
    CHURN,
    LABELS,
    VIEWS,
    make_view,
    map_literals,
    other_literals,
    paths,
)

COMPILER = QueryCompiler()
SIGMA0 = sigma0()
#: σ0's own literal, which the churn queries use too.
HEART = "heart disease"
#: Literals: empty, σ0's, repeats (a small alphabet), both quote
#: characters, and a sentinel's own text.
LITERALS = ("", "x", HEART, "x'y", 'x"y', "$0", "$1")
#: A view with a literal of its own (and one that reads like a sentinel).
LITERAL_VIEW = make_view("a[t/text() = 'x']", "t | b[t/text() = '$0']/t")
SPECS = (
    (None, LABELS),
    (SIGMA0, tuple(sorted(SIGMA0.view_dtd.productions))),
    (VIEWS[1], ("p", "leaf")),
    (LITERAL_VIEW, ("p", "leaf")),
)


def fresh(spec, query):
    return COMPILER.compile(spec, query)


def assert_fresh(artifact, expected) -> None:
    """``artifact`` is the fresh compile ``expected`` byte for byte, and
    its closure is the fresh compile's (a decoded one is closed here)."""
    assert artifact.to_bytes() == expected.to_bytes()
    assert closure_tables(artifact.closed()) == closure_tables(expected.closure)


@st.composite
def spec_and_query(draw):
    spec, labels = draw(st.sampled_from(SPECS))
    return spec, draw(paths(max_leaves=6, labels=labels, texts=LITERALS))


class TestInstancesAreFreshCompiles:
    @given(case=spec_and_query())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_an_instance_equals_a_fresh_compile(self, case):
        spec, query = case
        try:
            expected = fresh(spec, query)
        except QueryTooComplexError:
            reject()
        cache = PlanCache(8)
        cache.plan(spec, other_literals(query))  # the template's first use
        before = cache.stats
        plan = cache.plan(spec, query)
        after = cache.stats
        assert_fresh(plan.artifact, expected)
        assert plan.mfa.size() == expected.mfa.size()
        assert plan.artifact.cache_key() == expected.cache_key()
        _shape, literals = shape_of(COMPILER.normalize(query))
        if literals:  # a miss, served by the template
            assert after.misses == before.misses + 1
            assert after.shape_hits == before.shape_hits + 1
        else:  # the same query: an L1 hit
            assert after.hits == before.hits + 1

    @pytest.mark.parametrize("query", CHURN)
    def test_the_churn_templates(self, query):
        cache = PlanCache(4)
        parsed = parse_query(query)
        cache.plan(SIGMA0, other_literals(parsed))
        plan = cache.plan(SIGMA0, query)
        expected = fresh(SIGMA0, query)
        assert cache.stats.shape_hits == 1
        assert_fresh(plan.artifact, expected)
        assert plan.mfa.size() == expected.mfa.size()


class TestShapeOf:
    def shape(self, text):
        return shape_of(COMPILER.normalize(text))

    def test_literals_become_slots_in_text_order(self):
        shape, literals = self.shape("a[b[text() = 'x']/text() = 'y' or c/text() = 'z']")
        assert literals == ("x", "y", "z")
        assert shape.text == "a[b[text() = '$0']/text() = '$1' or c/text() = '$2']"
        values = [n.value for n in ast.iter_nodes(shape.ast) if isinstance(n, ast.TextEquals)]
        assert all(isinstance(value, Slot) for value in values)
        assert sorted(value.index for value in values) == [0, 1, 2]

    def test_equal_literals_share_a_slot(self):
        same, literals = self.shape("a[b/text() = 'x' or c/text() = 'x']")
        differ, _ = self.shape("a[b/text() = 'x' or c/text() = 'y']")
        assert literals == ("x",)
        assert same.text != differ.text

    def test_empty_literals_stay_inline(self):
        shape, literals = self.shape("a[b/text() = '' or c/text() = 'x']")
        assert literals == ("x",)
        assert shape.text == "a[b/text() = '' or c/text() = '$0']"

    def test_a_query_without_a_literal_is_its_own_shape(self):
        normalized = COMPILER.normalize("a[b/text() = '']/c")
        assert shape_of(normalized) == (normalized, ())

    def test_the_literals_do_not_matter(self):
        one, _ = self.shape(CHURN[0])
        other, _ = self.shape(CHURN[0].replace("'k7n1'", "\"q'9\""))
        assert one.text == other.text


class TestTheTier:
    def test_no_literal_bypasses_the_tier(self):
        cache = PlanCache(4)
        cache.plan(None, "a/b")
        cache.plan(None, "a[b/text() = '']")
        assert len(cache._templates) == 0
        assert cache.stats.shape_hits == 0

    def test_counters_tiers_and_stages(self):
        cache = PlanCache(8)
        tracer = Tracer(sample_rate=1.0, slow_seconds=None)
        for value in ("x", "y", "z"):
            with tracer.trace("request"):
                cache.plan(SIGMA0, f"patient[record/diagnosis/text() = '{value}']")
        tiers = [
            span["attributes"]["tier"]
            for trace in reversed(tracer.store.recent(None))
            for span in trace["spans"]
            if span["name"] == "plan"
        ]
        assert tiers == ["compile", "shape", "shape"]
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.shape_hits) == (0, 3, 2)
        assert stats.frame_hits == 2  # one frame: only the first is parsed
        stages = cache.compiler.metrics.snapshot()
        assert stages.stage(REWRITE).count == 1
        assert stages.stage(INSTANTIATE).count == 3
        assert stages.stage(PARSE).count == stages.stage(NORMALIZE).count == 1

    def test_instances_are_written_back(self, tmp_path):
        store = PlanStore(tmp_path)
        cache = PlanCache(8, store=store)
        query = "patient[record/diagnosis/text() = 'x']"
        cache.plan(SIGMA0, query.replace("'x'", "'w'"))
        cache.plan(SIGMA0, query)
        assert cache.stats.shape_hits == 1 and store.stats.stores == 2
        warm = PlanCache(8, store=PlanStore(tmp_path))
        plan = warm.plan(SIGMA0, query)
        assert warm.stats.l2_hits == 1
        assert_fresh(plan.artifact, fresh(SIGMA0, query))

    def test_invalidation_drops_the_view_templates(self):
        cache = PlanCache(8)
        cache.plan(SIGMA0, "patient[record/diagnosis/text() = 'x']")
        cache.plan(None, "a[text() = 'x']")
        assert len(cache._templates) == 2
        cache.invalidate_view(SIGMA0.fingerprint())
        assert [key[0] for key, _ in cache._templates.items()] == [None]

    def test_a_template_that_raises_is_not_kept(self):
        """The template's rejection is not the tenant's: the query is
        compiled itself and raises its own error, naming its own text."""

        class Naming(QueryCompiler):
            def compile(self, spec, query):
                raise RewriteError(f"cannot rewrite {self.normalize(query).text}")

        cache = PlanCache(8, compiler=Naming())
        query = "patient[record/diagnosis/text() = 'x']"
        with pytest.raises(RewriteError) as raised:
            cache.plan(SIGMA0, query)
        assert str(raised.value) == f"cannot rewrite {COMPILER.normalize(query).text}"
        assert "$0" not in str(raised.value)
        assert len(cache._templates) == 0 and len(cache) == 0

    def test_a_template_over_budget_rejects_the_query(self):
        budget = CompileBudget(max_mfa_states=10)
        cache = PlanCache(8, compiler=QueryCompiler(budget=budget))
        with pytest.raises(QueryTooComplexError):
            cache.plan(SIGMA0, "patient[record/diagnosis/text() = 'x']")
        assert len(cache._templates) == 0


class TestSentinelsAreSlotsNotTexts:
    def test_a_sentinel_valued_annotation_is_never_substituted(self):
        """``LITERAL_VIEW`` annotates ``(p, leaf)`` with ``'$0'`` — slot
        0's sentinel text; the query's slot 0 is another final."""
        query = "p[leaf/text() = 'q']/leaf"
        cache = PlanCache(8)
        cache.plan(LITERAL_VIEW, query.replace("'q'", "'r'"))
        plan = cache.plan(LITERAL_VIEW, query)
        assert cache.stats.shape_hits == 1
        expected = fresh(LITERAL_VIEW, query)
        assert_fresh(plan.artifact, expected)
        texts = sorted(
            state.pred.value
            for state in plan.mfa.pool.states
            if state.pred is not None and hasattr(state.pred, "value")
        )
        assert "$0" in texts and "q" in texts and "r" not in texts
        assert not any(isinstance(text, Slot) for text in texts)

    def test_sigma0s_own_literal_is_a_literal_of_the_view(self):
        """σ0 compares against ``'heart disease'``; so does the query."""
        query = f"patient[record/diagnosis/text() = '{HEART}']"
        cache = PlanCache(8)
        cache.plan(SIGMA0, query.replace(HEART, "flu"))
        plan = cache.plan(SIGMA0, query)
        assert_fresh(plan.artifact, fresh(SIGMA0, query))


class TestQuotedLiterals:
    ONE = (
        "patient[record/diagnosis/text() = "
        "\"x' or record/diagnosis/text() = 'heart disease\"]"
    )
    TWO = (
        "patient[record/diagnosis/text() = 'x' or "
        "record/diagnosis/text() = 'heart disease']"
    )

    def test_a_literal_keeps_its_quotes(self):
        for literal in ("x'y", 'x"y'):
            node = ast.Filtered(ast.Label("a"), ast.TextEquals(ast.Empty(), literal))
            assert parse_query(unparse(node)) == node

    def test_a_literal_with_both_quotes_cannot_be_written(self):
        node = ast.Filtered(ast.Label("a"), ast.TextEquals(ast.Empty(), "x'\"y"))
        with pytest.raises(QuerySyntaxError):
            unparse(node)

    def test_two_queries_get_two_plans_and_their_own_answers(self, hospital_doc):
        assert parse_query(self.ONE) != parse_query(self.TWO)
        with QueryService(hospital_doc) as service:
            service.register_view("research", SIGMA0)
            service.register_tenant("institute", "research")
            answers = {q: service.submit("institute", q).ids() for q in (self.ONE, self.TWO)}
            assert service.cache.plan(SIGMA0, self.ONE) is not service.cache.plan(
                SIGMA0, self.TWO
            )
        for query, ids in answers.items():
            assert sorted(ids) == sorted(reference(SIGMA0, hospital_doc, parse_query(query)))
        assert answers[self.ONE] == [] and answers[self.TWO]

    def test_a_v4_store_file_is_swept(self, tmp_path):
        """v4 wrote both queries' texts alike: its files may hold the
        other query's plan, so they are never read and ``gc`` removes
        them."""
        store = PlanStore(tmp_path)
        artifact = fresh(SIGMA0, self.TWO)
        payload = json.loads(gzip.decompress(artifact.to_bytes()))
        payload["format_version"] = 4
        key = (artifact.view_fingerprint, artifact.normalized_query, 4)
        store.path_for(key).write_bytes(gzip.compress(json.dumps(payload).encode()))
        assert FORMAT_VERSION == 6
        assert store.load(artifact.cache_key()) is None
        assert store.gc() == 1 and len(store) == 0


def test_view_annotations_reach_the_builder_desugared():
    """The builder knows no ``//``: a view annotation is desugared when
    the view is built, a query when it is compiled or rewritten."""
    view = make_view("a//a", "t | .//t")
    assert not any(
        ast.contains_desc_or_self(annotation) for annotation in view.annotations.values()
    )
    assert fresh(view, "p//leaf").mfa.size() == fresh(view, "p/(*)*/leaf").mfa.size()


# ----------------------------------------------------------------------
# The frame tier
# ----------------------------------------------------------------------
#: What a frame's other texts put in its literals: both quote
#: characters, sentinel texts, a blank and σ0's own literal.
FRAME_LITERALS = ("x", "y", HEART, "x'y", 'x"y', "$0", "$1", " ", "''")
#: Spellings of the spaced operators ``unparse`` writes.
SPACINGS = {
    " = ": ("=", " = ", "  =\t"),
    " | ": ("|", " | ", "\n|  "),
    " and ": (" and ", "  and\t"),
    " or ": (" or ", "\tor  "),
}
_MARK = re.compile(r"'@(\d+)@'")


def _quoted(draw, value: str) -> str:
    if "'" in value:
        return f'"{value}"'
    if '"' in value:
        return f"'{value}'"
    quote = draw(st.sampled_from(("'", '"')))
    return f"{quote}{value}{quote}"


@st.composite
def frame_pairs(draw):
    """``(spec, first, second)``: two query texts, most often of one
    frame — one spelling (spacing) of one query whose non-empty
    literals are marks, the marks filled with literals equal where the
    query's are, quoted either way where they can be — else of two
    spellings, or with the second text mangled."""
    spec, labels = draw(st.sampled_from(SPECS))
    query = draw(paths(max_leaves=6, labels=labels, texts=LITERALS))
    if draw(st.integers(0, 3)):  # most texts have a literal to frame
        literal = draw(st.sampled_from(LITERALS[1:]))
        query = ast.Filtered(query, ast.TextEquals(ast.Empty(), literal))
    marks: dict[str, str] = {}
    marked = unparse(
        map_literals(query, lambda value: marks.setdefault(value, f"@{len(marks)}@"))
    )

    def spelling() -> str:
        text = marked
        for spaced, options in SPACINGS.items():
            text = text.replace(spaced, draw(st.sampled_from(options)))
        return draw(st.sampled_from(("", " "))) + text

    def filled(text: str) -> str:
        values = draw(
            st.lists(
                st.sampled_from(FRAME_LITERALS),
                min_size=len(marks),
                max_size=len(marks),
                unique=True,
            )
        )
        return _MARK.sub(lambda mark: _quoted(draw, values[int(mark[1])]), text)

    first = spelling()
    second = first if draw(st.integers(0, 3)) else spelling()
    second = filled(second)
    if not draw(st.integers(0, 7)):
        at = draw(st.integers(0, len(second)))
        second = second[:at] + draw(st.sampled_from("'\"[]()=|*/ ")) + second[at:]
    return spec, filled(first), second


def outcome(cache: PlanCache, spec, text: str):
    """What a lookup of ``text`` gives: the plan key, display text,
    artifact bytes and closure tables, or the kind of error it raises."""
    try:
        plan, display = cache.lookup(spec, text)
    except ReproError as error:
        return type(error).__name__
    artifact = plan.artifact
    return (
        artifact.cache_key(),
        display,
        artifact.to_bytes(),
        closure_tables(artifact.closed()),
    )


class TestFramesAreTheFullPath:
    @given(case=frame_pairs())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_a_frame_hit_equals_a_lookup_that_never_saw_the_frame(self, case):
        spec, first, second = case
        cache = PlanCache(8)
        learnt = not isinstance(outcome(cache, spec, first), str)
        before = cache.stats.frame_hits
        got = outcome(cache, spec, second)
        assert got == outcome(PlanCache(8), spec, second)
        frame, values = frame_of(second)
        hit = learnt and bool(values) and second != first and frame == frame_of(first)[0]
        event(f"frame hit: {hit}, outcome: {got if isinstance(got, str) else 'a plan'}")
        assert cache.stats.frame_hits - before == hit
        if hit:  # the frame's shape and literals are the full path's
            normalized = COMPILER.normalize(second)
            shape, literals = shape_of(normalized)
            entry = cache._frames.peek((spec and spec.fingerprint(), frame))
            assert entry.shape.text == shape.text
            assert entry.render(values)[1:] == (normalized.text, literals)

    def test_the_churn_templates(self):
        cache = PlanCache(8)
        for query in CHURN:
            cache.plan(SIGMA0, query.replace("'k7n1'", "'first'"))
        for query in CHURN:
            assert outcome(cache, SIGMA0, query) == outcome(PlanCache(8), SIGMA0, query)
        stats = cache.stats
        assert stats.frame_hits == stats.shape_hits == len(CHURN)
        stages = cache.compiler.metrics.snapshot()
        assert stages.stage(PARSE).count == stages.stage(NORMALIZE).count == len(CHURN)


class TestFrameOf:
    def test_classes_by_first_occurrence_and_empty_literals_inline(self):
        frame, values = frame_of(
            "a[b/text() = 'y' or c/text() = \"\" or d/text() = \"x\" or e/text()='y']"
        )
        assert values == ("y", "x")
        assert frame == (
            "a[b/text() = ", 0, ' or c/text() = "" or d/text() = ', 1, " or e/text()=", 0, "]"
        )

    def test_the_quote_character_is_not_in_the_frame(self):
        assert frame_of("a[text() = 'x']") == frame_of('a[text() = "y"]')[:1] + (("x",),)
        assert frame_of("a[text() = \"it's\"]")[1] == ("it's",)

    def test_spacing_and_equal_literals_are(self):
        one = frame_of("a[b/text() = 'x' or c/text() = 'y']")[0]
        assert one != frame_of("a[b/text() = 'x' or c/text() = 'x']")[0]
        assert one != frame_of("a[b/text()= 'x' or c/text() = 'y']")[0]

    def test_a_text_without_a_literal(self):
        assert frame_of("a[b/text() = '']/c") == (("a[b/text() = '']/c",), ())
        assert frame_of("a/b") == (("a/b",), ())

    def test_render_is_parse_normalize_and_shape(self):
        learnt = "b[t/text() = 'x' or t/text() = \"y'\"]//t"
        normalized = COMPILER.normalize(learnt)
        shape, literals = shape_of(normalized)
        values = frame_of(learnt)[1]
        display = unparse(parse_query(learnt))
        frame = Frame.of(values, display, normalized.text, shape, literals)
        other = 'b[t/text() = "q\'" or t/text() = \'"r\']//t'
        display, normal, got = frame.render(frame_of(other)[1])
        assert display == unparse(parse_query(other))
        assert normal == COMPILER.normalize(other).text
        assert got == shape_of(COMPILER.normalize(other))[1]

    def test_fill_undoes_shape_of(self):
        normalized = COMPILER.normalize("a[b/text() = 'x' or c/text() = '' or d/text() = 'x']")
        shape, literals = shape_of(normalized)
        filled = fill(shape, literals)
        assert (filled.ast, filled.text) == (normalized.ast, normalized.text)


class TestTheFrameTier:
    QUERY = "patient[record/diagnosis/text() = '{}']"

    def test_an_alias_hit_neither_cuts_nor_renders(self, monkeypatch):
        import repro.serve.cache as cache_module

        cache = PlanCache(8)
        text = self.QUERY.format("x")
        cache.plan(SIGMA0, text)

        def refuse(*_args):
            raise AssertionError("an alias hit reached the frame tier")

        monkeypatch.setattr(cache_module, "frame_of", refuse)
        monkeypatch.setattr(Frame, "render", refuse)
        monkeypatch.setattr(cache_module, "shape_of", refuse)
        before = cache.compiler.metrics.snapshot()
        for _ in range(3):
            cache.plan(SIGMA0, text)
        assert cache.stats.hits == 3 and cache.stats.frame_hits == 0
        after = cache.compiler.metrics.snapshot()
        assert after.stage(PARSE).count == before.stage(PARSE).count

    def test_shape_of_runs_once_per_build_or_frame(self, monkeypatch):
        """A miss lifts its literals once, for its build and its frame; a
        spacing variant that L1 serves lifts them for its frame alone;
        an AST that L1 serves (it learns no frame) not at all."""
        import repro.serve.cache as cache_module

        calls = []

        def counted(normalized):
            calls.append(normalized.text)
            return shape_of(normalized)

        monkeypatch.setattr(cache_module, "shape_of", counted)
        cache = PlanCache(8)
        text = self.QUERY.format("x")
        for query, lifts in [(text, 1), (text.replace("= ", "=  "), 1), (parse_query(text), 0)]:
            del calls[:]
            cache.plan(SIGMA0, query)
            assert len(calls) == lifts, query
        assert cache.stats.misses == 1 and len(cache._frames) == 2

    def test_a_text_without_a_literal_learns_no_frame(self):
        cache = PlanCache(8)
        for text in ("a/b", "a[b/text() = '']", 'a[b/text() = ""]'):
            cache.plan(None, text)
        assert len(cache._frames) == 0 and cache.stats.frame_hits == 0

    def test_a_failed_lookup_learns_no_frame(self):
        budget = CompileBudget(max_mfa_states=10)
        cache = PlanCache(8, compiler=QueryCompiler(budget=budget))
        for value in ("x", "y"):
            with pytest.raises(QueryTooComplexError):
                cache.plan(SIGMA0, self.QUERY.format(value))
        assert len(cache._frames) == 0 and cache.stats.frame_hits == 0

    def test_frames_are_bounded_at_the_plan_capacity(self):
        cache = PlanCache(2)
        for n in range(4):
            cache.plan(None, f"a{n}[text() = 'x']")
        assert len(cache._frames) == 2

    def test_invalidation_drops_the_view_frames(self):
        cache = PlanCache(8)
        cache.plan(SIGMA0, self.QUERY.format("x"))
        cache.plan(None, "a[text() = 'x']")
        assert len(cache._frames) == 2
        cache.invalidate_view(SIGMA0.fingerprint())
        assert [key[0] for key, _ in cache._frames.items()] == [None]
        cache.plan(SIGMA0, self.QUERY.format("y"))
        assert cache.stats.frame_hits == 0

    def test_a_frame_hit_whose_template_raises_compiles_the_query(self):
        """The frame outlives its template, whose recompilation raises:
        the query is compiled itself — from its shape, filled — and
        equals a fresh compile."""

        class Refusing(QueryCompiler):
            refuse = False

            def compile(self, spec, query):
                if self.refuse and "$0" in self.normalize(query).text:
                    raise RewriteError("refused")
                return super().compile(spec, query)

        compiler = Refusing()
        cache = PlanCache(8, compiler=compiler)
        cache.plan(SIGMA0, self.QUERY.format("x"))
        cache._templates.drop()
        compiler.refuse = True
        plan, display = cache.lookup(SIGMA0, self.QUERY.format("y"))
        assert cache.stats.frame_hits == 1 and cache.stats.shape_hits == 0
        assert display == self.QUERY.format("y")
        assert_fresh(plan.artifact, fresh(SIGMA0, self.QUERY.format("y")))
        assert len(cache._templates) == 0


def test_plan_churn_blocks_neither_parse_nor_normalize(tmp_path):
    """``plan_churn`` (``benchmarks/e2e``, smoke sizes) over its socket:
    after the warm-up, a block of never-seen texts runs no parse and no
    normalize stage in the service's own compiler, and every miss was
    served by a frame."""
    import asyncio

    from .strategies import load_hygiene

    load_hygiene()  # puts benchmarks/e2e on the path
    from workloads import PlanChurn

    workload = PlanChurn(seed=3, smoke=True, work_dir=tmp_path)

    async def drive():
        await workload.setup()
        try:
            for _ in range(workload.warmup_blocks):
                await workload.block(workload.prepare())
            service = workload.served.service
            before = service.metrics_snapshot()
            block = await workload.block(workload.prepare())
            return block, before, service.metrics_snapshot()
        finally:
            await workload.teardown()

    block, before, after = asyncio.run(drive())
    assert workload.check(block) == 0
    for stage in (PARSE, NORMALIZE):
        assert after.compile.stage(stage).count == before.compile.stage(stage).count
    misses = after.cache.misses - before.cache.misses
    assert misses == len(block.replies) > 0
    assert after.cache.frame_hits - before.cache.frame_hits == misses
    assert after.cache.shape_hits - before.cache.shape_hits == misses
