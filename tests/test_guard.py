"""Unit tests for :mod:`repro.guard`: deadlines and compile budgets."""

from __future__ import annotations

import time

import pytest

from repro.errors import DeadlineError, QueryTooComplexError
from repro.guard import CHECK_INTERVAL, CompileBudget, Deadline, min_deadline


class TestDeadline:
    def test_after_ms_from_now(self):
        before = time.perf_counter()
        deadline = Deadline.after_ms(50.0)
        after = time.perf_counter()
        assert before + 0.05 <= deadline.expires_at <= after + 0.05

    def test_after_ms_from_explicit_arrival(self):
        deadline = Deadline.after_ms(100.0, now=7.0)
        assert deadline.expires_at == pytest.approx(7.1)

    def test_expired_and_remaining(self):
        deadline = Deadline.after_ms(100.0, now=0.0)
        assert not deadline.expired(now=0.05)
        assert deadline.expired(now=0.1)
        assert deadline.expired(now=0.2)
        assert deadline.remaining_ms(now=0.04) == pytest.approx(60.0)
        assert deadline.remaining_ms(now=0.15) == pytest.approx(-50.0)

    def test_check_raises_once_past(self):
        Deadline.after_ms(10_000.0).check()  # far future: no raise
        expired = Deadline(time.perf_counter() - 0.01)
        with pytest.raises(DeadlineError):
            expired.check()

    def test_check_interval_is_amortization_friendly(self):
        # The kernel decrements a counter CHECK_INTERVAL times between
        # clock reads; keep it large enough to amortize and bounded so an
        # armed descent cannot overshoot by a pathological stretch.
        assert 256 <= CHECK_INTERVAL <= 65_536


class TestMinDeadline:
    def test_empty_and_all_none(self):
        assert min_deadline([]) is None
        assert min_deadline([None, None]) is None

    def test_earliest_wins(self):
        early = Deadline(10.0)
        late = Deadline(20.0)
        assert min_deadline([late, None, early]) is early
        assert min_deadline([early]) is early


class TestCompileBudget:
    def test_defaults_allow_reasonable_sizes(self):
        budget = CompileBudget()
        budget.check_ast(9_999)
        budget.check_mfa(4_999)

    def test_ast_ceiling(self):
        budget = CompileBudget(max_ast_nodes=10)
        budget.check_ast(10)
        with pytest.raises(QueryTooComplexError, match="compile budget"):
            budget.check_ast(11)

    def test_mfa_ceiling_names_the_stage(self):
        budget = CompileBudget(max_mfa_states=5)
        budget.check_mfa(5)
        with pytest.raises(QueryTooComplexError, match="rewrite"):
            budget.check_mfa(6)
        with pytest.raises(QueryTooComplexError, match="translate"):
            budget.check_mfa(6, stage="translate")

    def test_round_trip(self):
        budget = CompileBudget(max_ast_nodes=123, max_mfa_states=45)
        assert CompileBudget.from_dict(budget.as_dict()) == budget
        assert CompileBudget.from_dict({}) == CompileBudget()


class TestDescentCheckpointAcrossLanes:
    """A wave runs one lean pass per lane; the countdown to the next
    clock read is threaded through them, never reset per lane."""

    @pytest.mark.parametrize("columnar", [False, True])
    def test_expiry_inside_a_later_lane(self, columnar):
        from repro.docstore import IndexedDocument
        from repro.hype.api import compile_plan
        from repro.hype.core import RunCursor
        from repro.hype.kernel import descend
        from repro.serve.batch import BatchEvaluator
        from repro.xtree.build import document, element

        big = element("a", *(element("c") for _ in range(3 * CHECK_INTERVAL)))
        tree = document(element("r", big, element("b")))
        layout = IndexedDocument(tree).layout if columnar else None
        plans = [compile_plan(query) for query in ("b", "a//c")]
        cursors = [RunCursor(plan) for plan in plans]
        expired = Deadline(time.perf_counter() - 1.0)
        with pytest.raises(DeadlineError):
            descend(list(zip(plans, cursors)), tree.root, layout, deadline=expired)
        # The first lane is three steps and finished; the second was cut
        # one countdown after the start of the wave, not at its end.
        assert cursors[0].visited == 2
        # The visit column holds node ids (it held nodes).
        assert 0 < len(cursors[1].visit_ids) <= CHECK_INTERVAL + 2
        # The caller discards the cursors: the batch surfaces the error
        # whole, and the plans answer in full afterwards.
        with pytest.raises(DeadlineError):
            BatchEvaluator(plans).run(tree.root, layout, deadline=expired)
        answers = BatchEvaluator(plans).run(tree.root, layout).results
        assert [len(r.answers) for r in answers] == [1, 3 * CHECK_INTERVAL]

    @pytest.mark.parametrize("columnar", [False, True])
    def test_many_short_lanes_share_one_countdown(self, columnar):
        """80 lanes of ~100 steps each: no lane alone reaches
        CHECK_INTERVAL, so the checkpoint fires only if the countdown is
        carried from lane to lane, not reset."""
        from repro.docstore import IndexedDocument
        from repro.hype.api import compile_plan
        from repro.hype.core import RunCursor
        from repro.hype.kernel import descend
        from repro.xtree.build import document, element

        lanes, fan = 80, 100
        assert fan + 2 < CHECK_INTERVAL < lanes * fan // 2
        tree = document(element("r", *(element("c") for _ in range(fan))))
        layout = IndexedDocument(tree).layout if columnar else None
        plan = compile_plan("c")
        cursors = [RunCursor(plan) for _ in range(lanes)]
        expired = Deadline(time.perf_counter() - 1.0)
        with pytest.raises(DeadlineError):
            descend(
                [(plan, cursor) for cursor in cursors],
                tree.root,
                layout,
                deadline=expired,
            )
        # Every loop step visits at most one element, so the first clock
        # read came within CHECK_INTERVAL steps of the start of the wave.
        stepped = sum(len(cursor.visit_ids) for cursor in cursors)
        assert CHECK_INTERVAL - lanes <= stepped <= CHECK_INTERVAL + 2
