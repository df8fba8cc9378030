"""AFA pool and NFA structural tests."""

import pytest

from repro.automata import AFAPool, NFA, PositionPred, TextPred, WILDCARD
from repro.errors import AutomatonError
from repro.xtree import document, element


class TestAFAPool:
    def test_state_kinds(self):
        pool = AFAPool()
        final = pool.new_final(None)
        trans = pool.new_trans("a", final)
        orr = pool.new_or([trans])
        andd = pool.new_and([orr])
        nott = pool.new_not(andd)
        assert pool.states[final].kind == "final"
        assert pool.states[trans].kind == "trans"
        assert pool.states[orr].kind == "or"
        assert pool.states[andd].kind == "and"
        assert pool.states[nott].kind == "not"
        pool.validate()

    def test_wire_cyclic(self):
        pool = AFAPool()
        hub = pool.new_or()
        final = pool.new_final(None)
        step = pool.new_trans("a", hub)
        pool.wire(hub, final, step)
        pool.validate()
        assert pool.states[hub].eps == [final, step]

    def test_wire_non_operator_rejected(self):
        pool = AFAPool()
        final = pool.new_final(None)
        with pytest.raises(AutomatonError):
            pool.wire(final, final)

    def test_not_arity_enforced(self):
        pool = AFAPool()
        n = pool.new_not()
        f1 = pool.new_final(None)
        f2 = pool.new_final(None)
        pool.wire(n, f1)
        with pytest.raises(AutomatonError):
            pool.wire(n, f2)

    def test_validate_dangling_target(self):
        pool = AFAPool()
        pool.new_trans("a", None)
        with pytest.raises(AutomatonError, match="bad target"):
            pool.validate()

    def test_size_counts_states_and_edges(self):
        pool = AFAPool()
        final = pool.new_final(None)
        trans = pool.new_trans("a", final)
        pool.new_or([trans, final])
        assert pool.size() == 3 + 1 + 2

    def test_not_in_cycle_rejected(self):
        pool = AFAPool()
        orr = pool.new_or()
        nott = pool.new_not(orr)
        pool.wire(orr, nott)
        with pytest.raises(AutomatonError, match="NOT state inside"):
            pool.scc_of(orr)

    def test_scc_order_dependency_first(self):
        pool = AFAPool()
        final = pool.new_final(None)
        orr = pool.new_or([final])
        outer = pool.new_and([orr])
        assert pool.scc_of(final) < pool.scc_of(orr) < pool.scc_of(outer)


class TestPredicates:
    """Predicates read a frozen document's ``text`` / ``position``
    columns at a node id (they took a ``Node`` and walked its text
    children / its parent's element children before)."""

    @staticmethod
    def at(node):
        return node.columns, node.node_id

    def test_text_pred(self):
        node = document(element("a", "hello")).root
        assert TextPred("hello").holds(*self.at(node))
        assert not TextPred("nope").holds(*self.at(node))

    def test_position_pred(self):
        tree = document(element("r", element("a"), element("b"), element("c")))
        first, second, third = tree.root.element_children()
        assert PositionPred(1).holds(*self.at(first))
        assert PositionPred(2).holds(*self.at(second))
        assert not PositionPred(2).holds(*self.at(third))

    def test_position_pred_root(self):
        tree = document(element("r"))
        assert PositionPred(1).holds(*self.at(tree.root))
        assert not PositionPred(2).holds(*self.at(tree.root))

    def test_position_skips_text_siblings(self):
        tree = document(element("r", "text", element("a")))
        assert PositionPred(1).holds(*self.at(tree.root.element_children()[0]))


class TestNFA:
    def build(self) -> NFA:
        nfa = NFA()
        s0, s1, s2, s3 = (nfa.new_state() for _ in range(4))
        nfa.add_edge(s0, "a", s1)
        nfa.add_eps(s1, s2)
        nfa.add_edge(s2, WILDCARD, s3)
        nfa.start = s0
        nfa.finals = {s3}
        return nfa

    def test_eps_closure_single(self):
        nfa = self.build()
        assert nfa.eps_closure_of(1) == frozenset({1, 2})
        assert nfa.eps_closure_of(0) == frozenset({0})

    def test_eps_closure_cycle(self):
        nfa = NFA()
        a, b = nfa.new_state(), nfa.new_state()
        nfa.add_eps(a, b)
        nfa.add_eps(b, a)
        assert nfa.eps_closure_of(a) == frozenset({a, b})

    def test_step_targets(self):
        nfa = self.build()
        assert nfa.step_targets(0, "a") == {1}
        assert nfa.step_targets(2, "zz") == {3}

    def test_size(self):
        nfa = self.build()
        assert nfa.size() == 4 + 3  # 4 states, 2 labelled + 1 eps edges

    def test_validate_missing_start(self):
        nfa = NFA()
        nfa.new_state()
        nfa.start = -1
        with pytest.raises(AutomatonError):
            nfa.validate()

    def test_alphabet(self):
        assert self.build().alphabet() == {"a", WILDCARD}
