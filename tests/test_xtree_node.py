"""Unit tests for the node/tree model."""

import pytest

from repro.errors import EvaluationError
from repro.xtree import XMLTree, document, element, parse_xml, text_node
from repro.xtree.node import TEXT_LABEL, Node


def sample_tree_root():
    return element(
        "a",
        element("b", "hello"),
        element("c"),
        element("b", element("d", "world")),
    )


def sample_tree():
    return document(sample_tree_root())


class TestNodeBasics:
    def test_element_flags(self):
        node = element("x")
        assert node.is_element and not node.is_text

    def test_text_flags(self):
        node = text_node("v")
        assert node.is_text and not node.is_element
        assert node.label == TEXT_LABEL

    def test_text_of_element_concatenates_text_children(self):
        node = element("x", "foo", element("y"), "bar")
        assert node.text() == "foobar"

    def test_text_of_text_node_is_its_value(self):
        assert text_node("v").text() == "v"

    def test_text_of_childless_element_is_empty(self):
        assert element("x").text() == ""

    def test_element_children_skips_text(self):
        node = element("x", "t", element("y"), element("z"))
        assert [c.label for c in node.element_children()] == ["y", "z"]

    def test_children_filter_by_label(self):
        """``Node.child_elements`` is gone (no caller outside tests): a
        comprehension over ``children`` does the same."""
        tree = sample_tree()
        assert len([c for c in tree.root.children if c.label == "b"]) == 2
        assert not [c for c in tree.root.children if c.label == "nope"]

    def test_append_returns_child(self):
        parent = element("p")
        child = parent.append(element("c"))
        assert child in parent.children


class TestIndexing:
    def test_document_order_ids(self):
        tree = sample_tree()
        assert [n.node_id for n in tree.nodes] == list(range(tree.size))

    def test_preorder_means_parent_before_child(self):
        tree = sample_tree()
        for node in tree.nodes:
            if node.parent is not None:
                assert node.parent.node_id < node.node_id

    def test_depths(self):
        tree = sample_tree()
        assert tree.root.depth == 0
        for node in tree.nodes:
            if node.parent is not None:
                assert node.depth == node.parent.depth + 1

    def test_labels_collected(self):
        tree = sample_tree()
        assert tree.labels == {"a", "b", "c", "d"}

    def test_counts(self):
        tree = sample_tree()
        assert tree.element_count == 5
        assert tree.size - tree.element_count == 2  # text_count is gone
        assert tree.size == 7

    def test_node_lookup(self):
        tree = sample_tree()
        for node in tree.nodes:
            assert tree.node(node.node_id) is node


class TestTraversal:
    def test_iter_subtree_is_preorder(self):
        tree = sample_tree()
        ids = [n.node_id for n in tree.root.iter_subtree()]
        assert ids == sorted(ids)
        assert len(ids) == tree.size

    def test_iter_subtree_starts_with_self(self):
        """``iter_descendants`` is gone: it was ``iter_subtree`` minus
        its first node."""
        tree = sample_tree()
        descendants = list(tree.root.iter_subtree())[1:]
        assert tree.root not in descendants
        assert len(descendants) == tree.size - 1

    def test_iter_ancestors(self):
        tree = sample_tree()
        deepest = max(tree.nodes, key=lambda n: n.depth)
        chain = list(deepest.iter_ancestors())
        assert chain[-1] is tree.root
        assert [a.depth for a in chain] == list(range(deepest.depth - 1, -1, -1))

    def test_depth_method(self):
        assert sample_tree().depth() == 3


class TestColumns:
    """The per-node caches (``text_cached``, ``element_children_cached``)
    are gone: a frozen tree's columns answer the same questions."""

    def test_text_column_matches_text_everywhere(self):
        tree = sample_tree()
        for node in tree.nodes:
            assert tree.columns.text[node.node_id] == node.text()

    def test_kid_spans_are_the_element_children(self):
        tree = sample_tree()
        columns = tree.columns
        for node in tree.nodes:
            start, end = columns.kid_start[node.node_id : node.node_id + 2]
            assert [tree.nodes[i] for i in columns.kid_ids[start:end]] == (
                node.element_children()
            )
            for place, kid in enumerate(node.element_children(), start=1):
                assert columns.position[kid.node_id] == place

    def test_late_children_are_in_the_columns(self):
        """Children appended while the tree is built (here after its
        other children) are in the columns the freeze builds."""
        root = sample_tree_root()
        root.append(text_node("extra"))
        root.append(element("z"))
        tree = document(root)
        assert root.columns is tree.columns
        assert tree.columns.text[0] == root.text() == "extra"
        assert tree.labels == {"a", "b", "c", "d", "z"}
        assert len(root.element_children()) == 4
        assert tree.columns.position[root.element_children()[-1].node_id] == 4

    def test_text_node_and_empty_element(self):
        tree = sample_tree()
        text = next(n for n in tree.nodes if n.is_text)
        empty = next(n for n in tree.nodes if n.is_element and not n.children)
        assert tree.columns.text[text.node_id] == text.text() == text.value
        assert tree.columns.text[empty.node_id] == ""
        assert tree.columns.position[text.node_id] == 0


class TestAFreezeIsFinal:
    """A frozen tree is immutable: its layout and indexes describe it
    for as long as it lives, so nothing has to detect an edit later."""

    @staticmethod
    def frozen_trees():
        yield sample_tree()
        yield parse_xml("<a><b>hello</b><c/><b><d>world</d></b></a>")

    def test_children_of_a_frozen_node_are_a_tuple(self):
        for tree in self.frozen_trees():
            for node in tree.nodes:
                assert isinstance(node.children, tuple)
                if node.children:
                    with pytest.raises(TypeError):
                        node.children[0] = element("x")
                    with pytest.raises(AttributeError):
                        node.children.insert(0, element("x"))

    def test_append_and_extend_are_refused_on_every_node(self):
        for tree in self.frozen_trees():
            before = list(tree.columns.label)
            for node in tree.nodes:
                with pytest.raises(EvaluationError, match="immutable"):
                    node.append(element("x"))
                with pytest.raises(EvaluationError, match="immutable"):
                    node.extend([element("x"), text_node("y")])
            assert tree.columns.label == before
            assert [len(n.children) for n in tree.nodes] == [3, 1, 0, 0, 1, 1, 0]

    def test_a_frozen_root_is_refused(self):
        for tree in self.frozen_trees():
            columns = tree.columns
            with pytest.raises(EvaluationError, match="already belongs"):
                XMLTree(tree.root)
            assert tree.root.columns is columns
            assert tree.root.owning_tree() is tree

    def test_a_frozen_node_below_a_new_root_is_refused_and_nothing_is_stamped(self):
        for tree in self.frozen_trees():
            fresh = element("x")
            wrapper = element("w", fresh, tree.root.children[2])
            with pytest.raises(EvaluationError, match="already belongs"):
                document(wrapper)
            assert wrapper.columns is fresh.columns is None
            assert wrapper.node_id == fresh.node_id == -1
            fresh.append(element("y"))  # still being built
            assert document(fresh).labels == {"x", "y"}

    def test_a_node_twice_in_one_tree_is_refused(self):
        """Regression: a node appended twice was frozen twice, and
        ``nodes[1].node_id`` read 2."""
        twice = element("x")
        root = element("r", twice, element("y", twice))
        with pytest.raises(EvaluationError, match="already belongs"):
            document(root)
        assert root._owner is twice._owner is None
        assert document(element("r", twice)).size == 2

    def test_text_nodes_still_refuse_children_before_the_freeze(self):
        with pytest.raises(EvaluationError, match="text node"):
            text_node("v").append(element("x"))


def test_the_freeze_epoch_is_gone():
    """A freeze is final, so nothing counts freezes, scans for edits or
    refuses a re-frozen document: the epoch's names and error texts are
    gone from the package, and ``index_tree`` is no public API."""
    import ast
    import inspect
    from pathlib import Path

    import repro
    import repro.xtree
    from repro.xtree.node import NodeList

    retired = {"freeze_count", "_freeze_count", "index_tree"}
    found = []
    for path in sorted(Path(inspect.getfile(repro)).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in retired:
                found.append((path.name, node.attr))
            elif isinstance(node, ast.Name) and node.id in retired:
                found.append((path.name, node.id))
            elif isinstance(node, (ast.FunctionDef, ast.arg)) and (
                getattr(node, "name", None) in retired
                or getattr(node, "arg", None) in retired
            ):
                found.append((path.name, ast.unparse(node)))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                text = node.value
                if text in retired or "re-frozen" in text or "re-freeze" in text:
                    found.append((path.name, text[:40]))
    assert not found
    assert not hasattr(NodeList, "edited")
    assert not hasattr(repro.xtree, "index_tree")
    assert "index_tree" not in repro.xtree.__all__
