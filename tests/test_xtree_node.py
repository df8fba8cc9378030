"""Unit tests for the node/tree model."""

from repro.xtree import XMLTree, document, element, index_tree, text_node
from repro.xtree.node import TEXT_LABEL, Node


def sample_tree():
    return document(
        element(
            "a",
            element("b", "hello"),
            element("c"),
            element("b", element("d", "world")),
        )
    )


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

    def test_reindex_after_mutation(self):
        tree = sample_tree()
        tree.root.append(element("e"))
        index_tree(tree.root, tree)
        assert tree.labels == {"a", "b", "c", "d", "e"}
        assert [n.node_id for n in tree.nodes] == list(range(tree.size))

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
    are gone: a frozen tree's columns answer the same questions, and a
    re-freeze rebuilds them."""

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

    def test_refreeze_rebuilds_the_columns(self):
        tree = sample_tree()
        root = tree.root
        before = tree.columns
        # Structural edit + re-freeze (the documented mutation protocol).
        root.append(text_node("extra"))
        root.append(element("z"))
        index_tree(root, tree)
        assert tree.columns is not before
        assert root.columns is tree.columns
        assert tree.columns.text[0] == root.text() == "extra"
        assert len(root.element_children()) == 4
        assert tree.columns.position[root.element_children()[-1].node_id] == 4

    def test_text_node_and_empty_element(self):
        tree = sample_tree()
        text = next(n for n in tree.nodes if n.is_text)
        empty = next(n for n in tree.nodes if n.is_element and not n.children)
        assert tree.columns.text[text.node_id] == text.text() == text.value
        assert tree.columns.text[empty.node_id] == ""
        assert tree.columns.position[text.node_id] == 0
