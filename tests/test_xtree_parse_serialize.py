"""XML parser and serialiser tests (including round trips)."""

import gc
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.docstore import DocumentStore, content_digest
from repro.errors import XMLParseError
from repro.xtree import XMLTree, document, element, parse_xml, serialize, text_node
from repro.xtree.parse import _parse_py, parse_canonical


class TestParse:
    def test_simple_element(self):
        tree = parse_xml("<a/>")
        assert tree.root.label == "a"
        assert tree.size == 1

    def test_nested(self):
        tree = parse_xml("<a><b><c/></b></a>")
        assert [n.label for n in tree.root.iter_subtree()] == ["a", "b", "c"]

    def test_text_content(self):
        tree = parse_xml("<a>hello</a>")
        assert tree.root.text() == "hello"

    def test_mixed_children(self):
        tree = parse_xml("<a><b>x</b><b>y</b><c/></a>")
        assert [c.label for c in tree.root.element_children()] == ["b", "b", "c"]

    def test_attributes_are_discarded(self):
        tree = parse_xml('<a id="1"><b key="v">t</b></a>')
        assert tree.root.label == "a"
        assert tree.root.element_children()[0].text() == "t"

    def test_declaration_and_comment_skipped(self):
        tree = parse_xml('<?xml version="1.0"?><!-- hi --><a/>')
        assert tree.root.label == "a"

    def test_entities_decoded(self):
        tree = parse_xml("<a>x &amp; y &lt;z&gt;</a>")
        assert tree.root.text() == "x & y <z>"

    def test_whitespace_between_elements_ignored(self):
        tree = parse_xml("<a>\n  <b/>\n  <c/>\n</a>")
        assert tree.root.text_count if False else True
        assert [c.label for c in tree.root.element_children()] == ["b", "c"]

    def test_self_closing_with_space(self):
        tree = parse_xml("<a><b /></a>")
        assert tree.root.element_children()[0].label == "b"

    def test_mismatched_tags_rejected(self):
        with pytest.raises(XMLParseError, match="mismatched"):
            parse_xml("<a><b></a></b>")

    def test_unclosed_rejected(self):
        with pytest.raises(XMLParseError, match="unclosed"):
            parse_xml("<a><b>")

    def test_extra_close_rejected(self):
        with pytest.raises(XMLParseError, match="unmatched"):
            parse_xml("<a/></b>")

    def test_two_roots_rejected(self):
        with pytest.raises(XMLParseError, match="multiple root"):
            parse_xml("<a/><b/>")

    def test_empty_rejected(self):
        with pytest.raises(XMLParseError, match="no root"):
            parse_xml("   ")

    def test_top_level_text_rejected(self):
        with pytest.raises(XMLParseError, match="outside"):
            parse_xml("boom <a/>")


class TestEntitiesAndMarkup:
    """Each input read wrong before the token pass was rewritten: a
    reference decoded twice, a numeric reference kept literal, and a
    ``>`` inside a comment, a quoted attribute value or a CDATA section
    ending the tag."""

    @pytest.mark.parametrize(
        "source, text, canonical",
        [
            ("<a>x &amp;lt; y</a>", "x &lt; y", "<a>x &amp;lt; y</a>"),
            ("<a>&#65;&#x42;c</a>", "ABc", "<a>ABc</a>"),
            ("<a>&#60;b&#62;</a>", "<b>", "<a>&lt;b&gt;</a>"),
            ("<a>&bogus; &#0; &#xD800;</a>", "&bogus; &#0; &#xD800;",
             "<a>&amp;bogus; &amp;#0; &amp;#xD800;</a>"),
            ("<a><![CDATA[x<y &amp;]]></a>", "x<y &amp;", "<a>x&lt;y &amp;amp;</a>"),
        ],
    )
    def test_text(self, source, text, canonical):
        tree, got = parse_canonical(source)
        assert [n.label for n in tree.nodes] == ["a", "#text"]
        assert tree.root.text() == text == tree.columns.text[0]
        assert got == canonical == serialize(tree)
        assert parse_canonical(canonical)[1] == canonical

    @pytest.mark.parametrize(
        "source",
        [
            "<a><!-- x > y --><b/></a>",
            '<a t="1>2"><b/></a>',
            "<a t='1>2' u=\"'\"><b/></a>",
            "<a><?pi x > y?><b k=\">\"/></a>",
        ],
    )
    def test_markup_holding_a_greater_than_sign(self, source):
        tree, canonical = parse_canonical(source)
        assert [n.label for n in tree.nodes] == ["a", "b"]
        assert canonical == "<a><b/></a>"

    def test_a_text_filter_matches_the_decoded_text(self):
        from repro.hype.api import evaluate_hype

        tree = parse_xml("<r><a>x &amp;lt; y</a><a>x &lt; y</a></r>")
        hits = evaluate_hype("a[text() = 'x &lt; y']", tree).answers
        assert [n.node_id for n in hits] == [1]


class TestSerialize:
    def test_empty_element(self):
        assert serialize(document(element("a"))) == "<a/>"

    def test_text_element(self):
        assert serialize(document(element("a", "hi"))) == "<a>hi</a>"

    def test_escaping(self):
        out = serialize(document(element("a", "x < & > y")))
        assert out == "<a>x &lt; &amp; &gt; y</a>"
        assert parse_xml(out).root.text() == "x < & > y"

    def test_pretty_print(self):
        out = serialize(document(element("a", element("b"))), indent=2)
        assert out == "<a>\n  <b/>\n</a>"

    def test_round_trip_structure(self):
        source = "<a><b>x</b><c><d/></c><b>y</b></a>"
        tree = parse_xml(source)
        again = parse_xml(serialize(tree))
        assert [n.label for n in again.nodes] == [n.label for n in tree.nodes]
        assert [n.value for n in again.nodes] == [n.value for n in tree.nodes]

    def test_serialize_subtree(self):
        tree = parse_xml("<a><b>x</b></a>")
        assert serialize(tree.root.element_children()[0]) == "<b>x</b>"

    def test_deep_tree_does_not_recurse(self):
        depth = 5000
        tree = parse_xml("<a>" * depth + "x" + "</a>" * depth)
        flat = serialize(tree)
        assert flat == "<a>" * depth + "x" + "</a>" * depth
        pretty = serialize(tree, indent=1).split("\n")
        assert len(pretty) == 2 * depth - 1
        assert pretty[depth - 1] == " " * (depth - 1) + "<a>x</a>"
        assert pretty[-1] == "</a>"

    def test_pretty_print_shapes(self):
        tree = document(
            element("a", element("b", "x", "y"), element("c"), "t", element("d", element("e")))
        )
        assert serialize(tree, indent=2) == (
            "<a>\n  <b>xy</b>\n  <c/>\n  t\n  <d>\n    <e/>\n  </d>\n</a>"
        )
        assert serialize(tree) == "<a><b>xy</b><c/>t<d><e/></d></a>"


# ----------------------------------------------------------------------
# The fused pass is the old pipeline: parse + freeze + serialize
# ----------------------------------------------------------------------
TEXT_VALUES = ("x", "a & b", "1 < 2 > 0", "say \"hi\"", "it's", "R&D;", "p  q")

#: Spellings the parser must read as the same character.
SPELLINGS = {
    "&": ("&amp;",),
    "<": ("&lt;",),
    ">": ("&gt;", ">"),
    '"': ("&quot;", '"'),
    "'": ("&apos;", "'"),
}
NOISE = ("", " ", "\n  ", "<!-- note -->", "<?pi data?>", "\n<!-- a -->\n")
ATTRIBUTES = ("", ' id="1"', " k='v' z=\"&amp;\"", "\n   lang='en'")


@st.composite
def source_trees(draw, max_depth: int = 4):
    """Element trees whose text children are never adjacent (adjacent
    text has no textual form: it reads back as one node)."""

    def build(depth: int):
        node = element(draw(st.sampled_from(("a", "b", "c-d", "e.f", "_g"))))
        for _ in range(draw(st.integers(0, 3))):
            text_ok = not (node.children and node.children[-1].is_text)
            if depth < max_depth and not (text_ok and draw(st.booleans())):
                node.append(build(depth + 1))
            elif text_ok:
                node.append(text_node(draw(st.sampled_from(TEXT_VALUES))))
        return node

    return XMLTree(build(0))


def render(draw, node) -> str:
    """One of the many texts that parse to ``node``'s subtree."""
    noise = st.sampled_from(NOISE)
    if node.is_text:
        spelled = "".join(
            draw(st.sampled_from(SPELLINGS[ch])) if ch in SPELLINGS else ch
            for ch in node.value
        )
        return draw(st.sampled_from(("", " ", "\n"))) + spelled + draw(
            st.sampled_from(("", " ", "\t\n"))
        )
    label = node.label
    attributes = draw(st.sampled_from(ATTRIBUTES))
    if not node.children:
        return draw(
            st.sampled_from(
                (
                    f"<{label}{attributes}/>",
                    f"<{label}{attributes} />",
                    f"<{label}{attributes}></{label}>",
                    f"<{label}{attributes}> \n </{label} >",
                    f"<{label}{attributes}><!-- empty --></{label}>",
                )
            )
        )
    body = draw(noise)
    for child in node.children:
        # Markup between two pieces of text would split it in two.
        body += render(draw, child) + ("" if child.is_text else draw(noise))
    return f"<{label}{attributes}>{body}</{label}>"


@st.composite
def documents_as_text(draw):
    """A tree and two independently noisy renderings of it."""
    tree = draw(source_trees())
    texts = []
    for _ in range(2):
        prolog = draw(st.sampled_from(("", '<?xml version="1.0"?>\n', "<!-- head -->")))
        epilog = draw(st.sampled_from(("", "\n", "\n<!-- tail -->\n")))
        texts.append(prolog + render(draw, tree.root) + epilog)
    return tree, texts


#: Every column a freeze builds.
COLUMNS = ("label", "parent", "depth", "text", "position", "kid_start", "kid_ids")


def frozen_columns(tree):
    """Everything a freeze decides: its columns, the stamps of the
    nodes ``tree.nodes`` hands out, and the label set."""
    return (
        [list(getattr(tree.columns, name)) for name in COLUMNS],
        [
            (n.node_id, n.parent.node_id if n.parent else None, n.depth, n.label, n.value)
            for n in tree.nodes
        ],
        tree.labels,
    )


class TestFusedPass:
    @given(documents_as_text())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_parse_freezes_and_serialises_like_the_separate_walks(self, case):
        source, texts = case
        expected = serialize(source)
        for text in texts:
            tree, canonical = parse_canonical(text)
            assert canonical == expected == serialize(tree)
            assert parse_canonical(canonical)[1] == canonical
            assert tree.root is tree.nodes[0]
            # The parser's columns are the in-memory freeze's.
            assert frozen_columns(tree) == frozen_columns(source)

    @given(documents_as_text())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_textual_variant_is_one_store_entry(self, case):
        source, texts = case
        store = DocumentStore()
        docs = [store.get(text) for text in texts]
        docs.append(store.get(serialize(source, indent=2)))
        docs.append(store.adopt(source))
        assert len(store) == 1
        assert all(doc is docs[0] for doc in docs)
        assert docs[0].content_hash == content_digest(serialize(source))

    def test_elements_of_one_label_share_one_string(self):
        tree = parse_xml('<a><b/><b x="1">t</b><a><b ></b></a></a>')
        by_label = {}
        for node in tree.nodes:
            if node.is_element:
                assert by_label.setdefault(node.label, node.label) is node.label

    @pytest.mark.parametrize(
        "text, message",
        [
            ("<a/></b>", "unmatched closing tag </b>"),
            ("</ b >", "malformed tag '</ b >'"),
            ("<b>x</ b>", "malformed tag '</ b>'"),
            ("<a><b></a></b>", "mismatched tags: <b> closed by </a>"),
            ("<a><b x='1'>t</c></a>", "mismatched tags: <b> closed by </c>"),
            ("<a><1b/></a>", "malformed tag '<1b/>'"),
            ("<a><></a>", "malformed tag '<>'"),
            # A tag's name is all of its first run, never a prefix of it.
            ("<r><x:patient/></r>", "malformed tag '<x:patient/>'"),
            ("<r><a$b/></r>", "malformed tag '<a$b/>'"),
            ("<r><a:b></a></r>", "malformed tag '<a:b>'"),
            ("<r><a b/></r>", "malformed tag '<a b/>'"),
            ("<a/><b/>", "multiple root elements"),
            ("<a></a><a>", "multiple root elements"),
            ("boom <a/>", "text content outside the root element"),
            ("<a/> &amp; ", "text content outside the root element"),
            ("<a><b>", "unclosed element <b>"),
            ("<a><b/>", "unclosed element <a>"),
            ("   ", "no root element found"),
            ("<?xml version='1.0'?><!-- only -->", "no root element found"),
        ],
    )
    def test_error_messages_are_unchanged(self, text, message):
        with pytest.raises(XMLParseError) as excinfo:
            parse_xml(text)
        assert str(excinfo.value) == message


# ----------------------------------------------------------------------
# Parse time is linear in the source
# ----------------------------------------------------------------------
#: Inputs that are hard for a tokeniser, as a function of their size.
#: Each unterminated opener once cost a scan to the end of the source
#: per opener (quadratic: 160 KB of ``<![CDATA[>`` took 21 s), and so
#: did a ``<`` with no ``>`` after it.
HARD_INPUTS = {
    "unterminated CDATA": lambda n: "<r>" + "<![CDATA[>" * n + "</r>",
    "unterminated comment": lambda n: "<!-- >" * n,
    "unterminated processing instruction": lambda n: "<?x >" * n,
    "less-than with no greater-than": lambda n: "<r>" + "<x" * n,
    "deep nesting": lambda n: "<a>" * n + "x" + "</a>" * n,
    "quoted attribute values holding >": lambda n: "<r>" + '<a t="1>2" u=\'>\'/>' * n + "</r>",
}


def _parse_seconds(parser, source) -> float:
    """The fastest of a few parses of ``source`` (errors included), in
    CPU seconds: time spent waiting for a busy host's cores is not the
    parser's."""
    best, spent = float("inf"), 0.0
    for _ in range(5):
        start = time.process_time()
        try:
            parser(source)
        except XMLParseError:
            pass
        took = time.process_time() - start
        best, spent = min(best, took), spent + took
        if spent > 0.5:
            break
    return best


class TestLinearTime:
    @pytest.mark.parametrize("make", HARD_INPUTS.values(), ids=HARD_INPUTS.keys())
    @pytest.mark.parametrize("parser", [parse_canonical, _parse_py], ids=["parse", "python"])
    def test_doubling_the_input_at_most_triples_the_time(self, parser, make):
        """A quadratic parse quadruples; the best of five measurements
        keeps a noisy host from failing a linear one."""
        n = 5000
        small, large = make(n), make(2 * n)
        gc.disable()
        try:
            ratios = []
            for _ in range(5):
                ratios.append(_parse_seconds(parser, large) / _parse_seconds(parser, small))
                if ratios[-1] <= 3:
                    break
        finally:
            gc.enable()
        assert min(ratios) <= 3, ratios
