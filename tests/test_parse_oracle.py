"""The parser against an independent one: the standard library's expat.

:func:`repro.xtree.parse.parse_canonical` (the compiled scan, then the
Python pass) and :func:`parse._parse_py` (the Python pass alone) encode
this repository's own reading of XML.  Here expat reads the same text,
and :func:`expat_columns` builds from its events the columns the data
model of Section 2 makes of it: elements and text only (attributes,
comments, processing instructions and the DOCTYPE are dropped), one
text node per character run between two pieces of markup, stripped of
white space (``str.strip()``) and dropped when empty.

* **Differential** — ``tests/strategies``-style trees written with markup
  noise (comments, processing instructions, CDATA, quoted attributes
  holding ``>``, named and numeric references, white-space runs, an XML
  declaration): both passes give expat's columns.
* **Totality** — mutated documents: where the two readers disagree on
  acceptance, the input is one of the named :data:`LENIENCIES`, and
  where both accept, the columns are equal.
* **Fixpoint** — ``parse(canonical(parse(x)))`` has the same columns
  and the same content address.

The leniencies are explicit and finite.  Rejected, though expat reads
them: a DOCTYPE with an internal subset, a leading byte-order mark, and
names outside ``NAME`` (``[A-Za-z_][A-Za-z0-9_.-]*``: no colon, nothing
non-ASCII).  Accepted, though expat refuses them: an unknown entity and
a reference to a non-character (``&#0;``, a surrogate, ...), each kept
literal; an ``&`` that starts no reference; ``--`` inside a comment (or
a comment ending in ``-``); ``<`` inside an attribute value.
"""

from __future__ import annotations

import re
from xml.parsers import expat

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.docstore import content_digest
from repro.errors import XMLParseError
from repro.xtree import parse
from repro.xtree.build import element, text_node
from repro.xtree.node import TEXT_LABEL, XMLTree

COLUMNS = ("label", "parent", "depth", "text", "position")

#: The two passes: ``parse_canonical`` (the compiled scan where it
#: accepts) and the Python pass alone.
PASSES = {"parse": parse.parse_canonical, "python": parse._parse_py}


# ----------------------------------------------------------------------
# The reference
# ----------------------------------------------------------------------
def expat_columns(source: str, reader=None) -> dict:
    """The data-model columns expat's reading of ``source`` gives
    (``reader``: the expat parser to read with, a fresh one by default).

    Raises:
        expat.ExpatError: where expat rejects ``source``.
    """
    label, parent, depth, text, position = [], [], [], [], []
    stack: list[int] = []
    kids: list[int] = []  # per node, its element children so far
    run: list[str] = []

    def flush(*_ignored) -> None:
        value = "".join(run).strip()
        run.clear()
        if value and stack:
            up = stack[-1]
            label.append(TEXT_LABEL)
            parent.append(up)
            depth.append(len(stack))
            text.append(value)
            position.append(0)
            kids.append(0)
            text[up] += value

    def start(name, _attributes) -> None:
        flush()
        if stack:
            up = stack[-1]
            kids[up] += 1
            parent.append(up)
            position.append(kids[up])
        else:
            parent.append(-1)
            position.append(1)
        stack.append(len(label))
        label.append(name)
        depth.append(len(stack) - 1)
        text.append("")
        kids.append(0)

    def end(_name) -> None:
        flush()
        stack.pop()

    reader = reader or expat.ParserCreate()
    reader.StartElementHandler = start
    reader.EndElementHandler = end
    reader.CharacterDataHandler = run.append
    # Behind an external DTD expat cannot tell an unknown entity from a
    # declared one, skips it and reads on; this parser keeps it literal.
    reader.SkippedEntityHandler = lambda name, _parameter: run.append(f"&{name};")
    for event in (
        "CommentHandler",
        "ProcessingInstructionHandler",
        "StartCdataSectionHandler",
        "EndCdataSectionHandler",
    ):
        setattr(reader, event, flush)
    reader.Parse(source, True)
    return dict(zip(COLUMNS, (label, parent, depth, text, position)))


def our_columns(tree) -> dict:
    return {name: list(getattr(tree.columns, name)) for name in COLUMNS}


def expat_outcome(source: str):
    """``(columns, None)`` or ``(None, (message, offset))``: expat's
    reading, or its first complaint and the character offset it points
    at."""
    reader = expat.ParserCreate()
    try:
        return expat_columns(source, reader), None
    except expat.ExpatError as error:
        at = source.encode("utf-8")[: reader.ErrorByteIndex]
        return None, (expat.ErrorString(error.code), len(at.decode("utf-8")))


# ----------------------------------------------------------------------
# The leniencies
# ----------------------------------------------------------------------
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")
_REFERENCE = re.compile(r"&(?:[A-Za-z_:][A-Za-z0-9_.:\-]*|#[0-9]+|#x[0-9a-fA-F]+);")


def _inside(source: str, at: int, opener: str, closer: str) -> bool:
    return source.rfind(opener, 0, at) > source.rfind(closer, 0, at)


def _in_attribute_value(source: str, at: int) -> bool:
    """Whether ``at`` lies in a quoted value of the tag opened by the last
    '<' before it (a value may hold '>', which closes no tag)."""
    quote = None
    for char in source[source.rfind("<", 0, at) + 1 : at]:
        if quote is not None:
            quote = None if char == quote else quote
        elif char in "\"'":
            quote = char
        elif char == ">":
            return False
    return quote is not None


def accepted_leniency(source: str, complaint) -> str | None:
    """Which named leniency makes us accept what expat refused at
    ``complaint``, or ``None``."""
    message, at = complaint
    if message == "undefined entity":
        return "unknown entity kept literal"
    if message == "reference to invalid character number":
        return "reference to a non-character kept literal"
    here = source[at : at + 1]
    # Expat points at the '&' or past it, inside the same text run or
    # attribute value.
    start = max(source.rfind(mark, 0, at) for mark in "<>\"'") + 1
    for amp in re.finditer("&", source[: at + 1]):
        if amp.start() >= start and not _REFERENCE.match(source, amp.start()):
            return "'&' starting no reference"
    if _inside(source, at, "<!--", "-->") and "-" in source[at - 1 : at + 2]:
        return "'--' inside a comment"
    if here == "<" and _in_attribute_value(source, at):
        return "'<' inside an attribute value"
    return None


def rejected_leniency(source: str, error: XMLParseError) -> str | None:
    """Which named leniency makes us reject what expat read, or
    ``None``."""
    if source.startswith("\ufeff"):
        return "leading byte-order mark"
    if re.search(r"<!DOCTYPE[^>]*\[", source):
        return "DOCTYPE internal subset"
    names = re.findall(r"<[/?]?([^\s/>?!]+)|[ \t\r\n]([^\s=/>]+)[ \t\r\n]*=", source)
    if any(_NAME.fullmatch(name or attribute) is None for name, attribute in names):
        return "name outside NAME"
    return None


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------
LABELS = ("a", "b", "c-d", "e.f", "_g")
VALUES = ("x", "y z", "5 < 6", "A&B", "\"q\" 'q'", "é", "a]]b", "tab\there")
#: How a character may be written in text.
SPELLINGS = {
    "&": ("&amp;", "&#38;", "&#x26;"),
    "<": ("&lt;", "&#60;"),
    ">": ("&gt;", ">"),
    '"': ("&quot;", '"', "&#34;"),
    "'": ("&apos;", "'"),
    "x": ("x", "&#120;", "&#x78;"),
    "é": ("é", "&#233;", "&#xE9;"),
    "]": ("]", "&#93;"),
}
NOISE = (
    "", " ", "\n  ", "\t\r\n", "<!-- note -->", "<!-- a > b -->", "<?pi data?>",
    "<?pi a > b?>", "<!---->",
)
ATTRIBUTES = (
    "", ' id="1"', " k='v' z=\"&amp;\"", '\n   lang="en"', ' when="x > y"',
    " q='>' r=\"'\"",
)
PROLOGS = (
    "", '<?xml version="1.0"?>\n', '<?xml version="1.0" encoding="UTF-8"?>',
    "<?xml version='1.0'?>", "<!-- head -->\n", '<!DOCTYPE a SYSTEM "a.dtd">\n',
    '<?xml version="1.0"?><!DOCTYPE a>',
)
EPILOGS = ("", "\n", "\n<!-- tail -->\n", "<?done?>")


@st.composite
def source_trees(draw, max_depth: int = 3):
    """Element trees whose text children are never adjacent (adjacent
    text has no textual form: it reads back as one node)."""

    def build(depth: int):
        node = element(draw(st.sampled_from(LABELS)))
        for _ in range(draw(st.integers(0, 3))):
            text_ok = not (node.children and node.children[-1].is_text)
            if depth < max_depth and not (text_ok and draw(st.booleans())):
                node.append(build(depth + 1))
            elif text_ok:
                node.append(text_node(draw(st.sampled_from(VALUES))))
        return node

    return XMLTree(build(0))


def render(draw, node) -> str:
    """One of the many texts that read as ``node``'s subtree."""
    if node.is_text:
        if "]]" not in node.value and draw(st.integers(0, 4)) == 0:
            body = f"<![CDATA[{node.value}]]>"
        else:
            body = "".join(
                draw(st.sampled_from(SPELLINGS[ch])) if ch in SPELLINGS else ch
                for ch in node.value
            )
        return draw(st.sampled_from(("", " ", "\n"))) + body + draw(
            st.sampled_from(("", " ", "\t\n", "\r\n"))
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
    noise = st.sampled_from(NOISE)
    body = draw(noise)
    for child in node.children:
        # Markup between two pieces of text would split it in two.
        body += render(draw, child) + ("" if child.is_text else draw(noise))
    return f"<{label}{attributes}>{body}</{label}>"


@st.composite
def documents(draw) -> str:
    tree = draw(source_trees())
    prolog = draw(st.sampled_from(PROLOGS))
    if "DOCTYPE" in prolog:  # the declared name is the root's
        prolog = prolog.replace("DOCTYPE a", f"DOCTYPE {tree.root.label}")
    return prolog + render(draw, tree.root) + draw(st.sampled_from(EPILOGS))


ALPHABET = "<>/!?-&;#\"'= \t\r\n[]:xml_.1é\x1c\ufeff"


@st.composite
def mutated_documents(draw) -> str:
    text = draw(documents())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(("insert", "delete", "replace")))
        piece = draw(st.text(st.sampled_from(ALPHABET), min_size=1, max_size=3))
        if how == "insert":
            text = text[:at] + piece + text[at:]
        elif how == "delete":
            text = text[:at] + text[at + len(piece):]
        else:
            text = text[:at] + piece + text[at + len(piece):]
    return text


def outcome(parser, source):
    try:
        tree, canonical = parser(source)
    except XMLParseError as error:
        return None, error
    return (tree, canonical), None


# ----------------------------------------------------------------------
# The properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", PASSES)
class TestAgainstExpat:
    @given(documents())
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_noisy_documents_read_as_expat_reads_them(self, name, source):
        tree, _canonical = PASSES[name](source)
        assert our_columns(tree) == expat_columns(source)

    @given(mutated_documents())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_disagreements_are_named_leniencies(self, name, source):
        expected, complaint = expat_outcome(source)
        parsed, error = outcome(PASSES[name], source)
        if expected is not None and parsed is not None:
            assert our_columns(parsed[0]) == expected
        elif expected is not None:
            assert rejected_leniency(source, error) is not None, error
        elif parsed is not None:
            assert accepted_leniency(source, complaint) is not None, complaint

    @given(documents())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_the_canonical_text_is_a_fixpoint(self, name, source):
        tree, canonical = PASSES[name](source)
        again, canonical_again = PASSES[name](canonical)
        assert canonical_again == canonical
        assert content_digest(canonical_again) == content_digest(canonical)
        assert our_columns(again) == our_columns(tree)
        assert list(again.columns.kid_ids) == list(tree.columns.kid_ids)
        assert list(again.columns.kid_start) == list(tree.columns.kid_start)


#: Each leniency once, by name: ``(source, expat accepts it)``.
LENIENCIES = {
    "DOCTYPE internal subset": ("<!DOCTYPE a [<!ELEMENT a ANY>]><a/>", True),
    "leading byte-order mark": ("\ufeff<a/>", True),
    "name outside NAME (colon)": ("<r><x:patient/></r>", True),
    "name outside NAME (non-ASCII)": ("<r><é/></r>", True),
    "unknown entity kept literal": ("<a>&foo;</a>", False),
    "reference to a non-character kept literal": ("<a>&#0;&#xD800;&#x1;</a>", False),
    "'&' starting no reference": ("<a>R&D</a>", False),
    "'--' inside a comment": ("<a><!-- a -- b --></a>", False),
    "'<' inside an attribute value": ('<a t="<"/>', False),
}

#: Inputs expat refuses and both passes reject (each once accepted, or
#: parsed as something else, by this parser).
REJECTED = {
    "a '$' in a name": "<r><a$b/></r>",
    "an open tag read by its prefix": "<r><a:b></a></r>",
    "space after '</'": "<a>x</ a>",
    "space after '<'": "<a>< b/></a>",
    "an attribute with no value": "<a b/>",
    "attributes with no space between": "<a b='1'c='2'/>",
    "a duplicate attribute": "<a b='1' b='2'/>",
    "a slash inside an open tag": "<r><a/ ></r>",
    "a processing instruction with no target": "<a><??></a>",
    "an XML declaration past the start": "<a/><?xml version='1.0'?>",
    "a malformed XML declaration": "<?xml?><a/>",
    "a DOCTYPE after the root": "<a/><!DOCTYPE a>",
    "a second DOCTYPE": "<!DOCTYPE a><!DOCTYPE a><a/>",
    "another declaration": "<!ELEMENT a ANY><a/>",
    "a C0 control character": "<a>\x0b</a>",
    "']]>' in text": "<a>x]]>y</a>",
    "a CDATA section outside the root": "<![CDATA[]]><a/>",
}


@pytest.mark.parametrize("name", PASSES)
class TestNamedCases:
    @pytest.mark.parametrize("case", LENIENCIES, ids=LENIENCIES.keys())
    def test_each_leniency(self, name, case):
        source, expat_reads_it = LENIENCIES[case]
        expected, complaint = expat_outcome(source)
        parsed, error = outcome(PASSES[name], source)
        assert (expected is not None) == expat_reads_it
        assert (parsed is None) == expat_reads_it
        if expat_reads_it:
            assert rejected_leniency(source, error) is not None
        else:
            assert accepted_leniency(source, complaint) is not None

    @pytest.mark.parametrize("source", REJECTED.values(), ids=REJECTED.keys())
    def test_rejected_as_expat_rejects(self, name, source):
        assert expat_outcome(source)[0] is None
        with pytest.raises(XMLParseError):
            PASSES[name](source)

    def test_line_ends_read_as_line_feeds(self, name):
        source = "<a>x\r\ny\rz</a>"
        tree, canonical = PASSES[name](source)
        assert our_columns(tree) == expat_columns(source)
        assert canonical == "<a>x\ny\nz</a>"
