"""The parser's compiled token pass against the Python one.

:func:`repro.xtree.parse.parse_canonical` tries ``_scan.c``'s ``scan``
first (when :mod:`repro.native` could build it, ``parse.SCAN ==
"compiled"``) and runs the Python pass, :func:`parse._parse_py`, when
``scan`` returns ``None``.  Here:

* **differential** — noisy renderings of random trees (attributes,
  entities, CDATA, markup around text: many fall back), renderings of
  ``tests/strategies.py``'s trees that stay inside the accepted subset
  (``scan`` must accept every one) and generated hospital documents:
  where ``scan`` accepts, every column, the kid spans, the label set,
  the canonical text and its content hash equal the Python pass's, and
  the objects are shared the same way (interned labels, one int per
  element id, an only text child's ``str`` as its parent's ``text()``);
  and the scan's derived columns — label ids, mask classes — equal
  what the layout maps and the index sweeps over the Python pass's
  tree, through both index variants and the index record's bytes;
* **derived columns** — both sides of each boundary past which the scan
  emits no mask classes (63 labels, 65 536 distinct masks) and of the
  u8/u16 id width;
* **mangled inputs** — random markup, random bytes and every cut of a
  document (what ``make sanitize`` runs under ASan and UBSan);
* **fallback** — one named input per class outside the subset, each
  refused by ``scan`` and parsed (or rejected) exactly as the Python
  pass does;
* **totality** — mutated documents never make ``scan`` raise, and
  ``parse_canonical`` returns or raises :class:`XMLParseError` exactly
  as the Python pass does;
* **references** — in a subprocess, 2000 mixed parses (accepted,
  refused mid-document, malformed) retain no memory and leave the
  refcounts of the interned labels and ``TEXT_LABEL`` as they were.

The compiled-only cases skip where ``SCAN`` is a fallback (the
``CC=false`` CI job); the totality case and the Python pass's
underived tree run everywhere.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from itertools import chain, combinations, islice
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.docstore import content_digest
from repro.docstore.layout import DocumentLayout
from repro.docstore.store import _index_record
from repro.errors import XMLParseError
from repro.hype.index import build_index, other_variant, subtree_masks
from repro.workloads.hospital import HospitalConfig, generate_hospital_document
from repro.xtree import parse
from repro.xtree.node import TEXT_LABEL, TreeColumns, XMLTree
from repro.xtree.serialize import serialize

from .strategies import trees
from .test_xtree_parse_serialize import documents_as_text

SRC = Path(parse.__file__).resolve().parents[2]

compiled_only = pytest.mark.skipif(
    parse.SCAN != "compiled", reason=f"scan is {parse.SCAN!r}"
)

#: XML's white space, which a text run is stripped of (the other C0
#: controls are no XML character at all).
ASCII_SPACE = " \t\n\r"


def python_pass(source):
    """``("ok", tree, canonical)`` or ``("error", message)``."""
    try:
        return ("ok", *parse._parse_py(source))
    except XMLParseError as error:
        return ("error", str(error))


def assert_scan_agrees(source, *, accepted=None):
    """``scan(source)`` is ``None`` or equals the Python pass in every
    column and in how its objects are shared, and its derived columns
    equal what the layout and the index derive from the Python pass's
    tree (:func:`assert_derived_agree`); returns whether it accepted.
    ``accepted`` pins the expected outcome."""
    scanned = parse._scan(source, TEXT_LABEL)
    if accepted is not None:
        assert (scanned is not None) == accepted, source
    if scanned is None:
        return False
    expected_tree, expected_text = parse._parse_py(source)
    expected = expected_tree.columns
    *columns, labels, canonical = scanned
    label, parent, depth, text, position, kid_start, kid_ids = columns[:7]
    got = TreeColumns(*columns)
    for name in ("label", "parent", "depth", "text", "position", "kid_ids", "kid_start"):
        assert getattr(got, name) == getattr(expected, name), name
    assert labels == expected_tree.labels
    assert canonical == expected_text
    assert content_digest(canonical) == content_digest(expected_text)
    # Interned: the very objects the Python pass (sys.intern) holds.
    assert all(a is b for a, b in zip(label, expected.label))
    assert all(name is sys.intern(name) for name in labels)
    # One int object per element id, shared by its kid_ids entry and
    # every parent entry that names it.
    ids = {element: element for element in [0, *kid_ids]}
    assert all(up is ids[up] for up in parent[1:])
    # An element's text() is its only text child's str, as in the
    # Python pass; it is new when built from several.
    for node in range(len(label)):
        if label[node] == TEXT_LABEL:
            up = parent[node]
            assert (text[node] is text[up]) == (
                expected.text[node] is expected.text[up]
            ), node
    assert_derived_agree(XMLTree.from_columns(got, labels), expected_tree)
    return True


def assert_derived_agree(tree, reference):
    """``tree``'s scan-derived columns (``node_label``, ``kid_labels``,
    ``mask_classes``) against the Python derivations over ``reference``
    (the same document, parsed by the Python pass): the layout's label
    ids, the swept masks' distinct values in first-appearance order and
    local ids, both index variants' mask keys and the index record's
    bytes; ``mask_classes`` is ``None`` exactly past the two
    boundaries."""
    columns = tree.columns
    mapped = DocumentLayout(reference)
    assert columns.node_label == mapped.node_label
    assert columns.kid_labels == mapped.kid_labels
    table = mapped.table
    masks = subtree_masks(reference, table.bit_of)
    distinct = list(dict.fromkeys(masks))
    classes = columns.mask_classes
    if len(table.labels) > 63 or len(distinct) > 1 << 16:
        assert classes is None
    else:
        sorted_labels, got_masks, local = classes
        assert sorted_labels == table.labels
        assert list(got_masks) == distinct
        width = 1 if len(distinct) <= 1 << 8 else 2
        position = {mask: i for i, mask in enumerate(distinct)}
        assert local == b"".join(
            position[mask].to_bytes(width, "little") for mask in masks
        )
    for compressed in (False, True):
        built = build_index(tree, compressed)
        swept = build_index(reference, compressed)
        assert built.table is swept.table is table
        assert list(built.mask_keys) == list(swept.mask_keys)
        assert list(other_variant(built).mask_keys) == list(
            other_variant(swept).mask_keys
        )
        assert _index_record(built, "0" * 64) == _index_record(swept, "0" * 64)


# ----------------------------------------------------------------------
# Documents inside the accepted subset
# ----------------------------------------------------------------------
NOISE = ("", " ", "\n\t", "\r\n", "<!-- note -->", "<?pi data?>", "<!---->", "<?p?>")


@st.composite
def subset_documents(draw):
    """A :func:`tests.strategies.trees` tree written only with what
    ``scan`` accepts: bare tags, skipped comments and processing
    instructions, ASCII whitespace around text."""
    tree = draw(trees())
    space = st.text(st.sampled_from(ASCII_SPACE), max_size=2)
    noise = st.sampled_from(NOISE)

    def render(node) -> str:
        if node.is_text:
            return draw(space) + node.value + draw(space)
        label = node.label
        if not node.children:
            return draw(st.sampled_from((f"<{label}/>", f"<{label}></{label}>",
                                         f"<{label}><!-- empty --></{label}>")))
        body = "".join(render(child) + draw(noise) for child in node.children)
        return f"<{label}>{draw(noise)}{body}</{label}>"

    prolog = draw(st.sampled_from(("", '<?xml version="1.0"?>\n', "<!-- head -->")))
    epilog = draw(st.sampled_from(("", "\n", "\n<!-- tail -->\n")))
    return tree, prolog + render(tree.root) + epilog


ACCEPTED = {
    "text() of three runs": "<a>x<!-- c -->y<?p?>z</a>",
    "text around an element": "<a>x<b/>y</a>",
    "white space stripped": "<a> \r x \t\n</a>",
    "white space dropped": "<a>\r\n<b>\t</b></a>",
    "an XML declaration": '<?xml version="1.0" encoding="UTF-8"?>\n<a/>',
    "every name character": "<_a.b-c9><_a.b-c9/></_a.b-c9>",
    # Element ids past the small ints, which CPython shares anyway.
    "300 deep": "<a>" * 300 + "</a>" * 300,
    "400 siblings": "<r>" + "<b>t</b>" * 400 + "</r>",
}


@compiled_only
class TestDifferential:
    @given(documents_as_text())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_noisy_documents(self, case):
        _source, texts = case
        for text in texts:
            assert_scan_agrees(text)

    @given(subset_documents())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_documents_inside_the_subset_take_the_compiled_pass(self, case):
        tree, text = case
        assert assert_scan_agrees(text, accepted=True)
        assert parse.parse_canonical(text)[1] == serialize(tree)

    @pytest.mark.parametrize("patients", [2, 40, 200])
    def test_hospital_documents(self, patients):
        """The benchmark's documents, which its oracle parses with this
        same ``parse_xml``."""
        tree = generate_hospital_document(HospitalConfig(num_patients=patients, seed=5))
        text = serialize(tree)
        assert assert_scan_agrees(text, accepted=True)
        assert assert_scan_agrees(serialize(tree, indent=2), accepted=True)

    @pytest.mark.parametrize("source", ACCEPTED.values(), ids=ACCEPTED.keys())
    def test_named_accepted_cases(self, source):
        assert assert_scan_agrees(source, accepted=True)


# ----------------------------------------------------------------------
# The derived columns at their boundaries
# ----------------------------------------------------------------------
LEAVES = [f"a{i:02}" for i in range(61)]


def many_masks(classes: int, extra: str = "") -> str:
    """A document with exactly ``classes`` distinct subtree masks over
    63 labels: a root ``r`` of ``x`` elements, each holding one leaf per
    label of a distinct subset of ``a00``..``a60`` (the smallest subsets
    first).  Its masks are 0 (the leaves'), one per ``x`` and the
    root's.  ``extra`` goes in the root as written."""
    subsets = islice(
        chain.from_iterable(combinations(LEAVES, k) for k in range(1, 5)), classes - 2
    )
    body = "".join(
        "<x>" + "".join(f"<{leaf}/>" for leaf in subset) + "</x>" for subset in subsets
    )
    return f"<r>{extra}{body}</r>"


def underived(tree):
    """``tree`` with the same base columns and none of the scan's
    derivations: what the layout maps and the index sweeps."""
    columns = tree.columns
    return XMLTree.from_columns(
        TreeColumns(
            columns.label,
            columns.parent,
            columns.depth,
            columns.text,
            columns.position,
            columns.kid_start,
            columns.kid_ids,
        ),
        tree.labels,
    )


@compiled_only
class TestDerivedColumns:
    """Each fallback boundary of the mask classes from both sides: at
    most 63 labels (a mask is 64 bits, text bit 0) and at most 65536
    distinct masks (the u16 local ids; u8 up to 256)."""

    @pytest.mark.parametrize(
        "classes, extra, width",
        [(63, "", 1), (256, "", 1), (257, "", 2), (257, "<b64/>", None)],
        ids=["63 labels", "256 masks", "257 masks", "64 labels"],
    )
    def test_small_boundaries(self, classes, extra, width):
        source = many_masks(classes, extra)
        assert assert_scan_agrees(source, accepted=True)
        tree = parse.parse_xml(source)
        found = tree.columns.mask_classes
        assert len(tree.labels) == (64 if extra else 63)
        if width is None:
            assert found is None
        else:
            assert len(found[1]) == classes
            assert len(found[2]) == width * tree.size

    @pytest.mark.parametrize("classes", [1 << 16, (1 << 16) + 1])
    def test_u16_boundary(self, classes):
        """~290k nodes: the base columns are the scan's own (the Python
        pass agrees on them everywhere else), the derivations are held
        to the sweep over them."""
        tree = parse.parse_xml(many_masks(classes))
        found = tree.columns.mask_classes
        if classes > 1 << 16:
            assert found is None
        else:
            assert len(found[1]) == classes and len(found[2]) == 2 * tree.size
        assert_derived_agree(tree, underived(tree))


# ----------------------------------------------------------------------
# Outside the subset: refused, then parsed by the Python pass
# ----------------------------------------------------------------------
FALLBACKS = {
    "non-ASCII text": "<a>café</a>",
    "non-ASCII whitespace": "<a>\xa0x</a>",
    "attribute": '<a id="1"><b/></a>',
    "space in a tag": "<a ><b/></a>",
    "space in a closing tag": "<a><b></b ></a>",
    "entity": "<a>x &amp; y</a>",
    "bare ampersand": "<a>R&D</a>",
    "greater-than in text": "<a>1 > 0</a>",
    "CDATA": "<a><![CDATA[x]]></a>",
    "DOCTYPE": "<!DOCTYPE a><a/>",
    "less-than with no greater-than": "<a/><",
    "less-than opening no tag": "<a>< b</a>",
    "comment holding a greater-than": "<a><!-- x > y --></a>",
    "processing instruction holding a greater-than": "<a><?p x > y?></a>",
    "short comment": "<a><!--></a>",
    "short processing instruction": "<a><?></a>",
    "processing instruction with no target": "<a><??></a>",
    "XML declaration past the start": "<a><?xml x?></a>",
    "XML declaration in another spelling": "<?xml version='1.0'?><a/>",
    "control character in text": "<a>\x1c</a>",
    "control character in a comment": "<a><!-- \x01 --></a>",
    "carriage return inside text": "<a>x\ry</a>",
    "name starting with a digit": "<a><1b/></a>",
    "mismatched tags": "<a><b></a></b>",
    "unmatched closing tag": "<a/></b>",
    "unclosed element": "<a><b>",
    "multiple roots": "<a/><b/>",
    "text outside the root": "boom <a/>",
    "no root": "  <!-- only -->",
    "empty": "",
}


@compiled_only
class TestFallback:
    @pytest.mark.parametrize("source", FALLBACKS.values(), ids=FALLBACKS.keys())
    def test_refused_and_parsed_by_the_python_pass(self, source):
        assert parse._scan(source, TEXT_LABEL) is None
        expected = python_pass(source)
        try:
            tree, canonical = parse.parse_canonical(source)
        except XMLParseError as error:
            assert expected == ("error", str(error))
        else:
            assert expected[0] == "ok" and canonical == expected[2]
            assert tree.columns.label == expected[1].columns.label
            assert tree.columns.text == expected[1].columns.text

    def test_not_a_str(self):
        assert parse._scan(b"<a/>", TEXT_LABEL) is None
        with pytest.raises(TypeError):
            parse.parse_canonical(b"<a/>")


def test_select_scan_without_a_compiler(monkeypatch, tmp_path):
    from repro import native

    monkeypatch.setattr(native, "compiler", lambda: ["/nonexistent/cc"])
    assert parse._select_scan(tmp_path) == (None, "python: no compiler (/nonexistent/cc)")
    assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Totality
# ----------------------------------------------------------------------
ALPHABET = "<>/!?-&;#\"'= \t\n\x1cab_.1xé"


@st.composite
def mutated_documents(draw):
    _tree, texts = draw(documents_as_text())
    text = texts[0]
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(("insert", "delete", "replace", "cut")))
        piece = draw(st.text(st.sampled_from(ALPHABET), min_size=1, max_size=3))
        if how == "insert":
            text = text[:at] + piece + text[at:]
        elif how == "delete":
            text = text[:at] + text[at + len(piece):]
        elif how == "replace":
            text = text[:at] + piece + text[at + len(piece):]
        else:
            text = text[:at]
    return text


class TestTotality:
    @given(mutated_documents())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_parse_canonical_is_the_python_pass(self, text):
        if parse._scan is not None:
            assert_scan_agrees(text)  # never raises, for any input
        expected = python_pass(text)
        try:
            tree, canonical = parse.parse_canonical(text)
        except XMLParseError as error:
            assert expected == ("error", str(error))
        else:
            assert expected[0] == "ok", expected
            assert canonical == expected[2]
            assert tree.columns.label == expected[1].columns.label
            assert tree.columns.parent == expected[1].columns.parent
            assert tree.columns.text == expected[1].columns.text

    def test_the_python_pass_derives_nothing(self):
        """Only the compiled scan hands over derived columns: a tree of
        the Python pass is mapped by its layout and swept by its index,
        into the same columns and keys."""
        source = serialize(
            generate_hospital_document(HospitalConfig(num_patients=2, seed=3))
        )
        tree = parse._parse_py(source)[0]
        columns = tree.columns
        assert columns.node_label is columns.kid_labels is columns.mask_classes is None
        layout = DocumentLayout(tree)
        assert len(layout.node_label) == tree.size
        for compressed in (False, True):
            assert build_index(tree, compressed).classes is None
        scanned = parse.parse_xml(source)
        if parse.SCAN == "compiled":
            assert scanned.columns.mask_classes is not None
            assert_derived_agree(scanned, tree)


#: Every ASCII character, markup and the C0 controls weighted up.
MANGLE = st.one_of(
    st.sampled_from("<>/!?-&;#\"'=[] \t\n\r\x00\x01\x0b\x1c\x7fxa_.1"),
    st.characters(max_codepoint=127),
)


@compiled_only
class TestMangledInputs:
    """What ``make sanitize`` feeds the compiled scan, too: junk, random
    bytes and every cut of a real document.  ``scan`` never raises and
    never disagrees with the Python pass, whatever it is given."""

    @given(st.text(MANGLE, max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_random_markup(self, text):
        assert_scan_agrees(text)
        assert_scan_agrees(f"<a>{text}</a>")

    @given(st.binary(max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes(self, raw):
        assert_scan_agrees(raw.decode("latin-1"))

    def test_every_cut_of_a_document(self):
        source = serialize(
            generate_hospital_document(HospitalConfig(num_patients=1, seed=4)), indent=1
        )
        for cut in range(0, len(source), 3):
            assert_scan_agrees(source[:cut])
            assert_scan_agrees(source[cut:])


# ----------------------------------------------------------------------
# References and retained memory, in a subprocess
# ----------------------------------------------------------------------
_REFERENCES = """
import gc, sys, tracemalloc
from repro.errors import XMLParseError
from repro.workloads.hospital import HospitalConfig, generate_hospital_document
from repro.xtree import parse
from repro.xtree.node import TEXT_LABEL
from repro.xtree.serialize import serialize

assert parse.SCAN == "compiled", parse.SCAN
plain = serialize(generate_hospital_document(HospitalConfig(num_patients=3, seed=2)))
cut = plain.rindex("</")
sources = [
    plain,                                   # accepted
    plain[:cut] + "&amp;" + plain[cut:],     # refused at its last text run
    plain[:cut] + "<![CDATA[x]]>" + plain[cut:],
    plain[:cut] + "<b t='1'/>" + plain[cut:],
    plain[:cut],                             # refused at its end, then malformed
    plain + "<extra/>",                      # a second root
    "<a>x<!-- c -->y</a>",
]
labels = sorted(parse.parse_canonical(plain)[0].labels) + ["b", "a", "extra"]
held = [sys.intern(name) for name in labels] + [TEXT_LABEL]


def parse_all(rounds):
    for i in range(rounds):
        try:
            parse.parse_canonical(sources[i % len(sources)])
        except XMLParseError:
            pass


parse_all(len(sources) * 10)
gc.collect()
before = [sys.getrefcount(obj) for obj in held]
tracemalloc.start()
parse_all(200)
gc.collect()
warm = tracemalloc.get_traced_memory()[0]
parse_all(2000)
gc.collect()
grown = tracemalloc.get_traced_memory()[0] - warm
tracemalloc.stop()
after = [sys.getrefcount(obj) for obj in held]
changed = [(held[i], before[i], after[i]) for i in range(len(held)) if before[i] != after[i]]
assert not changed, changed
assert grown < 32 * 1024, grown
print("ok", grown)
"""


@compiled_only
def test_mixed_parses_leak_nothing():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(_REFERENCES)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ok"), done.stdout
