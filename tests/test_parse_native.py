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
``CC=false`` CI job); the totality case runs everywhere.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.docstore import content_digest
from repro.errors import XMLParseError
from repro.workloads.hospital import HospitalConfig, generate_hospital_document
from repro.xtree import parse
from repro.xtree.node import TEXT_LABEL, TreeColumns
from repro.xtree.serialize import serialize

from .strategies import trees
from .test_xtree_parse_serialize import documents_as_text

SRC = Path(parse.__file__).resolve().parents[2]

compiled_only = pytest.mark.skipif(
    parse.SCAN != "compiled", reason=f"scan is {parse.SCAN!r}"
)

#: ``str.strip()``'s whitespace below 128 — 0x1c-0x1f included, which
#: the Unicode White_Space property leaves out.
ASCII_SPACE = " \t\n\v\f\r\x1c\x1d\x1e\x1f"


def python_pass(source):
    """``("ok", tree, canonical)`` or ``("error", message)``."""
    try:
        return ("ok", *parse._parse_py(source))
    except XMLParseError as error:
        return ("error", str(error))


def assert_scan_agrees(source, *, accepted=None):
    """``scan(source)`` is ``None`` or equals the Python pass in every
    column and in how its objects are shared; returns whether it
    accepted.  ``accepted`` pins the expected outcome."""
    scanned = parse._scan(source, TEXT_LABEL)
    if accepted is not None:
        assert (scanned is not None) == accepted, source
    if scanned is None:
        return False
    expected_tree, expected_text = parse._parse_py(source)
    expected = expected_tree.columns
    label, parent, depth, text, position, kid_counts, elements, labels, canonical = scanned
    got = TreeColumns(label, parent, depth, text, position, kid_counts, elements)
    for name in ("label", "parent", "depth", "text", "position", "kid_ids", "kid_start"):
        assert getattr(got, name) == getattr(expected, name), name
    assert elements == [i for i, name in enumerate(label) if name != TEXT_LABEL]
    assert labels == expected_tree.labels
    assert canonical == expected_text
    assert content_digest(canonical) == content_digest(expected_text)
    # Interned: the very objects the Python pass (sys.intern) holds.
    assert all(a is b for a, b in zip(label, expected.label))
    assert all(name is sys.intern(name) for name in labels)
    # One int object per element id, shared by ``elements`` and every
    # parent entry that names it.
    ids = {element: element for element in elements}
    assert all(up is ids[up] for up in parent[1:])
    # An element's text() is its only text child's str, as in the
    # Python pass; it is new when built from several.
    for node in range(len(label)):
        if label[node] == TEXT_LABEL:
            up = parent[node]
            assert (text[node] is text[up]) == (
                expected.text[node] is expected.text[up]
            ), node
    return True


# ----------------------------------------------------------------------
# Documents inside the accepted subset
# ----------------------------------------------------------------------
NOISE = ("", " ", "\n\t", "\x1c\x1f", "<!-- note -->", "<?pi data?>", "<!---->", "<??>")


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
    "ASCII whitespace stripped": "<a> \x1c x \x1f\v</a>",
    "ASCII whitespace dropped": "<a>\x1d\x1e<b>\f</b></a>",
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
