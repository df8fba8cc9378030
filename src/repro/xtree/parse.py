"""A small, dependency-free XML parser for the fragment this library needs.

The documents in the paper (hospital records, views of them) are plain
element/PCDATA trees.  We parse exactly that: elements, nested elements,
text content, self-closing tags, comments, processing instructions, CDATA
sections, a DOCTYPE with no internal subset and an optional XML
declaration.  Attributes are checked and *discarded* (the data model of
Section 2 has no attributes); line ends read as line feeds; the entities
``&amp; &lt; &gt; &quot; &apos;`` and numeric character references are
decoded in one pass (an unknown entity, or a reference to what is no
XML character, stays literal), and a CDATA section's content is text,
taken as written.  Anything else that is not well-formed XML raises
:class:`~repro.errors.XMLParseError`; ``tests/test_parse_oracle.py``
holds both passes to the standard library's expat, and names the few
places where they read XML differently (the *leniencies*: names are
``[A-Za-z_][A-Za-z0-9_.-]*`` only, and the literal references above).

This is intentionally not a general-purpose XML parser — it is the substrate
the paper's algorithms run on, kept simple and predictable.

One tokeniser pass does all of a document's text-side work: nodes arrive
in document order, so the pass emits the document's
:class:`repro.xtree.node.TreeColumns` directly — a node's id is its
position, its parent, depth and element position come off the
open-element stack, an element's ``text()`` accumulates as its text
children arrive — and no :class:`repro.xtree.node.Node` is created.  The
same pass emits the canonical serialisation (exactly what
:func:`repro.xtree.serialize.serialize` would print for the finished
tree), which is what the document store hashes into a content address.

Nothing is allocated per tag: a per-parse cache maps each distinct tag
token to its kind, its interned label and its canonical spellings, so a
repeated tag costs one dict probe (no name regex) and every element of
one label shares one ``str``.

The token pass exists twice.  ``_scan.c`` compiles it for the plain
documents the system serves (:mod:`repro.native` builds it on first
import; :data:`SCAN` records ``"compiled"`` or ``"python: <reason>"``).
It accepts exactly an ASCII ``str`` with no C0 control but tab, line
feed and carriage return, made of the tags ``<NAME>``, ``</NAME>`` and
``<NAME/>`` (``NAME`` is ``[A-Za-z_][A-Za-z0-9_.-]*``), comments and
processing instructions holding no ``>`` (skipped), a common spelling
of the XML declaration, and text runs holding no ``&`` and no ``>``
(stripped of XML's white space, no carriage return inside), in a
well-formed document.  For anything else — non-ASCII text, an
attribute, an entity, CDATA, a DOCTYPE, a ``>`` in text, a ``<`` that
starts no such tag, every malformed document — it returns ``None`` and
:func:`parse_canonical` runs the Python pass below, which stays the
specification and the only code that raises
:class:`~repro.errors.XMLParseError`.  Both emit the same columns, label
set and canonical text (``tests/test_parse_native.py``).

The scan also builds what the document's layout and index derive from
those columns, off the same element stack, and hands it over on the
:class:`~repro.xtree.node.TreeColumns`: the kid spans without a sort,
the layout's label ids in the sorted label table's order
(``node_label`` / ``kid_labels``, which
:class:`repro.docstore.layout.DocumentLayout` adopts) and the subtree
masks as *mask classes* — the distinct masks in first-appearance order
plus one small local id per node (``mask_classes``, which
:func:`repro.hype.index.build_index` gathers its mask column from and
the index record stores as they are).  It emits no mask classes past
two boundaries, and the index sweeps the tree instead: more than 63
labels (a mask is 64 bits, text bit 0) or more than 65 536 distinct
masks (its local ids are u8 or u16).  A tree of the Python pass and a tree
built in memory carry none of this, and are mapped and swept as
before.

Both passes take time linear in the source: the compiled one scans
forward only, and the Python one never rescans a suffix per token — the
text from the first ``<`` that no ``>`` follows is cut without the tag
pattern (:func:`_tokens`), and the markup-aware re-tokenisation stops at
the first ``<`` that opens no markup, where the parse fails anyway
(:func:`_careful_tokens`).
"""

from __future__ import annotations

import re
import sys

from .. import native
from ..errors import XMLParseError
from .node import TEXT_LABEL, TreeColumns, XMLTree, kid_spans
from .serialize import escape_text

#: The tokens of a document: text, or markup up to its first ``>``.
_TOKEN = re.compile(r"<[^>]*>|[^<]+")
#: A text run: from the first ``<`` that no ``>`` follows, the only token.
_TEXT = re.compile(r"[^<]+")
#: One whole markup token where a ``>`` may occur inside it: a comment,
#: CDATA section, processing instruction, declaration, or a tag whose
#: quoted attribute values hold one.  A :data:`_TOKEN` token that
#: starts one of these but is not one whole sends the document through
#: :data:`_CAREFUL_TOKEN` instead — rare, so the common ``<name>`` token
#: pays for none of it (and both are compiled on first use only).
_MARKUP = (
    r"<!--.*?-->|<!\[CDATA\[.*?\]\]>|<\?.*?\?>"
    r"|<!(?!--|\[CDATA\[)[^>\"']*(?:(?:\"[^\"]*\"|'[^']*')[^>\"']*)*>"
    r"|<(?![!?])[^>\"']*(?:(?:\"[^\"]*\"|'[^']*')[^>\"']*)*>"
)
#: Every token by the markup rules; a ``<`` that starts no markup is a
#: token of its own (a malformed tag).
_CAREFUL_TOKEN = _MARKUP + r"|[^<]+|<"
#: What XML calls white space inside markup.
_S = "[ \t\r\n]"
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")
#: A tag's name: the whole run up to white space, ``/`` or ``>`` — all of
#: it a :data:`_NAME`, or the tag is malformed.
_NAME_RUN = re.compile(r"[^ \t\r\n/>]*")
#: One attribute after a tag's name (its value is dropped).
_ATTRIBUTE = re.compile(
    rf"{_S}+([^ \t\r\n=/>]+){_S}*={_S}*(?:\"[^\"]*\"|'[^']*')"
)
#: A processing instruction: its target, then white space or its end.
_PI = re.compile(rf"<\?([^ \t\r\n?]*)(?:{_S}.*)?\?>", re.S)
_QUOTED = r"(?:\"[^\"]*\"|'[^']*')"
_DOCTYPE_DECL = re.compile(
    rf"<!DOCTYPE{_S}+([^ \t\r\n>\[]+)"
    rf"(?:{_S}+(?:SYSTEM{_S}+{_QUOTED}|PUBLIC{_S}+{_QUOTED}{_S}+{_QUOTED}))?{_S}*>"
)
#: The XML declaration, which only the very start of a document holds
#: (a version number as expat reads one).
_DECLARATION = re.compile(
    rf"<\?xml{_S}+version{_S}*={_S}*(?:\"[A-Za-z0-9_.\-]*\"|'[A-Za-z0-9_.\-]*')"
    rf"(?:{_S}+encoding{_S}*={_S}*(?:\"[A-Za-z][A-Za-z0-9._\-]*\"|'[A-Za-z][A-Za-z0-9._\-]*'))?"
    rf"(?:{_S}+standalone{_S}*={_S}*(?:\"(?:yes|no)\"|'(?:yes|no)'))?{_S}*\?>"
)
#: What is no XML character at all: C0 controls but tab, line feed and
#: carriage return; lone surrogates; U+FFFE and U+FFFF.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
_ENTITY = re.compile(r"&(amp|lt|gt|quot|apos|#[0-9]{1,7}|#x[0-9a-fA-F]{1,6});")
_NAMED = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}

# Tag kinds of the per-parse tag cache.
_OPEN, _EMPTY, _CLOSE, _SKIP, _CDATA, _DOCTYPE = range(6)


class _Retokenize(Exception):
    """A fast token cut a comment, CDATA section, processing
    instruction or quoted attribute value short at an inner ``>``."""


def _entity(match: re.Match) -> str:
    """One reference decoded (``_ENTITY.sub`` decodes each once, left to
    right: ``&amp;lt;`` is ``&lt;``, not ``<``)."""
    name = match.group(1)
    if name[0] != "#":
        return _NAMED[name]
    code = int(name[2:], 16) if name[1] == "x" else int(name[1:])
    if code < 0x110000 and _NOT_XML.match(chr(code)) is None:
        return chr(code)
    return match.group(0)  # not an XML character: kept literal


def _malformed(token: str) -> XMLParseError:
    return XMLParseError(f"malformed tag {token!r}")


def _classify(token: str) -> tuple[int, str, str, str]:
    """One tag token as ``(kind, label, canonical tag, <label/>)``; a
    CDATA section as ``(_CDATA, its stripped content, "", "")``.

    Raises:
        _Retokenize: for the first piece of markup :data:`_TOKEN` cut short.
        XMLParseError: for markup that is not well-formed.
    """
    if token[1:2] in ("!", "?") or '"' in token or "'" in token:
        if re.fullmatch(_MARKUP, token, re.S) is None:
            raise _Retokenize
    if token.startswith("<![CDATA["):
        return _CDATA, token[9:-3].strip(), "", ""
    if token.startswith("<!--"):
        return _SKIP, "", "", ""
    if token.startswith("<?"):
        target = _PI.fullmatch(token)
        if target is None or _NAME.fullmatch(target.group(1)) is None:
            raise _malformed(token)
        if target.group(1).lower() == "xml":  # only at the start, read there
            raise XMLParseError("XML declaration not at the start of the document")
        return _SKIP, "", "", ""
    if token.startswith("<!"):
        doctype = _DOCTYPE_DECL.fullmatch(token)
        if doctype is None or _NAME.fullmatch(doctype.group(1)) is None:
            raise _malformed(token)
        return _DOCTYPE, "", "", ""
    if token.startswith("</"):
        name = token[2:-1].rstrip(" \t\r\n")
        if _NAME.fullmatch(name) is None:
            raise _malformed(token)
        return _CLOSE, name, f"</{name}>", f"<{name}/>"
    self_closing = token.endswith("/>")
    body = token[1:-2] if self_closing else token[1:-1]
    name = _NAME_RUN.match(body).group()
    if _NAME.fullmatch(name) is None:
        raise _malformed(token)
    at, attributes = len(name), set()
    while (attribute := _ATTRIBUTE.match(body, at)) is not None:
        key = attribute.group(1)
        if _NAME.fullmatch(key) is None or key in attributes:
            raise _malformed(token)
        attributes.add(key)
        at = attribute.end()
    if body[at:].strip(" \t\r\n"):
        raise _malformed(token)
    name = sys.intern(name)
    kind = _EMPTY if self_closing else _OPEN
    return kind, name, f"<{name}>", f"<{name}/>"


def parse_canonical(source: str) -> tuple[XMLTree, str]:
    """Parse ``source``; also return the tree's canonical serialisation.

    The text equals ``serialize(tree)`` — the document store hashes it
    instead of walking the tree again.

    Raises:
        XMLParseError: on mismatched tags, missing root, trailing content.
    """
    if _scan is not None:
        scanned = _scan(source, TEXT_LABEL)
        if scanned is not None:
            *columns, labels, canonical = scanned
            return XMLTree.from_columns(TreeColumns(*columns), labels), canonical
    return _parse_py(source)


def _parse_py(source: str) -> tuple[XMLTree, str]:
    """:func:`parse_canonical` by the Python token pass — the reference
    the compiled one is held to."""
    bad = _NOT_XML.search(source)
    if bad is not None:
        raise XMLParseError(f"not an XML character: {bad.group()!r}")
    if "\r" in source:  # XML reads every line end as one line feed
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    start = 0
    if source.startswith("<?xml") and source[5:6] in (" ", "\t", "\n", "?"):
        declaration = _DECLARATION.match(source)
        if declaration is None:
            raise XMLParseError("malformed XML declaration")
        start = declaration.end()
    try:
        return _parse(_tokens(source, start))
    except _Retokenize:
        return _parse(_careful_tokens(source, start))


def _tokens(source: str, start: int = 0) -> list[str]:
    """``_TOKEN.findall(source, start)``, in linear time.

    Past the first ``<`` that has no ``>`` after it, no tag can match:
    ``findall`` would try each later ``<`` against the whole rest of the
    source and skip it.  That tail is cut into its text runs directly.
    """
    tail = source.find("<", max(start, source.rfind(">") + 1))
    if tail < 0:
        return _TOKEN.findall(source, start)
    return _TOKEN.findall(source, start, tail) + _TEXT.findall(source, tail)


def _careful_tokens(source: str, start: int = 0) -> list[str]:
    """The tokens by :data:`_CAREFUL_TOKEN`, up to and including the first
    ``<`` that starts no markup.

    That token is a malformed tag, so :func:`_parse` raises on reaching
    it and never reads further — and every unterminated comment, CDATA
    section, processing instruction or quoted value is exactly such a
    ``<``, reached after one scan to the end of the source.  Stopping
    there keeps a run of them linear instead of one rescan each.
    """
    tokens = []
    for match in re.compile(_CAREFUL_TOKEN, re.S).finditer(source, start):
        token = match.group()
        tokens.append(token)
        if token == "<":
            break
    return tokens


def _parse(tokens: list[str]) -> tuple[XMLTree, str]:
    # The columns (see TreeColumns).  A document has fewer nodes than
    # tokens, so the columns whose usual entry is a default are sized up
    # front (and cut to the node count at the end); an open element's
    # entry in ``kid_counts`` counts its element children so far.
    label, parent, depth, elements = [], [], [], []  # elements: their ids
    room = len(tokens)
    text, position, kid_counts = [""] * room, [0] * room, [0] * room
    stack: list[int] = []  # the open elements, root first
    doctype = False
    parts: list[str] = []  # the canonical text, in pieces
    tags: dict[str, tuple[int, str, str, str]] = {}
    label_append, parent_append = label.append, parent.append
    depth_append, parts_append = depth.append, parts.append
    elements_append = elements.append
    for token in tokens:
        if token[0] == "<":
            tag = tags.get(token)
            if tag is None:
                tag = _classify(token)
                if tag[0] != _CDATA:
                    tags[token] = tag
            kind, name, canonical, empty = tag
            if kind <= _EMPTY:
                node = len(label)
                if stack:
                    up = stack[-1]
                    parent_append(up)
                    depth_append(len(stack))
                    count = kid_counts[up] + 1
                    kid_counts[up] = position[node] = count
                elif node:
                    raise XMLParseError("multiple root elements")
                else:
                    parent_append(-1)
                    depth_append(0)
                    position[0] = 1
                label_append(name)
                elements_append(node)
                if kind == _OPEN:
                    stack.append(node)
                    parts_append(canonical)
                else:
                    parts_append(empty)
                continue
            if kind == _CLOSE:
                if not stack:
                    raise XMLParseError(f"unmatched closing tag </{name}>")
                node = stack.pop()
                if label[node] != name:
                    raise XMLParseError(
                        f"mismatched tags: <{label[node]}> closed by </{name}>"
                    )
                # A childless element has appended nothing since its
                # open tag, which becomes ``<label/>``.
                if len(label) > node + 1:
                    parts_append(canonical)
                else:
                    parts[-1] = empty
                continue
            if kind == _SKIP:
                continue
            if kind == _DOCTYPE:
                if label or doctype:
                    raise XMLParseError("DOCTYPE after the document's start")
                doctype = True
                continue
            if not stack:
                raise XMLParseError("CDATA section outside the root element")
            value = escaped = name  # CDATA: text as written
            if "&" in value or "<" in value or ">" in value:
                escaped = escape_text(value)
        elif "&" in token or ">" in token:
            if "]]>" in token:
                raise XMLParseError("']]>' in text")
            value = _ENTITY.sub(_entity, token).strip()
            escaped = escape_text(value)
        else:
            value = escaped = token.strip()
        if not value:
            continue
        if not stack:
            raise XMLParseError("text content outside the root element")
        node = stack[-1]
        text[len(label)] = value
        text[node] += value
        label_append(TEXT_LABEL)
        parent_append(node)
        depth_append(len(stack))
        parts_append(escaped)
    if stack:
        raise XMLParseError(f"unclosed element <{label[stack[-1]]}>")
    if not label:
        raise XMLParseError("no root element found")
    size = len(label)  # the node count: cut the columns sized up front
    text, position = text[:size], position[:size]  # (no spare capacity)
    del kid_counts[size:]
    # Every cached open tag created at least one element.
    labels = {tag[1] for tag in tags.values() if tag[0] <= _EMPTY}
    columns = TreeColumns(
        label, parent, depth, text, position, *kid_spans(parent, kid_counts, elements)
    )
    return XMLTree.from_columns(columns, labels), "".join(parts)


def parse_xml(source: str) -> XMLTree:
    """Parse an XML string into an indexed :class:`XMLTree`.

    Raises:
        XMLParseError: on mismatched tags, missing root, trailing content.
    """
    return parse_canonical(source)[0]


def _select_scan(cache_dir=None) -> tuple:
    """``(compiled scan or None, SCAN record)`` for this process: the
    compiled token pass when :func:`repro.native.load` builds or finds it
    (in ``cache_dir``, default the package's ``__pycache__``), else
    ``None`` and the reason the Python pass runs alone."""
    module, reason = native.load(__package__, "_scan.c", cache_dir)
    if module is None:
        return None, f"python: {reason}"
    return module.scan, "compiled"


#: The compiled token pass :func:`parse_canonical` tries first (``None``:
#: the Python pass only), and which it is: ``"compiled"`` or
#: ``"python: <why the compiled pass is unavailable>"``.
_scan, SCAN = _select_scan()
