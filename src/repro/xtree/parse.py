"""A small, dependency-free XML parser for the fragment this library needs.

The documents in the paper (hospital records, views of them) are plain
element/PCDATA trees.  We parse exactly that: elements, nested elements,
text content, self-closing tags, comments, processing instructions, CDATA
sections and an optional XML declaration.  Attributes are parsed and
*discarded* (the data model of Section 2 has no attributes); the entities
``&amp; &lt; &gt; &quot; &apos;`` and numeric character references are
decoded in one pass (an unknown entity stays literal), and a CDATA
section's content is text, taken as written.

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
It accepts exactly an ASCII ``str`` made of the tags ``<NAME>``,
``</NAME>`` and ``<NAME/>`` (``NAME`` is ``[A-Za-z_][A-Za-z0-9_.-]*``),
comments and processing instructions holding no ``>`` (skipped), and
text runs holding no ``&`` and no ``>`` (stripped of ``str.strip()``'s
ASCII whitespace), in a well-formed document.  For anything else —
non-ASCII text, an attribute, an entity, CDATA, a DOCTYPE, a ``>`` in
text, a ``<`` that starts no such tag, every malformed document — it
returns ``None`` and :func:`parse_canonical` runs the Python pass below,
which stays the specification and the only code that raises
:class:`~repro.errors.XMLParseError`.  Both emit the same columns, label
set and canonical text (``tests/test_parse_native.py``).

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
from .node import TEXT_LABEL, TreeColumns, XMLTree
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
    r"<!--.*?-->|<!\[CDATA\[.*?\]\]>|<\?.*?\?>|<!(?!--|\[CDATA\[)[^>]*>"
    r"|<(?![!?])[^>\"']*(?:(?:\"[^\"]*\"|'[^']*')[^>\"']*)*>"
)
#: Every token by the markup rules; a ``<`` that starts no markup is a
#: token of its own (a malformed tag).
_CAREFUL_TOKEN = _MARKUP + r"|[^<]+|<"
_NAME = re.compile(r"[A-Za-z_][\w.\-]*")
_ENTITY = re.compile(r"&(amp|lt|gt|quot|apos|#[0-9]{1,7}|#x[0-9a-fA-F]{1,6});")
_NAMED = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}

# Tag kinds of the per-parse tag cache.
_OPEN, _EMPTY, _CLOSE, _SKIP, _CDATA = range(5)


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
    if 0 < code < 0x110000 and not 0xD800 <= code < 0xE000:
        return chr(code)
    return match.group(0)  # not a character: kept literal


def _classify(token: str) -> tuple[int, str, str, str]:
    """One tag token as ``(kind, label, canonical tag, <label/>)``; a
    CDATA section as ``(_CDATA, its stripped content, "", "")``.

    Raises:
        _Retokenize: for the first piece of markup :data:`_TOKEN` cut short.
    """
    if token[1:2] in ("!", "?") or '"' in token or "'" in token:
        if re.fullmatch(_MARKUP, token, re.S) is None:
            raise _Retokenize
    if token.startswith("<![CDATA["):
        return _CDATA, token[9:-3].strip(), "", ""
    if token.startswith(("<?", "<!")):
        return _SKIP, "", "", ""  # declaration, PI, comment, doctype
    if token.startswith("</"):
        name = token[2:-1].strip()
        return _CLOSE, name, f"</{name}>", f"<{name}/>"
    self_closing = token.endswith("/>")
    body = token[1:-2] if self_closing else token[1:-1]
    name_match = _NAME.match(body.strip())
    if name_match is None:
        raise XMLParseError(f"malformed tag {token!r}")
    name = sys.intern(name_match.group(0))
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
    try:
        return _parse(_tokens(source))
    except _Retokenize:
        return _parse(_careful_tokens(source))


def _tokens(source: str) -> list[str]:
    """``_TOKEN.findall(source)``, in linear time.

    Past the first ``<`` that has no ``>`` after it, no tag can match:
    ``findall`` would try each later ``<`` against the whole rest of the
    source and skip it.  That tail is cut into its text runs directly.
    """
    tail = source.find("<", source.rfind(">") + 1)
    if tail < 0:
        return _TOKEN.findall(source)
    return _TOKEN.findall(source, 0, tail) + _TEXT.findall(source, tail)


def _careful_tokens(source: str) -> list[str]:
    """The tokens by :data:`_CAREFUL_TOKEN`, up to and including the first
    ``<`` that starts no markup.

    That token is a malformed tag, so :func:`_parse` raises on reaching
    it and never reads further — and every unterminated comment, CDATA
    section, processing instruction or quoted value is exactly such a
    ``<``, reached after one scan to the end of the source.  Stopping
    there keeps a run of them linear instead of one rescan each.
    """
    tokens = []
    for match in re.finditer(_CAREFUL_TOKEN, source, re.S):
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
            value = escaped = name  # CDATA: text as written
            if "&" in value or "<" in value or ">" in value:
                escaped = escape_text(value)
        elif "&" in token or ">" in token:
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
        label, parent, depth, text, position, kid_counts, elements
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
