"""A small, dependency-free XML parser for the fragment this library needs.

The documents in the paper (hospital records, views of them) are plain
element/PCDATA trees.  We parse exactly that: elements, nested elements,
text content, self-closing tags, comments, processing instructions and an
optional XML declaration.  Attributes are parsed and *discarded* (the data
model of Section 2 has no attributes); entities ``&amp; &lt; &gt; &quot;
&apos;`` are decoded.

This is intentionally not a general-purpose XML parser — it is the substrate
the paper's algorithms run on, kept simple and predictable.

One tokeniser pass does all of a document's text-side work: nodes are
created in document order, so each is *frozen as it is built* (``node_id``
is its position, ``parent_id`` and ``depth`` come off the open-element
stack — no :func:`repro.xtree.node.index_tree` re-walk), and the same
pass emits the canonical serialisation (exactly what
:func:`repro.xtree.serialize.serialize` would print for the finished
tree), which is what the document store hashes into a content address.
A node records its parent's id, never the parent: the finished tree is
acyclic and dies by reference count
(:meth:`repro.xtree.node.XMLTree.from_frozen` stamps the nodes with
their owning tree, which is how ``Node.parent`` is derived).

Nothing is allocated per tag: a per-parse cache maps each distinct tag
token to its kind, its interned label and its canonical spellings, so a repeated tag costs one dict probe (no name regex) and every element
of one label shares one ``str``.  Short-lived per-token strings are
avoided on purpose — retained through the parse they would share
allocator pools with the long-lived nodes and make every later garbage
collection of the tree slower (see ``docs/performance.md``).
"""

from __future__ import annotations

import re
import sys

from ..errors import XMLParseError
from .node import Node, TEXT_LABEL, XMLTree
from .serialize import escape_text

_TOKEN = re.compile(r"<[^>]*>|[^<]+")
_NAME = re.compile(r"[A-Za-z_][\w.\-]*")

_ENTITIES = {
    "&amp;": "&",
    "&lt;": "<",
    "&gt;": ">",
    "&quot;": '"',
    "&apos;": "'",
}

# Tag kinds of the per-parse tag cache.
_OPEN, _EMPTY, _CLOSE, _SKIP = range(4)


def _decode_entities(text: str) -> str:
    for entity, char in _ENTITIES.items():
        text = text.replace(entity, char)
    return text


def _classify(token: str) -> tuple[int, str, str, str]:
    """One tag token as ``(kind, label, canonical tag, <label/>)``."""
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
    nodes: list[Node] = []
    stack: list[Node] = []  # the open elements, root first
    parts: list[str] = []  # the canonical text, in pieces
    tags: dict[str, tuple[int, str, str, str]] = {}
    for token in _TOKEN.findall(source):
        if token[0] == "<":
            tag = tags.get(token)
            if tag is None:
                tag = tags[token] = _classify(token)
            kind, name, canonical, empty = tag
            if kind == _CLOSE:
                if not stack:
                    raise XMLParseError(f"unmatched closing tag </{name}>")
                node = stack.pop()
                if node.label != name:
                    raise XMLParseError(
                        f"mismatched tags: <{node.label}> closed by </{name}>"
                    )
                # A childless element has appended nothing since its
                # open tag, which becomes ``<label/>``.
                if node.children:
                    parts.append(canonical)
                else:
                    parts[-1] = empty
                continue
            if kind == _SKIP:
                continue
            node = Node(name)
            node.node_id = len(nodes)
            if stack:
                parent = stack[-1]
                node.parent_id = parent.node_id
                parent.children.append(node)
                node.depth = len(stack)
            elif nodes:
                raise XMLParseError("multiple root elements")
            nodes.append(node)
            if kind == _OPEN:
                stack.append(node)
                parts.append(canonical)
            else:
                parts.append(empty)
        else:
            if "&" in token:
                token = _decode_entities(token)
            text = token.strip()
            if not text:
                continue
            if not stack:
                raise XMLParseError("text content outside the root element")
            node = Node(TEXT_LABEL, text)
            node.node_id = len(nodes)
            parent = stack[-1]
            node.parent_id = parent.node_id
            parent.children.append(node)
            node.depth = len(stack)
            nodes.append(node)
            parts.append(escape_text(text))
    if stack:
        raise XMLParseError(f"unclosed element <{stack[-1].label}>")
    if not nodes:
        raise XMLParseError("no root element found")
    # Every cached open tag created at least one element.
    labels = {tag[1] for tag in tags.values() if tag[0] in (_OPEN, _EMPTY)}
    return XMLTree.from_frozen(nodes, labels), "".join(parts)


def parse_xml(source: str) -> XMLTree:
    """Parse an XML string into an indexed :class:`XMLTree`.

    Raises:
        XMLParseError: on mismatched tags, missing root, trailing content.
    """
    return parse_canonical(source)[0]
