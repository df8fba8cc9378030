"""Serialise XML trees back to text.

Round-trips with :mod:`repro.xtree.parse` (modulo insignificant whitespace):
``parse_xml(serialize(tree))`` reproduces the same labelled tree.
"""

from __future__ import annotations

from .node import Node, TEXT_LABEL, XMLTree


def escape_text(text: str) -> str:
    """``text`` as PCDATA: ``&``, ``<`` and ``>`` become entities."""
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


def serialize(tree: XMLTree | Node, indent: int | None = None) -> str:
    """Serialise a tree (or subtree root) to an XML string.

    Iterative, so a document may be arbitrarily deep.

    Args:
        tree: An :class:`XMLTree` or a bare :class:`Node` subtree root.
        indent: If given, pretty-print with this many spaces per level.
    """
    root = tree.root if isinstance(tree, XMLTree) else tree
    parts: list[str] = []
    # ``(node, level)`` is a subtree still to write; ``(None, line)`` is
    # the closing tag of an element whose children are being written.
    stack: list[tuple[Node | None, int | str]] = [(root, 0)]
    while stack:
        node, level = stack.pop()
        if node is None:
            parts.append(level)
            continue
        pad = " " * (indent * level) if indent is not None else ""
        label = node.label
        children = node.children
        if label == TEXT_LABEL:
            parts.append(pad + escape_text(node.value or ""))
        elif not children:
            parts.append(f"{pad}<{label}/>")
        elif all(c.label == TEXT_LABEL for c in children):
            content = escape_text("".join(c.value or "" for c in children))
            parts.append(f"{pad}<{label}>{content}</{label}>")
        else:
            parts.append(f"{pad}<{label}>")
            stack.append((None, f"{pad}</{label}>"))
            stack.extend((c, level + 1) for c in reversed(children))
    joiner = "\n" if indent is not None else ""
    return joiner.join(parts)
