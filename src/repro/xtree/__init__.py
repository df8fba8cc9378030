"""XML tree substrate: node model, builders, parser, serialiser, statistics."""

from .build import document, element, text_node
from .node import Node, TEXT_LABEL, XMLTree
from .parse import parse_xml
from .serialize import serialize
from .stats import TreeStats, tree_stats

__all__ = [
    "Node",
    "TEXT_LABEL",
    "XMLTree",
    "document",
    "element",
    "text_node",
    "parse_xml",
    "serialize",
    "TreeStats",
    "tree_stats",
]
