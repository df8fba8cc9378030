"""Pretty-printer for query ASTs.

Produces strings the parser maps back to an equivalent AST; tested by the
round-trip property ``canonical(parse(unparse(q))) == canonical(q)`` (the
canonicalisation only re-associates ``/`` and ``|`` chains).  A literal
is quoted with the quote character it lacks, so the text of a normal form
names exactly one query (it is the plan cache's key).
"""

from __future__ import annotations

from ..errors import QuerySyntaxError
from . import ast

# Precedence levels: union < concat < postfix (star/filter) < atom.
_UNION, _CONCAT, _POSTFIX, _ATOM = 1, 2, 3, 4


def unparse(node: ast.Path | ast.Filter) -> str:
    """Render a path or filter AST back to concrete syntax."""
    if isinstance(node, ast.Path):
        return _path(node, _UNION)
    return _filter(node, top=True)


def _prec(node: ast.Path) -> int:
    if isinstance(node, ast.Union):
        return _UNION
    if isinstance(node, ast.Concat):
        return _CONCAT
    if isinstance(node, ast.DescOrSelf):
        # '//' is only valid in concat position; as a star/filter operand it
        # must be parenthesised: '(//)*', not '//*' (that's '//' + wildcard).
        return _CONCAT
    if isinstance(node, (ast.Star, ast.Filtered)):
        return _POSTFIX
    return _ATOM


def _path(node: ast.Path, required: int) -> str:
    text = _path_text(node)
    if _prec(node) < required:
        return f"({text})"
    return text


def _flatten_concat(node: ast.Path, out: list[ast.Path]) -> None:
    if isinstance(node, ast.Concat):
        _flatten_concat(node.left, out)
        _flatten_concat(node.right, out)
    else:
        out.append(node)


def _path_text(node: ast.Path) -> str:
    if isinstance(node, ast.Empty):
        return "."
    if isinstance(node, ast.Label):
        return node.name
    if isinstance(node, ast.Wildcard):
        return "*"
    if isinstance(node, ast.DescOrSelf):
        return "//"
    if isinstance(node, ast.Union):
        return f"{_path(node.left, _UNION)} | {_path(node.right, _CONCAT)}"
    if isinstance(node, ast.Concat):
        items: list[ast.Path] = []
        _flatten_concat(node, items)
        parts: list[str] = []
        for i, item in enumerate(items):
            if isinstance(item, ast.DescOrSelf):
                parts.append("//")
            else:
                rendered = _path(item, _POSTFIX)
                if i > 0 and not isinstance(items[i - 1], ast.DescOrSelf):
                    parts.append("/")
                parts.append(rendered)
        return "".join(parts)
    if isinstance(node, ast.Star):
        return f"{_path(node.inner, _ATOM)}*"
    if isinstance(node, ast.Filtered):
        return f"{_path(node.path, _POSTFIX)}[{_filter(node.predicate, top=True)}]"
    raise TypeError(f"unknown path node {node!r}")


def _filter(node: ast.Filter, top: bool = False) -> str:
    if isinstance(node, ast.Exists):
        return _path(node.path, _UNION)
    if isinstance(node, ast.TextEquals):
        literal = _literal(node.value)
        if isinstance(node.path, ast.Empty):
            return f"text() = {literal}"
        return f"{_path(node.path, _CONCAT)}/text() = {literal}"
    if isinstance(node, ast.Not):
        return f"not({_filter(node.inner, top=True)})"
    if isinstance(node, ast.And):
        return f"{_filter_operand(node.left)} and {_filter_operand(node.right)}"
    if isinstance(node, ast.Or):
        return f"{_filter_operand(node.left)} or {_filter_operand(node.right)}"
    raise TypeError(f"unknown filter node {node!r}")


def _literal(value: str) -> str:
    """``value`` quoted with a quote character it does not hold, so the
    text reparses to it (and two different ASTs never unparse alike)."""
    if "'" not in value:
        return f"'{value}'"
    if '"' not in value:
        return f'"{value}"'
    # The lexer ends a literal at its own quote, so no parsed query holds
    # one; only a hand-built AST can.
    raise QuerySyntaxError(f"literal {value!r} holds both quote characters")


def _filter_operand(node: ast.Filter) -> str:
    # Parenthesise nested Boolean operators so precedence survives reparsing;
    # TextEquals over a union path also needs parens ambiguity-wise.
    if isinstance(node, (ast.And, ast.Or)):
        return f"({_filter(node)})"
    return _filter(node)
