"""Programmatic construction DSL for query ASTs.

Workloads and tests read much better with combinators than with nested
dataclass constructors::

    q0 = txt_eq(seq("visit", "treatment", "medication", "diagnosis"),
                "heart disease")
    query = filt(seq("department", "patient"), q0)
"""

from __future__ import annotations

from typing import Union as TUnion

from . import ast

PathLike = TUnion[ast.Path, str]
FilterLike = TUnion[ast.Filter, ast.Path, str]


def path(value: PathLike) -> ast.Path:
    """Coerce a label string (or pass through a Path) to a Path AST."""
    if isinstance(value, ast.Path):
        return value
    if value == "*":
        return ast.Wildcard()
    if value == ".":
        return ast.Empty()
    if value == "//":
        return ast.DescOrSelf()
    return ast.Label(value)


def predicate(value: FilterLike) -> ast.Filter:
    """Coerce a path (or label string) to an existence filter."""
    if isinstance(value, ast.Filter):
        return value
    return ast.Exists(path(value))


def empty() -> ast.Path:
    """``ε``."""
    return ast.Empty()


def label(name: str) -> ast.Path:
    """``A``."""
    return ast.Label(name)


def wildcard() -> ast.Path:
    """``*`` step."""
    return ast.Wildcard()


def seq(*parts: PathLike) -> ast.Path:
    """``p1/p2/.../pn`` (left-associated); ``seq()`` is ``ε``."""
    if not parts:
        return ast.Empty()
    result = path(parts[0])
    for part in parts[1:]:
        result = ast.Concat(result, path(part))
    return result


def union(*parts: PathLike) -> ast.Path:
    """``p1 ∪ ... ∪ pn`` (left-associated)."""
    if not parts:
        raise ValueError("union needs at least one alternative")
    result = path(parts[0])
    for part in parts[1:]:
        result = ast.Union(result, path(part))
    return result


def star(inner: PathLike) -> ast.Path:
    """``p*``."""
    return ast.Star(path(inner))


def filt(p: PathLike, f: FilterLike) -> ast.Path:
    """``p[f]``."""
    return ast.Filtered(path(p), predicate(f))


def exists(p: PathLike) -> ast.Filter:
    """Filter: path ``p`` selects something."""
    return ast.Exists(path(p))


def txt_eq(p: PathLike, value: str) -> ast.Filter:
    """Filter: ``p/text() = 'value'``."""
    return ast.TextEquals(path(p), value)


def and_(*fs: FilterLike) -> ast.Filter:
    """``f1 ∧ ... ∧ fn`` (left-associated)."""
    if not fs:
        raise ValueError("and_ needs at least one operand")
    result = predicate(fs[0])
    for f in fs[1:]:
        result = ast.And(result, predicate(f))
    return result


def or_(*fs: FilterLike) -> ast.Filter:
    """``f1 ∨ ... ∨ fn`` (left-associated)."""
    if not fs:
        raise ValueError("or_ needs at least one operand")
    result = predicate(fs[0])
    for f in fs[1:]:
        result = ast.Or(result, predicate(f))
    return result
