"""Direct ``Xreg → Xreg`` query rewriting (Theorems 3.2 / Corollary 3.3).

The constructive proof that regular XPath is closed under rewriting for
arbitrary (recursive or not) views: a view query is rewritten to a source
query by interpreting it over the :class:`~repro.rewrite.matrix.PathMatrix`
Kleene algebra — every view label step ``B`` in view context ``A`` is
replaced by the annotation ``σ(A,B)``, with matrix product/star tracking
the view type through concatenations and Kleene closures.

The output *is* an ordinary ``Xreg`` AST evaluable by any of our engines —
but its size is worst-case exponential in ``|Q|`` and ``|D_V|``
(Corollary 3.3; the rewriting problem subsumes NFA → regular-expression
translation).  Benchmark E9 measures the blow-up against the MFA rewriting
of :mod:`repro.rewrite.mfa_rewrite`, which is what makes the paper's
approach practical.

Text-equality subtlety: a view node carries text only when its type has
``str`` content (materialisation copies the source context node's text).
``TextEquals`` filters therefore rewrite per end type: ``str`` types test
the source node's text; element/empty types have ``text() = ''`` on the
view, so they contribute an existence test exactly when the constant is
the empty string.
"""

from __future__ import annotations

from ..dtd.model import StrContent
from ..errors import RewriteError
from ..views.spec import ViewSpec
from ..xpath import ast
from ..xpath.fragment import to_xreg
from ..xpath.normalize import simplify, simplify_filter
from .matrix import PathMatrix

#: A filter that never holds — used for provably empty rewritings.
FALSE_FILTER = ast.Not(ast.Exists(ast.Empty()))

#: A path selecting nothing — the rewriting of an unsatisfiable view query.
EMPTY_PATH = ast.Filtered(ast.Empty(), FALSE_FILTER)


class DirectRewriter:
    """Rewrites view queries to source ``Xreg`` queries via matrix algebra."""

    def __init__(self, spec: ViewSpec) -> None:
        self.spec = spec
        self.types = tuple(sorted(spec.view_dtd.productions))
        self._str_types = {
            label
            for label, content in spec.view_dtd.productions.items()
            if isinstance(content, StrContent)
        }
        self._edges = set(spec.view_dtd.edges())

    # ------------------------------------------------------------------
    def rewrite(self, query: ast.Path) -> ast.Path:
        """Rewrite ``query`` (over the view) into ``Xreg`` over the source.

        The result ``Q'`` satisfies ``Q(σ(T)) = Q'(T)`` for every document
        ``T`` of the source DTD, reading both sides as source-node sets
        (view nodes are identified with their provenance).
        """
        matrix = self._path_matrix(to_xreg(query))
        alternatives = [
            entry
            for (row, _col), entry in matrix.entries.items()
            if row == self.spec.view_dtd.root
        ]
        if not alternatives:
            return EMPTY_PATH
        result = alternatives[0]
        for alternative in alternatives[1:]:
            result = ast.Union(result, alternative)
        return simplify(result)

    def path_matrix(self, query: ast.Path) -> PathMatrix:
        """Public typed-rewriting matrix: entry ``[A][B]`` is the source
        query taking an ``A``-context to ``B``-typed view ends (∅ absent).

        Used by view composition (:mod:`repro.views.compose`)."""
        return self._path_matrix(to_xreg(query))

    # ------------------------------------------------------------------
    def _path_matrix(self, query: ast.Path) -> PathMatrix:
        if isinstance(query, ast.Empty):
            return PathMatrix.identity(self.types)
        if isinstance(query, ast.Label):
            matrix = PathMatrix(self.types)
            for parent, child in self._edges:
                if child == query.name:
                    matrix.add(parent, child, self.spec.annotation(parent, child))
            return matrix
        if isinstance(query, ast.Wildcard):
            matrix = PathMatrix(self.types)
            for parent, child in self._edges:
                matrix.add(parent, child, self.spec.annotation(parent, child))
            return matrix
        if isinstance(query, ast.Concat):
            left = self._path_matrix(query.left)
            right = self._path_matrix(query.right)
            return left.multiply(right)
        if isinstance(query, ast.Union):
            left = self._path_matrix(query.left)
            right = self._path_matrix(query.right)
            return left.union(right)
        if isinstance(query, ast.Star):
            return self._path_matrix(query.inner).star()
        if isinstance(query, ast.Filtered):
            matrix = self._path_matrix(query.path)
            return matrix.map_filtered(
                lambda end_type: self._filter_for(query.predicate, end_type)
            )
        raise RewriteError(f"cannot rewrite path node {query!r}")

    # ------------------------------------------------------------------
    def _filter_for(self, predicate: ast.Filter, view_type: str) -> ast.Filter | None:
        """Rewrite a filter for evaluation at a ``view_type`` context.

        Returns ``None`` when the filter is *provably false* at that type
        (the enclosing matrix entry is dropped).
        """
        if isinstance(predicate, ast.Exists):
            matrix = self._path_matrix(predicate.path)
            targets = list(matrix.row(view_type).values())
            if not targets:
                return None
            return ast.Exists(_union_all(targets))
        if isinstance(predicate, ast.TextEquals):
            matrix = self._path_matrix(predicate.path)
            str_targets: list[ast.Path] = []
            other_targets: list[ast.Path] = []
            for end_type, entry in matrix.row(view_type).items():
                if end_type in self._str_types:
                    str_targets.append(entry)
                else:
                    other_targets.append(entry)
            parts: list[ast.Filter] = []
            if str_targets:
                parts.append(
                    ast.TextEquals(_union_all(str_targets), predicate.value)
                )
            if other_targets and predicate.value == "":
                # Non-str view nodes have empty text; reachability suffices.
                parts.append(ast.Exists(_union_all(other_targets)))
            if not parts:
                return None
            result = parts[0]
            for part in parts[1:]:
                result = ast.Or(result, part)
            return result
        if isinstance(predicate, ast.Not):
            inner = self._filter_for(predicate.inner, view_type)
            if inner is None:
                # ¬false = true: drop the filter entirely.
                return ast.Exists(ast.Empty())
            return ast.Not(inner)
        if isinstance(predicate, ast.And):
            left = self._filter_for(predicate.left, view_type)
            right = self._filter_for(predicate.right, view_type)
            if left is None or right is None:
                return None
            return ast.And(left, right)
        if isinstance(predicate, ast.Or):
            left = self._filter_for(predicate.left, view_type)
            right = self._filter_for(predicate.right, view_type)
            if left is None:
                return right
            if right is None:
                return left
            return ast.Or(left, right)
        raise RewriteError(f"cannot rewrite filter node {predicate!r}")


def _union_all(paths: list[ast.Path]) -> ast.Path:
    result = paths[0]
    for path in paths[1:]:
        result = ast.Union(result, path)
    return result


def rewrite_to_xreg(spec: ViewSpec, query: ast.Path) -> ast.Path:
    """One-shot direct rewriting (see :class:`DirectRewriter`)."""
    return DirectRewriter(spec).rewrite(query)
