"""XML view specifications: annotated view DTDs (Section 2.3).

A view is a mapping ``σ : D → D_V`` given by annotating every edge
``(A, B)`` of the view DTD graph with an ``Xreg`` query ``σ(A, B)`` over
documents of the *document* DTD ``D``: given an ``A`` element of the view
whose source context is node ``u``, ``σ(A,B)(u)`` computes the source nodes
that become its ``B`` children.  This follows the annotation style of
commercial systems (Oracle AXSD, IBM DAD, SQLServer annotated XSDs) that the
paper adopts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping

from ..dtd.model import DTD
from ..errors import ViewError
from ..xpath import ast
from ..xpath.fragment import to_xreg
from ..xpath.parser import parse_query

Annotation = ast.Path
EdgeKey = tuple[str, str]


@dataclass
class ViewSpec:
    """A view definition ``σ : D → D_V``.

    Attributes:
        source_dtd: The document DTD ``D``.
        view_dtd: The view DTD ``D_V``.
        annotations: Mapping from view-DTD edges ``(A, B)`` to ``Xreg``
            queries over ``D``.  Strings are parsed on construction.
    """

    source_dtd: DTD
    view_dtd: DTD
    annotations: dict[EdgeKey, Annotation] = field(default_factory=dict)

    def __post_init__(self) -> None:
        parsed: dict[EdgeKey, Annotation] = {}
        for edge, query in self.annotations.items():
            if isinstance(query, str):
                query = parse_query(query)
            parsed[edge] = to_xreg(query)
        self.annotations = parsed
        self._fingerprint: str | None = None
        self.validate()

    # ------------------------------------------------------------------
    def annotation(self, parent: str, child: str) -> Annotation:
        """``σ(parent, child)``; raises :class:`ViewError` if unannotated."""
        try:
            return self.annotations[(parent, child)]
        except KeyError:
            raise ViewError(
                f"view edge ({parent!r}, {child!r}) has no annotation"
            ) from None

    def size(self) -> int:
        """|σ|: total AST size of all annotations (the paper's measure)."""
        return sum(q.size() for q in self.annotations.values())

    @property
    def is_recursive(self) -> bool:
        """Whether the *view* is recursive (i.e. ``D_V`` is recursive)."""
        from ..dtd.graph import is_recursive

        return is_recursive(self.view_dtd)

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the specification (hex, stable across processes).

        Two :class:`ViewSpec` instances describing the same view — same
        DTDs, same annotations up to semantics-preserving query
        normalisation — share a fingerprint, while any change to either
        DTD or any annotation produces a new one.  Plan-cache keys carry
        this hash instead of the registered view *name*, so holders of a
        shared cache (or of one on-disk plan store) can never serve each
        other's rewritings across different specs.  The canonical text
        below is part of the persistent key scheme: changing it is a
        format change (bump ``repro.compile.artifact.FORMAT_VERSION``).
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for line in self._canonical_lines():
                digest.update(line.encode("utf-8"))
                digest.update(b"\n")
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def _canonical_lines(self) -> list[str]:
        """Order-independent textual form of the spec (hash input)."""
        from ..xpath.normalize import normal_form
        from ..xpath.unparse import unparse

        lines = ["source"]
        lines.extend(_canonical_dtd_lines(self.source_dtd))
        lines.append("view")
        lines.extend(_canonical_dtd_lines(self.view_dtd))
        lines.append("annotations")
        for (parent, child), query in sorted(self.annotations.items()):
            lines.append(f"{parent} {child} = {unparse(normal_form(query))}")
        return lines

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every view-DTD edge is annotated and refers to known types.

        Raises:
            ViewError: on missing or dangling annotations.
        """
        edges = set(self.view_dtd.edges())
        for edge in edges:
            if edge not in self.annotations:
                raise ViewError(f"missing annotation for view edge {edge}")
        for edge in self.annotations:
            if edge not in edges:
                raise ViewError(
                    f"annotation for {edge} does not match any view-DTD edge"
                )
        for edge, query in self.annotations.items():
            for label in ast.labels_used(query):
                if label not in self.source_dtd.productions:
                    raise ViewError(
                        f"annotation for {edge} mentions unknown source "
                        f"type {label!r}"
                    )

    def describe(self) -> str:
        """Multi-line summary in the style of Fig. 1(c)."""
        from ..xpath.unparse import unparse

        lines = []
        for (parent, child), query in sorted(self.annotations.items()):
            lines.append(f"sigma({parent}, {child}) = {unparse(query)}")
        return "\n".join(lines)


def _canonical_dtd_lines(dtd: DTD) -> list[str]:
    """Production lines sorted by element type (insertion-order free)."""
    lines = [f"root {dtd.root}"]
    lines.extend(
        f"{label} -> {content}"
        for label, content in sorted(dtd.productions.items())
    )
    return lines


def view_spec(
    source_dtd: DTD,
    view_dtd: DTD,
    annotations: Mapping[EdgeKey, Annotation | str],
) -> ViewSpec:
    """Convenience constructor accepting query strings as annotations."""
    return ViewSpec(source_dtd, view_dtd, dict(annotations))


def copy_view(dtd: DTD) -> ViewSpec:
    """The identity view of a DTD: every edge maps to its own child label.

    Useful as a rewriting sanity check — rewriting over the identity view
    must preserve query semantics verbatim.
    """
    annotations: dict[EdgeKey, Annotation] = {}
    for parent, child in dtd.edges():
        annotations[(parent, child)] = ast.Label(child)
    # Choice children may repeat edges; dict keys already dedupe.
    return ViewSpec(dtd, dtd, annotations)
