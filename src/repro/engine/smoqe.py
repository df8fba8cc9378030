"""SMOQE — the Secure MOdular Query Engine (the paper's prototype [10]).

The deployment scenario of Section 1: a server holds an XML document; each
user group is given a *virtual* view (their authorised window on the data)
and poses (regular) XPath queries against it.  The engine

1. rewrites the view query into an MFA over the source (Algorithm
   ``rewrite``, Section 5) — through the :mod:`repro.compile` pipeline,
   cached per ``(view fingerprint, normalised query)``;
2. evaluates the MFA with HyPE (or an OptHyPE variant) directly on the
   source document — no view is ever materialised;
3. returns the answers.

The engine doubles as a stand-alone regular-XPath engine (the paper calls
SMOQE "the first regular XPath engine"): :meth:`SMOQE.evaluate` compiles
and runs any ``Xreg`` query on the source document.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..automata.mfa import MFA
from ..errors import ViewError
from ..hype.api import ALGORITHMS, HYPE
from ..hype.core import HyPEResult, HyPEStats
from ..serve.cache import CachedPlan, PlanCache
from ..views.spec import ViewSpec
from ..xpath import ast
from ..xtree.node import Node, XMLTree


@dataclass
class QueryAnswer:
    """Answer set plus provenance of how it was computed."""

    result: HyPEResult
    mfa: MFA
    algorithm: str
    view: str | None = None
    query_text: str = ""
    # Content hash of the document the answer was computed over (None
    # for engine paths that predate multi-document serving).
    document: str | None = None

    @property
    def stats(self) -> HyPEStats:
        return self.result.stats

    @property
    def nodes(self) -> set[Node]:
        """The answer nodes, created from the ids on first access."""
        return self.result.answers

    def ids(self) -> list[int]:
        """Sorted document-order node ids (stable for display/tests)."""
        return list(self.result.ids)


@dataclass
class _ViewEntry:
    spec: ViewSpec


class SMOQE:
    """One engine instance serves one source document and many views.

    Compiled plans (rewritten MFAs and directly compiled queries) live in
    a shared two-tier :class:`repro.serve.cache.PlanCache` keyed by
    ``(view fingerprint, normalised query, format version)`` — pass one
    in to share plans with a
    :class:`repro.serve.service.QueryService` over the same document, or
    construct it over a :class:`repro.compile.store.PlanStore` to reuse
    plans across restarts.
    """

    def __init__(
        self,
        document: "XMLTree | IndexedDocument",
        default_algorithm: str = HYPE,
        cache: PlanCache | None = None,
    ) -> None:
        from ..docstore.document import IndexedDocument

        if default_algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {default_algorithm!r}")
        # Plain trees are wrapped into a (private) IndexedDocument, so
        # the engine gets the columnar hot loop and build-once indexes
        # transparently; passing a store-shared document shares its
        # layout and indexes with every other holder.
        self._doc = (
            document
            if isinstance(document, IndexedDocument)
            else IndexedDocument(document)
        )
        self.document = self._doc.tree
        self.default_algorithm = default_algorithm
        self.cache = cache if cache is not None else PlanCache()
        self._views: dict[str, _ViewEntry] = {}

    # ------------------------------------------------------------------
    # View administration
    # ------------------------------------------------------------------
    def register_view(self, name: str, spec: ViewSpec) -> None:
        """Register a view definition under ``name``."""
        if name in self._views:
            raise ViewError(f"view {name!r} already registered")
        self._views[name] = _ViewEntry(spec)

    def views(self) -> list[str]:
        """Registered view names."""
        return sorted(self._views)

    def view_spec(self, name: str) -> ViewSpec:
        """The specification registered under ``name``."""
        try:
            return self._views[name].spec
        except KeyError:
            raise ViewError(f"unknown view {name!r}") from None

    # ------------------------------------------------------------------
    # Query answering on views (the headline feature)
    # ------------------------------------------------------------------
    def answer(
        self,
        view: str,
        query: str | ast.Path,
        algorithm: str | None = None,
    ) -> QueryAnswer:
        """Answer a query posed on a *virtual* view.

        The rewriting is cached, so repeated queries over the same view pay
        only evaluation time.
        """
        plan, text = self._rewritten(view, query)
        result, algo = self._run(plan, algorithm)
        return QueryAnswer(result, plan.mfa, algo, view=view, query_text=text)

    def rewrite(self, view: str, query: str | ast.Path) -> MFA:
        """Expose the rewritten MFA (for inspection or external evaluation)."""
        return self._rewritten(view, query)[0].mfa

    def _rewritten(
        self, view: str, query: str | ast.Path
    ) -> tuple[CachedPlan, str]:
        entry = self._views.get(view)
        if entry is None:
            raise ViewError(f"unknown view {view!r}")
        return self.cache.lookup(entry.spec, query)

    # ------------------------------------------------------------------
    # Stand-alone regular XPath engine
    # ------------------------------------------------------------------
    def evaluate(
        self, query: str | ast.Path, algorithm: str | None = None
    ) -> QueryAnswer:
        """Evaluate a (regular) XPath query directly on the source."""
        plan, text = self.cache.lookup(None, query)
        result, algo = self._run(plan, algorithm)
        return QueryAnswer(result, plan.mfa, algo, query_text=text)

    # ------------------------------------------------------------------
    def _run(self, plan: CachedPlan, algorithm: str | None):
        algo = algorithm or self.default_algorithm
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
        doc = self._doc
        compiled = plan.compiled(algo, doc.tree, doc)
        return compiled.run(0, layout=doc.layout), algo
