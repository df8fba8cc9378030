"""The query-compilation pipeline: parse → normalize → rewrite → trim.

Rewriting a view query into an MFA (Section 5 of the paper) dominates
per-request cost once documents are in memory — which is exactly why the
plan cache exists.  This module makes the compilation sequence a
first-class subsystem instead of logic smeared across the engine, the
cache and the rewriter: :class:`QueryCompiler` owns the stages, times and
counts each one through a thread-safe :class:`CompileMetrics`, and emits
a versioned :class:`repro.compile.artifact.PlanArtifact`.

Stages (every compilation runs a subset, each individually timed):

========== ==========================================================
``parse``   query string → AST (skipped when the caller hands an AST,
            and on a plan-cache frame hit: :mod:`repro.compile.shape`)
``normalize`` :func:`repro.xpath.normalize.normal_form` + unparse —
            yields the canonical text used in cache/store keys
``rewrite`` view query → MFA over the source (Algorithm ``rewrite``,
            the expensive stage a warm plan store exists to skip)
``trim``    drop NFA states unreachable from the start (view path)
``translate`` direct query → MFA (Thompson construction; the non-view
            sibling of ``rewrite``)
``dense``   eagerly close the MFA's dense transition table, in place
            in the plan that will serve it (:func:`repro.hype.kernel.close`)
            — HyPE runs on it and the OptHyPE executables are seeded from
            it; a decoded artifact is closed again on its first build,
            which no stage counts
``instantiate`` a query's artifact from its shape's template
            (:mod:`repro.compile.shape`): fresh literal finals over the
            template's automaton, then the dense closure — the sibling of
            every stage above for a query whose shape was compiled before
========== ==========================================================

The stage counters double as the restart acceptance check: a service
started against a populated plan store must show ``rewrite`` (and
``translate``) counts of **zero** for previously-seen queries.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..automata.compile import compile_query
from ..guard import CompileBudget
from ..obs.counters import Counters
from ..obs.trace import span
from ..views.spec import ViewSpec
from ..xpath import ast
from ..xpath.normalize import normal_form
from ..xpath.parser import parse_query
from ..xpath.unparse import unparse
from .artifact import FORMAT_VERSION, PlanArtifact, PlanKey

PARSE = "parse"
NORMALIZE = "normalize"
REWRITE = "rewrite"
TRIM = "trim"
TRANSLATE = "translate"
DENSE = "dense"
INSTANTIATE = "instantiate"

#: All stage names, in pipeline order (rewrite/trim on the view path,
#: translate on the direct path; dense closes either path's MFA;
#: instantiate replaces all three for a query whose shape has a template).
STAGES = (PARSE, NORMALIZE, REWRITE, TRIM, TRANSLATE, DENSE, INSTANTIATE)


@dataclass
class StageStats(Counters):
    """Invocation count and cumulative wall time of one pipeline stage."""

    count: int = 0
    seconds: float = 0.0


@dataclass
class CompileStats:
    """Point-in-time copy of all stage counters."""

    stages: dict[str, StageStats] = field(default_factory=dict)

    def stage(self, name: str) -> StageStats:
        """Counters for ``name`` (zeros when the stage never ran)."""
        return self.stages.get(name, StageStats())

    @property
    def total_seconds(self) -> float:
        """Wall time spent across all compilation stages."""
        return sum(stage.seconds for stage in self.stages.values())

    @property
    def rewrites(self) -> int:
        """MFA constructions (view rewrites + direct translations)."""
        return self.stage(REWRITE).count + self.stage(TRANSLATE).count

    def as_dict(self) -> dict:
        """JSON-shaped per-stage counters (pipeline order)."""
        return {name: self.stage(name).as_dict() for name in STAGES}


class CompileMetrics:
    """Thread-safe recorder of per-stage compile counts and timings."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: dict[str, StageStats] = {}

    def record(self, stage: str, seconds: float) -> None:
        with self._lock:
            stats = self._stages.get(stage)
            if stats is None:
                stats = self._stages[stage] = StageStats()
            stats.count += 1
            stats.seconds += seconds

    def snapshot(self) -> CompileStats:
        with self._lock:
            return CompileStats(
                {name: stats.snapshot() for name, stats in self._stages.items()}
            )


@dataclass(frozen=True, eq=False)
class NormalizedQuery:
    """A query after the parse + normalize stages.

    ``text`` is the canonical key component; ``ast`` the normal-form AST
    the MFA is compiled from (so the plan always corresponds to its key,
    not to whichever syntactic variant happened to compile first).
    """

    ast: ast.Path
    text: str


#: The default compile budget: generous enough that every legitimate
#: workload clears it untouched, tight enough that a rewrite-bomb is
#: rejected in bounded wall time (the checks are O(1) reads of sizes the
#: pipeline computes anyway).  Pass ``budget=None`` to disable.
DEFAULT_BUDGET = CompileBudget()


def key_of(fingerprint: str | None, normal: str) -> PlanKey:
    """The persistent plan key of the query whose normal-form text is
    ``normal`` over the view with ``fingerprint`` (``None``: no view) —
    the one constructor of the key scheme."""
    return (fingerprint, normal, FORMAT_VERSION)


class QueryCompiler:
    """Owns the full compilation pipeline as named, timed stages.

    Stateless apart from its metrics, so one compiler can be shared by
    every holder of a plan cache; compilation itself is pure.

    ``budget`` (default :data:`DEFAULT_BUDGET`) bounds each
    compilation: the normalized AST's node count before the expensive
    stages run, and the rewritten/translated automaton's state count
    before the dense closure.  A breach raises
    :class:`repro.errors.QueryTooComplexError` — the structured
    ``query-too-complex`` rejection the serving layer counts per tenant
    — so a malicious tenant's query bomb costs one parse, not unbounded
    CPU.
    """

    def __init__(
        self,
        metrics: CompileMetrics | None = None,
        budget: CompileBudget | None = DEFAULT_BUDGET,
    ) -> None:
        self.metrics = metrics if metrics is not None else CompileMetrics()
        self.budget = budget

    # ------------------------------------------------------------------
    def parse(self, text: str) -> ast.Path:
        """The parse stage alone, recorded like ``normalize`` (no span: a
        plan-cache lookup's parse is part of its ``plan`` span)."""
        started = time.perf_counter()
        parsed = parse_query(text)
        self.metrics.record(PARSE, time.perf_counter() - started)
        return parsed

    def normalize(self, query: str | ast.Path | NormalizedQuery) -> NormalizedQuery:
        """Run the parse (strings only) and normalize stages."""
        if isinstance(query, NormalizedQuery):
            return query
        if isinstance(query, str):
            query = self._timed(PARSE, parse_query, query)
        started = time.perf_counter()
        normal = normal_form(query)
        text = unparse(normal)
        self.metrics.record(NORMALIZE, time.perf_counter() - started)
        return NormalizedQuery(normal, text)

    def plan_key(
        self, spec: ViewSpec | None, query: str | ast.Path | NormalizedQuery
    ) -> PlanKey:
        """The collision-safe cache/store key of ``(spec, query)``."""
        normalized = self.normalize(query)
        return key_of(spec.fingerprint() if spec is not None else None, normalized.text)

    def compile(
        self, spec: ViewSpec | None, query: str | ast.Path | NormalizedQuery
    ) -> PlanArtifact:
        """Run the whole pipeline; returns the versioned plan artifact.

        With a view specification the query is rewritten over the source
        (rewrite + trim stages); without one it is translated directly
        (translate stage).  Either way the artifact's MFA is compiled
        from the *normal-form* AST, so it matches its key exactly.
        """
        from ..rewrite.mfa_rewrite import rewrite_query, trim_mfa

        normalized = self.normalize(query)
        if self.budget is not None:
            self.budget.check_ast(normalized.ast.size())
        stages: dict[str, float] = {}
        if spec is None:
            mfa = self._timed(
                TRANSLATE,
                compile_query,
                normalized.ast,
                description=normalized.text,
                _stages=stages,
            )
            fingerprint = None
        else:
            mfa = self._timed(
                REWRITE,
                rewrite_query,
                spec,
                normalized.ast,
                trim=False,
                _stages=stages,
            )
            mfa = self._timed(TRIM, trim_mfa, mfa, _stages=stages)
            fingerprint = spec.fingerprint()
        if self.budget is not None:
            self.budget.check_mfa(
                mfa.size(), TRANSLATE if spec is None else REWRITE
            )
        closed = self._timed(DENSE, _dense_closure, mfa, _stages=stages)
        return PlanArtifact(
            mfa=mfa,
            normalized_query=normalized.text,
            view_fingerprint=fingerprint,
            description=mfa.description or normalized.text,
            stages=stages,
            closure=closed,
        )

    def instantiate(
        self, template, normalized: str, literals: tuple[str, ...]
    ) -> PlanArtifact:
        """The instantiate stage: :func:`repro.compile.shape.instantiate`,
        timed — the artifact of the query whose normal-form text is
        ``normalized``, from its shape's template."""
        from .shape import instantiate

        return self._timed(INSTANTIATE, instantiate, template, normalized, literals)

    # ------------------------------------------------------------------
    def _timed(self, stage: str, fn, *args, _stages=None, **kwargs):
        """Run ``fn`` under the stage's span, recording its wall time."""
        # span() is a no-op (one contextvar read) unless the request that
        # triggered this compilation carries an active trace.
        with span(f"compile.{stage}"):
            started = time.perf_counter()
            result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - started
        self.metrics.record(stage, elapsed)
        if _stages is not None:
            _stages[stage] = _stages.get(stage, 0.0) + elapsed
        return result


def _dense_closure(mfa):
    """The dense stage: build THE index-free plan of ``mfa`` — the
    artifact's :attr:`~repro.compile.artifact.PlanArtifact.closure`,
    never serialised, which serves HyPE on every document — and close
    its transition table in place.

    Imported lazily — the hype evaluator package sits above the compile
    pipeline in the layer diagram, and only this one stage reaches up.
    """
    from ..hype.core import CompiledPlan
    from ..hype.kernel import close

    plan = CompiledPlan(mfa)
    close(plan)
    return plan
