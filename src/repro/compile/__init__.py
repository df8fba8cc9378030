"""``repro.compile`` — the query-compilation pipeline as a subsystem.

How plans come to exist, end to end:

* :mod:`repro.compile.pipeline` — :class:`QueryCompiler`, the named and
  individually-timed stages (parse → normalize → rewrite → trim, or
  parse → normalize → translate for direct queries) plus the thread-safe
  :class:`CompileMetrics` stage counters;
* :mod:`repro.compile.artifact` — :class:`PlanArtifact`, the versioned,
  serialisable record of a compiled plan, and the collision-safe key
  scheme ``(view_fingerprint, normalized_query, format_version)``;
* :mod:`repro.compile.shape` — :func:`shape_of` / :func:`instantiate`:
  a query's literals lifted into slots, and its artifact built from its
  shape's compiled :class:`Template` instead of a rewrite;
* :mod:`repro.compile.store` — :class:`PlanStore`, the atomic,
  corruption-tolerant on-disk tier under the serving layer's two-tier
  :class:`repro.serve.cache.PlanCache`.

The serving layer (``repro.serve.cache``) routes every compilation
through this package; the ``warm`` CLI subcommand precompiles workloads
straight into a store.
"""

from .artifact import ArtifactError, FORMAT_VERSION, PlanArtifact, PlanKey
from .pipeline import (
    CompileMetrics,
    CompileStats,
    INSTANTIATE,
    NORMALIZE,
    NormalizedQuery,
    PARSE,
    QueryCompiler,
    REWRITE,
    STAGES,
    StageStats,
    TRANSLATE,
    TRIM,
)
from .shape import Slot, Template, instantiate, shape_of
from .store import PlanStore, StoreStats

__all__ = [
    "ArtifactError",
    "FORMAT_VERSION",
    "PlanArtifact",
    "PlanKey",
    "CompileMetrics",
    "CompileStats",
    "NormalizedQuery",
    "QueryCompiler",
    "StageStats",
    "STAGES",
    "PARSE",
    "NORMALIZE",
    "REWRITE",
    "TRIM",
    "TRANSLATE",
    "INSTANTIATE",
    "Slot",
    "Template",
    "instantiate",
    "shape_of",
    "PlanStore",
    "StoreStats",
]
