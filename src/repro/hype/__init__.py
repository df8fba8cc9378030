"""HyPE: single-pass MFA evaluation, indexes and the OptHyPE variants."""

from .analyze import ViabilityAnalyzer
from .api import (
    ALGORITHMS,
    HYPE,
    OPTHYPE,
    OPTHYPE_C,
    compile_plan,
    evaluate_hype,
    to_mfa,
)
from .core import (
    CompiledPlan,
    HyPEResult,
    HyPEStats,
    RunCursor,
    hype_eval,
)
from .index import (
    CompressedLabelIndex,
    LabelTable,
    SubtreeLabelIndex,
    build_index,
)
from .kernel import DenseKernel, descend, kernel_payload

__all__ = [
    "hype_eval",
    "CompiledPlan",
    "RunCursor",
    "compile_plan",
    "HyPEResult",
    "HyPEStats",
    "evaluate_hype",
    "to_mfa",
    "ALGORITHMS",
    "HYPE",
    "OPTHYPE",
    "OPTHYPE_C",
    "build_index",
    "SubtreeLabelIndex",
    "CompressedLabelIndex",
    "LabelTable",
    "ViabilityAnalyzer",
    "DenseKernel",
    "descend",
    "kernel_payload",
]

