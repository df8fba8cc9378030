"""Experiment runners shared by ``benchmarks/`` and the results harness.

Each runner reproduces one figure/table of Section 7: it generates (or
receives) the document series, runs every algorithm on every size, checks
all algorithms agree on the answers, and returns the timing matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..automata.mfa import MFA
from ..baselines.naive import NaiveEvaluator
from ..baselines.twopass import TwoPassEvaluator
from ..baselines.xquery_sim import XQuerySimEvaluator
from ..docstore.document import IndexedDocument
from ..hype.api import ALGORITHMS, to_mfa
from ..hype.core import CompiledPlan
from ..workloads.scales import SeriesStep
from ..xtree.node import XMLTree
from .timing import Timing, measure


@dataclass
class SeriesResult:
    """Timing matrix of one experiment."""

    title: str
    row_labels: list[str] = field(default_factory=list)
    element_counts: list[int] = field(default_factory=list)
    answer_counts: list[int] = field(default_factory=list)
    times: dict[str, list[float]] = field(default_factory=dict)

    def render(self) -> str:
        from .tables import format_series

        return format_series(
            self.title,
            self.row_labels,
            self.times,
            extra={
                "elements": self.element_counts,
                "answers": self.answer_counts,
            },
        )


def make_algorithms(
    query: str, include: Sequence[str]
) -> dict[str, Callable[[XMLTree], set]]:
    """Build name→runner callables for the requested algorithms.

    Known names: ``naive`` (JAXP profile), ``twopass`` (Koch profile),
    ``xquery`` (GALAX profile), ``hype``, ``opthype``, ``opthype-c``.
    Building the document's columns — and the index, for the OptHyPE
    variants — is *included* in the measured time on first use per tree,
    matching the paper, whose index is built during the document scan;
    both are then held in one :class:`IndexedDocument` per tree (keyed
    by the tree object, which the entry keeps alive, so an id is never
    reused under it).
    """
    mfa = to_mfa(query)
    runners: dict[str, Callable[[XMLTree], set]] = {}
    documents: dict[XMLTree, IndexedDocument] = {}

    def hype_runner_factory(algorithm: str):
        def run(tree: XMLTree) -> set:
            doc = documents.get(tree)
            if doc is None:
                doc = documents[tree] = IndexedDocument(tree)
            plan = CompiledPlan.for_algorithm(mfa, algorithm, tree, doc)
            return plan.run(doc.root, layout=doc.layout).answers

        return run

    for name in include:
        if name == "naive":
            runners[name] = NaiveEvaluator(query).run
        elif name == "twopass":
            runners[name] = TwoPassEvaluator(mfa).run
        elif name == "xquery":
            runners[name] = XQuerySimEvaluator(query).run
        elif name in ALGORITHMS:
            runners[name] = hype_runner_factory(name)
        else:
            raise ValueError(f"unknown algorithm {name!r}")
    return runners


def run_series(
    title: str,
    query: str,
    series: Sequence[SeriesStep],
    algorithms: Sequence[str],
    repeats: int = 3,
) -> SeriesResult:
    """Run one figure's experiment over the document series.

    All algorithms must return identical answer sets on every document —
    a benchmark that disagrees is a correctness bug, not a data point.
    """
    runners = make_algorithms(query, algorithms)
    result = SeriesResult(title=title)
    for name in algorithms:
        result.times[name] = []
    for step in series:
        reference: set | None = None
        result.row_labels.append(step.label)
        result.element_counts.append(step.element_count)
        for name in algorithms:
            runner = runners[name]
            answers = runner(step.tree)
            if reference is None:
                reference = answers
                result.answer_counts.append(len(answers))
            elif {n.node_id for n in answers} != {n.node_id for n in reference}:
                raise AssertionError(
                    f"{title}: algorithm {name!r} disagrees on {step.label}"
                )
            timing: Timing = measure(lambda r=runner, t=step.tree: r(t), repeats)
            result.times[name].append(timing.mean)
    return result


def pruning_statistics(query: str, tree: XMLTree) -> dict[str, float]:
    """Fraction of element nodes *not* visited, per HyPE variant (E8)."""
    mfa: MFA = to_mfa(query)
    total = tree.element_count
    doc = IndexedDocument(tree)
    out: dict[str, float] = {}
    for name in ALGORITHMS:
        plan = CompiledPlan.for_algorithm(mfa, name, tree, doc)
        run = plan.run(doc.root, layout=doc.layout)
        out[name] = 1.0 - run.stats.visited_elements / total
    return out
