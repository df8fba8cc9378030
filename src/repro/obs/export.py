"""Prometheus text-exposition rendering of a service metrics snapshot.

:func:`render_prometheus` turns a
:class:`repro.serve.metrics.MetricsSnapshot` into the Prometheus
text format (version 0.0.4): ``# HELP`` / ``# TYPE`` headers, one
``name{labels} value`` sample per line.  The front-end serves it via
the ``prometheus`` op (``{"op": "prometheus"}`` → the text in a JSON
field), and ``repro obs --prometheus`` prints it — point an exporter
sidecar or a scrape job at either.

Naming follows the Prometheus conventions: ``_total`` counters,
``_seconds`` base units, histograms as ``_bucket``/``_sum``/``_count``
triplets whose ``le`` labels are exactly the bucket ladder of
:mod:`repro.obs.hist` — so the classic invariant holds and is checked
by the obs smoke: the latency histogram's ``+Inf`` bucket equals the
request counter.

An unlabelled family is ONE row of :data:`FAMILIES` — ``(attribute,
family, kind, help)``, the attribute a dotted path that resolves on the
snapshot and on its ``as_dict()`` payload alike; the labelled families
(per kind / tier / stage / op / tenant, histograms) are written once in
:func:`render_prometheus`.

This module deliberately imports nothing from :mod:`repro.serve` — it
reads the snapshot duck-typed, so the dependency arrow keeps pointing
from the serving layer into ``obs`` and never back.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..serve.metrics import MetricsSnapshot

    from .hist import Histogram


class Family(NamedTuple):
    """One unlabelled metric family and where its value lives."""

    attribute: str
    family: str
    kind: str
    help: str


#: The declaration table of the unlabelled families, in exposition order.
FAMILIES = (
    Family("requests", "requests_total", "counter", "Served requests."),
    Family("waves", "waves_total", "counter", "Admission waves dispatched."),
    Family("wave_requests", "wave_requests_total", "counter",
           "Requests that joined a wave."),
    Family("wave_admitted", "wave_admitted_total", "counter",
           "Wave requests admitted into shared evaluation."),
    Family("largest_wave", "largest_wave", "gauge",
           "Largest admission wave observed."),
    Family("batch_runs", "batch_runs_total", "counter",
           "Batched evaluation waves."),
    Family("batched_queries", "batched_queries_total", "counter",
           "Queries served by batched waves."),
    Family("batch_visited", "batch_visited_total", "counter",
           "Elements visited by batched waves (summed over lanes)."),
    Family("sequential_visited", "sequential_visited_total", "counter",
           "Elements one pass per query would have visited."),
    Family("cache.misses", "plan_cache_misses_total", "counter",
           "Plan-cache misses: lookups that built a new artifact."),
    Family("cache.shape_hits", "plan_cache_shape_hits_total", "counter",
           "Plan-cache misses instantiated from a cached shape template."),
    Family("cache.frame_hits", "plan_cache_frame_hits_total", "counter",
           "Plan-cache text lookups served by a known frame (no parse, no normalize)."),
    Family("cache.evictions", "plan_cache_evictions_total", "counter",
           "L1 LRU evictions."),
    Family("in_flight_evaluations", "in_flight_evaluations", "gauge",
           "Evaluations executing now."),
    Family("pool.peak_in_flight", "peak_in_flight", "gauge",
           "Peak concurrent evaluations observed."),
    Family("pool.size", "pool_size", "gauge", "Evaluation pool worker bound."),
)

def resolve(source, path: str):
    """Follow a dotted ``path`` through attributes (a snapshot) or keys
    (its ``as_dict()`` payload)."""
    for name in path.split("."):
        source = source[name] if isinstance(source, dict) else getattr(source, name)
    return source


def _escape(value: str) -> str:
    """Escape a label value per the exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float | int) -> str:
    if isinstance(value, bool):  # bool is an int; never render True/False
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


def _labels(**labels: str) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape(str(value))}"' for name, value in labels.items()
    )
    return "{" + inner + "}"


class Exposition:
    """Accumulates HELP/TYPE-headed metric families in order.

    ``base_labels`` (e.g. ``worker="w3"``) are stamped onto every sample
    — how a fleet keeps per-process resolution after its workers'
    expositions are merged into one aggregate view.
    """

    def __init__(
        self, namespace: str, base_labels: dict[str, str] | None = None
    ) -> None:
        self.namespace = namespace
        self.base_labels = dict(base_labels or {})
        self.lines: list[str] = []
        self._declared: set[str] = set()

    def family(self, name: str, kind: str, help_text: str) -> str:
        """Declare a metric family (HELP/TYPE emitted once per name)."""
        full = f"{self.namespace}_{name}"
        if full not in self._declared:
            self._declared.add(full)
            self.lines.append(f"# HELP {full} {help_text}")
            self.lines.append(f"# TYPE {full} {kind}")
        return full

    def sample(self, full_name: str, value: float | int, **labels: str) -> None:
        merged = {**self.base_labels, **labels}
        self.lines.append(f"{full_name}{_labels(**merged)} {_fmt(value)}")

    def scalars(self, source, rows: Iterable[Family]) -> None:
        """One unlabelled sample per table row, read off ``source``."""
        for row in rows:
            self.sample(
                self.family(row.family, row.kind, row.help),
                resolve(source, row.attribute),
            )

    def labelled(
        self,
        name: str,
        kind: str,
        help_text: str,
        label: str,
        values: Iterable[tuple[str, float | int]],
    ) -> None:
        """One family whose samples differ in a single ``label``."""
        full = self.family(name, kind, help_text)
        for key, value in values:
            self.sample(full, value, **{label: key})

    def histogram(
        self, name: str, hist: "Histogram", help_text: str, **labels: str
    ) -> None:
        full = self.family(name, "histogram", help_text)
        for le, cumulative in hist.cumulative_buckets():
            le_label = "+Inf" if math.isinf(le) else _fmt(le)
            self.sample(f"{full}_bucket", cumulative, **labels, le=le_label)
        self.sample(f"{full}_sum", hist.total, **labels)
        self.sample(f"{full}_count", hist.count, **labels)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_prometheus(
    snapshot: "MetricsSnapshot",
    namespace: str = "repro",
    worker: str | None = None,
) -> str:
    """The full text exposition of one metrics snapshot.

    ``worker`` adds a ``worker="..."`` label to every sample so series
    from many fleet processes stay distinguishable after
    :func:`merge_expositions` folds their texts into one view.
    """
    exp = Exposition(namespace, None if worker is None else {"worker": worker})
    exp.scalars(snapshot, FAMILIES)
    exp.labelled(
        "rejected_total",
        "counter",
        "Rejected requests by failure kind.",
        "kind",
        sorted(snapshot.rejected_kinds.items()),
    )
    exp.labelled(
        "plan_cache_hits_total",
        "counter",
        "Plan-cache hits by tier.",
        "tier",
        (("l1", snapshot.cache.l1_hits), ("l2", snapshot.cache.l2_hits)),
    )
    stages = snapshot.compile.as_dict()
    for figure, name, help_text in (
        ("count", "compile_stage_runs_total", "Compile-stage invocations."),
        (
            "seconds",
            "compile_stage_seconds_total",
            "Cumulative compile-stage wall time.",
        ),
    ):
        exp.labelled(
            name,
            "counter",
            help_text,
            "stage",
            ((stage, counters[figure]) for stage, counters in stages.items()),
        )
    for block, stats in (
        ("plan_store", snapshot.store),
        ("doc_store", snapshot.doc_store),
    ):
        if stats is not None:
            exp.labelled(
                f"{block}_ops_total",
                "counter",
                f"{block.replace('_', ' ')} operations by kind.",
                "op",
                stats.as_dict().items(),
            )

    exp.histogram(
        "request_latency_seconds",
        snapshot.latency.hist,
        "Per-request evaluation latency.",
    )
    exp.histogram(
        "queue_wait_seconds",
        snapshot.queue_wait.hist,
        "Time requests queued for a pool worker.",
    )
    tenants = sorted(snapshot.tenants.items())
    for figure, help_text in (
        ("requests", "Served requests per tenant."),
        ("answers", "Answer nodes per tenant."),
        ("rejections", "Rejected requests per tenant."),
    ):
        exp.labelled(
            f"tenant_{figure}_total",
            "counter",
            help_text,
            "tenant",
            ((tenant, getattr(tm, figure)) for tenant, tm in tenants),
        )
    for tenant, tm in tenants:
        exp.histogram(
            "tenant_latency_seconds",
            tm.latency.hist,
            "Per-tenant evaluation latency.",
            tenant=tenant,
        )
    return exp.render()


def _sample(line: str) -> tuple[str, str, float]:
    """Split one ``name{labels} value`` line into its three parts.

    The one sample-line splitter behind :func:`merge_expositions` and
    :func:`parse_exposition`; raises ``ValueError`` on a malformed line.
    """
    body, _, raw_value = line.rpartition(" ")
    if not body:
        raise ValueError(f"malformed sample line: {line!r}")
    name, brace, rest = body.partition("{")
    if brace and not rest.endswith("}"):
        raise ValueError(f"unterminated labels: {line!r}")
    return name, rest[:-1], float(raw_value)


def merge_expositions(texts: list[str]) -> str:
    """Fold many exposition texts into one aggregate exposition.

    Families keep the order of their first appearance, with ``HELP`` /
    ``TYPE`` headers emitted once (first declaration wins) and every
    family's samples grouped under its headers as the format requires.
    Samples with an identical ``name{labels}`` body are *summed* — the
    right aggregation for the counters and for the log-bucket histogram
    ``_bucket``/``_sum``/``_count`` triplets, which are mergeable by
    construction.  Workers rendered with distinct ``worker`` labels
    (:func:`render_prometheus`) never collide, so the fleet's merged
    view keeps per-worker resolution while still being one scrape.
    """
    #: family -> (header lines, {(name, labels): summed value}), both in
    #: first-appearance order.
    families: dict[str, tuple[list[str], dict[tuple[str, str], float]]] = {}
    for text in texts:
        family = None
        for line in text.splitlines():
            if line.startswith(("# HELP ", "# TYPE ")):
                name = line.split(" ", 3)[2]
                headers, _ = families.setdefault(name, ([], {}))
                if line.startswith("# TYPE "):
                    family = name
                if line not in headers:
                    headers.append(line)
            elif line and not line.startswith("#"):
                name, labels, value = _sample(line)
                # _bucket/_sum/_count samples attach to the TYPE'd family
                # they follow; a headerless text degrades to per-name groups.
                owner = (
                    family
                    if family is not None and name.startswith(family)
                    else name
                )
                _, values = families.setdefault(owner, ([], {}))
                values[name, labels] = values.get((name, labels), 0.0) + value
    lines: list[str] = []
    for headers, values in families.values():
        lines.extend(headers)
        for (name, labels), value in values.items():
            braced = "{" + labels + "}" if labels else ""
            lines.append(f"{name}{braced} {_fmt(value)}")
    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> dict[str, dict[str, float]]:
    """A minimal exposition parser: ``{metric: {label_repr: value}}``.

    Not a full client — just enough structure validation for the tests:
    every non-comment line must be ``name{labels} value`` with a
    float-parseable value, labels well-formed.  Raises ``ValueError`` on
    any malformed line.
    """
    samples: dict[str, dict[str, float]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, labels, value = _sample(line)
        if not name.replace("_", "").replace(":", "").isalnum():
            raise ValueError(f"bad metric name: {name!r}")
        samples.setdefault(name, {})[labels] = value
    return samples
