"""Seeded input generators and the answer oracle.

Everything the program under test receives is made here from ``--seed``:
XML text, view specifications, tenant names and query strings.  The
generators are the repo's own paper fixtures (hospital documents of
Fig. 1(a), the security view σ0, the Fig. 8 / view query families); the
seed decides document *content*, operation *order* and *who asks*.

What the seed deliberately does not decide is how much work a run holds:

* documents are drawn until one lands within a small tolerance of a
  target node count (a 200-patient hospital document varies ±5 % in
  size from seed to seed, which would be ±5 % on every timing);
* operation lists are *stratified*: a list holds the traffic mix's
  expected count of every (query, algorithm) pair exactly, shuffled by
  the seed.  A randomly drawn mix moves a latency percentile across the
  boundary between two cost classes from one seed to the next.

The oracle is the paper's: a view query's answer is the set of source
nodes behind ``Q(σ(T))`` — ``views.materialize`` + ``baselines.naive``
— and a direct (admin) query's answer is ``baselines.naive`` on ``T``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property

from repro.baselines.naive import NaiveEvaluator
from repro.hype.api import ALGORITHMS
from repro.views import materialize, sigma0
from repro.workloads import FIG8, VIEW_QUERIES, HospitalConfig
from repro.workloads import generate_hospital_document
from repro.xtree.parse import parse_xml
from repro.xtree.serialize import serialize

#: Ids returned per reply (the frontend's default cap); the oracle keeps
#: the full count and the same prefix.
ID_LIMIT = 100

ADMIN = "admin"


@dataclass(frozen=True)
class Request:
    """One query request: who asks what, how, over which document."""

    tenant: str
    query: str
    algorithm: str | None = None
    doc: int = 0  # index into the workload's document list

    @property
    def on_view(self) -> bool:
        return self.tenant != ADMIN


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------
def sized_document(
    rng: random.Random,
    patients: int,
    target_nodes: int,
    tolerance: float,
    view_patients: tuple[int, int] | None = None,
) -> "Oracle":
    """A hospital document of ~``target_nodes`` nodes, with its oracle.

    Draws generator seeds from ``rng`` until the node count is within
    ``tolerance`` of the target and σ0 exposes between
    ``view_patients[0]`` and ``view_patients[1]`` patients: the first
    fixes how much there is to descend, the second how much there is to
    answer (tiny documents would otherwise often have an empty view).
    """
    for _ in range(5000):
        tree = generate_hospital_document(
            HospitalConfig(num_patients=patients, seed=rng.randrange(1 << 30))
        )
        if abs(tree.size - target_nodes) > tolerance * target_nodes:
            continue
        if view_patients is not None:
            view = materialize(_sigma0(), tree).tree
            visible = len(NaiveEvaluator("patient").run(view))
            if not view_patients[0] <= visible <= view_patients[1]:
                continue
        return Oracle(serialize(tree))
    raise RuntimeError(
        f"no {patients}-patient document within {tolerance:.0%} of "
        f"{target_nodes} nodes in 5000 draws"
    )


@cache
def _sigma0():
    return sigma0()


# ----------------------------------------------------------------------
# Operation lists
# ----------------------------------------------------------------------
def traffic_mix(algorithms: tuple[str | None, ...]) -> list[tuple[bool, str, str | None]]:
    """The ``workloads.traffic`` mix as exact counts per 32 requests.

    ``TrafficConfig`` defaults: ~0.2 of requests are admin Fig. 8
    queries, half of the view requests re-draw from the two hottest view
    queries.  Per 32 requests and algorithm: 2 of each Fig. 8 query
    (18.75 % admin), 8 of each hot view query, 2 of each other view
    query.  Returns ``(on_view, query, algorithm)`` triples.
    """
    view = sorted(VIEW_QUERIES.items())
    hot = view[: max(1, len(view) // 3)]
    rest = view[len(hot) :]
    mix: list[tuple[bool, str, str | None]] = []
    for algorithm in algorithms:
        for _name, query in sorted(FIG8.items()):
            mix += [(False, query, algorithm)] * 2
        for _name, query in hot:
            mix += [(True, query, algorithm)] * 8
        for _name, query in rest:
            mix += [(True, query, algorithm)] * 2
    return mix


def traffic_requests(
    rng: random.Random,
    copies: int,
    tenants: list[str],
    documents: int = 1,
    zipf_s: float = 0.0,
    rotate_algorithms: bool = True,
) -> list[Request]:
    """``copies`` × the stratified mix, shuffled; tenants drawn by seed,
    documents dealt in exact Zipf(``zipf_s``) shares (0 = equal shares)."""
    algorithms = ALGORITHMS if rotate_algorithms else (None,) * len(ALGORITHMS)
    mix = traffic_mix(algorithms) * copies
    rng.shuffle(mix)
    docs = zipf_assignment(rng, len(mix), documents, zipf_s)
    return [
        Request(rng.choice(tenants) if on_view else ADMIN, query, algorithm, doc)
        for (on_view, query, algorithm), doc in zip(mix, docs)
    ]


def zipf_assignment(rng: random.Random, count: int, documents: int, s: float) -> list[int]:
    """``count`` document indices holding exact Zipf(s) shares, shuffled."""
    weights = [1.0 / (rank + 1) ** s for rank in range(documents)]
    total = sum(weights)
    shares = [int(count * w / total) for w in weights]
    shares[0] += count - sum(shares)
    assignment = [doc for doc, n in enumerate(shares) for _ in range(n)]
    rng.shuffle(assignment)
    return assignment


#: Never-seen-before view queries over σ0: filter chains of depth 1-4
#: and Kleene stars outside / inside filters (Examples 1.1 and 4.1).
#: ``{c}`` is a fresh constant in one extra disjunct — it makes the text
#: (and so the plan key) unique and never matches, so the answer stays
#: that of the rest of the filter.
CHURN_TEMPLATES = (
    "patient[record/diagnosis/text() = 'heart disease' or record/diagnosis/text() = '{c}']",
    "patient[record or parent/patient/record/diagnosis/text() = '{c}']",
    "patient[record[diagnosis[text() = 'heart disease' or text() = '{c}']]]",
    "patient[record[diagnosis[text() = 'heart disease']] or parent[patient[record[diagnosis/text() = '{c}']]]]",
    "(patient/parent)*/patient[record/diagnosis/text() = 'heart disease' or record/diagnosis/text() = '{c}']",
    "patient[(parent/patient)*/record/diagnosis/text() = 'heart disease' or record/diagnosis/text() = '{c}']",
    "patient[*//record/diagnosis/text() = 'heart disease' or record/diagnosis/text() = '{c}']",
    "(patient/parent)*/patient[(parent/patient)*/record/diagnosis/text() = 'heart disease' or record/empty or record/diagnosis/text() = '{c}']",
)


def churn_requests(
    order: list[tuple[int, str, int]], tag: str, first: int
) -> list[Request]:
    """One pass of unique queries: ``order`` is ``(template, tenant,
    document)``; constants are ``{tag}n``, ``n`` counting up from ``first``."""
    return [
        Request(
            tenant,
            CHURN_TEMPLATES[template].format(c=f"{tag}{first + i}"),
            None,
            doc,
        )
        for i, (template, tenant, doc) in enumerate(order)
    ]


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
class Oracle:
    """One document's XML text plus its reference answers.

    The reference side re-parses the text itself (node ids are document
    order, so they line up with the program's own parse) and is built
    only when an answer is first asked for.
    """

    def __init__(self, xml: str) -> None:
        self.xml = xml
        self._memo: dict[tuple[bool, str], tuple[int, list[int]]] = {}
        self._skew = 0

    def corrupt(self) -> None:
        """Self-test hook: make every reference answer deliberately wrong."""
        self._skew = 1
        self._memo.clear()

    @cached_property
    def tree(self):
        return parse_xml(self.xml)

    @cached_property
    def view(self):
        return materialize(_sigma0(), self.tree)

    def expected(self, on_view: bool, query: str) -> tuple[int, list[int]]:
        """``(count, first ID_LIMIT sorted source node ids)``."""
        key = (on_view, query)
        answer = self._memo.get(key)
        if answer is None:
            if on_view:
                nodes = self.view.sources(NaiveEvaluator(query).run(self.view.tree))
            else:
                nodes = NaiveEvaluator(query).run(self.tree)
            ids = sorted(node.node_id + self._skew for node in nodes)
            answer = self._memo[key] = (len(ids), ids[:ID_LIMIT])
        return answer

    def matches(self, request: Request, reply: dict) -> bool:
        """Whether an ``ok`` reply carries exactly the reference answer."""
        count, ids = self.expected(request.on_view, request.query)
        return (
            reply.get("ok") is True
            and reply.get("count") == count
            and reply.get("ids") == ids
        )
