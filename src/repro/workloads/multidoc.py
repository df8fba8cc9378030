"""The multi-document serving workload: hospital + ontology per request.

Two structurally different documents behind one service: the wide
hospital tree (single ``parent`` recursion chain, Fig. 1(a)) and the
deep-recursion ontology (multi-axis ``isa``/``partof`` recursion with
planted deep chains, :mod:`repro.workloads.ontology`).  Tenants are
cataloged asymmetrically — research institutes may only ask the hospital
document through ``σ0``, curators only the ontology through the curated
view, and the trusted ``admin`` both directly — so the stream exercises
per-request document selection *and* catalog enforcement.

This module is the single source of truth for the fleet's service shape:
:func:`build_multidoc_service` is called both by every fleet worker
(through the spec's builder reference) and by the single-process
reference the fleet smoke compares against, which is what makes
"byte-identical answers" a meaningful check.  Everything is seeded and
content-addressed, so every process derives the same document hashes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, asdict

from ..hype.api import ALGORITHMS, HYPE
from ..views.samples import sigma0
from .hospital import HospitalConfig, generate_hospital_document
from .ontology import (
    ONTOLOGY_SOURCE_QUERIES,
    ONTOLOGY_VIEW_QUERIES,
    OntologyConfig,
    curated_view,
    generate_ontology_document,
)
from .queries import FIG8, VIEW_QUERIES
from .traffic import TrafficRequest

HOSPITAL = "hospital"
ONTOLOGY = "ontology"


@dataclass
class MultiDocConfig:
    """Knobs for the two-document workload (JSON-round-trippable).

    ``ontology_fraction`` steers what share of non-admin requests target
    the ontology document; ``algorithm`` is the serving default (the
    fleet smoke uses ``opthype`` so "zero index builds on a warm worker"
    is a falsifiable claim — plain HyPE builds none to begin with).
    """

    patients: int = 60
    tenants: int = 4
    curators: int = 2
    terms: int = 48
    chain_depth: int = 12
    seed: int = 0
    num_requests: int = 64
    admin_rate: float = 0.2
    hot_fraction: float = 0.5
    ontology_fraction: float = 0.5
    ontology_variants: int = 1
    algorithm: str = HYPE

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MultiDocConfig":
        return cls(**data)


def ontology_names(config: MultiDocConfig) -> list[str]:
    """Ontology document names: ``ontology``, ``ontology-1``, ...

    ``ontology_variants > 1`` generates additional ontology documents
    from shifted seeds — distinct content hashes over the same DTD, so a
    fleet bench can shard more documents across more workers (the ring
    routes whole documents; parallelism is capped by the document
    count).
    """
    return [ONTOLOGY] + [
        f"{ONTOLOGY}-{i}" for i in range(1, max(1, config.ontology_variants))
    ]


def build_documents(config: MultiDocConfig | None = None) -> dict:
    """The workload's documents by name (deterministic given the seed)."""
    cfg = config or MultiDocConfig()
    documents = {
        HOSPITAL: generate_hospital_document(
            HospitalConfig(num_patients=cfg.patients, seed=cfg.seed)
        )
    }
    for i, name in enumerate(ontology_names(cfg)):
        documents[name] = generate_ontology_document(
            config=OntologyConfig(
                num_terms=cfg.terms,
                seed=cfg.seed + i,
                chain_depth=cfg.chain_depth,
            )
        )
    return documents


def curator_names(config: MultiDocConfig) -> list[str]:
    return [f"cur-{i}" for i in range(max(1, config.curators))]


def research_names(config: MultiDocConfig) -> list[str]:
    return [f"inst-{i}" for i in range(max(1, config.tenants))]


def build_multidoc_service(
    config: MultiDocConfig | dict | None = None,
    plan_store=None,
    document_store=None,
    pool_size: int | None = None,
):
    """Build the two-document service; returns ``(service, hashes)``.

    ``hashes`` maps document names (:data:`HOSPITAL` / :data:`ONTOLOGY`)
    to the content hashes requests route by.  The hospital document is
    the service default, so document-less requests keep working.
    """
    from ..serve.service import QueryService

    if isinstance(config, dict):
        config = MultiDocConfig.from_dict(config)
    cfg = config or MultiDocConfig()
    if cfg.algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {cfg.algorithm!r}")
    documents = build_documents(cfg)
    kwargs = {} if pool_size is None else {"pool_size": pool_size}
    service = QueryService(
        documents[HOSPITAL],
        default_algorithm=cfg.algorithm,
        plan_store=plan_store,
        document_store=document_store,
        **kwargs,
    )
    hashes = {HOSPITAL: service.default_document_hash}
    for name in ontology_names(cfg):
        hashes[name] = service.add_document(documents[name])
    ontology_hashes = tuple(hashes[name] for name in ontology_names(cfg))
    for i, tenant in enumerate(research_names(cfg)):
        view = f"research-{i}"
        service.register_view(view, sigma0())
        service.register_tenant(tenant, view, documents=(hashes[HOSPITAL],))
    for j, tenant in enumerate(curator_names(cfg)):
        view = f"curated-{j}"
        service.register_view(view, curated_view())
        service.register_tenant(tenant, view, documents=ontology_hashes)
    service.register_tenant(
        "admin", None, documents=(hashes[HOSPITAL], *ontology_hashes)
    )
    return service, hashes


def generate_multidoc_traffic(
    config: MultiDocConfig | None = None,
    hashes: dict | None = None,
) -> list[TrafficRequest]:
    """The seeded mixed-document request stream.

    With ``hashes`` (from :func:`build_multidoc_service`) each request
    carries the content hash of its target document; without, requests
    carry the document *name* — callers replaying against a live service
    must translate first.
    """
    cfg = config or MultiDocConfig()
    rng = random.Random(cfg.seed + 1)
    research = research_names(cfg)
    curators = curator_names(cfg)
    onames = ontology_names(cfg)

    def doc(name: str) -> str:
        return hashes[name] if hashes is not None else name

    def ontology_pick() -> str:
        # Single-variant streams skip the draw, keeping the default
        # stream byte-stable across the variants knob's introduction.
        return onames[0] if len(onames) == 1 else rng.choice(onames)

    view_items = sorted(VIEW_QUERIES.items())
    hot_view = view_items[: max(1, len(view_items) // 3)]
    curated_items = sorted(ONTOLOGY_VIEW_QUERIES.items())
    hot_curated = curated_items[: max(1, len(curated_items) // 3)]
    admin_hospital = sorted(FIG8.items())
    admin_ontology = sorted(ONTOLOGY_SOURCE_QUERIES.items())

    requests: list[TrafficRequest] = []
    for _ in range(cfg.num_requests):
        on_ontology = rng.random() < cfg.ontology_fraction
        if rng.random() < cfg.admin_rate:
            name, query = rng.choice(
                admin_ontology if on_ontology else admin_hospital
            )
            requests.append(
                TrafficRequest(
                    "admin",
                    query,
                    name,
                    document=doc(ontology_pick() if on_ontology else HOSPITAL),
                )
            )
            continue
        if on_ontology:
            pool = (
                hot_curated
                if rng.random() < cfg.hot_fraction
                else curated_items
            )
            name, query = rng.choice(pool)
            requests.append(
                TrafficRequest(
                    rng.choice(curators),
                    query,
                    name,
                    document=doc(ontology_pick()),
                )
            )
        else:
            pool = hot_view if rng.random() < cfg.hot_fraction else view_items
            name, query = rng.choice(pool)
            requests.append(
                TrafficRequest(
                    rng.choice(research), query, name, document=doc(HOSPITAL)
                )
            )
    return requests
