"""Malicious-tenant workload: rewrite bombs and cache-poisoning attempts.

The robustness counterpart of the scenario zoo's friendly streams.  One
tenant (``mallory``) interleaves two attack families with the legitimate
hospital traffic the other tenants send:

* **Rewrite bombs** — the nested-star query family of
  ``benchmarks/test_rewrite_blowup.py`` (``(*/*)*`` doubled per nesting
  level), deepened past the compile budget.  The MFA rewrite itself is
  linear in ``|Q|`` (Theorem 5.1) — the blowup is in the *query*, whose
  AST doubles per level — so the defense is the
  :class:`repro.guard.CompileBudget` AST check right after
  parse+normalize: each bomb costs one linear parse and is rejected with
  the structured ``query-too-complex`` kind in bounded wall time.
* **Cache poisoning** — replacing a registered view with a same-name,
  different-content spec and replaying a canary query.  Plan cache and
  store keys carry the view's content *fingerprint*, so a plan compiled
  under one registration can never be served under the other;
  :func:`poison_attempt` runs the round trip and returns the canary
  counts that prove it.

Everything is seeded and deterministic, mirroring
:mod:`repro.workloads.skew` and :mod:`repro.workloads.multidoc`.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from ..views.samples import SIGMA0_ANNOTATIONS, sigma0
from .hospital import HospitalConfig, generate_hospital_document
from .queries import FIG8, VIEW_QUERIES
from .traffic import TrafficRequest

#: Traffic name prefix marking requests that MUST be rejected
#: ``query-too-complex`` (callers count them against the rejection kind).
BOMB_PREFIX = "bomb"

#: The canary query replayed around a poisoning attempt (nonzero under
#: ``σ0``, empty under the variant — the counts discriminate the specs).
CANARY_QUERY = "patient/record/diagnosis"


@dataclass
class AdversarialConfig:
    """Knobs for the malicious stream (JSON-round-trippable).

    ``bomb_depth`` is the nesting level of the *hostile* family members;
    the default sits safely past the default
    :class:`repro.guard.CompileBudget` AST ceiling while the query
    string stays small enough that the rejection is visibly cheap.
    ``bomb_rate`` is the fraction of the stream mallory fills with them.
    """

    patients: int = 20
    tenants: int = 3
    seed: int = 0
    num_requests: int = 48
    bomb_rate: float = 0.25
    bomb_depth: int = 12
    admin_rate: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.bomb_rate <= 1.0:
            raise ValueError(f"bomb_rate must be in [0, 1], got {self.bomb_rate}")
        if self.bomb_depth < 1:
            raise ValueError(f"bomb_depth must be >= 1, got {self.bomb_depth}")

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AdversarialConfig":
        return cls(**data)


def bomb_family(depth: int) -> list[str]:
    """The nested-star family, doubling per level: ``(*/*)*``, ....

    ``bomb_family(3)`` is exactly the ``FAMILY`` of
    ``benchmarks/test_rewrite_blowup.py``; deeper members double the AST
    (and the query text) per level, so a member past the budget's
    ``max_ast_nodes`` exists at every budget setting.
    """
    member = "(*/*)*"
    family = [member]
    for _ in range(depth - 1):
        member = f"({member}/{member})*"
        family.append(member)
    return family


def sigma0_variant() -> "object":
    """A same-shape, different-content sibling of ``σ0``.

    Identical element structure (same view DTD) but a different Q1
    membership predicate — so it carries a different content
    fingerprint, which is all the plan tiers key on.
    """
    from ..dtd.samples import hospital_dtd, hospital_view_dtd
    from ..views.spec import view_spec

    annotations = dict(SIGMA0_ANNOTATIONS)
    annotations[("hospital", "patient")] = (
        "department/patient"
        "[visit/treatment/medication/diagnosis/text() = 'diabetes']"
    )
    return view_spec(hospital_dtd(), hospital_view_dtd(), annotations)


def tenant_names(config: AdversarialConfig) -> list[str]:
    return [f"inst-{i}" for i in range(max(1, config.tenants))]


def build_adversarial_service(
    config: AdversarialConfig | dict | None = None,
    plan_store=None,
    document_store=None,
    pool_size: int | None = None,
    compose: bool = False,
):
    """Build the service under attack; returns ``(service, hashes)``.

    The honest research tenants and ``mallory`` are bound to the SAME
    ``research`` view — mallory is a view-restricted attacker whose only
    levers are the queries it sends, which is the threat model the
    compile budget defends.  ``admin`` keeps trusted direct access.
    """
    from ..serve.service import QueryService

    if isinstance(config, dict):
        config = AdversarialConfig.from_dict(config)
    cfg = config or AdversarialConfig()
    document = generate_hospital_document(
        HospitalConfig(num_patients=cfg.patients, seed=cfg.seed)
    )
    kwargs = {} if pool_size is None else {"pool_size": pool_size}
    service = QueryService(
        document,
        plan_store=plan_store,
        document_store=document_store,
        compose=compose,
        **kwargs,
    )
    hashes = {"hospital": service.default_document_hash}
    service.register_view("research", sigma0())
    for tenant in tenant_names(cfg):
        service.register_tenant(tenant, "research")
    service.register_tenant("mallory", "research")
    service.register_tenant("admin", None)
    return service, hashes


def generate_adversarial_traffic(
    config: AdversarialConfig | None = None,
    hashes: dict | None = None,
) -> list[TrafficRequest]:
    """The seeded hostile stream: legit queries salted with bombs.

    Bomb requests carry names prefixed :data:`BOMB_PREFIX` so replay
    harnesses know exactly which requests must come back rejected
    ``query-too-complex`` — every other request must be served.
    """
    cfg = config or AdversarialConfig()
    rng = random.Random(cfg.seed + 7)
    tenants = tenant_names(cfg)
    view_items = sorted(VIEW_QUERIES.items())
    admin_items = sorted(FIG8.items())
    bombs = bomb_family(cfg.bomb_depth)
    # Only members past the budget are hostile; the shallow prefix of
    # the family compiles fine and stays out of the bomb quota.
    hostile = bombs[-1]
    document = hashes.get("hospital") if hashes is not None else None
    requests: list[TrafficRequest] = []
    for i in range(cfg.num_requests):
        if rng.random() < cfg.bomb_rate:
            requests.append(
                TrafficRequest(
                    "mallory", hostile, f"{BOMB_PREFIX}-{i}", document=document
                )
            )
            continue
        if admin_items and rng.random() < cfg.admin_rate:
            name, query = rng.choice(admin_items)
            requests.append(
                TrafficRequest("admin", query, name, document=document)
            )
            continue
        name, query = rng.choice(view_items)
        requests.append(
            TrafficRequest(rng.choice(tenants), query, name, document=document)
        )
    return requests


def is_bomb(request: TrafficRequest) -> bool:
    """Was this request one of the stream's rewrite bombs?"""
    return request.name.startswith(BOMB_PREFIX)


def poison_attempt(service, tenant: str = "inst-0") -> dict:
    """One same-name/different-content view swap around a canary query.

    Re-registers ``research`` with :func:`sigma0_variant`, replays the
    canary, restores the original spec and replays again.  Because every
    plan tier keys on the view's content fingerprint, the poisoned
    registration can never be served a plan compiled for the original
    (or vice versa): ``before == after`` even though the poisoned
    answer in between may differ.  Returns the three canary counts.
    """
    before = len(service.submit(tenant, CANARY_QUERY).result.ids)
    service.register_view("research", sigma0_variant())
    poisoned = len(service.submit(tenant, CANARY_QUERY).result.ids)
    service.register_view("research", sigma0())
    after = len(service.submit(tenant, CANARY_QUERY).result.ids)
    return {
        "before": before,
        "poisoned": poisoned,
        "after": after,
        "isolated": before == after,
    }
