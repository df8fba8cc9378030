"""The on-disk plan tier: a directory of serialised plan artifacts.

A :class:`PlanStore` persists :class:`repro.compile.artifact.PlanArtifact`
records keyed by ``(view_fingerprint, normalized_query, format_version)``
so a restarted service starts warm: previously-seen queries rehydrate
from disk instead of re-running the MFA rewrite.

The store is a :class:`repro.tier.FileTier` — atomic best-effort writes,
reads that degrade to counted misses, structural validation only (see
that class for the durability policy and the trust boundary; do not
point ``--plan-dir`` at a directory untrusted writers can reach).  What
is the store's own: the key scheme, the codec (a decoded file must echo
the exact key it was looked up under) and the counters.

File layout: one ``<sha256-of-key>.plan.json`` per artifact, flat in the
store directory.  The digest covers every key component, so stores may
be shared between views, tenants and (equally trusted) processes.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

from ..obs.counters import Counters
from ..tier import FileTier
from .artifact import PlanArtifact, PlanKey

#: Suffix of artifact files inside a store directory.
PLAN_SUFFIX = ".plan.json"

#: Suffixes of kinds no current process writes (composed-kernel payloads
#: are no longer persisted): :meth:`PlanStore.gc` sweeps them as stale.
_RETIRED_SUFFIXES = (".composed.json",)


@dataclass
class StoreStats(Counters):
    """Disk-tier counters (a point-in-time copy is a snapshot)."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stores: int = 0
    errors: int = 0
    gc_removed: int = 0


def _feed_key(digest, key: PlanKey) -> None:
    fingerprint, normalized, version = key
    digest.update(b"\x00" if fingerprint is None else fingerprint.encode())
    digest.update(b"\x01")
    digest.update(normalized.encode("utf-8"))
    digest.update(b"\x01")
    digest.update(str(version).encode())


class PlanStore:
    """A directory of plan artifacts, safe to share across processes."""

    def __init__(self, root: str | os.PathLike) -> None:
        self._stats = StoreStats()
        self._tier = FileTier(root, self._stats)
        self.root = self._tier.root

    # ------------------------------------------------------------------
    def path_for(self, key: PlanKey) -> Path:
        """The artifact file backing ``key``."""
        digest = hashlib.sha256()
        _feed_key(digest, key)
        return self.root / f"{digest.hexdigest()}{PLAN_SUFFIX}"

    def load(self, key: PlanKey) -> PlanArtifact | None:
        """The stored artifact for ``key``, or ``None`` on any miss.

        Every ``None`` counts a ``misses``; the tier adds ``errors`` for
        an unreadable file and ``corrupt`` for an undecodable,
        version-mismatched or key-mismatched one.  The caller recompiles
        and overwrites.
        """

        def decode(raw: bytes) -> PlanArtifact:
            artifact = PlanArtifact.from_bytes(raw)
            if artifact.cache_key() != key:
                # A digest collision or a file moved between stores: never
                # serve a plan under a key it was not compiled for.
                raise ValueError("plan key echo mismatch")
            return artifact

        artifact = self._tier.read(self.path_for(key), "plan-store.load", decode)
        self._stats.count("misses" if artifact is None else "hits")
        return artifact

    def save(self, key: PlanKey, artifact: PlanArtifact) -> bool:
        """Persist ``artifact`` under ``key``; whether the write landed
        (a full or read-only disk must not fail serving)."""
        landed = self._tier.write(
            self.path_for(key), artifact.to_bytes(), "plan-store.save"
        )
        if landed:
            self._stats.count("stores")
        return landed

    # ------------------------------------------------------------------
    def gc(self) -> int:
        """Reclaim files a current-format process can never load.

        Removes exactly what :meth:`load` would refuse under every key:
        files that fail to decode (corrupt, truncated, a stale or future
        :data:`FORMAT_VERSION`) or that sit at a path that does not match
        their own key echo (moved between stores or digest-colliding),
        plus every file of a retired kind (an older process's
        ``*.composed.json``).  Healthy artifacts are untouched.  Returns
        the number removed; each is also counted under ``gc_removed``.
        """

        def keep(path: Path, raw: bytes) -> bool:
            if not path.name.endswith(PLAN_SUFFIX):
                return False
            key = PlanArtifact.from_bytes(raw).cache_key()
            return self.path_for(key) == path

        return self._tier.sweep((PLAN_SUFFIX, *_RETIRED_SUFFIXES), keep)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of artifact files currently in the store."""
        return sum(1 for _ in self.root.glob(f"*{PLAN_SUFFIX}"))

    @property
    def stats(self) -> StoreStats:
        return self._stats.snapshot()
