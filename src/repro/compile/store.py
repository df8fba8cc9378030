"""The on-disk plan tier: a directory of serialised plan artifacts.

A :class:`PlanStore` persists :class:`repro.compile.artifact.PlanArtifact`
records keyed by ``(view_fingerprint, normalized_query, format_version)``
so a restarted service starts warm: previously-seen queries rehydrate
from disk instead of re-running the MFA rewrite.  Composed-kernel
payloads (the wave-composition tier) live beside them.

The store is a :class:`repro.tier.FileTier` — atomic best-effort writes,
reads that degrade to counted misses, structural validation only (see
that class for the durability policy and the trust boundary; do not
point ``--plan-dir`` at a directory untrusted writers can reach).  What
is the store's own: the key scheme, the two codecs (a decoded file must
echo the exact key it was looked up under) and the counters.

File layout: one ``<sha256-of-key>.plan.json`` per artifact and one
``<sha256-of-member-keys>.composed.json`` per composed payload, flat in
the store directory.  The digest covers every key component, so stores
may be shared between views, tenants and (equally trusted) processes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from ..hype.compose import check_composed
from ..obs.counters import Counters
from ..tier import FileTier
from .artifact import PlanArtifact, PlanKey

#: Suffix of artifact files inside a store directory.
PLAN_SUFFIX = ".plan.json"

#: Suffix of composed-kernel payload files (the wave-composition tier).
COMPOSED_SUFFIX = ".composed.json"


@dataclass
class StoreStats(Counters):
    """Disk-tier counters (a point-in-time copy is a snapshot).

    The ``composed_*`` fields count the composed-kernel payload blobs
    (:data:`COMPOSED_SUFFIX` files) separately from plan artifacts, so
    the warm-restart smokes can assert on each tier independently.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    stores: int = 0
    errors: int = 0
    gc_removed: int = 0
    composed_hits: int = 0
    composed_misses: int = 0
    composed_stores: int = 0


def _feed_key(digest, key: PlanKey) -> None:
    fingerprint, normalized, version = key
    digest.update(b"\x00" if fingerprint is None else fingerprint.encode())
    digest.update(b"\x01")
    digest.update(normalized.encode("utf-8"))
    digest.update(b"\x01")
    digest.update(str(version).encode())


def _decode_composed(raw: bytes) -> tuple[object, dict]:
    """``(key echo, validated payload)`` of one composed record."""
    record = json.loads(raw)
    if not isinstance(record, dict):
        raise ValueError("composed record must be an object")
    return record.get("keys"), check_composed(record.get("payload"))


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
    # Composed-kernel payloads (wave composition, PR 9)
    # ------------------------------------------------------------------
    @staticmethod
    def _composed_key(algorithm: str, member_keys) -> list[list]:
        """The JSON-echoable identity a composed blob is stored under."""
        return [[algorithm], *[list(key) for key in member_keys]]

    def composed_path_for(self, algorithm: str, member_keys) -> Path:
        """The payload file backing one ordered member-plan tuple."""
        digest = hashlib.sha256()
        digest.update(algorithm.encode())
        for key in member_keys:
            digest.update(b"\x02")
            _feed_key(digest, key)
        return self.root / f"{digest.hexdigest()}{COMPOSED_SUFFIX}"

    def load_composed(self, algorithm: str, member_keys) -> dict | None:
        """The stored composed payload for the member tuple, or ``None``.

        Counted like :meth:`load` (``composed_misses`` / ``composed_hits``);
        a structurally invalid payload
        (:func:`repro.hype.compose.check_composed`) or a key-echo
        mismatch is ``corrupt`` — the caller recomposes and overwrites.
        """
        echo = self._composed_key(algorithm, member_keys)

        def decode(raw: bytes) -> dict:
            keys, payload = _decode_composed(raw)
            if keys != echo:
                raise ValueError("composed key echo mismatch")
            return payload

        payload = self._tier.read(
            self.composed_path_for(algorithm, member_keys),
            "plan-store.load-composed",
            decode,
        )
        self._stats.count("composed_misses" if payload is None else "composed_hits")
        return payload

    def save_composed(self, algorithm: str, member_keys, payload: dict) -> bool:
        """Persist one composed payload; whether the write landed."""
        record = {
            "keys": self._composed_key(algorithm, member_keys),
            "payload": payload,
        }
        landed = self._tier.write(
            self.composed_path_for(algorithm, member_keys),
            json.dumps(record).encode("utf-8"),
            "plan-store.save-composed",
        )
        if landed:
            self._stats.count("composed_stores")
        return landed

    # ------------------------------------------------------------------
    def gc(self) -> int:
        """Reclaim files a current-format process can never load.

        Removes exactly what :meth:`load` / :meth:`load_composed` would
        refuse under every key: files that fail to decode or validate
        (corrupt, truncated, a stale or future :data:`FORMAT_VERSION`, a
        payload :func:`check_composed` rejects) or that sit at a path
        that does not match their own key echo (moved between stores or
        digest-colliding).  Healthy files are untouched.  Returns the
        number removed; each is also counted under ``gc_removed``.
        """

        def keep(path: Path, raw: bytes) -> bool:
            if path.name.endswith(PLAN_SUFFIX):
                key = PlanArtifact.from_bytes(raw).cache_key()
                return self.path_for(key) == path
            keys, _payload = _decode_composed(raw)
            try:
                (algorithm,), *members = keys
                return self.composed_path_for(algorithm, members) == path
            except (TypeError, AttributeError):
                return False

        return self._tier.sweep((PLAN_SUFFIX, COMPOSED_SUFFIX), keep)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of artifact files currently in the store."""
        return sum(1 for _ in self.root.glob(f"*{PLAN_SUFFIX}"))

    def clear(self) -> int:
        """Delete every artifact/composed file; returns how many removed."""
        removed = 0
        for suffix in (PLAN_SUFFIX, COMPOSED_SUFFIX):
            for path in self.root.glob(f"*{suffix}"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    self._stats.count("errors")
        return removed

    @property
    def stats(self) -> StoreStats:
        return self._stats.snapshot()
