"""The on-disk plan tier: a directory of serialised plan artifacts.

A :class:`PlanStore` persists :class:`repro.compile.artifact.PlanArtifact`
records keyed by ``(view_fingerprint, normalized_query, format_version)``
so a restarted service starts warm: previously-seen queries rehydrate
from disk instead of re-running the MFA rewrite.

Durability policy:

* **atomic writes** — artifacts are written to a temporary file in the
  store directory and ``os.replace``-d into place, so readers (including
  other processes sharing the directory) only ever see complete files;
* **corruption tolerance** — a file that fails to decode (truncated,
  accidentally corrupted, or written by a different
  :data:`FORMAT_VERSION`) is treated as a miss and counted under
  ``corrupt``; the next compilation simply overwrites it.  Decoded
  artifacts must also echo the exact key they were looked up under;
* **best-effort saves** — serving never fails because the disk does: an
  unwritable store counts an ``error`` and the plan stays memory-only.

**Trust boundary.** Validation is *structural*, not cryptographic: a
well-formed artifact placed in the directory under a view's key will be
served as that view's rewriting.  The store directory must therefore be
writable only by principals trusted with every view it caches — the
same trust the service places in its own process memory.  Artifacts are
not authenticated; do not point ``--plan-dir`` at a directory untrusted
writers can reach.

File layout: one ``<sha256-of-key>.plan.json`` per artifact, flat in the
store directory.  The digest covers all three key components, so stores
may be shared between views, tenants and (equally trusted) processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from ..faults import fire as _fault_fire
from ..hype.compose import check_composed
from ..obs.counters import Counters
from .artifact import ArtifactError, PlanArtifact, PlanKey

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


class PlanStore:
    """A directory of plan artifacts, safe to share across processes."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._stats = StoreStats()

    # ------------------------------------------------------------------
    def path_for(self, key: PlanKey) -> Path:
        """The artifact file backing ``key``."""
        digest = hashlib.sha256()
        fingerprint, normalized, version = key
        digest.update(b"\x00" if fingerprint is None else fingerprint.encode())
        digest.update(b"\x01")
        digest.update(normalized.encode("utf-8"))
        digest.update(b"\x01")
        digest.update(str(version).encode())
        return self.root / f"{digest.hexdigest()}{PLAN_SUFFIX}"

    # ------------------------------------------------------------------
    def load(self, key: PlanKey) -> PlanArtifact | None:
        """The stored artifact for ``key``, or ``None`` on any miss.

        Unreadable, undecodable, version-mismatched and key-mismatched
        files all count as misses (the latter three also as ``corrupt``);
        the caller recompiles and overwrites.
        """
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self._count("misses")
            return None
        except OSError:
            self._count("misses", "errors")
            return None
        fault = _fault_fire("plan-store.load")
        if fault is not None and fault.action == "corrupt":
            # Deterministic bit-rot: the artifact fails to decode below
            # and takes the store's normal corruption-tolerant path
            # (counted miss + recompile + overwrite).
            raw = b"\x00corrupt\x00" + raw[: len(raw) // 2]
        try:
            artifact = PlanArtifact.from_bytes(raw)
        except ArtifactError:
            self._count("misses", "corrupt")
            return None
        if artifact.cache_key() != key:
            # A digest collision or a file moved between stores: never
            # serve a plan under a key it was not compiled for.
            self._count("misses", "corrupt")
            return None
        self._count("hits")
        return artifact

    def save(self, key: PlanKey, artifact: PlanArtifact) -> bool:
        """Persist ``artifact`` under ``key`` atomically (best effort).

        Returns whether the write landed; failures are counted, not
        raised — a full or read-only disk must not fail serving.
        """
        fault = _fault_fire("plan-store.save")
        if fault is not None and fault.action == "drop":
            # Simulated full/read-only disk: the same counted, best-effort
            # degradation a real OSError takes.
            self._count("errors")
            return False
        path = self.path_for(key)
        tmp = path.with_name(
            f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
        )
        try:
            tmp.write_bytes(artifact.to_bytes())
            os.replace(tmp, path)
        except OSError:
            self._count("errors")
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        self._count("stores")
        return True

    # ------------------------------------------------------------------
    # Composed-kernel payloads (wave composition, PR 9)
    # ------------------------------------------------------------------
    @staticmethod
    def _composed_key(algorithm: str, member_keys) -> list[list]:
        """The JSON-echoable identity a composed blob is stored under."""
        return [
            [algorithm],
            *[
                [fingerprint, normalized, version]
                for fingerprint, normalized, version in member_keys
            ],
        ]

    def composed_path_for(self, algorithm: str, member_keys) -> Path:
        """The payload file backing one ordered member-plan tuple."""
        digest = hashlib.sha256()
        digest.update(algorithm.encode())
        for fingerprint, normalized, version in member_keys:
            digest.update(b"\x02")
            digest.update(b"\x00" if fingerprint is None else fingerprint.encode())
            digest.update(b"\x01")
            digest.update(normalized.encode("utf-8"))
            digest.update(b"\x01")
            digest.update(str(version).encode())
        return self.root / f"{digest.hexdigest()}{COMPOSED_SUFFIX}"

    def load_composed(self, algorithm: str, member_keys) -> dict | None:
        """The stored composed payload for the member tuple, or ``None``.

        Same durability policy as plan artifacts: unreadable,
        undecodable or structurally invalid files
        (:func:`repro.hype.compose.check_composed`) and key-echo
        mismatches are misses (the caller recomposes and overwrites).
        """
        path = self.composed_path_for(algorithm, member_keys)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self._count("composed_misses")
            return None
        except OSError:
            self._count("composed_misses", "errors")
            return None
        try:
            record = json.loads(raw)
            if (
                not isinstance(record, dict)
                or record.get("keys") != self._composed_key(algorithm, member_keys)
            ):
                raise ValueError("key echo mismatch")
            payload = check_composed(record.get("payload"))
        except ValueError:
            self._count("composed_misses", "corrupt")
            return None
        self._count("composed_hits")
        return payload

    def save_composed(self, algorithm: str, member_keys, payload: dict) -> bool:
        """Persist one composed payload atomically (best effort)."""
        path = self.composed_path_for(algorithm, member_keys)
        record = {
            "keys": self._composed_key(algorithm, member_keys),
            "payload": payload,
        }
        tmp = path.with_name(
            f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}"
        )
        try:
            tmp.write_bytes(json.dumps(record).encode("utf-8"))
            os.replace(tmp, path)
        except OSError:
            self._count("errors")
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return False
        self._count("composed_stores")
        return True

    # ------------------------------------------------------------------
    def gc(self) -> int:
        """Reclaim artifact files a current-format process can never load.

        Removes files that fail to decode (corrupt/truncated), carry a
        stale or future :data:`FORMAT_VERSION` (their keys can never be
        looked up by this process — they linger forever otherwise), or
        sit at a path that does not match their own key (moved between
        stores or digest-colliding).  Healthy current-version artifacts
        are untouched.  Returns the number removed; each is also counted
        under ``gc_removed`` in :attr:`stats`.
        """
        removed = 0
        for path in sorted(self.root.glob(f"*{PLAN_SUFFIX}")):
            try:
                raw = path.read_bytes()
            except OSError:
                self._count("errors")
                continue
            keep = False
            try:
                artifact = PlanArtifact.from_bytes(raw)
                keep = self.path_for(artifact.cache_key()) == path
            except ArtifactError:
                keep = False
            if keep:
                continue
            try:
                path.unlink()
            except OSError:
                self._count("errors")
                continue
            removed += 1
            self._count("gc_removed")
        for path in sorted(self.root.glob(f"*{COMPOSED_SUFFIX}")):
            keep = False
            try:
                record = json.loads(path.read_bytes())
                keys = record["keys"]
                algorithm = keys[0][0]
                member_keys = [tuple(row) for row in keys[1:]]
                keep = self.composed_path_for(algorithm, member_keys) == path
            except (OSError, ValueError, KeyError, IndexError, TypeError):
                keep = False
            if keep:
                continue
            try:
                path.unlink()
            except OSError:
                self._count("errors")
                continue
            removed += 1
            self._count("gc_removed")
        return removed

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
                    self._count("errors")
        return removed

    @property
    def stats(self) -> StoreStats:
        with self._lock:
            return self._stats.snapshot()

    def _count(self, *fields: str) -> None:
        with self._lock:
            for name in fields:
                setattr(self._stats, name, getattr(self._stats, name) + 1)
