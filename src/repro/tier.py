"""The two tier disciplines, written once.

Everything this system caches or persists — plans, documents; plan
artifacts and index records — goes through one of the two classes
here.  The owners
(:mod:`repro.serve.cache`, :mod:`repro.docstore.store`,
:mod:`repro.compile.store`) keep what is theirs: key scheme, codec,
counters.  ``docs/architecture.md`` § "The tier discipline" is the prose
version; ``tests/test_tier.py`` is the contract and
``tests/test_serve_structure.py`` fails if a second copy of either
algorithm grows back anywhere under ``src/repro``.

* :class:`SingleFlightLRU` — a bounded in-memory map in which a cold key
  is built exactly once, outside the map lock.
* :class:`FileTier` — a flat directory of files that are read tolerantly
  (missing / unreadable / undecodable are three counted outcomes, none
  an exception), written atomically and best-effort, and swept of what
  the current format will never load.  Every read and write names its
  :mod:`repro.faults` seam, so a file I/O site cannot exist without one.
  Its atomic write is :func:`publish`, which the build cache of the
  compiled passes (:mod:`repro.native`) shares.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Hashable

from .faults import fire as _fault_fire
from .obs.counters import Counters

#: Suffixes of retired file kinds, in every tier: no current process
#: reads or writes one, and every :meth:`FileTier.sweep` removes it —
#: composed-kernel tables (plan stores), the v1/v2 gzip-JSON index files
#: and the layout sidecars of every version (document tiers).
RETIRED_SUFFIXES = (".composed.json", ".docidx.json.gz", ".doclay.bin")


class SingleFlightLRU:
    """A bounded LRU whose misses are resolved once per key.

    One map lock guards the entries, the recency order and the gate
    table; a hit is a single acquisition of it.  A cold key is *built
    outside* that lock under a per-key gate: concurrent callers of the
    same key wait on the gate and are then served the published value
    (no thundering herd), while other keys — and ``len`` / ``items`` /
    the owner's ``stats`` — never queue behind one key's build.  A build
    that raises publishes nothing and hands the gate to the next waiter.

    ``stats`` is the owner's counter block; this class owns its ``hits``
    and ``evictions`` fields (bumped under the map lock — see
    :mod:`repro.obs.counters`) and touches no other.
    """

    def __init__(self, capacity: int, stats: Counters) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = stats
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        #: key -> gate held by the thread currently building it.
        self._gates: dict[Hashable, threading.Lock] = {}

    # ------------------------------------------------------------------
    def hit(self, key: Hashable, uses: int = 1):
        """The cached value (recency refreshed, ``uses`` hits counted) or
        ``None``."""
        with self._lock:
            return self._hit(key, uses, None)

    def _hit(self, key: Hashable, uses: int, fresh):
        value = self._entries.get(key)
        if value is None or (fresh is not None and not fresh(value)):
            return None
        self._entries.move_to_end(key)
        self.stats.hits += uses
        return value

    def get(self, key: Hashable, build: Callable[[], object], fresh=None):
        """The value for ``key``, calling ``build()`` if it is not cached.

        ``fresh(value)``, when given, is the owner's staleness test: a
        cached value failing it is rebuilt through the gate and replaced.
        """
        while True:
            with self._lock:
                value = self._hit(key, 1, fresh)
                if value is not None:
                    return value
                gate = self._gates.get(key)
                if gate is None:
                    gate = self._gates[key] = threading.Lock()
                    gate.acquire()
                    break
            # Someone else is building this key: wait for their gate,
            # then look again (or take over if their build raised).
            with gate:
                pass
        try:
            value = build()
            with self._lock:
                self._entries[key] = value
                self._entries.move_to_end(key)
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
            return value
        finally:
            with self._lock:
                del self._gates[key]
            gate.release()

    # ------------------------------------------------------------------
    def peek(self, key: Hashable):
        """The cached value or ``None`` — no recency, nothing counted."""
        with self._lock:
            return self._entries.get(key)

    def items(self) -> list[tuple[Hashable, object]]:
        """Snapshot of the entries, least recently used first."""
        with self._lock:
            return list(self._entries.items())

    def drop(self, doomed: Callable[[Hashable], bool] | None = None) -> int:
        """Forget every entry whose key ``doomed`` accepts (default: all);
        returns how many.  Not evictions: nothing is counted."""
        with self._lock:
            keys = [k for k in self._entries if doomed is None or doomed(k)]
            for key in keys:
                del self._entries[key]
            return len(keys)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def publish(path: Path, produce: Callable[[Path], object]) -> None:
    """Atomically create the file at ``path``: ``produce(tmp)`` writes a
    temporary file beside it, which is then ``os.replace``-d into place,
    so readers — other processes included — only ever see a complete
    file.  Whatever ``produce`` raises propagates, with the temporary
    removed.  :meth:`FileTier.write` publishes its bytes this way; the
    compiled passes (:mod:`repro.native`) their shared objects."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        produce(tmp)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise


class FileTier:
    """One flat directory of persisted files under one durability policy.

    * **Reads never raise.**  A missing file is a plain miss (``None``,
      nothing counted — the owner counts its own ``misses`` where it has
      that counter); a file that exists but cannot be read counts
      ``errors``; one that is empty or whose ``decode`` raises
      :class:`ValueError` counts ``corrupt``.  The caller rebuilds and
      its next write overwrites the bad file.
    * **Writes are atomic and best-effort.**  Bytes go to a temporary
      file in the same directory and are ``os.replace``-d into place, so
      readers — other processes included — only ever see complete files;
      a failed write removes its temporary, counts ``errors`` and
      returns ``False``.  No fsync: a crash may lose a file, never
      expose a torn one, and a lost file is a rebuild.
    * **Integrity is the owner's codec's, and every kind is sealed.**
      The document tier seals every record with a crc32 its decoder
      checks first; a plan artifact is read only as the gzip stream it
      was written as, whose crc32 trailer gzip checks.  So a flipped
      bit, a torn or a renamed file is a counted ``corrupt`` in every
      tier.  Neither check is cryptographic: a writer who seals a valid
      record on purpose is out of scope, so ``--plan-dir`` and
      ``--doc-dir`` must be writable only by principals as trusted as
      the process itself.

    ``stats`` is the owner's counter block and must declare ``errors``,
    ``corrupt`` and ``gc_removed``.
    """

    def __init__(self, root: str | os.PathLike, stats: Counters) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = stats

    def read(self, path: Path, seam: str, decode: Callable):
        """``decode(contents)`` of the file at ``path``, or ``None``.

        ``seam`` is the fault point fired once the bytes are in hand
        (never for a missing file); its ``corrupt`` action mangles them
        so the read takes the real corruption path.
        """
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            self.stats.count("errors")
            return None
        fault = _fault_fire(seam)
        if fault is not None and fault.action == "corrupt":
            data = b"\x00corrupt\x00" + data[: len(data) // 2]
        try:
            if not data:
                raise ValueError("empty file")
            return decode(data)
        except ValueError:
            self.stats.count("corrupt")
            return None

    def write(self, path: Path, data: bytes, seam: str) -> bool:
        """Replace the file at ``path`` with ``data``; whether it landed.

        ``seam`` fires on every call; its ``drop`` action is a simulated
        full / read-only disk and degrades exactly like a real one.
        """
        fault = _fault_fire(seam)
        try:
            if fault is not None and fault.action == "drop":
                raise OSError("injected write failure")
            publish(path, lambda tmp: tmp.write_bytes(data))
        except OSError:
            self.stats.count("errors")
            return False
        return True

    def sweep(self, suffixes: tuple[str, ...], keep: Callable) -> int:
        """Remove files under ``suffixes`` that ``keep(path, data)``
        refuses (returns false or raises :class:`ValueError`) — the
        kind's own decode-and-echo check, so what a read would refuse is
        what a sweep reclaims — and every file under
        :data:`RETIRED_SUFFIXES`, unread.  Returns the number removed,
        each also counted under ``gc_removed``; files that cannot be read
        or unlinked count ``errors`` and stay.
        """
        try:
            entries = sorted(self.root.iterdir())
        except OSError:
            self.stats.count("errors")
            return 0
        removed = 0
        for path in entries:
            if path.name.endswith(RETIRED_SUFFIXES):
                pass  # a retired kind: no check could keep it
            elif not path.name.endswith(suffixes) or self._kept(path, keep):
                continue
            try:
                path.unlink()
            except OSError:
                self.stats.count("errors")
                continue
            removed += 1
            self.stats.count("gc_removed")
        return removed

    def _kept(self, path: Path, keep: Callable) -> bool:
        """Whether :meth:`sweep` leaves ``path``: ``keep`` accepts its
        bytes, or they cannot be read (counted under ``errors``)."""
        try:
            data = path.read_bytes()
            return bool(data) and keep(path, data)
        except ValueError:
            return False
        except OSError:
            self.stats.count("errors")
            return True
