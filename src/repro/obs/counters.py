"""The one base behind every counter block.

A *counter block* is a dataclass of numeric fields (:class:`CacheStats`,
:class:`ComposedStats`, :class:`StoreStats`, :class:`DocStoreStats`,
:class:`StageStats`, :class:`repro.serve.metrics.ServiceCounters`).
A counter is declared once — as a field — and the three things every
block needs are field-generic, so adding one never means editing a
``snapshot()``, an ``as_dict()`` or a private ``_count``.

Two ways to bump a field, never mixed on one field: :meth:`Counters.count`
from anywhere (it takes the counter lock), or plain ``+=`` under the one
lock of the structure that owns the field (a :class:`repro.tier.
SingleFlightLRU` bumps ``hits`` / ``evictions`` under its map lock, so a
cache hit is a single lock acquisition).
"""

from __future__ import annotations

import threading
from dataclasses import fields, replace


class Counters:
    """Mixin for counter dataclasses: locked bumps, a copy is a snapshot."""

    #: One lock for every block: a bump is two attribute operations, so
    #: blocks never contend for long and none needs a lock of its own.
    _lock = threading.Lock()

    def count(self, *names: str, n: int = 1) -> None:
        """Add ``n`` to every named field."""
        with self._lock:
            for name in names:
                setattr(self, name, getattr(self, name) + n)

    def snapshot(self):
        """A point-in-time copy."""
        with self._lock:
            return replace(self)

    def as_dict(self) -> dict:
        """Every declared field by name — the block's wire format."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
