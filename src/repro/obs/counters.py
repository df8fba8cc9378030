"""The one base behind every counter block.

A *counter block* is a dataclass of numeric fields that its owner bumps
with plain ``+=`` under the owner's own lock (:class:`CacheStats`,
:class:`ComposedStats`, :class:`StoreStats`, :class:`DocStoreStats`,
:class:`StageStats`, :class:`repro.serve.metrics.ServiceCounters`).
A counter is declared once — as a field — and the two things every
block needs are field-generic, so adding one never means editing a
``snapshot()`` or an ``as_dict()``.
"""

from __future__ import annotations

from dataclasses import fields, replace


class Counters:
    """Mixin for counter dataclasses: a copy is a snapshot."""

    def snapshot(self):
        """A point-in-time copy (the caller holds the owner's lock)."""
        return replace(self)

    def as_dict(self) -> dict:
        """Every declared field by name — the block's wire format."""
        return {f.name: getattr(self, f.name) for f in fields(self)}
