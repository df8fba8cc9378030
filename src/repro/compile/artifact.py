"""Plan artifacts: the versioned, serialisable output of query compilation.

A :class:`PlanArtifact` is everything a restarted process needs to
rehydrate a thread-safe :class:`repro.hype.core.CompiledPlan` without
redoing the MFA rewrite: the trimmed MFA (codec-encoded via
:mod:`repro.automata.codec`) plus the key metadata that makes the record
self-describing — the view fingerprint it was compiled against, the
normalised query text, and the format version.  Nothing else: the dense
transition closure the evaluator runs on (:func:`repro.hype.kernel.close`)
is a pure function of the automaton, so the compiling process keeps the
closed plan (:attr:`PlanArtifact.closure`) and a decoded artifact closes
its automaton again on first use (:meth:`PlanArtifact.closed`) — one
format, one rehydration path.  Document-dependent state (index mask
filters, per-layout rows) is not part of an artifact either: it
rebuilds lazily on first run, which keeps artifacts small and
document-portable.

Key scheme.  An artifact's cache key is ``(view_fingerprint,
normalized_query, format_version)``:

* ``view_fingerprint`` — :meth:`repro.views.spec.ViewSpec.fingerprint`,
  a content hash of the full specification (``None`` for direct source
  queries).  Two holders binding the same view *name* to different specs
  get different keys, so a shared cache or store can never cross-serve
  rewritings.
* ``normalized_query`` — ``unparse(normal_form(ast))``
  (:func:`repro.xpath.normalize.normal_form`), so syntactic variants of
  one query share one artifact.
* ``format_version`` — :data:`FORMAT_VERSION`.  Bump it whenever the
  codec payload, the fingerprint recipe, or the normalisation recipe
  changes; old on-disk artifacts then simply stop matching and are
  recompiled (never mis-read).

Decoding is strict: anything unexpected — not JSON, wrong version, codec
failure — raises :class:`ArtifactError`, which the store layer treats as
a cache miss.
"""

from __future__ import annotations

import gzip
import json
import zlib
from dataclasses import dataclass, field

from ..automata.codec import CodecError, mfa_from_dict, mfa_to_dict
from ..automata.mfa import MFA
from ..errors import ReproError

#: Version of the persisted plan format (codec payload + key scheme).
#: v2: artifact files are gzip-compressed (the version lives in the key,
#: so v1 files are simply never looked up — ``PlanStore.gc`` reclaims
#: them).
#: v3: an optional ``kernel`` field carried the encoded dense
#: transition closure; v2 files decode as counted misses and are
#: recompiled (and swept by ``PlanStore.gc``).
#: v4: each ``kernel`` cfg row's watch pairs are in ascending state id
#: (a cfg depends on set contents only), so v3 payloads carry other cfg
#: keys; v3 files are never read and ``PlanStore.gc`` sweeps them.
#: v5: a literal is quoted with the quote character it lacks
#: (:func:`repro.xpath.unparse.unparse`); v4 wrote every literal in
#: ``'``, so two queries could share one key and a v4 file may hold the
#: other query's plan — v4 files are never read and ``gc`` sweeps them.
#: v6: no ``kernel`` field — the closure is recomputed from the automaton
#: (:meth:`PlanArtifact.closed`); v5 files are never read and ``gc``
#: sweeps them.
#: Only the gzip form is read: its crc32 trailer is the artifact's seal.
FORMAT_VERSION = 6

#: gzip magic bytes; bytes that do not start with them are refused.
_GZIP_MAGIC = b"\x1f\x8b"

#: Cache key of one compiled plan: (view fingerprint | None, normalised
#: query text, format version).
PlanKey = tuple[str | None, str, int]


class ArtifactError(ReproError, ValueError):
    """Raised when a serialised artifact cannot be decoded.

    A :class:`ValueError` like every tier decoder's failure, so
    :meth:`repro.tier.FileTier.read` counts it ``corrupt``.
    """


@dataclass(frozen=True, eq=False)
class PlanArtifact:
    """One compiled plan as a persistable record.

    ``mfa`` is the live (trimmed, validated) automaton; ``stages`` holds
    the per-stage compile timings of the compilation that produced it
    (informational — not serialised).
    """

    mfa: MFA
    normalized_query: str
    view_fingerprint: str | None = None
    description: str = ""
    format_version: int = FORMAT_VERSION
    stages: dict[str, float] = field(default_factory=dict)
    #: The index-free :class:`repro.hype.core.CompiledPlan` whose dense
    #: table is closed (the plan cache serves it as HyPE): the dense
    #: stage's, or — for an artifact decoded from a store or a peer —
    #: ``None`` until :meth:`closed` closes it.
    closure: object | None = None

    @property
    def kernel(self):
        """The closed :class:`repro.hype.kernel.DenseKernel` every other
        executable is seeded from (``None`` before a decoded artifact's
        first :meth:`closed`)."""
        return None if self.closure is None else self.closure.kernel

    def closed(self):
        """:attr:`closure`, closed from the automaton on first call when
        the artifact was decoded (the dense stage's work, but not a
        compile stage: no counter records it).  The caller serialises
        first calls (the plan cache's entry lock); a lost race closes
        twice, and either plan is the same closure."""
        if self.closure is None:
            from .pipeline import _dense_closure

            object.__setattr__(self, "closure", _dense_closure(self.mfa))
        return self.closure

    def cache_key(self) -> PlanKey:
        """The collision-safe key this artifact is stored under."""
        return (self.view_fingerprint, self.normalized_query, self.format_version)

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-compatible plain data (deterministic for a given plan)."""
        return {
            "format_version": self.format_version,
            "view_fingerprint": self.view_fingerprint,
            "normalized_query": self.normalized_query,
            "description": self.description,
            "mfa": mfa_to_dict(self.mfa),
        }

    def to_bytes(self) -> bytes:
        """Canonical serialised form: gzip over deterministic JSON.

        ``mtime=0`` keeps the bytes a pure function of the payload, so
        round-trip equality tests (and content-based dedup) still hold.
        """
        return gzip.compress(
            json.dumps(
                self.to_payload(), sort_keys=True, separators=(",", ":")
            ).encode("utf-8"),
            mtime=0,
        )

    # ------------------------------------------------------------------
    @classmethod
    def from_payload(cls, data: object) -> "PlanArtifact":
        """Decode plain data; strict about shape and version.

        Raises:
            ArtifactError: wrong type, missing fields, version mismatch,
                or an MFA payload the codec rejects.
        """
        if not isinstance(data, dict):
            raise ArtifactError(
                f"artifact payload must be an object, got {type(data).__name__}"
            )
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise ArtifactError(
                f"artifact format version {version!r} != {FORMAT_VERSION} "
                "(stale or future plan store entry)"
            )
        try:
            fingerprint = data["view_fingerprint"]
            normalized = data["normalized_query"]
            mfa = mfa_from_dict(data["mfa"])
        except CodecError as error:
            raise ArtifactError(str(error)) from error
        except KeyError as error:
            raise ArtifactError(f"artifact payload missing {error}") from error
        if fingerprint is not None and not isinstance(fingerprint, str):
            raise ArtifactError(
                f"view_fingerprint must be a string or null, got {fingerprint!r}"
            )
        if not isinstance(normalized, str):
            raise ArtifactError(
                f"normalized_query must be a string, got {normalized!r}"
            )
        return cls(
            mfa=mfa,
            normalized_query=normalized,
            view_fingerprint=fingerprint,
            description=str(data.get("description", "")),
            format_version=FORMAT_VERSION,
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PlanArtifact":
        """Decode :meth:`to_bytes` output: a gzip stream, whose crc32
        trailer seals the JSON inside it.  Anything else — plain JSON
        included — is refused, so a flipped bit is a counted miss and
        never a different plan.

        Raises:
            ArtifactError: on any decode failure (treat as cache miss).
        """
        if raw[:2] != _GZIP_MAGIC:
            raise ArtifactError("artifact is not a gzip stream")
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as error:
            raise ArtifactError(f"artifact gzip stream is corrupt: {error}") from error
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ArtifactError(f"artifact is not valid JSON: {error}") from error
        return cls.from_payload(data)
