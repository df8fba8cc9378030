"""Plan artifacts: the versioned, serialisable output of query compilation.

A :class:`PlanArtifact` is everything a restarted process needs to
rehydrate a thread-safe :class:`repro.hype.core.CompiledPlan` without
redoing the MFA rewrite: the trimmed MFA (codec-encoded via
:mod:`repro.automata.codec`) plus the key metadata that makes the record
self-describing — the view fingerprint it was compiled against, the
normalised query text, and the format version.  Since format v3 an
artifact may also carry the plan's eagerly-closed **dense kernel
payload** (:func:`repro.hype.kernel.kernel_payload`): the interned-cfg
transition closure that lets a cold worker start with its hot-loop
tables filled instead of re-deriving them on the first requests.  The
payload is an *encoding*: the process that compiled the plan keeps the
closed tables themselves (:attr:`PlanArtifact.closure`) and encodes them
only when the artifact is serialised.
Document-dependent state (index mask filters, per-layout rows) is still
deliberately NOT part of an artifact: it rebuilds lazily on first run,
which keeps artifacts small and document-portable.

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
from ..hype.kernel import check_cfgs

#: Version of the persisted plan format (codec payload + key scheme).
#: v2: artifact files are gzip-compressed (the version lives in the key,
#: so v1 files are simply never looked up — ``PlanStore.gc`` reclaims
#: them).
#: v3: the optional ``kernel`` field carries the dense transition
#: closure (:func:`repro.hype.kernel.kernel_payload`); v2 files decode
#: as counted misses and are recompiled (and swept by ``PlanStore.gc``).
#: v4: each ``cfgs`` row's watch pairs are in ascending state id (a cfg
#: depends on set contents only), so v3 payloads carry other cfg keys;
#: v3 files are never read and ``PlanStore.gc`` sweeps them.
#: v5: a literal is quoted with the quote character it lacks
#: (:func:`repro.xpath.unparse.unparse`); v4 wrote every literal in
#: ``'``, so two queries could share one key and a v4 file may hold the
#: other query's plan — v4 files are never read and ``gc`` sweeps them.
#: Only the gzip form is read: its crc32 trailer is the artifact's seal.
FORMAT_VERSION = 5

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
    #: The dense closure (``None``: the producer skipped the dense
    #: stage): a decoded ``kernel`` payload when the artifact came
    #: from a store or a peer, or — fresh from the pipeline — the
    #: index-free :class:`repro.hype.core.CompiledPlan` whose table the
    #: dense stage closed in place (the plan cache serves it as HyPE).
    closure: object | None = None

    @property
    def kernel(self) -> dict | None:
        """The ``kernel`` payload.  A fresh compilation holds closed
        tables, not a payload: it is encoded here, on demand — i.e. when
        the artifact is serialised (:meth:`to_payload`, so
        ``PlanStore.save`` and a fleet ship) — to the same bytes."""
        closure = self.closure
        if closure is None or isinstance(closure, dict):
            return closure
        from ..hype.kernel import kernel_payload

        return kernel_payload(closure)

    def cache_key(self) -> PlanKey:
        """The collision-safe key this artifact is stored under."""
        return (self.view_fingerprint, self.normalized_query, self.format_version)

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-compatible plain data (deterministic for a given plan)."""
        payload = {
            "format_version": self.format_version,
            "view_fingerprint": self.view_fingerprint,
            "normalized_query": self.normalized_query,
            "description": self.description,
            "mfa": mfa_to_dict(self.mfa),
        }
        kernel = self.kernel
        if kernel is not None:
            payload["kernel"] = kernel
        return payload

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
            closure=_validate_kernel(data.get("kernel")),
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


def _validate_kernel(kernel: object) -> dict | None:
    """Structurally validate an optional dense-kernel payload.

    The shape is what :func:`repro.hype.kernel.kernel_payload` emits and
    :meth:`repro.hype.kernel.DenseKernel.preload` consumes: the cfg rows
    are checked by the kernel's own codec
    (:func:`repro.hype.kernel.check_cfgs`), the labels and every
    transition index here, so a truncated or hand-mangled payload fails
    the *decode* (a counted cache miss) instead of crashing a preload
    deep inside the evaluator.

    Raises:
        ArtifactError: on any structural violation.
    """
    if kernel is None:
        return None
    if not isinstance(kernel, dict):
        raise ArtifactError(
            f"kernel payload must be an object, got {type(kernel).__name__}"
        )
    try:
        num_sets, num_cfgs = check_cfgs(kernel)
    except ValueError as error:
        raise ArtifactError(f"kernel {error}") from error
    labels, trans = kernel.get("labels"), kernel.get("trans")
    if not isinstance(labels, list) or not all(
        isinstance(label, str) for label in labels
    ):
        raise ArtifactError("kernel labels must be a list of strings")
    if not isinstance(trans, list):
        raise ArtifactError("kernel trans must be a list")
    for row in trans:
        if (
            not isinstance(row, list)
            or len(row) != 4
            or not all(isinstance(x, int) for x in row)
        ):
            raise ArtifactError(f"malformed kernel transition {row!r}")
        cfg_i, label_i, base_i, child_i = row
        if not 0 <= cfg_i < num_cfgs or not 0 <= child_i < num_cfgs:
            raise ArtifactError(f"kernel transition {row!r} references no cfg")
        # label index == len(labels) is the shared OTHER column.
        if not 0 <= label_i <= len(labels):
            raise ArtifactError(f"kernel transition {row!r} references no label")
        if not 0 <= base_i < num_sets:
            raise ArtifactError(f"kernel transition {row!r} references no set")
    return kernel
