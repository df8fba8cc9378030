"""repro.docstore — shared, content-addressed documents and their assets.

The document tier of the serving stack: parse once per content hash,
build each OptHyPE index once per document (persistable via
``--doc-dir``), and hand every tenant/lane/wave the same immutable
:class:`IndexedDocument` with its columnar
:class:`~repro.docstore.layout.DocumentLayout` for the interned hot
loop.
"""

from .document import IndexedDocument, content_digest
from .layout import DocumentLayout, TEXT_ID
from .store import (
    DOC_FORMAT_VERSION,
    DOC_INDEX_SUFFIX,
    DocIndexTier,
    DocStoreStats,
    DocumentStore,
)

__all__ = [
    "DOC_FORMAT_VERSION",
    "DOC_INDEX_SUFFIX",
    "DocIndexTier",
    "DocStoreStats",
    "DocumentStore",
    "DocumentLayout",
    "IndexedDocument",
    "TEXT_ID",
    "content_digest",
]
