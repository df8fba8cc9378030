"""Every retired name, in one table (``tests/test_retired.py`` checks it).

A kind that is deleted stays deleted: its names are spelled nowhere in
the library, its files are never read and always swept, its fault seams
never fire.  A row is ``(name, kind, entry)``: ``entry`` is the number
of the ``CHANGES.md`` entry that retired the name.  The kinds and what
is checked for each:

* ``symbol`` — a function, class, constant or field: not spelled in any
  Python or C source of ``src/repro`` (comments and docstrings
  included), nor in the wire golden;
* ``metric family`` — a counter or a wire key: the same checks;
* ``fault seam`` — the same checks, it is not in :mod:`repro.faults`'
  seam table, and a plan naming it never fires across a cold and a
  restarted boot over a plan store and a document tier;
* ``file suffix`` — in :data:`repro.tier.RETIRED_SUFFIXES`, never
  written by those boots; a file of it left in either directory is never
  read and is swept by ``gc``;
* ``member`` — ``Class.member``: the class under ``src/repro`` defines
  no such method, field or ``self`` attribute (the member's name alone
  is too common a word to forbid).
"""

from __future__ import annotations

from typing import NamedTuple

SYMBOL = "symbol"
FAMILY = "metric family"
SEAM = "fault seam"
SUFFIX = "file suffix"
MEMBER = "member"


class Retired(NamedTuple):
    name: str
    kind: str
    entry: int


def _rows(kind: str, entry: int, *names: str) -> list[Retired]:
    return [Retired(name, kind, entry) for name in names]


RETIRED = [
    # Entry 28: composed tables are never persisted — the codec, the store
    # API, the write-back, the counters, the seams and the file kind.
    *_rows(
        SYMBOL, 28,
        "load_composed", "save_composed", "composed_payload", "preload_composed",
        "check_composed", "COMPOSED_SUFFIX", "composed_path_for", "_decode_composed",
        "_composed_key", "_persist_composed", "persisted_shape",
    ),
    *_rows(FAMILY, 28, "preloaded_trans", "composed_rehydrated", "composed_stores",
           "composed_misses"),
    *_rows(SEAM, 28, "plan-store.load-composed", "plan-store.save-composed"),
    *_rows(MEMBER, 28, "PlanStore.clear", "StoreStats.composed_hits", "SMOQE.cache_stats",
           "ComposedCache.persist"),
    *_rows(SUFFIX, 28, ".composed.json"),
    # Entry 30: one sealed binary index record per document (format v3).
    *_rows(SUFFIX, 30, ".docidx.json.gz"),
    # Entry 36: the layout is rebuilt from the parse, never persisted.
    *_rows(SYMBOL, 36, "load_layout", "from_arrays", "layout_path_for", "DOC_LAYOUT_SUFFIX"),
    *_rows(FAMILY, 36, "layout_loads", "layout_stores"),
    *_rows(SEAM, 36, "doc-tier.load-layout", "doc-tier.save-layout"),
    *_rows(SUFFIX, 36, ".doclay.bin"),
    # Entry 37: the composed wave machine; every wave is the lean pass over
    # its lanes.  (``repro.views.compose``, the paper's view composition,
    # stays.)
    *_rows(
        SYMBOL, 37,
        "ComposedKernel", "descend_composed", "ComposedOverflow", "ComposeError",
        "DEFAULT_CCFG_CAP", "_compose_groups", "pop_quiet",
    ),
    *_rows(FAMILY, 37, "composed_groups", "composed_lanes", "composed_width"),
    # Entry 40: a plan artifact is its automaton; the dense closure is
    # recomputed, never persisted.
    *_rows(
        SYMBOL, 40,
        "kernel_payload", "encode_cfgs", "_is_ints", "check_cfgs", "decode_cfgs",
        "preload", "_validate_kernel",
    ),
]
