"""Deterministic sub-plan caches — the tiers behind ``det_cache=...``.

Sec. 9 observes that "the result of each deterministic part of the query
plan is materialized and saved" so that replenishment re-runs skip all
deterministic work.  Three cache objects implement that:

* :class:`SessionDetCache` (``det_cache="session"``) — a cross-query
  cache owned by the :class:`~repro.sql.session.Session`.  Entries are
  keyed by the *structural fingerprint* of the plan subtree
  (:meth:`~repro.engine.operators.PlanNode.fingerprint`), so a freshly
  compiled plan hits the entries an earlier, structurally identical plan
  populated.  Each entry records its dependency set
  (:meth:`~repro.engine.operators.PlanNode.base_tables`) together with
  the per-name catalog versions it was filled under.  A lookup drops
  only entries whose dependencies actually moved — queries over disjoint
  tables survive each other's DDL — and when every moved dependency grew
  *append-only* (per the catalog's append journal) the entry is
  refreshed in place instead of recomputed: the subtree runs over the
  appended rows only (Δ-execution,
  :attr:`~repro.engine.operators.ExecutionContext.appended`) and each
  node it passes appends its Δ to its own entry (:meth:`extend`).
* :class:`NullDetCache` (``det_cache="off"``) — caching disabled; every
  deterministic subtree re-runs on every plan execution.
* :class:`ContextDetCache` — not selectable: the cache of an
  :class:`~repro.engine.operators.ExecutionContext` built without one
  (an executor used directly).  Entries are keyed by ``node_id`` and
  live exactly as long as the context (one query including all its
  replenishment re-runs).

All tiers hold :class:`~repro.engine.bundles.BundleRelation` objects that
operators treat as immutable; when a cached relation's window metadata
disagrees with the requesting context it is re-stamped (copied with new
``positions``/``aligned``) by the caller, never mutated in place.
"""

from __future__ import annotations

import numpy as np

from repro.engine.bundles import BundleRelation
from repro.engine.table import grow_column

__all__ = ["ContextDetCache", "SessionDetCache", "NullDetCache",
           "classify_moves"]


def classify_moves(catalog, versions):
    """Classify recorded dependency versions against the current catalog.

    ``versions`` maps dependency names (lowercased) to the per-name
    catalog version a consumer last refreshed at.  Returns:

    * ``("clean", {})`` — nothing moved; the consumer is current.
    * ``("appends", {name: (old_rows, new_rows)})`` — every moved
      dependency grew purely by journaled appends; the consumer can
      refresh incrementally from just the new rows.
    * ``("rebuild", {})`` — some dependency was rewritten, dropped, or
      its append chain was compacted away; only a full recompute is
      sound.

    This is the one classification both the det-cache's entry validation
    and a session's standing queries apply, so the two layers can never
    disagree about what an append-only move is.
    """
    moved = {name: recorded for name, recorded in versions.items()
             if catalog.table_version(name) != recorded}
    if not moved:
        return "clean", {}
    appends: dict[str, tuple[int, int]] = {}
    for name, recorded in moved.items():
        grew = catalog.appended_range(name, recorded)
        if grew is None:
            return "rebuild", {}
        appends[name] = grew
    return "appends", appends


class ContextDetCache:
    """Per-execution-context cache keyed by plan-node identity."""

    def __init__(self):
        self._entries: dict[int, object] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, node, context):
        cached = self._entries.get(node.node_id)
        if cached is None:
            self.misses += 1
        else:
            self.hits += 1
        return cached

    def store(self, node, relation, context=None) -> None:
        self._entries[node.node_id] = relation

    def extend(self, node, delta, context) -> None:
        """Entries live for one context, which never grows its tables."""

    def __len__(self) -> int:
        return len(self._entries)


class _CacheEntry:
    """A cached deterministic relation plus the versions it was built at.

    ``versions`` maps each dependency name (lowercased, from
    ``PlanNode.base_tables()``) to the catalog's per-name version when
    the entry was stored — the granularity lookups validate against.
    ``owned`` names the columns it grew in buffers of its own, the only
    ones it may extend in place.
    """

    __slots__ = ("relation", "versions", "owned")

    def __init__(self, relation, versions, owned=frozenset()):
        self.relation = relation
        self.versions = versions
        self.owned = owned


def _holds(column: np.ndarray, start: int, delta: np.ndarray) -> bool:
    """Whether ``column[start:]`` is ``delta``: the same memory, or else
    the same dtype and bits (an O(Δ) compare)."""
    tail = column[start:]
    return tail.__array_interface__ == delta.__array_interface__ or (
        tail.dtype == delta.dtype and tail.shape == delta.shape
        and tail.tobytes() == delta.tobytes())


class SessionDetCache:
    """Cross-query cache keyed by structural plan fingerprint.

    The fingerprint identifies *what* a deterministic subtree computes
    (operator types, tables, predicates, column lists); the recorded
    catalog versions identify what the referenced tables *contained*.
    Each entry is checked against only the per-name versions of its own
    dependency set, and append-only growth is appended to it instead of
    recomputed.
    """

    def __init__(self):
        self._entries: dict[str, _CacheEntry] = {}
        self._catalog_uid: int | None = None
        self.hits = 0
        self.misses = 0
        #: Whole-cache drops (the cache was handed a different catalog).
        self.invalidations = 0
        #: Single entries dropped because their own dependencies moved
        #: non-append-only.
        self.partial_invalidations = 0
        #: Entries extended in place by their appended rows' Δ (one per
        #: node, so refreshing a subtree counts each cached node in it).
        self.append_refreshes = 0

    def _sync_catalog(self, context) -> None:
        catalog = context.catalog
        if self._catalog_uid != catalog.uid:
            # A different catalog object entirely: per-name versions are
            # not comparable across catalogs, so start from scratch.
            if self._entries:
                self.invalidations += 1
            self._entries.clear()
            self._catalog_uid = catalog.uid

    def lookup(self, node, context):
        self._sync_catalog(context)
        fingerprint = node.fingerprint()
        entry = self._entries.get(fingerprint)
        if entry is not None:
            entry = self._validate(fingerprint, entry, node, context)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry.relation

    def _validate(self, fingerprint, entry, node, context):
        """Dependency check for one entry: keep, refresh, or drop."""
        verdict, appends = classify_moves(context.catalog, entry.versions)
        if verdict == "clean":
            return entry
        if verdict == "appends":
            self._refresh(node, context, appends)
            refreshed = self._entries.get(fingerprint)
            if refreshed is not None and refreshed is not entry:
                return refreshed
        if self._entries.pop(fingerprint, None) is not None:
            self.partial_invalidations += 1
        return None

    def _refresh(self, node, context, appends) -> None:
        """Run ``node`` over the ``appends`` rows only; its
        :meth:`extend` brings the entry current.  A plan whose output the
        growth does not extend at its end is left for the caller to
        drop."""
        # Imported lazily: operators imports this module at load time.
        from repro.engine.operators import (
            ExecutionContext, appends_keep_prefix)

        if not appends_keep_prefix(node, appends):
            return
        delta = ExecutionContext(context.catalog, context.positions,
                                 context.aligned, det_cache=self)
        delta.appended = appends
        node.execute(delta)

    def extend(self, node, delta, context) -> None:
        """Store ``node``'s entry ⧺ its Δ relation at current versions.

        Only an entry whose own appended ranges are exactly the Δ's
        (``context.appended`` over the node's dependencies) is extended;
        an entry at any other version is validated on its own, so it is
        refreshed (or dropped) all the same and the append journal's
        compaction floor keeps moving.  It costs O(Δ) (:meth:`_grow`).
        """
        from repro.engine.operators import Scan

        self._sync_catalog(context)
        fingerprint = node.fingerprint()
        entry = self._entries.get(fingerprint)
        if entry is None:
            return
        verdict, appends = classify_moves(context.catalog, entry.versions)
        if verdict != "appends" or appends != {
                name: rows for name, rows in context.appended.items()
                if name in entry.versions}:
            self._validate(fingerprint, entry, node, context)
            return
        stale, taken = entry.relation, {}
        if isinstance(node, Scan):
            if stale.length != appends[node.table_name.lower()][0]:
                # The cache and the journal disagree on the base rows.
                del self._entries[fingerprint]
                self.partial_invalidations += 1
                return
            table = context.catalog.table(node.table_name)
            taken = {node.prefix + name: table.column(name)
                     for name in table.column_names}
        out = BundleRelation(stale.length + delta.length, delta.positions,
                             delta.aligned)
        if delta.length:
            out.det_columns, owned = self._grow(entry, delta, context, taken)
        else:  # still np.concatenate's dtype: ints that met floats turn float
            out.det_columns = {name: old.astype(np.result_type(
                old, delta.det_columns[name]), copy=False)
                for name, old in stale.det_columns.items()}
            owned = entry.owned
        self._entries[fingerprint] = _CacheEntry(
            out, self._versions_of(node, context), owned)
        self.append_refreshes += 1

    @staticmethod
    def _grow(entry, delta, context, taken):
        """``entry``'s columns ⧺ ``delta``'s, and the names it now owns.

        A column is taken from ``taken`` (a ``Scan`` entry's table, whose
        journal vouches for the old rows) or else from this pass's memo
        of columns grown from the same stale array (``context.grown``: a
        ``Seed`` or ``Project`` pass-through), but only if it holds this
        Δ past the old rows (:func:`_holds`).  The rest — seed handles,
        filtered rows, a Δ that differs — grow in buffers of the entry's
        own (:func:`~repro.engine.table.grow_column`).
        """
        columns, owned = {}, set()
        for name, old in entry.relation.det_columns.items():
            new = delta.det_columns[name]
            grown_from, grown = context.grown.get(id(old), (None, None))
            column = taken.get(name, grown if grown_from is old else None)
            if column is None or not _holds(column, len(old), new):
                column = grow_column(old, new, name in entry.owned)
                owned.add(name)
            columns[name] = column
            context.grown[id(old)] = old, column
        return columns, frozenset(owned)

    @staticmethod
    def _versions_of(node, context) -> dict[str, int]:
        catalog = context.catalog
        return {name: catalog.table_version(name)
                for name in node.base_tables()}

    def store(self, node, relation, context=None) -> None:
        versions = {} if context is None else self._versions_of(node,
                                                                 context)
        self._entries[node.fingerprint()] = _CacheEntry(relation, versions)

    def low_water(self, name: str):
        """Smallest recorded version of ``name`` among live entries.

        ``None`` when no entry depends on the name — the caller (the
        session's append-journal compaction) then treats the name as
        having no det-cache consumers at all.
        """
        key = name.lower()
        recorded = [entry.versions[key] for entry in self._entries.values()
                    if key in entry.versions]
        return min(recorded) if recorded else None

    def stats(self) -> dict:
        """Counter snapshot (the ``Session.cache_stats()`` payload)."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "partial_invalidations": self.partial_invalidations,
            "append_refreshes": self.append_refreshes,
        }

    def clear(self) -> None:
        self._entries.clear()
        self._catalog_uid = None

    def __len__(self) -> int:
        return len(self._entries)


class NullDetCache:
    """``det_cache="off"``: never caches anything."""

    hits = 0
    misses = 0

    def lookup(self, node, context):
        return None

    def store(self, node, relation, context=None) -> None:
        pass

    def extend(self, node, delta, context) -> None:
        pass

    def __len__(self) -> int:
        return 0

