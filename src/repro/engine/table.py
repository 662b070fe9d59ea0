"""In-memory relational base tables and the catalog.

Base tables are ordinary, deterministic relations — in MCDB these hold the
*parameter tables* that drive VG functions (e.g. ``means(CID, m)`` in
Sec. 2) as well as regular joined relations (``lineitem``, ``sup``).
Columns are stored as numpy arrays (``object`` dtype for strings) so that
the bundle operators can work vectorized.  An append extends a base table
in place, in O(Δ): columns are prefix views of capacity buffers.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.engine.errors import CatalogError

__all__ = ["GROWTH", "Table", "Catalog", "grow_column"]

#: Process-unique catalog ids.  ``id(catalog)`` is NOT a stable identity —
#: CPython recycles addresses after garbage collection, so two catalogs
#: alive at different times can alias; a monotone counter never can.
_catalog_uids = itertools.count(1)


#: dtype kinds of numeric columns (bool, signed/unsigned int, float,
#: complex); an append may not move a column into or out of them.
_NUMERIC = "biufc"


#: A reallocated column buffer holds this many times its new length, so
#: appends reallocate geometrically rarely and cost O(Δ) amortized.
GROWTH = 2


def grow_column(column: np.ndarray, delta: np.ndarray,
                owned: bool) -> np.ndarray:
    """``np.concatenate([column, delta])`` as a prefix view of a buffer.

    ``owned`` promises that ``column`` came from this function and that
    the caller alone writes its buffer, so no view anyone holds reaches
    past ``len(column)``: ``delta`` is then written there in place when
    the buffer has room and the result's dtype.  Otherwise both go into
    a new buffer ``GROWTH`` times the new length.  Nothing below the
    frontier, and no buffer this function did not allocate, is written.
    """
    size = len(column) + len(delta)
    dtype = np.result_type(column, delta)
    buffer = column.base
    if not (owned and isinstance(buffer, np.ndarray) and buffer.dtype == dtype
            and len(buffer) >= size):
        buffer = np.empty(GROWTH * size, dtype)
        buffer[:len(column)] = column
    buffer[len(column):size] = delta
    return buffer[:size]


def _as_column(values: Sequence) -> np.ndarray:
    array = np.asarray(values)
    if array.dtype.kind in ("U", "S"):
        array = array.astype(object)
    return array


class Table:
    """A named, deterministic relation with column-oriented storage.

    Caller arrays are taken by reference and never written;
    :meth:`append_rows` extends a base table in place, in buffers it
    allocated itself (:func:`grow_column`).
    """

    def __init__(self, name: str, columns: Mapping[str, Sequence]):
        if not columns:
            raise ValueError(f"table {name!r} needs at least one column")
        self.name = name
        self._columns: dict[str, np.ndarray] = {}
        length = None
        for column_name, values in columns.items():
            array = _as_column(values)
            if array.ndim != 1:
                raise ValueError(
                    f"column {column_name!r} of table {name!r} must be 1-D")
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise ValueError(
                    f"column {column_name!r} has {len(array)} rows, "
                    f"expected {length}")
            self._columns[column_name] = array
        self._length = length or 0
        #: Columns that are prefix views of buffers this table allocated.
        self._owned: set[str] = set()

    @classmethod
    def from_rows(cls, name: str, column_names: Sequence[str],
                  rows: Iterable[Sequence]) -> "Table":
        rows = list(rows)
        columns = {
            column: [row[i] for row in rows]
            for i, column in enumerate(column_names)
        }
        if not rows:
            columns = {column: [] for column in column_names}
        return cls(name, columns)

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"table {self.name!r} has no column {name!r}; "
                f"columns: {self.column_names}") from None

    def __len__(self) -> int:
        return self._length

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._columns

    def append_rows(self, rows) -> tuple[int, int]:
        """Extend the table in place; returns ``(old_row_count,
        new_row_count)``.

        ``rows`` is either a column mapping (``{name: values}``, like the
        constructor) or an iterable of row dicts.  The column set must
        match exactly, and no column may move between a numeric and a
        non-numeric kind — appending is a *growth* of the relation, never
        a schema change.  Any mismatch raises
        :class:`~repro.engine.errors.CatalogError` naming the table and
        the offending column, *before* anything is mutated: a rejected
        append leaves the relation byte-for-byte untouched, and so does
        a failed write (also a ``CatalogError``): each column grows by
        :func:`grow_column`, and the grown ones replace the old only
        once all are written.
        """
        if isinstance(rows, Mapping):
            columns = {name: _as_column(values)
                       for name, values in rows.items()}
        else:
            row_dicts = list(rows)
            for row in row_dicts:
                missing = set(self._columns) - set(row)
                extra = set(row) - set(self._columns)
                if missing:
                    raise CatalogError(
                        f"appended row is missing column "
                        f"{sorted(missing)[0]!r} of table {self.name!r}; "
                        f"columns: {self.column_names}")
                if extra:
                    raise CatalogError(
                        f"appended row has unknown columns {sorted(extra)}; "
                        f"table {self.name!r} has {self.column_names}")
            columns = {
                name: _as_column([row[name] for row in row_dicts])
                for name in self._columns}
        if set(columns) != set(self._columns):
            missing = sorted(set(self._columns) - set(columns))
            extra = sorted(set(columns) - set(self._columns))
            detail = []
            if missing:
                detail.append(f"missing {missing[0]!r}")
            if extra:
                detail.append(f"unknown {extra[0]!r}")
            raise CatalogError(
                f"append to table {self.name!r} must supply exactly its "
                f"columns {self.column_names}, got {sorted(columns)} "
                f"({', '.join(detail)})")
        added = None
        for name, array in columns.items():
            if array.ndim != 1:
                raise CatalogError(
                    f"appended column {name!r} of table {self.name!r} "
                    "must be 1-D")
            if added is None:
                added = len(array)
            elif len(array) != added:
                raise CatalogError(
                    f"appended column {name!r} of table {self.name!r} has "
                    f"{len(array)} rows, expected {added}")
        old = self._length
        if not added:
            return old, old
        for name, array in columns.items():
            current = self._columns[name].dtype
            if (array.dtype.kind in _NUMERIC) != (current.kind in _NUMERIC):
                # A numeric column turned object (or back) would break
                # every later comparison over it.
                raise CatalogError(
                    f"appended column {name!r} of table {self.name!r} is "
                    f"{array.dtype}, which does not fit its {current} "
                    "values")
        grown = {}
        for name, array in columns.items():
            try:
                grown[name] = grow_column(self._columns[name], array,
                                          name in self._owned)
            except Exception as exc:
                raise CatalogError(
                    f"append to table {self.name!r} failed writing column "
                    f"{name!r}: {exc}") from exc
        self._columns.update(grown)
        self._owned.update(grown)
        self._length = old + added
        return old, self._length

    def row(self, index: int) -> dict:
        return {name: values[index] for name, values in self._columns.items()}

    def rows(self) -> list[dict]:
        return [self.row(i) for i in range(len(self))]

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self)} rows, cols={self.column_names})"


class Catalog:
    """Name → table/random-table-spec lookup for a session.

    ``version`` counts catalog mutations; cross-query caches key their
    validity on it.  Alongside the global counter the catalog keeps a
    *per-name* version (:meth:`table_version`) bumped only when that name
    is touched, so a table-granular cache invalidates only entries whose
    dependencies actually moved.  Per-name versions are monotone for the
    life of the catalog — dropping and re-adding a name still moves its
    version, so stale entries can never alias the new contents.

    Append-only growth is first-class: :meth:`append` extends a base
    table in place (O(Δ), see :meth:`Table.append_rows`) and records ``(old_row_count, new_row_count)`` in an
    append journal keyed by the table's pre-append version.  Consumers
    can then distinguish "grew by K rows" (extend a cached relation by
    what the new rows produce) from "arbitrarily rewritten" (recompute):
    a rewrite (``add_table`` over an existing name) or ``drop`` truncates
    the journal, breaking the version chain.

    ``uid`` is a process-unique monotone identity for keyed transports
    (the process backend's shared catalog channel) — unlike ``id()`` it
    survives address reuse after garbage collection.
    """

    #: Hard bound on each table's append-journal length.  A long-lived
    #: session appending indefinitely would otherwise grow the chain one
    #: link per append; past the bound the two *oldest* links are
    #: coalesced into one (the chain is linear — each link's
    #: ``to_version`` is the next link's key — so the merged link reports
    #: the same row range a two-link walk would).  A walk starting at a
    #: coalesced-away version gets ``None`` from :meth:`appended_range`
    #: and falls back to a full recompute — correct, just not
    #: incremental.
    APPEND_JOURNAL_LIMIT = 64

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._random_specs: dict[str, object] = {}  # RandomTableSpec, untyped to avoid cycle
        self.version = 0
        self.uid = next(_catalog_uids)
        #: name -> global version at that name's last mutation (monotone
        #: per name; survives drop so re-adding never rewinds).
        self._name_versions: dict[str, int] = {}
        #: name -> {from_version: (to_version, old_rows, new_rows)} —
        #: the append chain walked by :meth:`appended_range`.
        self._append_journal: dict[str, dict[int, tuple[int, int, int]]] = {}

    def _bump(self, key: str) -> None:
        self.version += 1
        self._name_versions[key] = self.version

    def table_version(self, name: str) -> int:
        """This name's version: the global version at its last mutation
        (0 for a name this catalog never touched)."""
        return self._name_versions.get(name.lower(), 0)

    def add_table(self, table: Table) -> Table:
        key = table.name.lower()
        if key in self._random_specs:
            raise ValueError(f"{table.name!r} already names a random table")
        if key in self._tables:
            # Rewrite: the append chain no longer describes the contents.
            self._append_journal.pop(key, None)
        self._tables[key] = table
        self._bump(key)
        return table

    def add_random_table(self, spec) -> None:
        key = spec.name.lower()
        if key in self._tables:
            raise ValueError(f"{spec.name!r} already names a base table")
        self._random_specs[key] = spec
        self._bump(key)

    def append(self, name: str, rows) -> tuple[int, int]:
        """Append rows to a base table, journaling the growth.

        Returns ``(old_row_count, new_row_count)``.  The journal entry is
        keyed by the table's pre-append version, so a cached entry that
        recorded version ``v`` can later walk the chain from ``v`` to the
        current version and learn exactly which row range is new.

        Error paths are transactional and typed: a missing table, an
        append aimed at a random table, or any schema mismatch raises
        :class:`~repro.engine.errors.CatalogError` naming the table (and
        column), with no version bump and no journal entry.
        """
        key = name.lower()
        if key in self._random_specs:
            raise CatalogError(
                f"cannot append to random table {name!r}; append to its "
                "parameter table instead")
        try:
            table = self.table(name)
        except KeyError:
            known = ", ".join(self.table_names()) or "<none>"
            raise CatalogError(
                f"cannot append to unknown table {name!r}; "
                f"base tables: {known}") from None
        from_version = self.table_version(key)
        old, new = table.append_rows(rows)
        if new == old:
            return old, new  # empty append: no mutation, no version bump
        self._bump(key)
        journal = self._append_journal.setdefault(key, {})
        journal[from_version] = (self._name_versions[key], old, new)
        while len(journal) > self.APPEND_JOURNAL_LIMIT:
            first, second = sorted(journal)[:2]
            _, first_old, _ = journal.pop(first)
            to_version, _, second_new = journal.pop(second)
            journal[first] = (to_version, first_old, second_new)
        return old, new

    def append_journal_len(self, name: str) -> int:
        """Number of live append links for ``name`` (diagnostics/tests)."""
        return len(self._append_journal.get(name.lower(), {}))

    def compact_append_journal(self, name: str, keep_from: int) -> int:
        """Drop append links no live consumer can walk anymore.

        ``keep_from`` is the consumers' low-water mark: the smallest
        recorded per-name version any live consumer (det-cache entry,
        standing query) may still pass to :meth:`appended_range`.  A link
        whose ``to_version`` is at or below the mark can only be entered
        from strictly older versions, so no such consumer's walk ever
        reaches it — it is removed outright.  Walks from ``keep_from`` or
        newer see exactly the same ranges as before; the session calls
        this after every append once its det-cache entries and standing
        queries have all refreshed past old links.  Returns the number of
        links dropped.
        """
        key = name.lower()
        journal = self._append_journal.get(key)
        if not journal:
            return 0
        dead = [from_version for from_version, (to_version, _, _)
                in journal.items() if to_version <= keep_from]
        for from_version in dead:
            del journal[from_version]
        return len(dead)

    def appended_range(self, name: str, since_version: int):
        """Rows appended since ``since_version``, or ``None``.

        Walks the append journal from ``since_version`` to the name's
        current version.  Returns ``(old_rows, new_rows)`` — the
        contents grew from ``old_rows`` to ``new_rows`` purely by
        appends — or ``None`` when the chain is broken (a rewrite or
        drop truncated the journal, or the name was never journaled).
        """
        key = name.lower()
        current = self.table_version(key)
        if current == since_version:
            return None  # nothing moved; nothing to extend
        journal = self._append_journal.get(key, {})
        version = since_version
        old_rows = new_rows = None
        while version != current:
            record = journal.get(version)
            if record is None:
                return None
            version, step_old, new_rows = record
            if old_rows is None:
                old_rows = step_old
        return old_rows, new_rows

    def table(self, name: str) -> Table:
        try:
            return self._tables[name.lower()]
        except KeyError:
            known = ", ".join(sorted(self._tables)) or "<none>"
            raise KeyError(f"unknown table {name!r}; base tables: {known}") from None

    def random_table(self, name: str):
        try:
            return self._random_specs[name.lower()]
        except KeyError:
            known = ", ".join(sorted(self._random_specs)) or "<none>"
            raise KeyError(
                f"unknown random table {name!r}; random tables: {known}") from None

    def is_random(self, name: str) -> bool:
        return name.lower() in self._random_specs

    def has(self, name: str) -> bool:
        return name.lower() in self._tables or name.lower() in self._random_specs

    def drop(self, name: str) -> None:
        key = name.lower()
        dropped_table = self._tables.pop(key, None)
        dropped_spec = self._random_specs.pop(key, None)
        if dropped_table is not None or dropped_spec is not None:
            self._append_journal.pop(key, None)
            self._bump(key)

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def random_table_names(self) -> list[str]:
        return sorted(self._random_specs)
