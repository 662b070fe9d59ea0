"""Tuple bundles: relations whose uncertain columns carry value matrices.

A :class:`BundleRelation` generalizes MCDB's tuple bundles (Sec. 1) and
MCDB-R's Gibbs tuples (Sec. 5) into one column-oriented structure:

* deterministic columns are ``(T,)`` arrays;
* random columns hold, for each tuple ``t``, the materialized elements of
  its random-value stream — plus the per-tuple TS-seed handle and window
  base position (the "lineage" that links each random value to the stream
  that produced it, Sec. 5);
* presence columns (the paper's ``isPres`` arrays) hold one boolean per
  materialized element, likewise tied to the seed whose stream positions
  index them.

Random and presence columns store their elements in one of two layouts.
A *block* is a ``(T, W)`` matrix: every row materializes ``W`` positions.
*Runs* are one flat ``(N,)`` array plus ``offsets`` ``(T + 1,)``: row
``t`` is ``values[offsets[t]:offsets[t + 1]]``, and each row is as long
as its own seed's window.

``aligned`` distinguishes the two execution modes.  In Monte Carlo mode
(``aligned=True``) position ``w`` of *every* stream belongs to repetition
``w``, so cross-seed positional arithmetic is valid — this is how original
MCDB computes per-repetition query results, on blocks.  In tail mode
positions are assigned to database versions per seed by the Gibbs
sampler, so any cross-seed combination must be deferred to the
GibbsLooper; ``Instantiate`` emits runs there, because a refuel gives
each seed a window of its own depth (Sec. 9).

A block taken by row — by a join, a filter, a random ``Select``'s row
drop — is not copied: the new column keeps a *row map* (``rows``, int64,
one entry per output row) into the block it came from (``stored``), and
a take of a mapped block composes the maps as ``rows[indices]``.  So a
join above ``Instantiate`` keeps each random value once, as MCDB's
tuple bundles do, whatever the fan-out; only the (T,) lineage is
gathered.  ``values`` and ``flags`` still read as the column's own
``(T, W)`` block, resolved through the map on every read and never
cached, so every reader sees the rows it always saw (``row`` reads its
one row through the map).  The (stored, map) pair itself is read by
``take``, by the shape checks (which must not resolve it) and by the
Monte Carlo fold (:meth:`repro.engine.mcdb.MonteCarloExecutor._terms`),
which evaluates a random-only aggregate over the shared block and
gathers each group through the map.  Runs stay eagerly gathered: the
looper points each Gibbs tuple at its own run, and each run is as long
as its own window.

These arrays are exactly the bulk the process backend ships out of band
when relations cross to workers on the catalog channel (protocol-5
pickling, :mod:`repro.engine.backends`): a column arriving in a worker
is therefore a *read-only* array over the received bytes.  Bundle code
treats shipped columns as immutable inputs everywhere (new arrays are
built per evaluation, never written back into a source column), which
is what makes that safe.
"""

from __future__ import annotations

import copy
from typing import Mapping, Sequence

import numpy as np

from repro.engine.errors import AlignmentError, EngineError
from repro.engine.expressions import DictContext, Expr

__all__ = ["RandomColumn", "PresenceColumn", "BundleRelation",
           "ordered_column_sum", "row_key_codes", "run_counts", "take_runs"]


def row_key_codes(columns: Sequence[np.ndarray]) -> np.ndarray:
    """One int64 code per row; equal codes <=> equal key tuples.

    "Equal" is what ``tuple(column[row] for column in columns)`` equality
    — a dict keyed by those tuples — would decide: numbers compare by
    value across int/float/bool columns, a NaN equals nothing (every NaN
    row gets a code of its own), and object columns (strings, mixed
    kinds) are factorized through a dict of their own elements, so a
    string never equals a number.  This is the array form of the hash
    keys Join and GROUP BY used to build one row at a time.
    """
    codes = None
    for column in columns:
        if column.dtype.kind in "biuf":
            uniq, inverse = np.unique(column, return_inverse=True)
            inverse = inverse.reshape(-1).astype(np.int64, copy=False)
            if column.dtype.kind == "f":
                nan = np.flatnonzero(np.isnan(column))
                inverse[nan] = uniq.size + np.arange(nan.size)
        else:
            values = column.tolist()
            code_of = {value: code for code, value
                       in enumerate(dict.fromkeys(values))}
            inverse = np.fromiter(map(code_of.__getitem__, values),
                                  dtype=np.int64, count=len(values))
        if codes is None or not inverse.size:
            codes = inverse
        else:  # re-densify so the pair code cannot overflow
            pair = codes * (int(inverse.max()) + 1) + inverse
            codes = np.unique(pair, return_inverse=True)[1].reshape(-1)
    return codes


def take_runs(values: np.ndarray, offsets: np.ndarray,
              rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of a run-stored column: their runs, concatenated in
    that order, and the new offsets."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    new_offsets = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=new_offsets[1:])
    index = np.repeat(starts - new_offsets[:-1], lengths)
    index += np.arange(new_offsets[-1])
    return values[index], new_offsets


def run_counts(flags: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """How many elements of each run of ``flags`` are true."""
    ends = np.zeros(flags.size + 1, dtype=np.int64)
    np.cumsum(flags, out=ends[1:])
    return ends[offsets[1:]] - ends[offsets[:-1]]


def ordered_column_sum(matrix: np.ndarray) -> np.ndarray:
    """Column sums of a 2-D float array in strict row order.

    Bit-identical to ``np.cumsum(matrix, axis=0)[-1]`` without writing
    the prefix-sum matrix: NumPy reduces axis 0 of a C-contiguous array
    by adding one row after another, element by element (pairwise
    summation runs only along the contiguous axis), and ``-0.0`` is the
    exact additive identity, so signed zeros survive.  A single column
    *is* the contiguous axis, and a NaN's sign bit depends on which
    operand the add loop names first, so both go through ``cumsum``.

    ``matrix.sum(axis=0)`` would round by array geometry instead: a shard
    that dropped a nowhere-present row would differ from the serial run
    (which adds that row's zeros).  In strict order an added zero row is
    an exact no-op, which keeps sharded and incremental sums
    bit-identical to serial ones.
    """
    if matrix.shape[1] > 1:
        sums = np.add.reduce(np.ascontiguousarray(matrix), axis=0,
                             initial=-0.0)
        if not np.isnan(sums).any():
            return sums
    return np.cumsum(matrix, axis=0)[-1]


def _check_layout(what: str, array: np.ndarray, offsets) -> int:
    """Row count of a block or of runs (see the module docstring)."""
    if offsets is None:
        if array.ndim != 2:
            raise EngineError(f"{what} must be (T, W), got {array.shape}")
        return array.shape[0]
    if array.ndim != 1 or offsets.ndim != 1 or offsets.size < 1 \
            or offsets[0] != 0 or offsets[-1] != array.size:
        raise EngineError(
            f"{what} runs must be (N,) with offsets 0..N, got "
            f"{array.shape} and {offsets.shape}")
    return offsets.size - 1


def _check_lineage(column, count: int, what: str) -> None:
    if column.seed_handles is not None:
        column.seed_handles = np.asarray(column.seed_handles, dtype=np.int64)
        if column.seed_handles.shape != (count,):
            raise EngineError(f"{what}seed_handles must be (T,)")
        if column.bases is None:
            column.bases = np.zeros(count, dtype=np.int64)
        else:
            column.bases = np.asarray(column.bases, dtype=np.int64)
            if column.bases.shape != (count,):
                raise EngineError(f"{what}bases must be (T,)")


class _Elements:
    """What random and presence columns share: a block or runs of
    per-position elements, with per-row lineage.

    ``stored`` holds the elements as they were made; a block taken by
    row also keeps ``rows``, its row map into ``stored`` (``None``: row
    ``t`` is stored row ``t``; see the module docstring).
    """

    rows: np.ndarray | None = None

    def _store(self, what: str, elements, seed_handles, bases,
               offsets) -> int:
        self.stored = elements
        self.seed_handles, self.bases = seed_handles, bases
        self.offsets = (None if offsets is None
                        else np.asarray(offsets, dtype=np.int64))
        return _check_layout(what, elements, self.offsets)

    def _resolved(self) -> np.ndarray:
        """The column's own elements, gathered through the row map."""
        return self.stored if self.rows is None else self.stored[self.rows]

    @property
    def shape(self) -> tuple[int, ...]:
        """The shape of the resolved elements, read without resolving."""
        if self.rows is None:
            return self.stored.shape
        return (self.rows.size,) + self.stored.shape[1:]

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(flat elements, offsets)``; a block reads as equal runs."""
        elements = self._resolved()
        if self.offsets is not None:
            return elements, self.offsets
        rows, width = elements.shape
        return (elements.reshape(-1),
                np.arange(0, (rows + 1) * width, width, dtype=np.int64))

    def row(self, index: int) -> np.ndarray:
        """Row ``index``'s elements, as a view."""
        if self.offsets is None:
            return self.stored[index if self.rows is None
                               else self.rows[index]]
        return self.stored[self.offsets[index]:self.offsets[index + 1]]

    def take(self, indices: np.ndarray):
        """Rows ``indices``: a block composes its row map (``rows[indices]``,
        the identity when it has none), runs are gathered; the lineage is
        gathered either way."""
        out = copy.copy(self)
        if self.offsets is None:
            out.rows = (np.arange(self.stored.shape[0]) if self.rows is None
                        else self.rows)[indices]
        else:
            out.stored, out.offsets = take_runs(self.stored, self.offsets,
                                                indices)
        if self.seed_handles is not None:
            out.seed_handles = self.seed_handles[indices]
        if self.bases is not None:
            out.bases = self.bases[indices]
        return out


class RandomColumn(_Elements):
    """An uncertain column: a block or runs of values, with per-tuple
    stream lineage (see the module docstring for the two layouts).

    ``seed_handles[t]`` is the TS-seed handle whose stream produced row
    ``t``'s values; ``bases[t]`` is the stream position of the row's first
    value (always 0 in Monte Carlo mode, advanced by replenishment in tail
    mode).  ``seed_handles is None`` marks a *derived* column (e.g.
    ``sal2 - sal1``) that mixes seeds and is only meaningful when aligned.
    """

    def __init__(self, values, seed_handles: np.ndarray | None,
                 bases: np.ndarray | None = None,
                 offsets: np.ndarray | None = None):
        count = self._store("random column values", np.asarray(values),
                            seed_handles, bases, offsets)
        if seed_handles is None and bases is not None:
            raise EngineError("derived columns cannot carry window bases")
        _check_lineage(self, count, "")

    @property
    def values(self) -> np.ndarray:
        """The column's own block or runs, resolved on every read."""
        return self._resolved()

    @property
    def is_derived(self) -> bool:
        return self.seed_handles is None


class PresenceColumn(_Elements):
    """An ``isPres`` array: per-position tuple-presence flags.

    Created when a selection predicate touches a random attribute (Sec. 5);
    tied to the seed whose positions index ``flags``, and laid out like
    the random column it was computed from.  ``seed_handles is None``
    marks an aligned (multi-seed) presence usable only in MC mode.
    """

    def __init__(self, flags, seed_handles: np.ndarray | None,
                 bases: np.ndarray | None = None,
                 offsets: np.ndarray | None = None):
        count = self._store("presence flags", np.asarray(flags, dtype=bool),
                            seed_handles, bases, offsets)
        if seed_handles is None and bases is not None:
            raise EngineError("aligned presence cannot carry window bases")
        _check_lineage(self, count, "presence ")

    @property
    def flags(self) -> np.ndarray:
        """The column's own block or runs of flags, resolved on every
        read."""
        return self._resolved()

    def vacuous(self) -> np.ndarray:
        """Per row: present at every materialized position."""
        flags, offsets = self.runs()
        return run_counts(flags, offsets) == np.diff(offsets)


class BundleRelation:
    """A relation of tuple bundles (see module docstring)."""

    def __init__(self, length: int, positions: int, aligned: bool):
        if length < 0 or positions < 1:
            raise EngineError(
                f"invalid bundle relation shape: T={length}, W={positions}")
        self.length = length
        self.positions = positions
        self.aligned = aligned
        self.det_columns: dict[str, np.ndarray] = {}
        self.rand_columns: dict[str, RandomColumn] = {}
        self.presence: list[PresenceColumn] = []

    # -- construction -------------------------------------------------------

    @classmethod
    def from_table(cls, table, positions: int, aligned: bool,
                   prefix: str = "", rows: slice = slice(None)
                   ) -> "BundleRelation":
        """The table's ``rows`` (all of them by default) as a relation."""
        start, stop, _ = rows.indices(len(table))
        relation = cls(stop - start, positions, aligned)
        for name in table.column_names:
            relation.add_det_column(prefix + name, table.column(name)[rows])
        return relation

    def add_det_column(self, name: str, values: Sequence) -> None:
        self._check_new_name(name)
        array = np.asarray(values)
        if array.dtype.kind in ("U", "S"):
            array = array.astype(object)
        if array.shape != (self.length,):
            raise EngineError(
                f"column {name!r}: expected shape ({self.length},), got {array.shape}")
        self.det_columns[name] = array

    def add_rand_column(self, name: str, column: RandomColumn) -> None:
        self._check_new_name(name)
        self._check_elements(f"column {name!r}", column)
        self.rand_columns[name] = column

    def add_presence(self, presence: PresenceColumn) -> None:
        self._check_elements("presence", presence)
        self.presence.append(presence)

    def _check_elements(self, what: str, column: "_Elements") -> None:
        offsets = column.offsets
        if offsets is None:
            if column.shape != (self.length, self.positions):
                raise EngineError(
                    f"{what}: expected shape ({self.length}, "
                    f"{self.positions}), got {column.shape}")
        elif offsets.shape != (self.length + 1,):
            raise EngineError(
                f"{what}: expected {self.length + 1} run offsets, got "
                f"{offsets.shape}")

    def _check_new_name(self, name: str) -> None:
        if name in self.det_columns or name in self.rand_columns:
            raise EngineError(f"duplicate column name {name!r}")

    # -- introspection ------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return list(self.det_columns) + list(self.rand_columns)

    def is_deterministic_column(self, name: str) -> bool:
        if name in self.det_columns:
            return True
        if name in self.rand_columns:
            return False
        raise KeyError(f"unknown column {name!r}; have {self.column_names}")

    def seeds_of_expression(self, expr: Expr) -> set[int] | None:
        """Distinct seed-handle *sources* referenced by an expression.

        Returns a set of random-column names' handle identities — derived
        (mixed-seed) columns poison the result to ``None`` meaning
        "aligned-only".  Used by operators to decide whether an expression
        is single-seed (evaluable in-plan in tail mode) or must be pulled up.
        """
        sources: set[int] = set()
        for name in expr.columns():
            if name in self.det_columns:
                continue
            column = self.rand_columns[name]
            if column.is_derived:
                return None
            sources.update(np.unique(column.seed_handles).tolist())
        return sources

    def random_columns_in(self, expr: Expr) -> list[str]:
        return [name for name in expr.columns() if name in self.rand_columns]

    # -- evaluation ---------------------------------------------------------

    def evaluate_scalar(self, expr: Expr) -> np.ndarray:
        """Evaluate a deterministic-only expression to a ``(T,)`` array."""
        rand = self.random_columns_in(expr)
        if rand:
            raise EngineError(
                f"expression references random columns {rand}; use "
                "evaluate_positional")
        result = np.asarray(expr.evaluate(DictContext(self.det_columns)))
        return np.broadcast_to(result, (self.length,))

    def evaluate_positional(self, expr: Expr, check_single_seed: bool = False
                            ) -> np.ndarray:
        """Evaluate per materialized position, broadcasting deterministic
        columns: a ``(T, W)`` array over blocks, a flat ``(N,)`` one laid
        out like the referenced columns' runs over runs.

        With ``check_single_seed`` (tail mode), expressions mixing several
        seeds raise :class:`AlignmentError` — the Appendix A pull-up rule.
        """
        rand_names = self.random_columns_in(expr)
        if check_single_seed and not self.aligned:
            if self.seeds_of_expression(expr) is None or self._mixes_seeds(rand_names):
                raise AlignmentError(
                    f"expression {expr!r} combines random values from "
                    "multiple seeds; it must be pulled up into the GibbsLooper")
        offsets = self._runs_of(rand_names)
        if offsets is not None:
            lengths = np.diff(offsets)
            columns = {name: np.repeat(self.det_columns[name], lengths)
                       for name in expr.columns() if name in self.det_columns}
            for name in rand_names:
                columns[name] = self.rand_columns[name].values
            result = np.asarray(expr.evaluate(DictContext(columns)))
            return np.broadcast_to(result, (int(offsets[-1]),))
        columns: dict[str, np.ndarray] = {}
        for name, values in self.det_columns.items():
            columns[name] = values.reshape(self.length, 1)
        for name in rand_names:
            columns[name] = self.rand_columns[name].values
        result = np.asarray(expr.evaluate(DictContext(columns)))
        return np.broadcast_to(result, (self.length, self.positions))

    def _runs_of(self, rand_names: list[str]) -> np.ndarray | None:
        """The run offsets the named random columns share, or ``None``
        when they are blocks.  Columns combined position by position
        belong to one seed per row, hence to equally long runs."""
        layouts = [self.rand_columns[name].offsets for name in rand_names]
        if not layouts or layouts[0] is None:
            if any(offsets is not None for offsets in layouts):
                raise EngineError("cannot combine a block with runs")
            return None
        first = layouts[0]
        for offsets in layouts[1:]:
            if offsets is not first and (
                    offsets is None or not np.array_equal(offsets, first)):
                raise EngineError(
                    "random columns of one expression have different runs")
        return first

    def _mixes_seeds(self, rand_names: list[str]) -> bool:
        """True if any tuple sees values from two different seeds."""
        if len(rand_names) <= 1:
            return False
        handle_rows = []
        for name in rand_names:
            column = self.rand_columns[name]
            if column.is_derived:
                return True
            handle_rows.append(column.seed_handles)
        stacked = np.stack(handle_rows, axis=0)
        return bool(np.any(stacked != stacked[0]))

    def combined_presence(self) -> np.ndarray | None:
        """AND of all presence arrays — valid only when aligned (MC mode)."""
        if not self.presence:
            return None
        if not self.aligned:
            raise AlignmentError(
                "combined presence is only defined in repetition-aligned "
                "(Monte Carlo) mode")
        combined = np.ones((self.length, self.positions), dtype=bool)
        for presence in self.presence:
            combined &= presence.flags
        return combined

    # -- row operations -----------------------------------------------------

    def take(self, indices: np.ndarray) -> "BundleRelation":
        """New relation with rows gathered by index (used by joins/filters)."""
        indices = np.asarray(indices, dtype=np.int64)
        out = BundleRelation(len(indices), self.positions, self.aligned)
        for name, values in self.det_columns.items():
            out.det_columns[name] = values[indices]
        for name, column in self.rand_columns.items():
            out.rand_columns[name] = column.take(indices)
        for presence in self.presence:
            out.presence.append(presence.take(indices))
        return out

    def filter_rows(self, mask: np.ndarray) -> "BundleRelation":
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.length,):
            raise EngineError(
                f"row mask must be ({self.length},), got {mask.shape}")
        return self.take(np.nonzero(mask)[0])

    def shallow_copy(self) -> "BundleRelation":
        """New relation object *sharing* every column with this one.

        Columns are immutable inputs (module docstring), so an operator
        that only adds a column or a presence array to its child's rows
        needs a fresh relation to add it to — not a copy of the arrays.
        """
        return self.rename({})

    def rename(self, mapping: Mapping[str, str]) -> "BundleRelation":
        out = BundleRelation(self.length, self.positions, self.aligned)
        for name, values in self.det_columns.items():
            out.det_columns[mapping.get(name, name)] = values
        for name, column in self.rand_columns.items():
            out.rand_columns[mapping.get(name, name)] = column
        out.presence = list(self.presence)
        return out

    def __repr__(self):
        return (f"BundleRelation(T={self.length}, W={self.positions}, "
                f"aligned={self.aligned}, det={list(self.det_columns)}, "
                f"rand={list(self.rand_columns)}, "
                f"presence={len(self.presence)})")
