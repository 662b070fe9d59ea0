"""Tuple bundles: relations whose uncertain columns carry value matrices.

A :class:`BundleRelation` generalizes MCDB's tuple bundles (Sec. 1) and
MCDB-R's Gibbs tuples (Sec. 5) into one column-oriented structure:

* deterministic columns are ``(T,)`` arrays;
* random columns are ``(T, W)`` matrices — row ``t`` holds ``W``
  materialized elements of tuple ``t``'s random-value stream — plus the
  per-tuple TS-seed handle and window base position (the "lineage" that
  links each random value to the stream that produced it, Sec. 5);
* presence columns (the paper's ``isPres`` arrays) are ``(T, W)`` boolean
  matrices, likewise tied to the seed whose stream positions index them.

``aligned`` distinguishes the two execution modes.  In Monte Carlo mode
(``aligned=True``) position ``w`` of *every* stream belongs to repetition
``w``, so cross-seed positional arithmetic is valid — this is how original
MCDB computes per-repetition query results.  In tail mode positions are
assigned to database versions per seed by the Gibbs sampler, so any
cross-seed combination must be deferred to the GibbsLooper.

These ``(T,)``/``(T, W)`` arrays are exactly the bulk the process
backend's zero-copy data plane (``repro.engine.shm``) hoists into shared
memory when relations cross to workers on the catalog channel: a column
arriving in a worker may therefore be a *read-only* view over a
parent-owned segment.  Bundle code treats shipped columns as immutable
inputs everywhere (new arrays are built per evaluation, never written
back into a source column), which is what makes the shared mapping safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.engine.errors import AlignmentError, EngineError
from repro.engine.expressions import DictContext, Expr

__all__ = ["RandomColumn", "PresenceColumn", "BundleRelation",
           "row_key_codes"]


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


@dataclass
class RandomColumn:
    """An uncertain column: ``(T, W)`` values with per-tuple stream lineage.

    ``seed_handles[t]`` is the TS-seed handle whose stream produced row
    ``t``'s values; ``bases[t]`` is the stream position of column 0 of the
    window (always 0 in Monte Carlo mode, advanced by replenishment in tail
    mode).  ``seed_handles is None`` marks a *derived* column (e.g.
    ``sal2 - sal1``) that mixes seeds and is only meaningful when aligned.
    """

    values: np.ndarray
    seed_handles: np.ndarray | None
    bases: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise EngineError(
                f"random column values must be (T, W), got {self.values.shape}")
        count = self.values.shape[0]
        if self.seed_handles is not None:
            self.seed_handles = np.asarray(self.seed_handles, dtype=np.int64)
            if self.seed_handles.shape != (count,):
                raise EngineError("seed_handles must be (T,)")
            if self.bases is None:
                self.bases = np.zeros(count, dtype=np.int64)
            else:
                self.bases = np.asarray(self.bases, dtype=np.int64)
                if self.bases.shape != (count,):
                    raise EngineError("bases must be (T,)")
        elif self.bases is not None:
            raise EngineError("derived columns cannot carry window bases")

    @property
    def is_derived(self) -> bool:
        return self.seed_handles is None

    def take(self, indices: np.ndarray) -> "RandomColumn":
        return RandomColumn(
            self.values[indices],
            None if self.seed_handles is None else self.seed_handles[indices],
            None if self.bases is None else self.bases[indices])


@dataclass
class PresenceColumn:
    """An ``isPres`` array: per-position tuple-presence flags.

    Created when a selection predicate touches a random attribute (Sec. 5);
    tied to the seed whose positions index ``flags``.  ``seed_handles is
    None`` marks an aligned (multi-seed) presence usable only in MC mode.
    """

    flags: np.ndarray
    seed_handles: np.ndarray | None
    bases: np.ndarray | None = None

    def __post_init__(self):
        self.flags = np.asarray(self.flags, dtype=bool)
        if self.flags.ndim != 2:
            raise EngineError(f"presence flags must be (T, W), got {self.flags.shape}")
        count = self.flags.shape[0]
        if self.seed_handles is not None:
            self.seed_handles = np.asarray(self.seed_handles, dtype=np.int64)
            if self.seed_handles.shape != (count,):
                raise EngineError("presence seed_handles must be (T,)")
            if self.bases is None:
                self.bases = np.zeros(count, dtype=np.int64)
            else:
                self.bases = np.asarray(self.bases, dtype=np.int64)
        elif self.bases is not None:
            raise EngineError("aligned presence cannot carry window bases")

    def take(self, indices: np.ndarray) -> "PresenceColumn":
        return PresenceColumn(
            self.flags[indices],
            None if self.seed_handles is None else self.seed_handles[indices],
            None if self.bases is None else self.bases[indices])


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
        #: Merged-position delta of the delta-replenishment run that
        #: produced this relation (``{}`` for full runs): per seed
        #: handle, the window-slot indices whose values were gathered
        #: fresh from the streams because no earlier run materialized
        #: them.  Keyed by handle — not by row — so row gathers and
        #: renames preserve it unchanged; the Gibbs delta state re-init
        #: ships exactly these slots to the worker owning each handle.
        self.fresh_slots: dict[int, np.ndarray] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_table(cls, table, positions: int, aligned: bool,
                   prefix: str = "") -> "BundleRelation":
        relation = cls(len(table), positions, aligned)
        for name in table.column_names:
            relation.add_det_column(prefix + name, table.column(name))
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
        if column.values.shape != (self.length, self.positions):
            raise EngineError(
                f"column {name!r}: expected shape ({self.length}, "
                f"{self.positions}), got {column.values.shape}")
        self.rand_columns[name] = column

    def add_presence(self, presence: PresenceColumn) -> None:
        if presence.flags.shape != (self.length, self.positions):
            raise EngineError(
                f"presence: expected shape ({self.length}, {self.positions}), "
                f"got {presence.flags.shape}")
        self.presence.append(presence)

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
        """Evaluate to a ``(T, W)`` array, broadcasting deterministic columns.

        With ``check_single_seed`` (tail mode), expressions mixing several
        seeds raise :class:`AlignmentError` — the Appendix A pull-up rule.
        """
        rand_names = self.random_columns_in(expr)
        if check_single_seed and not self.aligned:
            if self.seeds_of_expression(expr) is None or self._mixes_seeds(rand_names):
                raise AlignmentError(
                    f"expression {expr!r} combines random values from "
                    "multiple seeds; it must be pulled up into the GibbsLooper")
        columns: dict[str, np.ndarray] = {}
        for name, values in self.det_columns.items():
            columns[name] = values.reshape(self.length, 1)
        for name, column in self.rand_columns.items():
            columns[name] = column.values
        result = np.asarray(expr.evaluate(DictContext(columns)))
        return np.broadcast_to(result, (self.length, self.positions))

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
        out.fresh_slots = dict(self.fresh_slots)
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
        out.fresh_slots = dict(self.fresh_slots)
        return out

    def __repr__(self):
        return (f"BundleRelation(T={self.length}, W={self.positions}, "
                f"aligned={self.aligned}, det={list(self.det_columns)}, "
                f"rand={list(self.rand_columns)}, "
                f"presence={len(self.presence)})")
