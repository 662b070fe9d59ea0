"""Gibbs tuples: per-tuple random-value windows with stream lineage (Sec. 5).

A Gibbs tuple differs from an MCDB tuple bundle in two ways the paper calls
out: (1) every random value points back to the TS-seed (stream) that
produced it — lineage that "can never be discarded" — and (2) the tuple
carries *many* more stream elements than there are database versions,
because rejection sampling burns through candidates.

Here a :class:`GibbsTuple` is a thin row-wise view over the final
:class:`~repro.engine.bundles.BundleRelation` produced by the query plan:
deterministic attribute values, one :class:`RandField` per random column
(window values + seed handle), and one :class:`PresenceField` per ``isPres``
array affecting the tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.engine.bundles import BundleRelation
from repro.engine.errors import PlanError

__all__ = ["RandField", "PresenceField", "GibbsTuple", "tuples_from_relation"]


@dataclass
class RandField:
    """One random attribute of one tuple: window values + lineage."""

    column: str
    handle: int
    values: np.ndarray  # aligned with the owning seed's position list


@dataclass
class PresenceField:
    """One ``isPres`` array of one tuple, tied to the seed indexing it."""

    handle: int
    flags: np.ndarray  # bool, aligned like RandField.values


@dataclass
class GibbsTuple:
    """A single tuple's contribution-relevant state."""

    tuple_id: int
    det: dict[str, object]
    rand: dict[str, RandField]
    presences: list[PresenceField]

    @cached_property
    def handles(self) -> list[int]:
        """Distinct TS-seed handles this tuple depends on, ascending.

        A tuple with several handles is reprocessed once per handle by the
        looper's priority queue (Sec. 7).  Cached: the queue rebuilds once
        per Gibbs sweep, and fields never change after construction.
        """
        found = {field.handle for field in self.rand.values()}
        found.update(presence.handle for presence in self.presences)
        return sorted(found)

    def next_handle_after(self, handle: int) -> int | None:
        """Next-largest seed handle (the reinsertion key of Appendix A)."""
        for candidate in self.handles:
            if candidate > handle:
                return candidate
        return None

    def columns_of_handle(self, handle: int) -> list[str]:
        return [name for name, field in self.rand.items() if field.handle == handle]


def tuples_from_relation(relation: BundleRelation) -> list[GibbsTuple]:
    """Materialize row-wise Gibbs tuples from the plan's output relation.

    Derived (mixed-seed) random columns cannot appear here — the planner
    must have pulled any cross-seed arithmetic up into the looper's
    aggregate expression (Appendix A).
    """
    for name, column in relation.rand_columns.items():
        if column.is_derived:
            raise PlanError(
                f"column {name!r} mixes seeds and cannot enter the "
                "GibbsLooper as a materialized column; pull the expression "
                "up into the aggregate instead")
    tuples = []
    det_items = list(relation.det_columns.items())
    rand_items = list(relation.rand_columns.items())
    for row in range(relation.length):
        det = {name: values[row] for name, values in det_items}
        rand = {
            name: RandField(column=name,
                            handle=int(column.seed_handles[row]),
                            values=column.row(row))
            for name, column in rand_items
        }
        presences = []
        for presence in relation.presence:
            if presence.seed_handles is None:
                raise PlanError(
                    "aligned presence arrays cannot enter the GibbsLooper; "
                    "the planner must keep tail-mode predicates single-seed")
            flags = presence.row(row)
            if flags.all():
                continue  # vacuous presence: tuple present everywhere
            presences.append(PresenceField(
                handle=int(presence.seed_handles[row]), flags=flags))
        tuples.append(GibbsTuple(
            tuple_id=row, det=det, rand=rand, presences=presences))
    return tuples
