"""TS-seeds: the bookkeeping data structure of Sec. 6, and the refuel policy.

A tail-sampling seed augments a PRNG seed with everything the Gibbs Looper
needs to map database versions onto stream positions.  Quoting the paper, a
TS-seed contains "(1) a TS-seed identifier, (2) the actual PRNG seed used
to produce a stream of random data, (3) the range of stream values
currently materialized and present within the Gibbs tuples, (4) the last
random value in that range that has previously been assigned to any DB
version for this TS-seed, and (5) the random value currently assigned to
each DB version".

Items (1)-(2) live in :class:`repro.engine.seeds.SeedInfo`; this class adds
(3) the materialized position list, (4) ``max_used`` — the global
consumption pointer that rejection sampling advances (rejected candidates
are consumed and never reconsidered, cf. the Fig. 1/Fig. 3 walk-throughs) —
and (5) the per-version ``assignment`` array.

:func:`plan_refuel` decides, when a seed's window runs dry, which seeds
the refuel re-plans and how deep (Sec. 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.engine.seeds import SeedInfo

__all__ = ["TSSeed", "plan_refuel"]

#: A seed joins a refuel when its fresh range would not last this many
#: of its expected next visits: a refuel costs as much as drawing a few
#: thousand stream values, so it is cheaper to refuel a seed early, with
#: one that runs dry anyway, than to let it run dry on its own.
_HEADROOM = 2
#: The rest of a visit is projected at most this many times what the
#: visit consumed so far: a version stuck on an extreme value can reject
#: thousands of candidates, and extrapolating from it alone would
#: materialize millions.  Repeated refuels still grow the window
#: geometrically.
_PROJECTION_CAP = 4
#: A re-planned window holds ``floor // _SLACK`` fresh positions beyond
#: the demand it expects, so a seed whose estimate falls just short does
#: not refuel again for its last few positions.
_SLACK = 4


@dataclass
class TSSeed:
    """Bookkeeping for one stream of random data during tail sampling."""

    info: SeedInfo
    #: Stream positions currently materialized inside the Gibbs tuples,
    #: ascending: the seed's own window, as long as its last refuel made
    #: it.  Fresh (never-used) positions are the suffix after
    #: ``max_used``.
    positions: np.ndarray
    #: Highest stream position consumed by any version (assigned *or*
    #: rejected); proposals start at the next materialized position.
    max_used: int
    #: ``assignment[v]`` = stream position currently held by DB version v.
    assignment: np.ndarray
    #: Refuel-policy state (:func:`plan_refuel`): ``max_used`` when the
    #: looper took the seed up and when its current or next visit began
    #: (the looper snapshots it after every sweep), the fresh depth of the
    #: seed's last window, the visit that window was planned for, and
    #: whether it was guessed before the seed's first visit.
    first_used: int | None = None
    visit_used: int | None = None
    depth: int = 0
    planned_for: int = -1
    guessed: bool = False

    def __post_init__(self):
        if self.first_used is None:
            self.first_used = self.max_used
        if self.visit_used is None:
            self.visit_used = self.max_used

    @property
    def handle(self) -> int:
        return self.info.handle

    @classmethod
    def initial(cls, info: SeedInfo, positions: np.ndarray, versions: int) -> "TSSeed":
        """Initial mapping: "the ith value in each stream is mapped to the
        ith DB version" (Appendix A.1)."""
        positions = np.asarray(positions, dtype=np.int64)
        if len(positions) < versions:
            raise ValueError(
                f"window of {len(positions)} positions cannot seed "
                f"{versions} versions")
        return cls(info=info, positions=positions,
                   max_used=int(positions[versions - 1]),
                   assignment=positions[:versions].copy(),
                   depth=len(positions) - versions)

    # -- proposals ----------------------------------------------------------

    def fresh_index_range(self) -> tuple[int, int]:
        """Index range (into ``positions``) of never-consumed positions."""
        start = int(np.searchsorted(self.positions, self.max_used, side="right"))
        return start, len(self.positions)

    def has_fresh(self) -> bool:
        start, stop = self.fresh_index_range()
        return start < stop

    def consume_through(self, position: int) -> None:
        """Mark everything up to ``position`` as used (accepted or rejected)."""
        if position <= self.max_used:
            raise ValueError(
                f"stream position {position} already consumed "
                f"(max_used={self.max_used})")
        self.max_used = int(position)

    def assign(self, version: int, position: int) -> None:
        self.assignment[version] = position

    # -- cloning and resizing ------------------------------------------------

    def clone_versions(self, source_indices: np.ndarray) -> None:
        """Overwrite the assignment column-by-column from elite versions.

        This is the single-pass overwrite of Appendix A: "the column in each
        TS-seed that records the assignment for DB version two is simply
        copied to the column for version one" — generalized to an arbitrary
        elite-to-version mapping, possibly changing the version count.
        """
        self.assignment = self.assignment[np.asarray(source_indices, dtype=np.int64)]

    # -- replenishment --------------------------------------------------------

    def replenish_plan(self, fresh: int) -> np.ndarray:
        """Positions the next plan run must materialize for this seed.

        Currently assigned positions (still referenced by versions) plus
        ``fresh`` new ones after ``max_used`` — Sec. 9's "new or currently
        assigned values".
        """
        if fresh < 1:
            raise ValueError(f"fresh count must be >= 1, got {fresh}")
        # np.unique, by sort and neighbour compare: NumPy's hash-based
        # unique costs ~5x more on a few hundred positions.
        assigned = np.sort(self.assignment)
        keep = np.empty(assigned.size, dtype=bool)
        keep[:1] = True
        np.not_equal(assigned[1:], assigned[:-1], out=keep[1:])
        assigned = assigned[keep]
        new = np.arange(self.max_used + 1, self.max_used + 1 + fresh,
                        dtype=np.int64)
        # Assigned positions are all <= max_used < new[0] and both parts are
        # sorted and duplicate-free, so the concatenation already is too.
        return np.concatenate([assigned, new])

    def index_of_position(self, position: int) -> int:
        """Index of ``position`` within the materialized list (or raise)."""
        index = int(np.searchsorted(self.positions, position))
        if index >= len(self.positions) or self.positions[index] != position:
            raise KeyError(
                f"position {position} not materialized for seed {self.handle}")
        return index


def plan_refuel(seeds: Mapping[int, TSSeed], dry: int, sweep: int,
                sweeps: int, floor: int) -> dict[int, np.ndarray]:
    """Which seeds a refuel re-plans, and each one's new window.

    Seed ``dry`` ran out of fresh positions during sweep ``sweep``
    (0-based) of ``sweeps``.  A sweep visits the seeds in ascending handle
    order, so each seed below ``dry`` has made ``sweep + 1`` visits and
    each seed above it ``sweep``.  A seed's demand is how far its
    consumption pointer advances; it is expected to demand, per visit,
    what it demanded per visit so far.  ``dry``'s unfinished visit is
    projected from the versions it has moved in it (those now assigned
    past where the visit began): the rest of the visit costs what those
    versions cost each, counting one more position and one more version
    than seen, and at most :data:`_PROJECTION_CAP` times what the visit
    consumed so far.

    The refuel set is ``dry`` plus every seed whose fresh range would not
    last :data:`_HEADROOM` of its expected next visits (or all the visits
    it has left, when fewer); every other seed's window carries over
    untouched.  A re-planned seed keeps its assigned positions and gets
    ``depth`` fresh ones: its expected demand for the rest of the run plus
    ``floor // _SLACK``, and at least ``floor``.  ``dry`` gets at least twice
    its last depth when it ran dry during the visit that depth was planned
    for.  A seed that has made no visit yet is expected to demand the
    median rate of those that have; if its fresh range falls short of
    that, its depth is a guess: ``floor`` — or, once a guessed seed has run
    dry, that seed's projected first visit plus ``floor // _SLACK``.

    Reads only TS-seed state and the sweep position, so every looper
    refuels at the same moments; the results do not depend on it, since
    the consumption pointer resumes wherever a refuel leaves it.  Returns
    ``{handle: new positions}`` and records each re-planned seed's depth.
    """
    states = list(seeds.values())
    count = len(states)
    handles = np.fromiter(seeds, dtype=np.int64, count=count)
    used = np.fromiter((ts.max_used for ts in states), dtype=np.float64,
                       count=count)
    first = np.fromiter((ts.first_used for ts in states), dtype=np.float64,
                        count=count)
    # Past ``max_used`` a window holds one contiguous fresh run.
    fresh = np.fromiter((ts.positions[-1] for ts in states),
                        dtype=np.float64, count=count) - used
    visits = sweep + (handles < dry)  # made, or (dry) being made
    rates = np.full(count, np.nan)
    made = visits > 0
    rates[made] = (used[made] - first[made]) / visits[made]
    at = int(np.flatnonzero(handles == dry)[0])
    ts = states[at]
    spent = ts.max_used - ts.visit_used + 1
    moved = int(np.count_nonzero(ts.assignment > ts.visit_used))
    rest = min(spent * (ts.assignment.size - moved) / (moved + 1),
               spent * _PROJECTION_CAP)
    rates[at] = (used[at] - first[at] + 1 + rest) / (visits[at] + 1)
    known = ~np.isnan(rates)
    expected = np.where(known, rates, np.median(rates[known]))
    ahead = sweeps - visits - 1  # visits left after the current or next
    join = (ahead >= 0) & (
        fresh < np.minimum(_HEADROOM, ahead + 1) * expected)
    join[at] = True
    slack = floor // _SLACK
    # A guessed window ran dry: the other guesses were short too.
    guess = max(floor, slack + math.ceil(rates[at])) if ts.guessed \
        else floor
    plans = {}
    for index in np.flatnonzero(join).tolist():
        ts, handle = states[index], int(handles[index])
        if index == at:
            depth = max(floor, slack + math.ceil(
                rest + rates[at] * ahead[at]))
            if ts.planned_for == visits[at]:
                depth = max(depth, 2 * ts.depth)
        elif known[index]:
            depth = max(floor, slack + math.ceil(
                rates[index] * (ahead[index] + 1)))
        else:
            depth = guess
        ts.depth, ts.planned_for = depth, int(visits[index])
        ts.guessed = not known[index]
        plans[handle] = ts.replenish_plan(depth)
    return plans
