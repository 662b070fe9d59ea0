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

:func:`plan_refuel` decides, when a seed's window runs dry or is about
to, which seeds the refuel re-plans and how deep (Sec. 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.engine.seeds import SeedInfo

__all__ = ["TSSeed", "consumption_rates", "plan_refuel", "replenish_plans"]

#: A re-planned seed gets this many times the fresh positions its
#: consumption per version predicts for the rest of the run: a sweep at
#: a higher cutoff rejects more, so the rate seen so far runs low.
_MARGIN = 1.25
#: ... plus ``floor // _SLACK`` more, so a seed whose estimate falls just
#: short does not refuel again for its last few positions.
_SLACK = 4
#: A seed's rate in the current sweep counts once it has finished this
#: many versions of it ...
_RECENT = 8
#: ... and at most this many times its rate over the run or the last
#: sweep: one version stuck on an extreme value can reject thousands of
#: candidates, and projecting that over every version left would
#: materialize millions.  A seed that outruns its estimate still grows
#: geometrically, by running dry.
_SURGE = 4


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
    #: looper took the seed up and when the current sweep began, the
    #: positions it consumed per version in the last sweep, and the fresh
    #: depth of its last window.
    first_used: int | None = None
    sweep_used: int | None = None
    sweep_rate: float = 0.0
    depth: int = 0

    def __post_init__(self):
        if self.first_used is None:
            self.first_used = self.max_used
        if self.sweep_used is None:
            self.sweep_used = self.max_used

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

    def begin_sweep(self, versions: int) -> None:
        """A sweep begins; the last one had ``versions`` versions (0:
        none yet)."""
        if versions:
            self.sweep_rate = (self.max_used - self.sweep_used) / versions
        self.sweep_used = self.max_used

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
        return replenish_plans([self], [fresh])[0]

    def index_of_position(self, position: int) -> int:
        """Index of ``position`` within the materialized list (or raise)."""
        index = int(np.searchsorted(self.positions, position))
        if index >= len(self.positions) or self.positions[index] != position:
            raise KeyError(
                f"position {position} not materialized for seed {self.handle}")
        return index


def replenish_plans(seeds: Sequence[TSSeed],
                    fresh: Sequence[int]) -> list[np.ndarray]:
    """:meth:`TSSeed.replenish_plan` for every seed of ``seeds`` (each
    with as many versions), ``fresh[i]`` new positions for
    ``seeds[i]``, the assigned positions of all of them sorted at
    once."""
    if min(fresh, default=1) < 1:
        raise ValueError(f"fresh count must be >= 1, got {min(fresh)}")
    if not seeds:
        return []
    # np.unique, by sort and neighbour compare: NumPy's hash-based
    # unique costs ~5x more on a few hundred positions.
    assigned = np.sort(np.stack([ts.assignment for ts in seeds]), axis=1)
    keep = np.ones(assigned.shape, dtype=bool)
    np.not_equal(assigned[:, 1:], assigned[:, :-1], out=keep[:, 1:])
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    assigned = assigned[keep]
    plans, start = [], 0
    for ts, count, end in zip(seeds, fresh, ends):
        # Assigned positions are all <= max_used < the new ones, and both
        # parts are sorted and duplicate-free, so the plan already is.
        plans.append(np.concatenate([
            assigned[start:end],
            np.arange(ts.max_used + 1, ts.max_used + 1 + count,
                      dtype=np.int64)]))
        start = end
    return plans


def consumption_rates(used: np.ndarray, done: np.ndarray) -> np.ndarray:
    """Stream positions a seed consumed per version it finished, with one
    position and one version of prior: it consumed ``used`` positions
    over ``done`` versions."""
    return (used + 1.0) / (done + 1.0)


def plan_refuel(seeds: Sequence[TSSeed], done: np.ndarray,
                current: np.ndarray, left: np.ndarray, dry: int | None,
                floor: int) -> dict[int, np.ndarray]:
    """Which seeds a refuel re-plans, and each one's new window.

    ``seeds[i]`` has finished ``done[i]`` versions of the run (versions
    of every sweep count, each once), ``current[i]`` of them in the
    current sweep, and has ``left[i]`` to go; ``dry`` is the index of
    the seed that ran out of fresh positions, or ``None`` for a refuel
    planned ahead of need.  A seed is expected to consume, per version,
    the most it consumed per version (:func:`consumption_rates`) over
    the run, over the last sweep, or over the current one once that has
    :data:`_RECENT` versions — at most :data:`_SURGE` times the other
    two: a later step's cutoff is higher, so its sweeps reject more.

    The refuel set is ``dry`` plus every seed whose fresh range falls
    short of :data:`_MARGIN` times its expected demand for the rest of
    its run; every other seed's window carries over untouched.  A
    re-planned seed keeps its assigned positions and gets ``depth``
    fresh ones: that much plus ``floor // _SLACK``, and at least
    ``floor``.  ``dry`` gets at least twice its last depth: a seed that
    outruns its estimate once tends to again.

    Reads only TS-seed state and version counts, which the looper keys
    on the versions its sweep order has finished; the results do not
    depend on it, since the consumption pointer resumes wherever a
    refuel leaves it.  Returns ``{handle: new positions}`` and records
    each re-planned seed's depth.
    """
    count = len(seeds)
    run, last, now = (np.fromiter(values, dtype=np.float64, count=count)
                      for values in (
                          (ts.max_used - ts.first_used for ts in seeds),
                          (ts.sweep_rate for ts in seeds),
                          (ts.max_used - ts.sweep_used for ts in seeds)))
    rates = np.maximum(consumption_rates(run, done), last)
    rates = np.where(current >= _RECENT, np.clip(
        consumption_rates(now, current), rates, _SURGE * rates), rates)
    # Past ``max_used`` a window holds one contiguous fresh run.
    fresh = np.fromiter((ts.positions[-1] - ts.max_used for ts in seeds),
                        dtype=np.float64, count=count)
    join = fresh < _MARGIN * rates * left
    if dry is not None:
        join[dry] = True
    depths = np.maximum(floor, np.ceil(_MARGIN * rates * left)
                        + floor // _SLACK).astype(np.int64)
    planned = []
    for index in np.flatnonzero(join).tolist():
        ts = seeds[index]
        depth = int(depths[index])
        ts.depth = depth if index != dry else max(depth, 2 * ts.depth)
        planned.append(ts)
    return {ts.handle: plan for ts, plan in zip(
        planned, replenish_plans(planned, [ts.depth for ts in planned]))}
