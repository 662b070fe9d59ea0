"""TS-seeds: the bookkeeping data structure of Sec. 6.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.seeds import SeedInfo

__all__ = ["TSSeed"]


@dataclass
class TSSeed:
    """Bookkeeping for one stream of random data during tail sampling."""

    info: SeedInfo
    #: Stream positions currently materialized inside the Gibbs tuples,
    #: ascending.  Fresh (never-used) positions are the suffix after
    #: ``max_used``.
    positions: np.ndarray
    #: Highest stream position consumed by any version (assigned *or*
    #: rejected); proposals start at the next materialized position.
    max_used: int
    #: ``assignment[v]`` = stream position currently held by DB version v.
    assignment: np.ndarray
    #: Replenish-plan memo: ``(fresh, plan)`` valid while the seed is
    #: untouched.  A replenishment refuels *every* seed, but between two
    #: replenishments only the seeds actually perturbed change state — the
    #: others' plans (``unique(assignment)`` + fresh range) are identical,
    #: so recomputing them each time is pure waste.
    _plan_memo: tuple[int, np.ndarray] | None = field(
        default=None, repr=False, compare=False)

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
                   assignment=positions[:versions].copy())

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
        self._plan_memo = None

    def assign(self, version: int, position: int) -> None:
        self.assignment[version] = position
        self._plan_memo = None

    # -- cloning and resizing ------------------------------------------------

    def clone_versions(self, source_indices: np.ndarray) -> None:
        """Overwrite the assignment column-by-column from elite versions.

        This is the single-pass overwrite of Appendix A: "the column in each
        TS-seed that records the assignment for DB version two is simply
        copied to the column for version one" — generalized to an arbitrary
        elite-to-version mapping, possibly changing the version count.
        """
        self.assignment = self.assignment[np.asarray(source_indices, dtype=np.int64)]
        self._plan_memo = None

    # -- replenishment --------------------------------------------------------

    def replenish_plan(self, fresh: int) -> np.ndarray:
        """Positions the next plan run must materialize for this seed.

        Currently assigned positions (still referenced by versions) plus
        ``fresh`` new ones after ``max_used`` — Sec. 9's "new or currently
        assigned values".
        """
        if fresh < 1:
            raise ValueError(f"fresh count must be >= 1, got {fresh}")
        if self._plan_memo is not None and self._plan_memo[0] == fresh:
            return self._plan_memo[1]
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
        plan = np.concatenate([assigned, new])
        self._plan_memo = (fresh, plan)
        return plan

    def pad_plan(self, plan: np.ndarray, width: int) -> np.ndarray:
        """Extend a replenish plan with further fresh positions to ``width``.

        All seeds share one materialization width (the bundle matrix is
        rectangular); seeds with fewer assigned positions simply carry more
        fresh values, which they would consume eventually anyway.
        """
        extra = width - len(plan)
        if extra < 0:
            raise ValueError(f"plan already wider than {width}")
        if extra == 0:
            return plan
        tail = np.arange(plan[-1] + 1, plan[-1] + 1 + extra, dtype=np.int64)
        return np.concatenate([plan, tail])

    def index_of_position(self, position: int) -> int:
        """Index of ``position`` within the materialized list (or raise)."""
        index = int(np.searchsorted(self.positions, position))
        if index >= len(self.positions) or self.positions[index] != position:
            raise KeyError(
                f"position {position} not materialized for seed {self.handle}")
        return index

    def value_at(self, position: int, component: int = 0) -> float:
        """Stream value at an absolute position (via the deterministic PRNG)."""
        return self.info.value(position, component)
