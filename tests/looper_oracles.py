"""Reference loopers the bit-identity tests hold ``GibbsLooper`` against.

``GibbsLooper`` runs one perturbation kernel — the batched one, which
evaluates a whole window of candidates for every remaining DB version in
one NumPy pass — and refuels by Δ-execution: the plan runs over the
refuel set's rows only, ``Instantiate`` merges only never-materialized
stream positions into them, and the looper splices those rows into its
tuples, keeping every per-version cache (Sec. 9: the refuel "only adds
new or currently assigned values").  The two paths they
replaced live here, as subclasses, so every equivalence test and golden
can still compare against them:

* :class:`ScalarKernelLooper` — Algorithm 3 literally: one version at a
  time, ``_PROPOSAL_BATCH`` candidates per step, each acceptance
  committed on its own, and seeds visited through Appendix A's priority
  queue of Gibbs tuples.
* :class:`FullRefuelLooper` — every refuel rebuilds every window from the
  streams and re-derives every cache from the assignments.
* :class:`ScalarFullLooper` — both at once.

:func:`looper_class` picks one by the old option spellings, and
:func:`planner_looper` runs a :class:`~repro.sql.Session`'s tail queries
on it.
"""

import contextlib
import heapq
from unittest import mock

import numpy as np

from repro.core.gibbs import GibbsStats
from repro.core.gibbs_looper import GibbsLooper
from repro.core.ts_seed import TSSeed
from repro.engine.errors import EngineError
from repro.engine.expressions import DictContext
from repro.sql import planner

_PROPOSAL_BATCH = 64
_INFINITY_KEY = (1 << 62)


class ScalarKernelLooper(GibbsLooper):
    """The scalar per-version perturbation kernel."""

    def _build_queue(self, resume_after: int | None) -> list[tuple[int, int]]:
        """Priority queue of (smallest unprocessed handle, tuple id).

        ``resume_after`` skips handles already processed in the current
        sweep — used when the queue is rebuilt after a replenishment
        discarded all Gibbs tuples mid-sweep (Sec. 9).
        """
        queue: list[tuple[int, int]] = []
        for index, gibbs_tuple in enumerate(self._tuples):
            key = _INFINITY_KEY
            for handle in gibbs_tuple.handles:
                if resume_after is None or handle > resume_after:
                    key = handle
                    break
            heapq.heappush(queue, (key, index))
        return queue

    def _perturb_all_seeds(self, cutoff: float, stats: GibbsStats) -> None:
        """One systematic Gibbs step over every seed, seed-major (Sec. 7)."""
        queue = self._build_queue(resume_after=None)
        while queue and queue[0][0] != _INFINITY_KEY:
            handle = queue[0][0]
            members = []
            while queue and queue[0][0] == handle:
                members.append(heapq.heappop(queue)[1])
            self._replenished_flag = False
            self._perturb_seed(handle, cutoff, stats)
            if self._replenished_flag:
                # The Gibbs tuples were rebuilt or re-windowed; empty the
                # queue and rebuild it for the remaining handles (Sec. 9).
                queue = self._build_queue(resume_after=handle)
                continue
            for index in members:
                next_handle = self._tuples[index].next_handle_after(handle)
                heapq.heappush(
                    queue,
                    (next_handle if next_handle is not None else _INFINITY_KEY,
                     index))

    def _perturb_seed(self, handle: int, cutoff: float,
                      stats: GibbsStats) -> None:
        """Gibbs-update every version's value for one TS-seed."""
        ts = self._seeds[handle]
        for version in range(self._version_count()):
            # Re-fetch per version: a replenishment rebuilds the tuple list.
            affected = self._tuples_of_seed.get(handle, ())
            if not affected:
                return
            self._update_version(ts, affected, version, cutoff, stats)

    def _update_version(self, ts: TSSeed, affected, version: int,
                        cutoff: float, stats: GibbsStats) -> None:
        """Rejection-sample a new stream position for one (seed, version)."""
        proposals_used = 0
        while proposals_used < self.max_proposals:
            start, stop = ts.fresh_index_range()
            if start >= stop:
                self._refuel_dry(ts.handle, version)
                affected = self._tuples_of_seed.get(ts.handle, ())
                if not affected:
                    return
                start, stop = ts.fresh_index_range()
                if start >= stop:
                    raise EngineError(
                        f"replenishment produced no fresh values for seed "
                        f"{ts.handle}")
            batch = min(_PROPOSAL_BATCH, stop - start,
                        self.max_proposals - proposals_used)
            delta_sum, delta_count, cand_values, cand_present = \
                self._candidate_deltas(ts, affected, version, start,
                                       start + batch)
            new_sums = self._sums[version] + delta_sum
            new_counts = self._counts[version] + delta_count
            new_totals = self._combine(new_sums, new_counts)
            acceptable = np.nonzero(new_totals >= cutoff)[0]
            if acceptable.size:
                hit = int(acceptable[0])
                stats.proposals += hit + 1
                stats.acceptances += 1
                position = int(ts.positions[start + hit])
                ts.consume_through(position)
                ts.assign(version, position)
                self._apply_acceptance(ts, affected, version, start + hit,
                                       cand_values, cand_present, hit)
                return
            stats.proposals += batch
            proposals_used += batch
            ts.consume_through(int(ts.positions[start + batch - 1]))
        stats.stalls += 1  # keep the current (valid) value

    def _candidate_deltas(self, ts: TSSeed, affected, version: int,
                          start: int, stop: int):
        """Aggregate deltas if seed ``ts`` moved to window slots [start, stop).

        Returns ``(delta_sum (B,), delta_count (B,), per-tuple candidate
        values, per-tuple candidate presence)`` where the per-tuple lists
        align with ``affected``.
        """
        width = stop - start
        delta_sum = np.zeros(width)
        delta_count = np.zeros(width)
        cand_values, cand_present = [], []
        for index in affected:
            gibbs_tuple = self._tuples[index]
            state = self._states[index]
            columns: dict[str, np.ndarray] = {}
            for name, det_value in gibbs_tuple.det.items():
                columns[name] = np.asarray(det_value)
            for name, rand_field in gibbs_tuple.rand.items():
                if rand_field.handle == ts.handle:
                    columns[name] = rand_field.values[start:stop]
                else:
                    columns[name] = np.asarray(state.values[name][version])
            context = DictContext(columns)
            if self.aggregate_expr is None:
                value = np.ones(width)
            else:
                value = np.broadcast_to(
                    np.asarray(self.aggregate_expr.evaluate(context),
                               dtype=np.float64), (width,))
            present = np.ones(width, dtype=bool)
            for slot, presence_field in enumerate(gibbs_tuple.presences):
                if presence_field.handle == ts.handle:
                    present = present & presence_field.flags[start:stop]
                else:
                    present = present & bool(state.presence[slot][version])
            if self.final_predicate is not None:
                present = present & np.broadcast_to(
                    np.asarray(self.final_predicate.evaluate(context),
                               dtype=bool), (width,))
            delta_sum += (np.where(present, value, 0.0)
                          - state.contribution[version])
            delta_count += (present.astype(np.float64)
                            - state.presence_count[version])
            cand_values.append(value)
            cand_present.append(present)
        return delta_sum, delta_count, cand_values, cand_present

    def _apply_acceptance(self, ts: TSSeed, affected, version: int,
                          window_index: int, cand_values, cand_present,
                          hit: int) -> None:
        """Commit an accepted proposal: caches, accumulators, assignments."""
        for list_pos, index in enumerate(affected):
            gibbs_tuple = self._tuples[index]
            state = self._states[index]
            new_value = float(cand_values[list_pos][hit])
            new_present = bool(cand_present[list_pos][hit])
            contribution = new_value if new_present else 0.0
            self._sums[version] += contribution - state.contribution[version]
            self._counts[version] += (float(new_present)
                                      - state.presence_count[version])
            state.contribution[version] = contribution
            state.presence_count[version] = float(new_present)
            # Only a multi-seed tuple holds per-version caches.
            for name, cached in state.values.items():
                rand_field = gibbs_tuple.rand[name]
                if rand_field.handle == ts.handle:
                    cached[version] = rand_field.values[window_index]
            for presence_field, cached in zip(gibbs_tuple.presences,
                                              state.presence):
                if presence_field.handle == ts.handle:
                    cached[version] = presence_field.flags[window_index]


class FullRefuelLooper(GibbsLooper):
    """Sec. 9 read literally: a refuel regenerates every window.

    No refuel is a Δ-execution over the refuel set's rows: the plan
    re-runs over every row and ``_ingest`` rebuilds every per-version
    cache from the assignments.  With ``delta_tracking`` off,
    ``Instantiate`` records no baseline to merge into, so each refuel
    gathers every planned position from the streams.
    """

    def _replenish(self, plans) -> None:
        self._context.delta_tracking = False
        super()._replenish(plans)

    def _refuel_rows(self, plans) -> bool:
        return False


class ScalarFullLooper(ScalarKernelLooper, FullRefuelLooper):
    """The scalar kernel with full refuels."""


_LOOPERS = {
    ("vectorized", "delta"): GibbsLooper,
    ("reference", "delta"): ScalarKernelLooper,
    ("vectorized", "full"): FullRefuelLooper,
    ("reference", "full"): ScalarFullLooper,
}


def looper_class(engine: str = "vectorized", replenishment: str = "delta"):
    """The looper that runs ``engine`` (``"vectorized"`` — the batched
    kernel — or ``"reference"`` — the scalar one) with ``replenishment``
    (``"delta"`` or ``"full"``) refuels."""
    return _LOOPERS[engine, replenishment]


@contextlib.contextmanager
def planner_looper(cls):
    """Plan every tail query on ``cls`` instead of ``GibbsLooper`` —
    how a session-level test runs an oracle through the SQL surface."""
    with mock.patch.object(planner, "GibbsLooper", cls):
        yield
