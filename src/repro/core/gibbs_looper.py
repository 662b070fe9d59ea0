"""The GibbsLooper operator (Sec. 7, Appendix A) with replenishment (Sec. 9).

The looper consumes the Gibbs tuples produced by a query plan and runs
Algorithm 3 over *database versions* — assignments of stream positions to
versions, tracked per TS-seed — rather than over materialized databases.
Key fidelity points, each mapped to the paper:

* **Loop inversion** — "it switches the inner and outer for loops of
  Algorithm 3 ... perturbs data values one at a time, looping through the
  DB versions, thereby amortizing expensive data scans" (Sec. 7).  The
  outer loop here runs over TS-seed handles in ascending order.
* **Priority queue** — Gibbs tuples live in a priority queue keyed by their
  smallest unprocessed TS-seed handle; after a seed is processed its tuples
  are reinserted keyed by their next-largest handle, or pushed to the tail
  (``infinity``) when no handles remain (Appendix A.2, Fig. 3).
* **Global consumption pointer** — rejection proposals always take the next
  *unused* stream value for the seed; rejected values are consumed and
  never reconsidered (TS-seed item 4; the 3.24 in Fig. 1 and the 21K in
  Fig. 3 are skipped permanently).
* **Cloning as a single pass** — elite-to-version overwriting copies one
  assignment column onto another in every TS-seed (Appendix A, Fig. 4b).
* **Replenishment** — when a seed's window runs dry mid-perturbation, all
  Gibbs tuples are discarded and the plan re-runs, materializing only new
  or currently assigned positions; deterministic sub-plans come from cache
  (Sec. 9).

One deliberate implementation difference: per-version *current* attribute
values and presence bits are cached in dense arrays instead of being looked
up through (position -> window index) indirection on every delta
evaluation.  The cache is rebuilt from TS-seed assignments on every
replenishment, so it is behaviorally identical to the paper's scheme and is
validated against it in the test suite.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.cloner import clone_indices
from repro.core.gibbs import GibbsStats
from repro.core.gibbs_tuple import GibbsTuple, tuples_from_relation
from repro.core.params import TailParams
from repro.core.ts_seed import TSSeed
from repro.engine.backends import make_backend
from repro.engine.bundles import BundleRelation
from repro.engine.errors import EngineError, PlanError
from repro.engine.expressions import DictContext, Expr
from repro.engine.operators import ExecutionContext, PlanNode
from repro.engine.options import ExecutionOptions
from repro.engine.table import Catalog

__all__ = ["LooperStepTrace", "LooperResult", "GibbsLooper",
           "GibbsSeedShard", "candidate_window_matrices"]

_SUPPORTED_AGGREGATES = ("sum", "count", "avg")
_PROPOSAL_BATCH = 64
#: Vectorized-kernel window sizing.  Purely vectorization knobs: window
#: boundaries never change which candidate is accepted, only how many are
#: evaluated per NumPy call.  Width grows with the observed rejection rate
#: (rejection-heavy seeds want long candidate runs for few versions), while
#: the row count shrinks with it (each row serves one DB version).
_VECTOR_BATCH = 128
_WINDOW_MAX_WIDTH = 4096
_WINDOW_TARGET_VERSIONS = 32
#: Speculation gate: pre-compute a follow-up window only when the seed's
#: current perturbation call shows real rejection pressure — at least
#: MIN_CONSUMED candidates burned, at most one version served per DENOM
#: candidates.  The prediction assumes the just-recorded window commits
#: nothing further, so seeds that accept often would waste almost every
#: pre-computation (and the sweep-start scatter, which serves *every*
#: seed's first window, must not trigger a blanket speculation wave).
_SPECULATION_RATE_DENOM = 8
_SPECULATION_MIN_CONSUMED = 512
#: Upper bound for adaptive window growth (``options.window_growth``):
#: past a megaposition window, replenishment cost is gather-dominated and
#: growing further only inflates the bundle matrices.
_WINDOW_GROWTH_CAP = 1 << 20
_INFINITY_KEY = (1 << 62)


@dataclass
class LooperStepTrace:
    """Per-bootstrapping-iteration record (feeds E1's timing table)."""

    step: int
    cutoff: float
    elite_count: int
    cloned_to: int
    stats: GibbsStats
    replenish_runs: int
    seconds: float


@dataclass
class LooperResult:
    """Output of the GibbsLooper: quantile estimate + tail samples."""

    quantile_estimate: float
    samples: np.ndarray
    trace: list[LooperStepTrace]
    params: TailParams
    plan_runs: int
    num_seeds: int
    num_tuples: int
    #: One dict per final version: TS-seed handle -> assigned stream position
    #: (the compact representation of the sampled database instance).
    assignments: list[dict[int, int]]
    #: Replenishment accounting (Sec. 9 / the delta protocol): how many
    #: window refuels rebuilt every bundle from the streams vs. merged only
    #: never-materialized positions, and the wall-clock spent in them.
    full_replenish_runs: int = 0
    delta_replenish_runs: int = 0
    replenish_seconds: float = 0.0
    #: Candidate windows served by backend workers — first windows of a
    #: sweep (both state modes) plus, under ``gibbs_state="worker"``,
    #: follow-up windows served from worker-owned state (0 when the run
    #: was serial, the plan was multi-seed, or the engine was
    #: ``"reference"``).  Diagnostics only — sharding never changes any
    #: other field.
    sharded_windows: int = 0
    #: The follow-up share of ``sharded_windows``: windows beyond a
    #: seed's scatter-prefetched first of the sweep, served from the
    #: worker owning that seed's state (rejection-heavy seeds are what
    #: drive this up).  Always 0 under ``gibbs_state="broadcast"``, whose
    #: workers are stateless and only ever see the pre-sweep snapshot.
    followup_windows: int = 0
    #: Worker-owned-state lifecycle accounting (``gibbs_state="worker"``):
    #: how often the full shard snapshot shipped (``init_state``) vs. how
    #: many replenishments kept the workers' state alive with a
    #: ``state_merge`` splice, and how many never-materialized window
    #: positions those splices carried in total.  Under
    #: ``state_reinit="full"`` every replenishment re-ships the snapshot,
    #: so ``worker_state_merges`` stays 0.
    worker_state_inits: int = 0
    worker_state_merges: int = 0
    merged_positions: int = 0
    #: Speculative follow-up prefetch (``speculate_followups``):
    #: ``speculated_windows`` counts follow-up windows resolved from the
    #: speculation buffer — no blocking state call — and
    #: ``wasted_speculations`` the pre-computed windows discarded because
    #: a commit/clone/merge (or a mispredicted geometry) invalidated them
    #: before use.  Diagnostics only; speculation never changes samples.
    speculated_windows: int = 0
    wasted_speculations: int = 0
    #: K-deep chain accounting (``speculate_depth``/``sweep_order``):
    #: ``speculation_chain_depth`` is the longest successor chain any
    #: owner piggybacked on a reply this run, and
    #: ``batched_notifications`` how many commit notifications rode a
    #: flushed ``apply_batch`` message instead of their own cast
    #: (``sweep_order="adaptive"`` only).  Diagnostics only — like every
    #: transport knob, neither ever changes the samples.
    speculation_chain_depth: int = 0
    batched_notifications: int = 0

    @property
    def total_stats(self) -> GibbsStats:
        merged = GibbsStats()
        for step in self.trace:
            merged.merge(step.stats)
        return merged

    def frequency_table(self) -> list[tuple[float, float]]:
        """Sec. 2's ``FTABLE(value, FRAC)`` over the tail samples."""
        values, counts = np.unique(self.samples, return_counts=True)
        return [(float(v), float(c) / len(self.samples))
                for v, c in zip(values, counts)]


class _TupleState:
    """Per-version cached state for one Gibbs tuple.

    ``values[col]`` and ``presence[j]`` hold the tuple's current attribute
    values / isPres bits under each version's assignment; ``value``/
    ``present`` are the resulting aggregate-argument contribution.
    """

    __slots__ = ("values", "presence", "value", "present")

    def __init__(self):
        self.values: dict[str, np.ndarray] = {}
        self.presence: list[np.ndarray] = []
        self.value: np.ndarray | None = None
        self.present: np.ndarray | None = None


def candidate_window_matrices(tuples: list[GibbsTuple],
                              states: list[_TupleState], handle: int,
                              aggregate_expr: Expr | None,
                              final_predicate: Expr | None,
                              first_version: int, count: int,
                              start: int, stop: int):
    """Batched candidate deltas for one seed's window — the Gibbs hot loop.

    Element ``[v, b]`` of ``delta_sum``/``delta_count`` (broadcast to
    ``(count, width)``) is exactly what the scalar reference path computes
    for version ``first_version + v`` and window slot ``start + b``, bit
    for bit, so the accept/reject decisions match too.  The argument:
    every intermediate stays at its natural broadcast rank — the
    perturbed seed's own window slice is ``(width,)``, another seed's
    per-version cache ``(count, 1)`` — and broadcasting evaluates an
    elementwise operation on such an operand to the very values it would
    produce on that operand repeated out to ``(count, width)``; each cell
    still goes through the same operations in the same per-tuple
    accumulation order as the dense form, which only repeated them.
    Nothing is densified before ``contribution - old_contribution``, and
    the first tuple's difference is the result instead of being added to
    a zero matrix: ``(c + 0.0) - o`` has the bits of ``0.0 + (c - o)``
    (both differ from ``c - o`` only for ``c = -0.0, o = +0.0``).
    ``cand_values``/``cand_present`` are read-only ``(count, width)``
    broadcast views — the commit only gathers single cells from them.

    A *pure* module-level function on purpose: it reads only the Gibbs
    tuples/states passed in (never global looper state), which is what
    lets the seed-axis sharding ship it to backend workers — by thread
    (shared references) or by process (pickled copies) — and still land
    on the same bits the in-process path produces.
    """
    shape = (count, stop - start)
    window = slice(start, stop)
    remaining = slice(first_version, first_version + count)
    delta_sum = delta_count = None
    cand_values, cand_present = [], []
    for gibbs_tuple, state in zip(tuples, states):
        columns: dict[str, np.ndarray] = {}
        for name, det_value in gibbs_tuple.det.items():
            columns[name] = np.asarray(det_value)
        for name, rand_field in gibbs_tuple.rand.items():
            if rand_field.handle == handle:
                columns[name] = rand_field.values[window]
            else:
                columns[name] = state.values[name][remaining, None]
        context = DictContext(columns)
        value = 1.0 if aggregate_expr is None else np.asarray(
            aggregate_expr.evaluate(context), dtype=np.float64)
        present = None  # None: present in every cell
        for presence_field, cached in zip(gibbs_tuple.presences,
                                          state.presence):
            flags = (presence_field.flags[window]
                     if presence_field.handle == handle
                     else cached[remaining, None])
            present = flags if present is None else present & flags
        if final_predicate is not None:
            flags = np.asarray(final_predicate.evaluate(context), dtype=bool)
            present = flags if present is None else present & flags
        if present is None:
            present, contribution, presence_count = np.True_, value, 1.0
        else:
            contribution = np.where(present, value, 0.0)
            presence_count = present.astype(np.float64)
        old_present = state.present[remaining]
        old_contribution = np.where(
            old_present, state.value[remaining], 0.0)[:, None]
        old_count = old_present.astype(np.float64)[:, None]
        if delta_sum is None:
            delta_sum = (contribution + 0.0) - old_contribution
            delta_count = presence_count - old_count
        else:
            delta_sum = delta_sum + (contribution - old_contribution)
            delta_count = delta_count + (presence_count - old_count)
        cand_values.append(np.broadcast_to(value, shape))
        cand_present.append(np.broadcast_to(present, shape))
    return delta_sum, delta_count, cand_values, cand_present


@dataclass
class _SeedWindowTask:
    """One seed's first-window inputs, frozen at sweep start."""

    handle: int
    start: int
    stop: int
    count: int
    tuples: list[GibbsTuple]
    states: list[_TupleState]


@dataclass
class _WindowPrefetchJob:
    """Seed-axis shard job: first candidate windows for a handle range.

    The Gibbs sweep is a Gauss–Seidel pass — each seed's accept/reject
    thresholds consult the *running* totals, so commits are inherently
    sequential in handle order.  What is NOT sequential, on plans whose
    Gibbs tuples carry a single seed handle each, is the expensive part:
    a seed's first candidate window of a sweep depends only on that
    seed's own tuples, windows and consumption pointer, all frozen since
    the sweep began.  Workers therefore evaluate the delta matrices for
    disjoint handle ranges in parallel, and the looper replays the
    sequential scan/commit over them in ascending handle order — merging
    in handle order is what keeps every shard geometry bit-identical to
    the serial sweep.

    Transport economics: the tuple/state snapshot changes every sweep
    (commits mutate it), so under the process backend the job is pickled
    per sweep — unlike the Monte Carlo executor there is no cross-sweep
    payload for the keyed shared channel to amortize.  This is the
    ``gibbs_state="broadcast"`` path, kept as the stateless baseline the
    transport benchmark compares against; the default
    ``gibbs_state="worker"`` ships the snapshot once via
    :class:`GibbsSeedShard` and replaces the per-sweep re-ship with
    commit notifications.
    """

    tasks: list[_SeedWindowTask]
    aggregate_expr: Expr | None
    final_predicate: Expr | None

    def run_shard(self, lo: int, hi: int) -> list:
        out = []
        for task in self.tasks[lo:hi]:
            matrices = candidate_window_matrices(
                task.tuples, task.states, task.handle,
                self.aggregate_expr, self.final_predicate,
                0, task.count, task.start, task.stop)
            out.append((task.handle, task.start, task.stop, task.count,
                        matrices))
        return out


class GibbsSeedShard:
    """Worker-owned seed state: one contiguous TS-seed handle range.

    The stateful counterpart of :class:`_WindowPrefetchJob` — instead of
    re-shipping the mutating tuple/state snapshot every sweep, this
    object is shipped to its owning backend worker **once**
    (``ExecutionBackend.init_state``) and kept in sync through small
    notifications for the rest of its life:

    * ``serve_window(s)`` — evaluate candidate windows (first windows of
      a sweep via scatter, follow-up windows for rejection-heavy seeds
      via a synchronous call), pure reads of the owned state;
    * ``apply_commit`` — replay one committed window's acceptances: the
      accepted window indices plus the new per-tuple aggregate
      contributions, a few hundred bytes against the snapshot's
      megabytes.  Window values/presence are re-gathered from the owned
      window arrays by index — pure gathers, so the mirror stays
      bit-identical to the looper's live state;
    * ``apply_clone`` — the between-step elite overwrite (Appendix A)
      as a single source-index gather per cached array.

    Why the *whole* protocol is expressible in such small messages: the
    Gauss–Seidel sweep's running totals live in the looper — a worker
    only ever needs a seed's own tuples, window arrays and per-version
    caches, and on single-seed plans (the only plans sharded at all)
    those are touched by exactly three events, all replayed above.  The
    serial backend applies this replay to a pickled mirror, which is how
    the property-based replay suite proves the notification stream is
    complete without a worker pool in the loop.

    Two later protocol extensions ride on the same three events:

    * ``apply_merge`` — the delta state re-init
      (``state_reinit="delta"``): after a structure-preserving delta
      replenishment, the sweep ships each owner a per-handle splice
      record — the new window length, the old->new keep mapping and
      *only* the never-materialized positions' values — and the owner
      rebuilds its window arrays in place while every per-version cache
      carries over untouched (stream values at kept positions cannot
      change; they are pure functions of position).  This is the
      worker-side mirror of the parent's ``replenishment="delta"`` fast
      path, and it replaces the discard + full snapshot re-ship.
    * Speculative follow-up serving (``speculate_followups`` +
      ``speculate_depth``): serve requests carry the seed's notification
      epoch, and the owner pre-computes a **chain** of successor windows
      — the requests the sweep will send next under continued rejection,
      each the successor of the one before it — and piggybacks the whole
      chain on the reply.  Chain length adapts per seed to the
      acceptance pressure the owner already tracks (``_chain_depth``):
      hot low-acceptance seeds get deep chains, seeds above the 1/8
      acceptance threshold get none.  An entry is only ever consumed
      while its exact parameters and epoch still match — i.e. while not
      a single commit/clone/merge has touched the seed and every earlier
      entry was consumed fully rejected — so every hit is bit-identical
      to the fresh computation it replaces, and the first mismatch kills
      the whole remaining chain (its premise is the prefix's).

    State lifecycle: created fresh per query (tokens never alias across
    queries), spliced in place by delta re-inits, invalidated (discarded)
    whenever replenishment actually rebuilds the tuple structure, and
    discarded at the end of the looper run — worker seed state can
    therefore never survive a ``Catalog.version`` bump, whose effects
    reach the looper only through a new query or a replenishment.

    Transport note: under the process backend's zero-copy data plane
    (``shm="on"``) the snapshot's bulk arrays arrive in the owner as
    *writable* views over a parent-owned shared-memory segment rather
    than private unpickled copies.  That is safe precisely because of
    the ownership story above — the segment copy belongs to this one
    owner, the parent never reads it back, and every mutation
    (``apply_commit``/``apply_clone``/``apply_merge``) already happens
    in place; the segment is unlinked when the state is discarded.
    """

    def __init__(self, seeds: dict, aggregate_expr: Expr | None,
                 final_predicate: Expr | None, speculate: bool = False,
                 speculate_depth: int = 1, adaptive: bool = False):
        #: handle -> (gibbs tuples, _TupleStates), this shard's range only.
        self.seeds = seeds
        self.aggregate_expr = aggregate_expr
        self.final_predicate = final_predicate
        self.speculate = speculate
        #: Chain-length cap (the ``speculate_depth`` knob); the actual
        #: per-seed depth adapts below it, see ``_chain_depth``.
        self.speculate_depth = speculate_depth
        #: Adaptive sweep scheduling (``sweep_order="adaptive"``): lets
        #: ``_chain_depth`` fall back to the *previous* perturbation
        #: call's acceptance counters right after a cursor reset, so hot
        #: seeds' chains are already warm on the sweep-start scatter.
        self.adaptive = adaptive
        #: Speculation buffer: handle -> list of (params, epoch,
        #: matrices) entries, each the successor of the one before it
        #: under continued rejection.  Consumed from the head; dead as a
        #: whole the moment any prefix entry mismatches.
        self._speculation: dict[int, list] = {}
        #: handle -> (consumed_total, served_total) of the seed's
        #: previous perturbation call, recorded when the sweep-start
        #: scatter resets the cursor.  Heuristic input to ``_chain_depth``
        #: only — entry geometry always derives from the live cursor.
        self._history: dict[int, tuple] = {}
        #: Mirror of the sweep's per-perturbation-call window cursor,
        #: handle -> [consumed_total, served_total, version, last_stop,
        #: last_count] — reset by the sweep-start scatter, advanced by
        #: every serve/note/commit.  This is the owner's per-seed
        #: acceptance-rate tracking (versions served per candidate
        #: consumed, in the current call) and, because the geometry of
        #: the *next* window is a pure function of the cursor (see
        #: _window_geometry), what lets the owner predict the sweep's
        #: next request exactly.
        self._call_state: dict[int, list] = {}

    def serve_window(self, handle: int, first_version: int, count: int,
                     start: int, stop: int):
        tuples, states = self.seeds[handle]
        return candidate_window_matrices(
            tuples, states, handle, self.aggregate_expr,
            self.final_predicate, first_version, count, start, stop)

    def serve_followup(self, handle: int, first_version: int, count: int,
                       start: int, stop: int, epoch: int,
                       first: bool = False) -> tuple:
        """One window + the speculated successor chain.

        Returns ``(matrices, chain)``.  The served matrices come from
        the chain head when the request matches it exactly (same
        parameters, same epoch — not a single commit/clone/merge touched
        the seed in between), else from a fresh ``serve_window`` — and a
        head mismatch kills the *whole* chain, because every later entry
        assumed the head's geometry.  Either way the owner then tops the
        chain back up to the seed's adaptive depth — the requests the
        sweep will send next if it keeps rejecting — and piggybacks the
        chain on the reply: the owned state cannot change before the
        next message arrives (messages apply in FIFO order), so each
        entry is bit-identical to what serving its request later would
        compute, for as long as its prefix premise holds.
        """
        key = (first_version, count, start, stop)
        chain = self._speculation.get(handle)
        matrices = None
        if chain:
            head = chain[0]
            if head[0] == key and head[1] == epoch:
                del chain[0]
                matrices = head[2]
            else:
                del self._speculation[handle]
        if matrices is None:
            matrices = self.serve_window(handle, first_version, count,
                                         start, stop)
        if first:
            call = self._call_state.get(handle)
            if call is not None and call[0]:
                self._history[handle] = (call[0], call[1])
            self._call_state[handle] = [0, 0, 0, 0, 0]
        self._advance_cursor(handle, first_version, count, start, stop)
        return matrices, self._speculate(handle, epoch)

    def serve_windows(self, requests: list) -> list:
        return [
            (handle, start, stop, count,
             *self.serve_followup(handle, first_version, count, start,
                                  stop, epoch, first=True))
            for handle, first_version, count, start, stop, epoch
            in requests]

    def note_speculation(self, handle: int, epoch: int) -> None:
        """The sweep consumed the chain head without a call.

        Advances the owner's call cursor exactly as serving that window
        would have (the buffered copy carries its parameters), then tops
        the chain back up — so a fully rejected streak costs one
        blocking call per *chain* instead of per window, the owner
        re-extending between messages while the sweep scans, and the
        bookkeeping never desynchronizes from the sweep.
        """
        chain = self._speculation.get(handle)
        if not chain or chain[0][1] != epoch:
            self._speculation.pop(handle, None)
            return  # stale note; the next serve re-syncs the cursor
        (first_version, count, start, stop), _, _ = chain.pop(0)
        self._advance_cursor(handle, first_version, count, start, stop)
        self._speculate(handle, epoch)

    def _advance_cursor(self, handle: int, first_version: int, count: int,
                        start: int, stop: int) -> None:
        """Record one window against the call cursor (serve or note).

        The consumption charge is provisional — the full width, as if
        every candidate were rejected; a following ``apply_commit``
        corrects it when the window actually served its whole row
        budget and stopped early.
        """
        call = self._call_state.setdefault(handle, [0, 0, 0, 0, 0])
        call[0] += stop - start
        call[2] = first_version
        call[3] = stop
        call[4] = count

    def _chain_depth(self, handle: int) -> int:
        """Adaptive chain length from the seed's acceptance pressure.

        0 below the speculation gate — a young cursor, or an observed
        acceptance rate above ``1/_SPECULATION_RATE_DENOM`` (such seeds'
        next request almost always follows a commit, which re-speculates
        with better information anyway); 1 at the gate, plus one entry
        per further doubling of candidates-consumed-per-version-served,
        capped at ``speculate_depth``.  Under adaptive sweep scheduling
        a freshly reset cursor falls back to the previous call's final
        counters (``_history``), so hot seeds keep deep chains across
        the sweep boundary instead of re-proving hotness with blocking
        calls each sweep.  The fallback influences only *whether and how
        deep* to pre-compute, never what: entry geometry always derives
        from the live cursor.
        """
        if self.speculate_depth < 1:
            return 0
        consumed_total, served_total = self._call_state[handle][:2]
        if consumed_total < _SPECULATION_MIN_CONSUMED and self.adaptive:
            consumed_total, served_total = self._history.get(handle, (0, 0))
        if consumed_total < _SPECULATION_MIN_CONSUMED or \
                served_total * _SPECULATION_RATE_DENOM > consumed_total:
            return 0
        pressure = consumed_total // max(served_total, 1)
        depth = 1
        while depth < self.speculate_depth and \
                pressure >= _SPECULATION_RATE_DENOM << depth:
            depth += 1
        return depth

    def _speculate(self, handle: int, epoch: int):
        """Top the seed's chain up to its adaptive depth, if worthwhile.

        The call cursor says where the consumption pointer and version
        stand if the windows recorded so far are the last word (no
        further commit); the walk below replays ``_advance_cursor``'s
        provisional full-width charge over the entries already queued,
        and ``_window_geometry`` is a pure function of that virtual
        cursor — so entry ``i`` is exactly the request the sweep sends
        after ``i`` fully rejected predecessors, and bit-identical to
        serving it then.  Any acceptance or stall breaks the premise for
        the whole remaining chain at once (each entry assumed its
        predecessors' geometry), which is why consumption clears the
        chain on the first mismatch instead of resyncing entry by entry.

        Returns a snapshot copy of the chain (the serial mirror must
        share entry tuples with the looper, never the mutable list
        itself) or ``None`` when there is nothing speculated.
        """
        chain = self._speculation.get(handle)
        if chain is None:
            chain = []
        depth = self._chain_depth(handle) if self.speculate else 0
        if len(chain) < depth:
            consumed_total, served_total, version, stop, _ = \
                self._call_state[handle]
            for (_, _, entry_start, entry_stop), _, _ in chain:
                consumed_total += entry_stop - entry_start
                stop = entry_stop
            tuples, states = self.seeds[handle]
            fresh_stop = self._window_length(tuples)
            version_count = states[0].present.shape[0]
            while len(chain) < depth and stop < fresh_stop:
                width, max_rows = GibbsLooper._window_geometry(
                    fresh_stop - stop, consumed_total, served_total)
                count = min(version_count - version, max_rows)
                if count <= 0:
                    break
                params = (version, count, stop, stop + width)
                chain.append((params, epoch,
                              self.serve_window(handle, *params)))
                consumed_total += width
                stop += width
        if not chain:
            self._speculation.pop(handle, None)
            return None
        self._speculation[handle] = chain
        return list(chain)

    @staticmethod
    def _window_length(tuples: list) -> int:
        """Materialized window length = the owned position-list length."""
        for field in tuples[0].rand.values():
            return field.values.shape[0]
        return tuples[0].presences[0].flags.shape[0]

    def apply_commit(self, handle: int, versions: np.ndarray,
                     indices: np.ndarray, values: np.ndarray,
                     present: np.ndarray, epoch: int = 0) -> None:
        """Replay ``GibbsLooper._apply_acceptances`` on the owned state.

        ``values``/``present`` carry the committed per-tuple aggregate
        contributions (row ``t`` aligns with the seed's ``t``-th tuple)
        exactly as the looper computed them, so no floating-point
        expression is ever re-evaluated here; everything else is an
        index gather from the owned window arrays.

        ``epoch`` is the seed's post-commit notification epoch: any
        speculation computed before this commit is dead (its epoch no
        longer matches), and the commit itself carries everything needed
        to re-speculate with *better* information — how many versions
        the window served and, when it served its full row budget, where
        the consumption pointer actually stopped.  The pre-computation
        happens here, between messages, so the sweep's next serve call
        finds the window already built.
        """
        self._speculation.pop(handle, None)  # epoch moved; chain is dead
        tuples, states = self.seeds[handle]
        for row, (gibbs_tuple, state) in enumerate(zip(tuples, states)):
            state.value[versions] = values[row]
            state.present[versions] = present[row]
            for name, rand_field in gibbs_tuple.rand.items():
                if rand_field.handle == handle:
                    state.values[name][versions] = rand_field.values[indices]
            for presence_field, cached in zip(gibbs_tuple.presences,
                                              state.presence):
                if presence_field.handle == handle:
                    cached[versions] = presence_field.flags[indices]
        call = self._call_state.get(handle)
        if call is not None and len(versions):
            accepted = len(versions)
            call[1] += accepted
            call[2] = int(versions[-1]) + 1
            if accepted == call[4]:
                # The window served its full row budget: the scan exited
                # at the version limit, right after the last acceptance —
                # so only [start, indices[-1]] was consumed, not the
                # whole width the serve provisionally recorded.
                pointer = int(indices[-1]) + 1
                call[0] -= call[3] - pointer
                call[3] = pointer
            self._speculate(handle, epoch)

    def apply_merge(self, records: list) -> None:
        """Splice a replenishment's merged windows into the owned tuples.

        Each record is ``(handle, size, n_fresh, keep_runs, rand_fresh,
        pres_fresh)``: the new window length, the surviving-slot mapping
        as run-length-encoded ``(old_start, new_start, length)`` triples
        (``None`` for the common case of an identity prefix — an
        untouched seed whose window only grew a fresh tail), and the
        freshly materialized values/flags per tuple, indexed like the
        handle's tuple list.  Runs, not index vectors, because the kept
        slots are almost entirely contiguous — the assigned positions up
        front plus one long overlap run — and an explicit index vector
        would weigh as much as the values it avoids shipping.  Kept
        slots are gathered from the *owned* arrays — bit-identical
        mirrors of the parent's pre-refuel windows, and stream values
        never change at a given position — so the spliced window equals
        the parent's merged one bit for bit while shipping only the
        never-materialized share.  Per-version caches (``_TupleState``)
        are untouched: replenishment widens windows, it never moves any
        version's assigned value.
        """
        self._speculation.clear()  # old windows' geometry is gone
        for (handle, size, n_fresh, keep_runs,
             rand_fresh, pres_fresh) in records:
            if keep_runs is None:
                n_keep = size - n_fresh
                keep_runs = np.array([[0, 0, n_keep]], dtype=np.int64)
            mask = np.ones(size, dtype=bool)
            for _, new_start, length in keep_runs:
                mask[new_start:new_start + length] = False
            fresh_dst = np.nonzero(mask)[0]

            def splice(old_values, fresh_values):
                merged = np.empty(size, dtype=old_values.dtype)
                for old_start, new_start, length in keep_runs:
                    merged[new_start:new_start + length] = \
                        old_values[old_start:old_start + length]
                merged[fresh_dst] = fresh_values
                return merged

            tuples, _ = self.seeds[handle]
            for row, gibbs_tuple in enumerate(tuples):
                for name, rand_field in gibbs_tuple.rand.items():
                    if rand_field.handle != handle:
                        continue
                    rand_field.values = splice(rand_field.values,
                                               rand_fresh[row][name])
                slot = 0
                for presence_field in gibbs_tuple.presences:
                    if presence_field.handle != handle:
                        continue
                    presence_field.flags = splice(presence_field.flags,
                                                  pres_fresh[row][slot])
                    slot += 1

    def apply_clone(self, sources: np.ndarray) -> None:
        """Replay ``GibbsLooper._clone`` on every owned seed's states."""
        self._speculation.clear()  # version axis re-mapped under it
        for tuples, states in self.seeds.values():
            for state in states:
                state.values = {name: values[sources]
                                for name, values in state.values.items()}
                state.presence = [flags[sources] for flags in state.presence]
                state.value = state.value[sources]
                state.present = state.present[sources]

    def apply_batch(self, ops: list) -> None:
        """Apply a flushed buffer of commit notifications, in issue order.

        Adaptive sweep scheduling (``sweep_order="adaptive"``) buffers
        ``apply_commit`` casts looper-side and flushes a whole sweep
        segment's worth as one message right before anything that
        depends on the mirrored state — a blocking serve, the next
        scatter, a merge, a clone, the discard drain.  In-order dispatch
        through ``getattr`` makes the batch observationally identical to
        the casts having been sent one by one, including for white-box
        suites that spy on the individual methods.
        """
        for method, args in ops:
            getattr(self, method)(*args)


class GibbsLooper:
    """Tail sampling over a tuple-bundle query plan.

    Parameters
    ----------
    plan:
        Physical plan producing the final pre-aggregation Gibbs tuples.
    aggregate_kind / aggregate_expr:
        The final aggregate (``sum``/``avg`` with an expression, ``count``
        with ``None``) from whose result distribution we sample.
    final_predicate:
        The pulled-up selection predicate applied per tuple before
        aggregation (e.g. ``sal2 > sal1`` in Fig. 2); may reference random
        columns from any number of seeds.
    params / num_samples / k:
        Algorithm 3 parameters (Appendix C) and the Gibbs step count.
    window:
        Stream values materialized per TS-seed per plan run (the paper uses
        1000 in Appendix D); also the replenishment granularity.
    options:
        :class:`~repro.engine.options.ExecutionOptions`; ``engine``
        selects between the batched NumPy perturbation kernel
        (``"vectorized"``, default) and the scalar per-version path
        (``"reference"``); ``n_jobs > 1`` shards the seed axis of the
        vectorized kernel's candidate-window evaluation across backend
        workers — stateful workers owning their handle ranges under
        ``gibbs_state="worker"`` (the default; commit-notification
        transport, follow-up windows served too) or stateless snapshot
        broadcast under ``"broadcast"``; ``window_growth > 1`` grows the
        refuel window geometrically after each replenishment.  Every
        combination produces bit-identical samples for the same
        ``base_seed`` — the contract tested by
        ``tests/test_engine_equivalence.py``.
    backend:
        Persistent :class:`~repro.engine.backends.ExecutionBackend` for
        seed-axis sharding (a Session passes its pool).  ``None`` with
        ``n_jobs > 1`` builds an ephemeral backend for the run.
    """

    def __init__(self, plan: PlanNode, catalog: Catalog, params: TailParams,
                 num_samples: int, aggregate_kind: str = "sum",
                 aggregate_expr: Expr | None = None,
                 final_predicate: Expr | None = None,
                 k: int = 1, window: int = 1000, base_seed: int = 0,
                 max_proposals: int = 100_000,
                 options: ExecutionOptions | None = None,
                 det_cache=None, backend=None, context=None):
        if aggregate_kind not in _SUPPORTED_AGGREGATES:
            raise PlanError(
                f"GibbsLooper supports {_SUPPORTED_AGGREGATES}, got "
                f"{aggregate_kind!r} (Appendix B: only insensitive "
                "aggregates admit efficient Gibbs updates)")
        if aggregate_kind != "count" and aggregate_expr is None:
            raise PlanError(f"{aggregate_kind.upper()} needs an expression")
        if num_samples < 1:
            raise ValueError(f"need >= 1 tail samples, got {num_samples}")
        if k < 1:
            raise ValueError(f"need >= 1 Gibbs step per iteration, got {k}")
        if window < max(params.n_steps):
            raise ValueError(
                f"window ({window}) must cover the largest step size "
                f"({max(params.n_steps)}) for the initial assignment")
        self.plan = plan
        self.catalog = catalog
        self.params = params
        self.num_samples = num_samples
        self.aggregate_kind = aggregate_kind
        self.aggregate_expr = aggregate_expr
        self.final_predicate = final_predicate
        self.k = k
        self.window = window
        self.base_seed = base_seed
        self.max_proposals = max_proposals
        self.options = options or ExecutionOptions()
        self.det_cache = det_cache
        self.backend = backend
        #: Retained ExecutionContext injected by a standing query.  The
        #: looper itself stays one-shot (fresh TS-seeds, fresh Gibbs
        #: trajectory — the bit-identity contract), but the context's
        #: materialized Instantiate windows survive across refreshes so
        #: the initial plan execution only gathers appended rows.
        self._injected_context = context

        # Run-time state (populated by run()).
        self._context: ExecutionContext | None = None
        self._seeds: dict[int, TSSeed] = {}
        self._tuples: list[GibbsTuple] = []
        self._states: list[_TupleState] = []
        self._tuples_of_seed: dict[int, list[int]] = {}
        # (tuples, versions) caches: the _TupleStates' value/present rows.
        self._value_matrix: np.ndarray | None = None
        self._present_matrix: np.ndarray | None = None
        self._sums: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self._versions = 0
        self._replenish_runs = 0
        self._replenished_flag = False
        self._full_replenish_runs = 0
        self._delta_replenish_runs = 0
        self._replenish_seconds = 0.0
        self._window_signature: tuple | None = None
        self._ingest_refreshed = False
        self._single_seed = False
        self._sharded_windows = 0
        self._followup_windows = 0
        self._owned_backend = None
        # Worker-owned seed state (gibbs_state="worker"): the backend
        # token, the handle -> shard ownership map, which shards still owe
        # a scattered first-window reply, and the collected-but-unconsumed
        # windows.  All reset by _discard_worker_state().
        self._state_token: int | None = None
        self._shard_of_handle: dict[int, int] = {}
        self._state_shard_count = 0
        self._scatter_pending: set[int] = set()
        self._prefetched_windows: dict[int, tuple] = {}
        # After a mid-sweep delta merge the remainder of the current
        # sweep builds its windows locally (commits still notify, so the
        # mirrors stay live); worker serving resumes at the next sweep's
        # scatter.  Remote-serving those windows would turn every
        # remaining seed's first window into a blocking round-trip —
        # strictly slower than the local build the discard path used.
        self._local_windows = False
        # Delta state re-init + speculative follow-up prefetch.
        # _spec_epoch[handle] counts the notifications (commits, clones,
        # merges) that touched a seed's worker-side state; a speculated
        # window is only consumable while the epoch it was computed under
        # still matches, which is the whole bit-identity argument.
        # The owners track the per-seed acceptance rates and call
        # cursors themselves (GibbsSeedShard); the sweep only holds the
        # piggybacked speculations and the epochs that guard them.
        self._spec_epoch: dict[int, int] = {}
        self._speculated: dict[int, list] = {}
        self._worker_state_inits = 0
        self._worker_state_merges = 0
        self._merged_positions = 0
        self._speculated_windows = 0
        self._wasted_speculations = 0
        self._speculation_chain_depth = 0
        # Adaptive sweep scheduling (sweep_order="adaptive"): per-shard
        # buffers of unsent commit notifications (flushed before any
        # message that reads the shard's mirror) and the looper-side
        # acceptance-pressure record that orders scatter requests
        # hottest-first.  Both pure transport: neither moves the
        # Gauss-Seidel seed visit order, which stays ascending-handle.
        self._batch_casts = False
        self._pending_casts: list[list] = []
        self._seed_pressure: dict[int, int] = {}
        self._batched_notifications = 0

    # -- public entry ---------------------------------------------------------

    def run(self) -> LooperResult:
        """Execute the full tail-sampling pipeline and return the result."""
        # Worker-owned seed state never outlives the query: discard is a
        # drain barrier, so a session's persistent pool carries zero
        # stale Gibbs state (or stale replies) into later queries,
        # whatever happened to this one.
        try:
            result = self._run()
        except BaseException:
            # Already unwinding: the discard is pure cleanup and must not
            # mask the original failure.
            try:
                self._discard_worker_state()
            except EngineError:
                pass
            raise
        else:
            # Healthy completion: an in-worker failure first surfacing
            # from the discard drain (a final-sweep notification that
            # failed, with no later call to report it) is a genuine
            # protocol error — let it fail the query loudly.
            self._discard_worker_state()
            return result
        finally:
            if self._owned_backend is not None:
                self._owned_backend.close()
                self._owned_backend = None

    def _run(self) -> LooperResult:
        versions = self.params.n_steps[0]
        injected = self._injected_context
        if injected is None:
            self._context = ExecutionContext(
                self.catalog, positions=self.window, aligned=False,
                base_seed=self.base_seed, det_cache=self.det_cache)
            self._context.delta_tracking = (
                self.options.replenishment == "delta")
        else:
            # Standing-query refresh: reuse the retained context so the
            # initial plan run extends the previous refresh's
            # materialized windows (delta Instantiate) instead of
            # regathering every stream.  Everything a prior run may have
            # left behind (replenishment position plans, window bases)
            # is reset; streams are pure functions of (seed, handle,
            # position), so extending old windows is bit-identical to a
            # fresh gather.
            self._context = injected
            injected.positions = self.window
            injected.aligned = False
            injected.position_plan = {}
            injected.window_bases = {}
            injected.delta_tracking = True
            injected.delta_mode = True
            injected.stable_handles = frozenset()
            injected.last_fresh_slots = {}
        plan_runs_before = self._context.plan_runs
        relation = self.plan.execute(self._context)
        self._context.plan_runs += 1
        initial_materialized = None
        if injected is not None:
            injected.delta_mode = False
            injected.delta_tracking = (
                self.options.replenishment == "delta")
            # The initial-window materializations (full shared windows,
            # not replenishment position plans) are the baseline the
            # *next* refresh extends; snapshot them before replenishment
            # overwrites the entries.
            initial_materialized = dict(injected.materialized)
        self._ingest(relation, versions, initial=True)

        next_sizes = list(self.params.n_steps[1:]) + [self.num_samples]
        clone_rng = np.random.default_rng(
            np.random.SeedSequence((self.base_seed, 0xC10E)))
        trace: list[LooperStepTrace] = []
        cutoff = -np.inf
        for step, (p_i, next_n) in enumerate(
                zip(self.params.p_steps, next_sizes), start=1):
            started = time.perf_counter()
            replenish_before = self._replenish_runs
            totals = self._totals()
            elite = max(1, int(round(p_i * totals.size)))
            order = np.argsort(totals, kind="stable")
            cutoff = float(totals[order[-elite]])
            keep = np.nonzero(totals >= cutoff)[0]
            sources = keep[clone_indices(keep.size, next_n, clone_rng)]
            self._clone(sources)
            stats = GibbsStats()
            for _ in range(self.k):
                self._perturb_all_seeds(cutoff, stats)
            trace.append(LooperStepTrace(
                step=step, cutoff=cutoff, elite_count=int(keep.size),
                cloned_to=next_n, stats=stats,
                replenish_runs=self._replenish_runs - replenish_before,
                seconds=time.perf_counter() - started))

        samples = self._totals()
        assignments = [
            {handle: int(ts.assignment[v]) for handle, ts in self._seeds.items()}
            for v in range(samples.size)]
        if initial_materialized is not None:
            self._context.materialized = initial_materialized
        return LooperResult(
            quantile_estimate=cutoff, samples=samples, trace=trace,
            params=self.params,
            plan_runs=self._context.plan_runs - plan_runs_before,
            num_seeds=len(self._seeds), num_tuples=len(self._tuples),
            assignments=assignments,
            full_replenish_runs=self._full_replenish_runs,
            delta_replenish_runs=self._delta_replenish_runs,
            replenish_seconds=self._replenish_seconds,
            sharded_windows=self._sharded_windows,
            followup_windows=self._followup_windows,
            worker_state_inits=self._worker_state_inits,
            worker_state_merges=self._worker_state_merges,
            merged_positions=self._merged_positions,
            speculated_windows=self._speculated_windows,
            wasted_speculations=self._wasted_speculations,
            speculation_chain_depth=self._speculation_chain_depth,
            batched_notifications=self._batched_notifications)

    # -- ingestion and caches ---------------------------------------------------

    def _ingest(self, relation: BundleRelation, versions: int,
                initial: bool) -> None:
        """(Re)build tuples, TS-seeds and per-version caches from a plan run.

        Under delta replenishment, a re-run whose output has the same
        tuple structure (rows, lineage, presence pattern) as the last one
        takes a fast path: the per-version value/presence caches and the
        accumulators are *kept* — replenishment never changes any
        version's assigned values, only widens the windows — and only the
        window views inside the Gibbs tuples are swapped for the merged
        ones.
        """
        signature = self._relation_signature(relation)
        self._ingest_refreshed = (
            not initial and self.options.replenishment == "delta"
            and self._signatures_match(signature))
        if self._ingest_refreshed:
            self._refresh_windows(relation)
            self._window_signature = signature
            return
        self._versions = versions
        self._tuples = tuples_from_relation(relation)
        self._validate_columns(relation)
        # Seed-axis sharding precondition: with one handle per tuple, the
        # tuple/state partition across seeds is disjoint, so a seed's
        # candidate matrices depend on no other seed's in-sweep commits.
        self._single_seed = all(
            len(gibbs_tuple.handles) == 1 for gibbs_tuple in self._tuples)
        handles_in_play = set()
        for gibbs_tuple in self._tuples:
            handles_in_play.update(gibbs_tuple.handles)

        if initial:
            self._seeds = {}
            for handle in sorted(handles_in_play):
                info = self._context.seed_info(handle)
                self._seeds[handle] = TSSeed.initial(
                    info, self._context.positions_for(handle), versions)
        else:
            # Replenishment: seeds persist; refresh their materialized lists.
            for handle in sorted(handles_in_play):
                if handle not in self._seeds:
                    # A tuple resurfaced whose seed never mattered before.
                    info = self._context.seed_info(handle)
                    self._seeds[handle] = TSSeed.initial(
                        info, self._context.positions_for(handle), versions)
                else:
                    self._seeds[handle].positions = (
                        self._context.positions_for(handle))

        self._tuples_of_seed = {}
        for index, gibbs_tuple in enumerate(self._tuples):
            for handle in gibbs_tuple.handles:
                self._tuples_of_seed.setdefault(handle, []).append(index)

        self._rebuild_states(relation)
        self._window_signature = signature

    @staticmethod
    def _relation_signature(relation: BundleRelation) -> tuple:
        """Structural identity of a plan output: rows, lineage, presence.

        Two runs with equal signatures produced the same Gibbs tuples in
        the same order (same surviving rows, same seed handles per random
        column, same non-vacuous presence pattern) — only their window
        contents may differ, which is exactly what the delta fast path
        swaps in place.
        """
        rand = tuple((name, column.seed_handles)
                     for name, column in relation.rand_columns.items())
        presence = tuple((presence.seed_handles, presence.flags.all(axis=1))
                         for presence in relation.presence)
        return (relation.length, rand, presence)

    def _signatures_match(self, signature: tuple) -> bool:
        previous = self._window_signature
        if previous is None or previous[0] != signature[0]:
            return False
        if len(previous[1]) != len(signature[1]) or \
                len(previous[2]) != len(signature[2]):
            return False
        for (old_name, old_handles), (name, handles) in zip(
                previous[1], signature[1]):
            if old_name != name or not np.array_equal(old_handles, handles):
                return False
        for (old_handles, old_vacuous), (handles, vacuous) in zip(
                previous[2], signature[2]):
            if not (np.array_equal(old_handles, handles)
                    and np.array_equal(old_vacuous, vacuous)):
                return False
        return True

    def _refresh_windows(self, relation: BundleRelation) -> None:
        """Swap merged window views into the existing tuples and seeds.

        Values at every assigned position are unchanged (streams are pure
        functions of position), so the per-version caches, accumulators,
        states and the tuple/seed index structures all carry over; only
        the materialized window arrays — consulted by future candidate
        evaluations — and each moved seed's position list are new.
        Every tuple is re-pointed, stable seed or not: a view left on the
        previous run's matrix would keep that whole matrix alive.
        """
        rand_items = list(relation.rand_columns.items())
        vacuous = [presence.flags.all(axis=1) for presence in relation.presence]
        for row, gibbs_tuple in enumerate(self._tuples):
            for name, column in rand_items:
                gibbs_tuple.rand[name].values = column.values[row]
            slot = 0
            for p_index, presence in enumerate(relation.presence):
                if vacuous[p_index][row]:
                    continue
                gibbs_tuple.presences[slot].flags = presence.flags[row]
                slot += 1
        stable = self._context.stable_handles
        for handle, ts in self._seeds.items():
            if handle not in stable:
                ts.positions = self._context.positions_for(handle)
        if self._states:
            # Re-derived exactly as a full rebuild would, for _replenish's
            # invariant check against the running accumulators (which it
            # restores afterwards: the refuel schedule must not leave a
            # rounding fingerprint on the accumulator trajectory).
            self._accumulate_states()

    def _validate_columns(self, relation: BundleRelation) -> None:
        known = set(relation.det_columns) | set(relation.rand_columns)
        wanted = set()
        if self.aggregate_expr is not None:
            wanted |= self.aggregate_expr.columns()
        if self.final_predicate is not None:
            wanted |= self.final_predicate.columns()
        missing = wanted - known
        if missing:
            raise PlanError(
                f"aggregate/predicate reference unknown columns "
                f"{sorted(missing)}; plan provides {sorted(known)}")

    def _rebuild_states(self, relation: BundleRelation) -> None:
        """Recompute per-version caches and accumulators from assignments.

        Fully vectorized over the tuple axis: every random column's
        per-version values are gathered with one ``take_along_axis``, the
        aggregate expression and predicates are evaluated once over
        ``(tuples, versions)`` matrices, and the accumulators use
        strict-row-order ``cumsum`` summation — elementwise identical to
        the per-tuple reference loop, whose accumulation order it
        reproduces exactly.
        """
        versions = self._versions
        count = len(self._tuples)
        index_of = {
            handle: np.searchsorted(ts.positions, ts.assignment)
            for handle, ts in self._seeds.items()}
        self._states = []
        if not count:
            self._sums = np.zeros(versions)
            self._counts = np.zeros(versions)
            return

        columns: dict[str, np.ndarray] = {}
        gathered: dict[str, np.ndarray] = {}
        for name, column in relation.rand_columns.items():
            index_matrix = np.stack(
                [index_of[int(handle)] for handle in column.seed_handles])
            gathered[name] = np.take_along_axis(
                column.values, index_matrix, axis=1)
            columns[name] = gathered[name]
        for name, det_values in relation.det_columns.items():
            columns[name] = det_values.reshape(count, 1)
        context = DictContext(columns)

        if self.aggregate_expr is None:
            value_matrix = np.ones((count, versions))
        else:
            value_matrix = np.broadcast_to(
                np.asarray(self.aggregate_expr.evaluate(context),
                           dtype=np.float64), (count, versions))
            if not value_matrix.flags.writeable:
                value_matrix = value_matrix.copy()
        present_matrix = np.ones((count, versions), dtype=bool)
        gathered_presence = []
        vacuous_rows = []
        for presence in relation.presence:
            index_matrix = np.stack(
                [index_of[int(handle)] for handle in presence.seed_handles])
            flags = np.take_along_axis(presence.flags, index_matrix, axis=1)
            # Vacuous (all-true) rows were dropped from the Gibbs tuples;
            # AND-ing them here is an exact no-op, so the combined
            # presence matches the per-tuple loop.
            present_matrix &= flags
            gathered_presence.append(flags)
            vacuous_rows.append(presence.flags.all(axis=1))
        if self.final_predicate is not None:
            present_matrix &= np.broadcast_to(
                np.asarray(self.final_predicate.evaluate(context),
                           dtype=bool), (count, versions))

        for row, gibbs_tuple in enumerate(self._tuples):
            state = _TupleState()
            for name in gibbs_tuple.rand:
                state.values[name] = gathered[name][row]
            for flags, vacuous in zip(gathered_presence, vacuous_rows):
                if not vacuous[row]:
                    state.presence.append(flags[row])
            state.value = value_matrix[row]
            state.present = present_matrix[row]
            self._states.append(state)
        self._value_matrix, self._present_matrix = value_matrix, present_matrix
        self._accumulate_states()

    def _accumulate_states(self) -> None:
        """Accumulators from the contribution caches, in strict row order
        (cf. MonteCarloExecutor._ordered_sum): cumsum is sequential, so
        inserting the tuples one at a time — the reference behavior —
        rounds identically."""
        self._sums = np.cumsum(
            np.where(self._present_matrix, self._value_matrix, 0.0),
            axis=0)[-1]
        self._counts = np.cumsum(self._present_matrix, axis=0,
                                 dtype=np.float64)[-1]

    def _version_count(self) -> int:
        return self._versions

    def _totals(self) -> np.ndarray:
        if self.aggregate_kind == "sum":
            return self._sums.copy()
        if self.aggregate_kind == "count":
            return self._counts.copy()
        with np.errstate(invalid="ignore"):
            return np.where(self._counts > 0, self._sums /
                            np.maximum(self._counts, 1), -np.inf)

    # -- cloning ---------------------------------------------------------------

    def _clone(self, sources: np.ndarray) -> None:
        """Overwrite versions from elite sources (single pass, Appendix A)."""
        sources = np.asarray(sources, dtype=np.int64)
        self._versions = sources.size
        for ts in self._seeds.values():
            ts.clone_versions(sources)
        if self._states:
            self._value_matrix = np.take(self._value_matrix, sources, axis=1)
            self._present_matrix = np.take(self._present_matrix, sources,
                                           axis=1)
        for row, state in enumerate(self._states):
            state.values = {name: values[sources]
                            for name, values in state.values.items()}
            state.presence = [flags[sources] for flags in state.presence]
            state.value = self._value_matrix[row]
            state.present = self._present_matrix[row]
        self._sums = self._sums[sources]
        self._counts = self._counts[sources]
        if self._state_token is not None:
            # Between-step fan-out: every worker replays the elite
            # overwrite on its owned states (the sources array is the
            # whole message; version counts may change with it).  Every
            # speculation dies with it — the version axis it was computed
            # against no longer exists.  Buffered commits flush first:
            # the clone gathers from the state they mutate.
            self._flush_casts()
            self._ensure_backend().state_cast_all(
                self._state_token, "apply_clone", sources)
            self._invalidate_speculations()

    # -- perturbation ------------------------------------------------------------

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

    def _ensure_backend(self):
        """The shard backend: the injected (session) one, else an owned one."""
        if self.backend is not None:
            return self.backend
        if self._owned_backend is None:
            self._owned_backend = make_backend(self.options)
        return self._owned_backend

    def _prefetch_first_windows(self) -> dict:
        """Seed-axis sharding: evaluate first candidate windows in parallel.

        Partitions the TS-seed handles (ascending) into
        ``options.shard_bounds`` ranges and has backend workers evaluate
        each seed's first window of the sweep.  Applies only when Gibbs
        tuples are single-seed — then a seed's window depends on no other
        seed's in-sweep commits, so the pre-sweep snapshot the workers
        read is exactly what the serial path would read.  The sweep
        itself stays sequential in handle order (the acceptance totals
        are Gauss–Seidel state), which is why any shard geometry merges
        back bit-identical.  Dry seeds are skipped — the sweep replenishes
        when it reaches them, discarding all prefetches anyway.
        """
        options = self.options
        if (options.n_jobs <= 1 or options.engine != "vectorized"
                or not self._single_seed or len(self._tuples_of_seed) < 2):
            return {}
        tasks = []
        for handle, _, count, start, stop in self._first_window_requests():
            affected = self._tuples_of_seed[handle]
            tasks.append(_SeedWindowTask(
                handle, start, stop, count,
                [self._tuples[index] for index in affected],
                [self._states[index] for index in affected]))
        if len(tasks) < 2:
            return {}
        bounds = options.shard_bounds(len(tasks))
        if len(bounds) == 1:
            return {}
        job = _WindowPrefetchJob(tasks, self.aggregate_expr,
                                 self.final_predicate)
        prefetched = {}
        for shard in self._ensure_backend().run_job(job, bounds):
            for handle, start, stop, count, matrices in shard:
                prefetched[handle] = (start, stop, count, matrices)
        return prefetched

    def _first_window_requests(self) -> list[tuple]:
        """``(handle, first_version, count, start, stop)`` for every
        non-dry seed's first window of the sweep.

        The one place this geometry is derived: both sharded state
        placements consume it, and it reproduces exactly what the serial
        path's first ``_window_geometry`` call per seed would build —
        which is what makes a prefetched/served first window
        interchangeable with a locally built one.  Dry seeds are skipped:
        the sweep replenishes when it reaches them, discarding every
        prefetch anyway.
        """
        requests = []
        for handle in sorted(self._tuples_of_seed):
            ts = self._seeds[handle]
            start, stop = ts.fresh_index_range()
            if start >= stop:
                continue
            width, max_rows = self._window_geometry(stop - start, 0, 0)
            count = min(self._version_count(), max_rows)
            requests.append((handle, 0, count, start, start + width))
        return requests

    # -- worker-owned seed state (gibbs_state="worker") -----------------------

    def _worker_state_enabled(self) -> bool:
        """Stateful sharding preconditions, re-checked every sweep.

        Same gate as the broadcast prefetch — vectorized engine,
        single-seed tuples, at least two seeds split into at least two
        shard ranges — plus the knob itself.  Multi-seed plans keep the
        serial fallback either way.
        """
        options = self.options
        if (options.gibbs_state != "worker" or options.n_jobs <= 1
                or options.engine != "vectorized" or not self._single_seed
                or len(self._tuples_of_seed) < 2):
            return False
        return len(options.shard_bounds(len(self._tuples_of_seed))) > 1

    def _begin_worker_sweep(self) -> None:
        """Init worker-owned state if needed, then scatter first windows.

        The init ships each shard its handle range's tuples and states
        exactly once (per query, and again after any replenishment
        invalidated them); every later sweep starts with one
        ``serve_windows`` scatter per shard — request tuples of a few
        integers — whose replies the sweep collects lazily as it reaches
        each shard's first handle.
        """
        backend = self._ensure_backend()
        handles = sorted(self._tuples_of_seed)
        # Speculation needs the owners to see the notification stream
        # (commits/notes drive their bookkeeping); the thread transport
        # elides casts by design — its "owner" is the caller's own
        # objects and calls run inline, so there is no latency to hide —
        # and therefore never speculates.
        speculate = (self.options.speculate_followups
                     and backend.state_casts_apply())
        if self._state_token is None:
            bounds = self.options.shard_bounds(len(handles))
            limit = backend.state_shard_limit()
            if limit is not None and len(bounds) > limit:
                # Ownership is per-worker on this transport (see
                # state_shard_limit): repartition into exactly `limit`
                # contiguous ranges.  Which partition is chosen never
                # shows in the results — windows are computed per seed.
                size = -(-len(handles) // limit)  # ceil division
                bounds = [(lo, min(lo + size, len(handles)))
                          for lo in range(0, len(handles), size)]
            payloads = []
            shard_of: dict[int, int] = {}
            for shard, (lo, hi) in enumerate(bounds):
                seeds = {}
                for handle in handles[lo:hi]:
                    members = self._tuples_of_seed[handle]
                    seeds[handle] = (
                        [self._tuples[index] for index in members],
                        [self._states[index] for index in members])
                    shard_of[handle] = shard
                payloads.append(GibbsSeedShard(
                    seeds, self.aggregate_expr, self.final_predicate,
                    speculate=speculate,
                    speculate_depth=self.options.speculate_depth,
                    adaptive=self.options.sweep_order == "adaptive"))
            self._state_token = backend.init_state(payloads)
            self._shard_of_handle = shard_of
            self._state_shard_count = len(bounds)
            self._worker_state_inits += 1
        # Commit batching rides the same transport condition as
        # speculation: the thread backend's casts are elided no-ops, so
        # there is nothing to coalesce.
        self._batch_casts = (self.options.sweep_order == "adaptive"
                             and backend.state_casts_apply())
        if len(self._pending_casts) != self._state_shard_count:
            self._pending_casts = [
                [] for _ in range(self._state_shard_count)]
        requests: list[list] = [[] for _ in range(self._state_shard_count)]
        for handle, first_version, count, start, stop in \
                self._first_window_requests():
            # Scatter requests carry the seed's notification epoch and
            # reset the owner's call cursor (first=True inside
            # serve_windows): the sweep-start scatter is the one moment
            # both sides agree the per-call bookkeeping is zero.
            requests[self._shard_of_handle[handle]].append(
                (handle, first_version, count, start, stop,
                 self._spec_epoch.get(handle, 0)))
        if self.options.sweep_order == "adaptive":
            # Serve hot (rejection-heavy) seeds first within each shard:
            # their first windows — and, with warm chains, their whole
            # opening streaks — are ready when the sequential
            # Gauss-Seidel consumer reaches them.  Pure request-list
            # ordering: replies are keyed by handle and each request is
            # served independently, so the sweep's ascending-handle
            # visit order (the bit-identity contract) is untouched.
            for shard_requests in requests:
                shard_requests.sort(key=lambda request: (
                    -self._seed_pressure.get(request[0], 0), request[0]))
        # The previous sweep's tail of buffered commits must land before
        # the scatter reads the mirrors it mutates.
        self._flush_casts()
        backend.state_scatter(self._state_token, "serve_windows",
                              [(shard_requests,) for shard_requests
                               in requests])
        self._scatter_pending = set(range(self._state_shard_count))
        self._local_windows = False

    def _take_prefetched(self, handle: int):
        """Pop ``handle``'s scattered first window, collecting its shard.

        Collection is lazy per shard: the sweep blocks on a shard's reply
        only when it reaches that shard's first handle, so later shards
        keep computing while earlier ones are swept.
        """
        if self._state_token is None:
            return None
        shard = self._shard_of_handle.get(handle)
        if shard is None:
            return None
        if shard in self._scatter_pending:
            self._scatter_pending.discard(shard)
            served = self._ensure_backend().state_collect(
                self._state_token, shard)
            for (entry_handle, start, stop, count, matrices,
                 chain) in served:
                self._prefetched_windows[entry_handle] = (
                    start, stop, count, matrices)
                stale = self._speculated.pop(entry_handle, None)
                if stale:
                    self._wasted_speculations += len(stale)
                if chain:
                    self._speculated[entry_handle] = list(chain)
                    self._speculation_chain_depth = max(
                        self._speculation_chain_depth, len(chain))
        return self._prefetched_windows.pop(handle, None)

    def _discard_worker_state(self) -> None:
        """Invalidate worker-owned state (replenishment, end of run).

        A drain barrier on the process transport: after it returns, no
        scatter reply or notification of the old state is in flight, so
        nothing stale can surface in a later sweep or query.
        """
        if self._state_token is None:
            return
        # Flush, don't drop: the serial mirror's completeness contract
        # (every notification eventually applied) is what the replay
        # suites verify, and the final sweep's buffered commits are part
        # of the stream.
        self._flush_casts()
        token, self._state_token = self._state_token, None
        self._shard_of_handle = {}
        self._state_shard_count = 0
        self._scatter_pending = set()
        self._prefetched_windows = {}
        self._wasted_speculations += sum(
            len(chain) for chain in self._speculated.values())
        self._speculated = {}
        self._spec_epoch = {}
        self._batch_casts = False
        self._pending_casts = []
        backend = self.backend if self.backend is not None \
            else self._owned_backend
        if backend is not None:
            backend.discard_state(token)

    def _merge_worker_state(self, old_positions: dict) -> None:
        """Delta state re-init: splice the refuel into the live shards.

        Called right after a structure-preserving delta replenishment
        (``_refresh_windows`` path) with the pre-refuel position vectors;
        ``_replenish`` drained the scatter replies and flushed the
        buffered commits before the re-run.  Drops every
        prefetched/speculated window — all of them index into the
        pre-refuel window geometry — then ships each owning worker one
        ``state_merge`` with the per-handle splice records built by
        :meth:`_merge_record`.  FIFO ordering lands the merge before any
        later message of this state, so by the next sweep's scatter the
        mirrors are bit-identical to the parent's merged windows without
        the snapshot ever re-shipping; the remainder of the *current*
        sweep builds windows locally (``_local_windows``) while its
        commits keep notifying the mirrors.
        """
        backend = self._ensure_backend()
        self._prefetched_windows = {}
        self._invalidate_speculations()
        # The thread transport's state IS the caller's refreshed objects
        # (state_merge is a deliberate no-op there) — building the value
        # payloads would be pure waste, so only the splice *shape* is
        # derived, keeping the merge counters transport-independent.
        with_values = backend.state_casts_apply()
        records: list[list] = [[] for _ in range(self._state_shard_count)]
        fresh_slots = self._context.last_fresh_slots
        for handle, shard in self._shard_of_handle.items():
            record = self._merge_record(handle, old_positions[handle],
                                        fresh_slots.get(handle),
                                        with_values)
            if record is not None:
                records[shard].append(record)
                self._merged_positions += record[2]
        if with_values:
            for shard, shard_records in enumerate(records):
                if shard_records:
                    backend.state_merge(self._state_token, shard,
                                        "apply_merge", shard_records)
        self._worker_state_merges += 1
        self._local_windows = True

    def _merge_record(self, handle: int, old: np.ndarray, fresh_slots,
                      with_values: bool = True):
        """One handle's splice record, or ``None`` if nothing changed.

        ``fresh_slots`` is Instantiate's merged-position delta for the
        handle (indices into the new position vector gathered fresh from
        the streams); when the plan run could not provide one (a full
        gather, say), the delta is re-derived from the position vectors —
        stream values are pure functions of position, so any slot whose
        position survived may be kept, whichever path materialized it.
        The common untouched-seed case — the new window is the old one
        plus a fresh tail — collapses to ``keep_src=None`` (identity
        prefix), shipping no index arrays at all.
        """
        ts = self._seeds[handle]
        new = ts.positions
        if new is old or (new.size == old.size
                          and np.array_equal(new, old)):
            return None
        members = self._tuples_of_seed[handle]
        overlap = min(old.size, new.size)
        if np.array_equal(new[:overlap], old[:overlap]):
            keep_runs = None
            fresh_dst = np.arange(overlap, new.size, dtype=np.int64)
        else:
            index = np.searchsorted(old, new)
            clamped = np.minimum(index, old.size - 1)
            found = old[clamped] == new
            if fresh_slots is not None and fresh_slots.size:
                # Anything Instantiate gathered fresh ships fresh, even
                # if its position happens to survive — over-shipping a
                # kept slot is bytes, mis-keeping a fresh one would be
                # wrong only if streams were impure (they are not); the
                # union keeps the record minimal AND authoritative.
                found[fresh_slots] = False
            keep_dst = np.nonzero(found)[0]
            keep_src = index[keep_dst]
            fresh_dst = np.nonzero(~found)[0]
            # Run-length encode the keep mapping: both index vectors are
            # strictly increasing, so consecutive (src+1, dst+1) pairs
            # collapse into (old_start, new_start, length) runs — the
            # whole overlap region is one run, the re-fronted assigned
            # positions a handful more.
            if keep_dst.size:
                breaks = np.nonzero((np.diff(keep_dst) != 1)
                                    | (np.diff(keep_src) != 1))[0] + 1
                starts = np.concatenate(([0], breaks))
                ends = np.concatenate((breaks, [keep_dst.size]))
                keep_runs = np.stack(
                    [keep_src[starts], keep_dst[starts], ends - starts],
                    axis=1)
            else:
                keep_runs = np.empty((0, 3), dtype=np.int64)
        rand_fresh = []
        pres_fresh = []
        if with_values:
            for tuple_index in members:
                gibbs_tuple = self._tuples[tuple_index]
                rand_fresh.append({
                    name: field.values[fresh_dst]
                    for name, field in gibbs_tuple.rand.items()
                    if field.handle == handle})
                pres_fresh.append([
                    presence.flags[fresh_dst]
                    for presence in gibbs_tuple.presences
                    if presence.handle == handle])
        return (handle, new.size, int(fresh_dst.size), keep_runs,
                rand_fresh, pres_fresh)

    def _invalidate_speculations(self) -> None:
        """Bump every owned seed's epoch; drop all buffered speculations.

        Used by the global notifications (clone, merge): any speculation
        computed before them was derived from state that no longer
        exists, and the epoch bump makes the worker-side copies
        unconsumable too — whatever transport the casts took.
        """
        for handle in self._shard_of_handle:
            self._spec_epoch[handle] = self._spec_epoch.get(handle, 0) + 1
        self._wasted_speculations += sum(
            len(chain) for chain in self._speculated.values())
        self._speculated = {}

    def _cast_commit(self, shard: int, *args) -> None:
        """Send — or, under adaptive scheduling, buffer — one commit.

        ``sweep_order="adaptive"`` coalesces commit notifications per
        shard into a single ``apply_batch`` cast, flushed right before
        the next message that reads the shard's mirror (a blocking
        serve, the next scatter, a merge, a clone, the discard drain):
        fewer, fatter messages on the process transport, with the
        owner's in-order batch dispatch preserving the exact unbatched
        sequence.  Speculation notes are deliberately *never* buffered —
        they are what triggers the owner's between-message chain
        extension, so delaying them would forfeit the latency hiding —
        and that is safe because a commit clears the seed's looper-side
        chain buffer, so no note for a seed can be issued while a commit
        for it sits unflushed.
        """
        if self._batch_casts:
            self._pending_casts[shard].append(("apply_commit", args))
        else:
            self._ensure_backend().state_cast(
                self._state_token, shard, "apply_commit", *args)

    def _flush_casts(self, shard: int | None = None) -> None:
        """Deliver a shard's (or every shard's) buffered notifications."""
        if not self._batch_casts or self._state_token is None:
            return
        backend = self._ensure_backend()
        shards = range(len(self._pending_casts)) if shard is None \
            else (shard,)
        for index in shards:
            ops = self._pending_casts[index]
            if not ops:
                continue
            self._pending_casts[index] = []
            if len(ops) == 1:
                backend.state_cast(self._state_token, index,
                                   ops[0][0], *ops[0][1])
            else:
                backend.state_cast(self._state_token, index,
                                   "apply_batch", ops)
                self._batched_notifications += len(ops)

    def _perturb_all_seeds(self, cutoff: float, stats: GibbsStats) -> None:
        """One systematic Gibbs step over every seed, seed-major (Sec. 7)."""
        if self._worker_state_enabled():
            self._begin_worker_sweep()
            prefetched = None  # served lazily via _take_prefetched
        else:
            self._discard_worker_state()  # mode/plan shape may have changed
            prefetched = self._prefetch_first_windows()
        queue = self._build_queue(resume_after=None)
        while queue and queue[0][0] != _INFINITY_KEY:
            handle = queue[0][0]
            members = []
            while queue and queue[0][0] == handle:
                members.append(heapq.heappop(queue)[1])
            self._replenished_flag = False
            if prefetched is None:
                prefetch = self._take_prefetched(handle)
            else:
                prefetch = prefetched.pop(handle, None)
            self._perturb_seed(handle, cutoff, stats, prefetch)
            if self._replenished_flag:
                # The Gibbs tuples were rebuilt or re-windowed; empty the
                # queue and rebuild it for the remaining handles (Sec. 9),
                # and drop the prefetched windows — they index into the
                # pre-refuel window views.  (_replenish either discarded
                # the worker-owned state — _take_prefetched then yields
                # None and the rest of this sweep builds windows locally,
                # with a full re-init next sweep — or spliced the refuel
                # into the live shards, in which case the remaining
                # handles' windows are served straight from the merged
                # worker state.)
                prefetched = {} if prefetched is not None else None
                queue = self._build_queue(resume_after=handle)
                continue
            for index in members:
                next_handle = self._tuples[index].next_handle_after(handle)
                heapq.heappush(
                    queue,
                    (next_handle if next_handle is not None else _INFINITY_KEY,
                     index))

    def _perturb_seed(self, handle: int, cutoff: float, stats: GibbsStats,
                      prefetch=None) -> None:
        """Gibbs-update every version's value for one TS-seed."""
        if self.options.engine == "vectorized":
            self._perturb_seed_vectorized(handle, cutoff, stats, prefetch)
            return
        ts = self._seeds[handle]
        for version in range(self._version_count()):
            # Re-fetch per version: a replenishment rebuilds the tuple list.
            affected = self._tuples_of_seed.get(handle, ())
            if not affected:
                return
            self._update_version(ts, affected, version, cutoff, stats)

    @staticmethod
    def _window_geometry(fresh: int, consumed_total: int,
                         served_total: int) -> tuple[int, int]:
        """Adaptive ``(width, max_rows)`` for the next candidate window.

        A pure function of the seed's fresh-range length and the
        consumption counters of the current perturbation call — shared
        between the in-process path and the seed-axis shard prefetch so
        both derive the exact same window, which is what makes a
        prefetched first window interchangeable with a locally built one.
        """
        # Candidates consumed per version completed (prior-smoothed).
        rate = (consumed_total + 4.0) / (served_total + 1.0)
        width = int(min(fresh,
                        max(_VECTOR_BATCH,
                            rate * _WINDOW_TARGET_VERSIONS),
                        _WINDOW_MAX_WIDTH))
        max_rows = int(min(width, max(8.0, 2.0 * width / rate + 1.0)))
        return width, max_rows

    def _perturb_seed_vectorized(self, handle: int, cutoff: float,
                                 stats: GibbsStats, prefetch=None) -> None:
        """Batched rejection sampling over the whole version axis of a seed.

        Semantically identical to the reference path: stream positions are
        consumed strictly left-to-right by the versions in ascending order
        (the global consumption pointer of TS-seed item 4), so the accepted
        position for each version — and therefore every downstream result —
        is the same.  The difference is purely computational: candidate
        aggregate deltas are evaluated once per fresh-window batch as dense
        ``(versions, batch)`` matrices instead of once per (version, batch)
        pair, amortizing expression evaluation across all DB versions.

        ``prefetch`` optionally carries this seed's first window of the
        sweep, evaluated by a backend worker (seed-axis sharding).  It was
        derived from the same frozen pre-sweep state with the same
        geometry and the same kernel, so consuming it instead of building
        the window locally changes nothing downstream; the acceptance
        mask is still computed *here*, against the running totals at the
        moment this seed's turn comes up in the sweep.
        """
        versions = self._version_count()
        version = 0
        proposals_used = 0  # rejection budget of the *current* version
        consumed_total = 0  # adaptive window sizing: candidates consumed...
        served_total = 0    # ...and versions completed so far in this call
        while version < versions:
            ts = self._seeds[handle]
            affected = self._tuples_of_seed.get(handle, ())
            if not affected:
                return
            start, stop = ts.fresh_index_range()
            if start >= stop:
                prefetch = None
                self._replenish()
                ts = self._seeds[handle]
                affected = self._tuples_of_seed.get(handle, ())
                if not affected:
                    return
                start, stop = ts.fresh_index_range()
                if start >= stop:
                    raise EngineError(
                        f"replenishment produced no fresh values for seed "
                        f"{ts.handle}")
            window = None
            if prefetch is not None:
                p_start, p_stop, p_count, matrices = prefetch
                prefetch = None
                if p_start == start and version == 0:
                    # Untouched since sweep start (nothing but this seed's
                    # own processing moves its pointer), so the worker's
                    # window is the one we would build right now.
                    window = self._window_from_matrices(
                        version, p_start, p_stop, p_count, matrices, cutoff)
                    self._sharded_windows += 1
            if window is None:
                width, max_rows = self._window_geometry(
                    stop - start, consumed_total, served_total)
                window = self._next_window(
                    ts, affected, version, cutoff, start, start + width,
                    max_rows)
            accepted, consumed, version, proposals_used = self._scan_window(
                ts, window, version, proposals_used, stats)
            consumed_total += consumed
            served_total += len(accepted[0])
            if accepted[0]:
                self._apply_acceptances(ts, affected, window, *accepted)
        # Looper-side acceptance-pressure record, mirroring the owners'
        # cursors: candidates consumed per version served in this call.
        # Feeds only the adaptive scatter's hottest-first request
        # ordering — a deterministic function of deterministic counters,
        # so request order (and everything downstream) stays reproducible.
        self._seed_pressure[handle] = consumed_total // max(served_total, 1)

    def _scan_window(self, ts: TSSeed, window, version: int,
                     proposals_used: int, stats: GibbsStats):
        """Walk the consumption pointer through one acceptability window.

        Implements the sequential semantics of the reference path —
        versions in ascending order, each taking the first acceptable
        not-yet-consumed candidate, rejected candidates consumed forever,
        ``max_proposals`` rejections per version before a stall — on top
        of the precomputed boolean matrix.  The walk runs on plain ints
        over the matrix's bytes (one ``bytes.find`` per step, which reads
        only the cells the pointer actually passes), and the counters
        reach ``stats`` once per window.  Returns the accepted versions
        and their window columns (a pair of parallel lists), the number
        of candidates consumed, and the resumption state.
        """
        lo, _, first_version, acceptable, _, _ = window
        rows, width = acceptable.shape
        version_limit = min(self._versions, first_version + rows)
        find = acceptable.tobytes().find
        max_proposals = self.max_proposals
        row_base = (version - first_version) * width
        column = 0  # consumption pointer, relative to ``lo``
        proposals = stalls = 0
        accepted_versions: list[int] = []
        accepted_columns: list[int] = []
        while version < version_limit and column < width:
            limit = column + max_proposals - proposals_used
            if limit > width:
                limit = width
            hit = find(b"\x01", row_base + column, row_base + limit)
            if hit >= 0:
                hit -= row_base
                proposals += hit - column + 1
                accepted_versions.append(version)
                accepted_columns.append(hit)
                column = hit + 1
            else:
                proposals += limit - column
                proposals_used += limit - column
                column = limit
                if proposals_used < max_proposals:
                    break  # window exhausted mid-version
                stalls += 1  # keep the current (valid) value
            version += 1
            row_base += width
            proposals_used = 0
        stats.proposals += proposals
        stats.acceptances += len(accepted_versions)
        stats.stalls += stalls
        if column:
            ts.consume_through(int(ts.positions[lo + column - 1]))
        return ((accepted_versions, accepted_columns), column, version,
                proposals_used)

    def _apply_acceptances(self, ts: TSSeed, affected, window,
                           accepted_versions, accepted_columns) -> None:
        """Commit a window's accepted proposals in one vectorized pass.

        Each version appears at most once, so the scatter updates below
        touch disjoint entries and are elementwise identical to the scalar
        path's one-at-a-time commits.
        """
        lo, _, first_version, _, cand_values, cand_present = window
        version_list = np.array(accepted_versions, dtype=np.int64)
        cols = np.array(accepted_columns, dtype=np.int64)
        rows = version_list - first_version
        index_list = cols + lo
        ts.assignment[version_list] = ts.positions[index_list]
        committed_values = []
        committed_present = []
        for list_pos, tuple_index in enumerate(affected):
            gibbs_tuple = self._tuples[tuple_index]
            state = self._states[tuple_index]
            new_value = cand_values[list_pos][rows, cols]
            new_present = cand_present[list_pos][rows, cols]
            old_present = state.present[version_list]
            old = np.where(old_present, state.value[version_list], 0.0)
            self._sums[version_list] += (
                np.where(new_present, new_value, 0.0) - old)
            self._counts[version_list] += (
                new_present.astype(np.float64)
                - old_present.astype(np.float64))
            state.value[version_list] = new_value
            state.present[version_list] = new_present
            for name, rand_field in gibbs_tuple.rand.items():
                if rand_field.handle == ts.handle:
                    state.values[name][version_list] = \
                        rand_field.values[index_list]
            for presence_field, cached in zip(gibbs_tuple.presences,
                                              state.presence):
                if presence_field.handle == ts.handle:
                    cached[version_list] = presence_field.flags[index_list]
            committed_values.append(new_value)
            committed_present.append(new_present)
        if self._state_token is not None:
            # Commit fan-out: notify the owning worker with the accepted
            # indices and the committed per-tuple contributions — the full
            # mutation, in a message a few hundred bytes long.  FIFO pipes
            # order it before any later window request for this seed.
            # The seed's epoch moves with the commit, so any speculation
            # computed before it can never be consumed — on either side.
            shard = self._shard_of_handle.get(ts.handle)
            if shard is not None:
                epoch = self._spec_epoch.get(ts.handle, 0) + 1
                self._spec_epoch[ts.handle] = epoch
                stale = self._speculated.pop(ts.handle, None)
                if stale:
                    self._wasted_speculations += len(stale)
                self._cast_commit(
                    shard, ts.handle, version_list, index_list,
                    np.stack(committed_values), np.stack(committed_present),
                    epoch)

    def _next_window(self, ts: TSSeed, affected, first_version: int,
                     cutoff: float, start: int, stop: int, max_rows: int):
        """A non-prefetched window: worker-served under worker state.

        With live worker-owned state the owning worker evaluates the
        window from its mirror — rejection-heavy seeds thus keep their
        follow-up windows off the sweep's critical path state-shipping —
        and only the acceptance mask is derived here against the live
        totals.  The mirror rows this reads (``first_version`` onward)
        were last touched by *previous* sweeps' commits and clones, all
        already notified in FIFO order, never by the current perturbation
        call (its commits land strictly below ``first_version``), which
        is why the served matrices are bit-identical to a local build.
        Without worker state this is exactly ``_build_window``.

        Speculation short-circuit: when the head of the owner's
        piggybacked chain is exactly this window (same parameters) and
        the seed's epoch has not moved since (not a single
        commit/clone/merge touched its state), the buffered matrices ARE
        what a fresh ``serve_window`` would return — so no state call is
        made at all; a fire-and-forget note keeps the owner's cursor in
        lockstep and has it extend the chain between messages.  A
        rejection streak therefore costs one blocking call per chain,
        not per window.  On the first mismatch the whole remaining chain
        dies (every entry assumed its prefix), and the synchronous call
        goes out and comes back with a fresh chain piggybacked.
        """
        shard = self._shard_of_handle.get(ts.handle) \
            if self._state_token is not None else None
        if shard is None or self._local_windows:
            return self._build_window(ts, affected, first_version, cutoff,
                                      start, stop, max_rows)
        count = min(self._version_count() - first_version, max_rows)
        key = (first_version, count, start, stop)
        epoch = self._spec_epoch.get(ts.handle, 0)
        chain = self._speculated.get(ts.handle)
        if chain:
            head = chain[0]
            if head[0] == key and head[1] == epoch:
                del chain[0]
                if not chain:
                    del self._speculated[ts.handle]
                self._ensure_backend().state_cast(
                    self._state_token, shard, "note_speculation",
                    ts.handle, epoch)
                self._sharded_windows += 1
                self._followup_windows += 1
                self._speculated_windows += 1
                return self._window_from_matrices(
                    first_version, start, stop, count, head[2], cutoff)
            self._wasted_speculations += len(chain)
            del self._speculated[ts.handle]
        # Buffered commits for this shard must land before the serve
        # reads the mirror they mutate (and before the owner re-anchors
        # its chain on the served request).
        self._flush_casts(shard)
        matrices, chain = self._ensure_backend().state_call(
            self._state_token, shard, "serve_followup",
            ts.handle, first_version, count, start, stop, epoch)
        if chain:
            self._speculated[ts.handle] = list(chain)
            self._speculation_chain_depth = max(
                self._speculation_chain_depth, len(chain))
        self._sharded_windows += 1
        self._followup_windows += 1
        return self._window_from_matrices(first_version, start, stop, count,
                                          matrices, cutoff)

    def _build_window(self, ts: TSSeed, affected, first_version: int,
                      cutoff: float, start: int, stop: int,
                      max_rows: int):
        """Candidate acceptability for window slots [start, stop) x all
        remaining versions, plus the per-tuple candidate values/presence
        needed to commit an acceptance.

        Rows for versions below ``first_version`` are never scanned again
        (the consumption pointer only moves forward), so they are not
        computed; and because every scan step consumes at least one
        candidate, a ``B``-wide window can serve at most ``B`` versions —
        rows beyond that cap would be dead weight, so the matrix is at most
        ``(B, B)`` regardless of the population size.  Rows for later
        versions stay valid across acceptances: committing version ``v``
        only mutates version ``v``'s cached state.
        """
        count = min(self._version_count() - first_version, max_rows)
        matrices = candidate_window_matrices(
            [self._tuples[index] for index in affected],
            [self._states[index] for index in affected],
            ts.handle, self.aggregate_expr, self.final_predicate,
            first_version, count, start, stop)
        return self._window_from_matrices(first_version, start, stop, count,
                                          matrices, cutoff)

    def _window_from_matrices(self, first_version: int, start: int,
                              stop: int, count: int, matrices,
                              cutoff: float):
        """Acceptance mask from candidate deltas + the *current* totals.

        Kept separate from the delta computation because the totals are
        the one input that changes as the sweep commits earlier seeds —
        prefetched (worker-evaluated) deltas flow through this exact code
        at the moment their seed is processed.
        """
        delta_sum, delta_count, cand_values, cand_present = matrices
        served = slice(first_version, first_version + count)
        new_totals = self._sums[served, None] + delta_sum
        if self.aggregate_kind != "sum":  # SUM never reads the counts
            new_totals = self._combine(
                new_totals, self._counts[served, None] + delta_count)
        acceptable = new_totals >= cutoff
        if acceptable.shape[1] != stop - start:
            # No candidate-dependent term at all: one verdict per version.
            acceptable = np.broadcast_to(acceptable, (count, stop - start))
        return (start, stop, first_version, acceptable,
                cand_values, cand_present)

    def _update_version(self, ts: TSSeed, affected, version: int,
                        cutoff: float, stats: GibbsStats) -> None:
        """Rejection-sample a new stream position for one (seed, version)."""
        proposals_used = 0
        while proposals_used < self.max_proposals:
            start, stop = ts.fresh_index_range()
            if start >= stop:
                self._replenish()
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

    def _combine(self, sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
        if self.aggregate_kind == "sum":
            return sums
        if self.aggregate_kind == "count":
            return counts
        with np.errstate(invalid="ignore"):
            return np.where(counts > 0, sums / np.maximum(counts, 1), -np.inf)

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
            for presence_field, cached in zip(gibbs_tuple.presences,
                                              state.presence):
                if presence_field.handle == ts.handle:
                    present = present & presence_field.flags[start:stop]
                else:
                    present = present & bool(cached[version])
            if self.final_predicate is not None:
                present = present & np.broadcast_to(
                    np.asarray(self.final_predicate.evaluate(context),
                               dtype=bool), (width,))
            old_contribution = (state.value[version]
                                if state.present[version] else 0.0)
            delta_sum += np.where(present, value, 0.0) - old_contribution
            delta_count += present.astype(np.float64) - float(
                state.present[version])
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
            old = state.value[version] if state.present[version] else 0.0
            new_value = float(cand_values[list_pos][hit])
            new_present = bool(cand_present[list_pos][hit])
            self._sums[version] += (new_value if new_present else 0.0) - old
            self._counts[version] += float(new_present) - float(
                state.present[version])
            state.value[version] = new_value
            state.present[version] = new_present
            for name, rand_field in gibbs_tuple.rand.items():
                if rand_field.handle == ts.handle:
                    state.values[name][version] = rand_field.values[window_index]
            for presence_field, cached in zip(gibbs_tuple.presences,
                                              state.presence):
                if presence_field.handle == ts.handle:
                    cached[version] = presence_field.flags[window_index]

    # -- replenishment ------------------------------------------------------------

    def _replenish(self) -> None:
        """Sec. 9: re-run the plan to refuel every seed's stream window.

        With ``options.replenishment == "delta"`` the run executes in
        incremental mode: ``Instantiate`` merges never-before-materialized
        positions into its previous output instead of regenerating every
        window (the context tracks which refuels were full vs. delta).
        """
        started = time.perf_counter()
        # Worker-state fate.  state_reinit="full" (or a stateless run)
        # keeps the PR-4 behavior: invalidate up front, run the rest of
        # the sweep locally, re-ship the snapshot next sweep.  Under
        # state_reinit="delta" the state *survives* a delta refuel: if
        # the re-run preserves the tuple structure, each owner receives
        # one state_merge splice (never-materialized values only), the
        # rest of the current sweep runs locally against live mirrors,
        # and the next sweep's scatter resumes worker serving with no
        # snapshot re-ship.
        keep_state = (self._state_token is not None
                      and self.options.state_reinit == "delta"
                      and self.options.replenishment == "delta")
        old_positions = None
        if keep_state:
            # Quiesce the shards *before* the re-run re-points a window
            # array: the thread transport's owners read this looper's own
            # tuples, so a scatter still being served would see them half
            # re-shaped.  Replies and buffered commits both index the
            # pre-refuel geometry, so both go now.
            backend = self._ensure_backend()
            for shard in sorted(self._scatter_pending):
                backend.state_collect(self._state_token, shard)
            self._scatter_pending = set()
            self._flush_casts()
            old_positions = {handle: ts.positions
                             for handle, ts in self._seeds.items()}
        else:
            self._discard_worker_state()
        plans = {handle: ts.replenish_plan(self.window)
                 for handle, ts in self._seeds.items()}
        width = max(len(plan) for plan in plans.values())
        context = self._context
        previous_plan = context.position_plan
        context.positions = width
        context.position_plan = {
            handle: self._seeds[handle].pad_plan(plan, width)
            for handle, plan in plans.items()}
        # An untouched seed re-serves its memoized (padded) plan object,
        # which lets the delta Instantiate and the window refresh skip it
        # without comparing a single position.
        context.stable_handles = frozenset(
            handle for handle, plan in context.position_plan.items()
            if plan is previous_plan.get(handle))
        context.delta_mode = context.delta_tracking
        context.last_fresh_slots = {}
        delta_before, full_before = context.delta_runs, context.full_runs
        relation = self.plan.execute(context)
        context.delta_mode = False
        if context.full_runs > full_before:
            self._full_replenish_runs += 1
        elif context.delta_runs > delta_before:
            self._delta_replenish_runs += 1
        context.plan_runs += 1
        self._replenish_runs += 1
        self._replenished_flag = True
        versions = self._version_count()
        old_sums, old_counts = self._sums, self._counts
        self._ingest(relation, versions, initial=False)
        context.stable_handles = frozenset()
        if keep_state:
            if self._ingest_refreshed:
                self._merge_worker_state(old_positions)
            else:
                # The re-run changed the tuple structure: the mirrors no
                # longer describe anything — fall back to discard + full
                # re-init on the next sweep.
                self._discard_worker_state()
        # Invariant: rebuilding from assignments must reproduce the same
        # query results — the caches and the streams cannot disagree.
        if not (np.allclose(old_sums, self._sums, atol=1e-9)
                and np.allclose(old_counts, self._counts)):
            raise EngineError(
                "replenishment changed query results; stream/cache "
                "inconsistency (this is a bug)")
        # Keep the *pre-replenish* accumulators: the re-derived sums are
        # equal up to summation rounding, but adopting them would tie the
        # accumulator trajectory to WHERE refuels happen — and the refuel
        # schedule is exactly what knobs like ``window_growth`` change.
        # Restoring makes every downstream bit independent of it.
        self._sums, self._counts = old_sums, old_counts
        if self.options.window_growth > 1.0 and self.window < _WINDOW_GROWTH_CAP:
            # Adaptive refuel sizing: each refuel grows the next window
            # geometrically, making the refuel count logarithmic in the
            # stream depth rejection-heavy seeds burn through.  Window
            # boundaries never change which candidate is accepted (the
            # consumption pointer resumes across refuels), so everything
            # except the replenishment schedule stays bit-identical.
            self.window = min(
                max(int(self.window * self.options.window_growth),
                    self.window + 1),
                _WINDOW_GROWTH_CAP)
        self._replenish_seconds += time.perf_counter() - started
