"""One Gibbs sweep by anti-diagonals (Sec. 7's loop inversion, vectorized).

The looper's sweep is Gauss–Seidel over TS-seeds: seed ``i`` perturbs
versions ``0, 1, ...`` in order, each version taking the first candidate
past the seed's consumption pointer whose new total clears the cutoff
(TS-seed item 4).  Cell ``(i, v)`` reads the running total of version
``v``, last moved by cell ``(i - 1, v)``, and the pointer of seed ``i``,
last moved by cell ``(i, v - 1)`` — nothing else.  So the cells of an
anti-diagonal ``i + v = d`` are independent of each other, and a sweep
is its diagonals in order.  :class:`Wavefront` runs it that way when
every seed is read by exactly one single-seed Gibbs tuple (the Sec. 2
portfolio query), each diagonal in a few NumPy passes:

* a ``K``-wide look-ahead (:data:`_LOOKAHEAD`) of every active seed's
  candidates from its pointer, gathered from one buffer with a row of
  the next :data:`_WINDOW` candidates per seed, each row followed by
  ``K`` NaNs — the candidate runs themselves stay ragged;
* each cell's verdicts ``sums[v] + ((c + 0.0) - old[v]) >= cutoff`` over
  the ``(cells, K)`` block — the walk's own IEEE operations in its
  order; COUNT and AVG combine with the counts as the looper does;
* the first hit of every cell committed as one scatter into the sums,
  the contributions, the assignments and the pointers (the versions on
  a diagonal are distinct);
* the rare cells with no hit in the look-ahead handed to one scalar
  finder (:meth:`Wavefront._find`), which keeps ``max_proposals`` and
  the stall semantics.

Every cell applies the seed-major walk's arithmetic to the same
operands, so samples, assignments and counters equal it bit for bit.

Refuels (Sec. 9) are barriers between diagonals: every
:data:`_BARRIER` diagonals, when some seed's fresh range would not last
until the next barrier at its consumption per version so far, one plan
run refuels every seed that would not last its run
(:func:`~repro.core.ts_seed.plan_refuel`).  A seed that still runs dry
mid-diagonal refuels there, and the diagonal resumes.
"""

from __future__ import annotations

import numpy as np

from repro.core.gibbs import GibbsStats
from repro.core.ts_seed import consumption_rates
from repro.engine.errors import EngineError

__all__ = ["Wavefront"]

#: Candidates evaluated per cell in a diagonal's NumPy pass; a cell with
#: no hit among them goes to the scalar finder.  Purely a vectorization
#: width: it never changes which candidate is accepted.
_LOOKAHEAD = 16
#: Diagonals between refuel barriers.
_BARRIER = 8
#: Candidates each seed keeps in the look-ahead buffer, refilled from
#: its candidate run at a barrier once half are consumed.
_WINDOW = 512


class _Bail(Exception):
    """A full refuel changed which seeds the tuples read: the sweep
    finishes seed-major from ``progress``."""

    def __init__(self, progress: dict[int, tuple[int, int]]):
        super().__init__()
        self.progress = progress


class Wavefront:
    """One sweep of ``looper`` by anti-diagonals.

    Works on the looper's own state: its accumulators, its ``(tuples,
    versions)`` contribution and count matrices (through a seed-ordered
    copy when the tuples are not in seed order), its per-refuel
    candidate runs, and its TS-seeds, whose assignments become rows of
    one ``(seeds, versions)`` matrix for the sweep.  Pointers are kept
    as stream positions (``max_used + 1``): a seed's fresh positions are
    one contiguous run, so a position indexes its candidate run
    (``run_key``) and its look-ahead row (``key``) by one offset.  The
    TS-seeds are synchronized before every refuel and at the end.
    """

    def __init__(self, looper, cutoff: float, stats: GibbsStats):
        self.looper = looper
        self.cutoff = cutoff
        self.stats = stats
        self.handles = list(looper._visit_order)
        self.seeds = [looper._seeds[handle] for handle in self.handles]
        self.index = {handle: i for i, handle in enumerate(self.handles)}
        count, versions = len(self.seeds), looper._versions
        self.versions = versions
        self.assignment = np.empty((count, versions), dtype=np.int64)
        for ts, row in zip(self.seeds, self.assignment):
            row[:] = ts.assignment
            ts.assignment = row
        self.ptr = np.fromiter((ts.max_used + 1 for ts in self.seeds),
                               dtype=np.int64, count=count)
        self.start = self.ptr.copy()
        self.first = np.fromiter((ts.first_used for ts in self.seeds),
                                 dtype=np.int64, count=count)
        self.count = count
        self.seed_order = np.arange(count)
        self.width = min(_LOOKAHEAD, looper.max_proposals)
        self.row_base = self.seed_order * self.width
        self.assignment_flat = self.assignment.reshape(-1)
        #: ``ramp[k]`` clips ``k - count`` to ``[0, versions]``: seed
        #: ``i`` has finished ``ramp[d + count - i]`` versions before
        #: diagonal ``d``.
        self.ramp = np.clip(np.arange(2 * count + versions + _BARRIER)
                            - count, 0, versions)
        self.before = sum(looper._sweep_versions[:looper._sweep])
        self.stalls = 0
        self._load()

    # -- state ------------------------------------------------------------------

    def _load(self) -> None:
        """(Re)derive the looper-side views: after a run over every row
        the tuples, states, candidates and matrices are new objects."""
        looper = self.looper
        if list(looper._visit_order) != self.handles \
                or not looper._wavefront_ready():
            raise _Bail({})
        rows = [looper._tuples_of_seed[handle][0] for handle in self.handles]
        self.rows = np.array(rows, dtype=np.int64)
        self.in_order = rows == list(range(len(rows)))
        self.runs = [looper._states[row].candidate for row in rows]
        #: Commit counts (some candidate may be absent), and read them in
        #: the verdict (COUNT, AVG).  Always-present candidates count 1
        #: before and after (a splice checks it), so a verdict then reads
        #: the accumulated counts as they are.
        self.counted = not looper._candidates.always_present
        self.read_counts = looper.aggregate_kind != "sum"
        self.old = self._matrix(looper._contribution_matrix)
        self.old_n = self._matrix(looper._count_matrix) \
            if self.counted else None
        self.old_flat = self.old.reshape(-1)
        self.old_n_flat = None if self.old_n is None \
            else self.old_n.reshape(-1)
        # Version ``v`` at ``versions - 1 - v``: a diagonal's cells, in
        # seed order, are a slice.
        self.sums = looper._sums[::-1]
        self.counts = looper._counts[::-1]
        count = len(self.seeds)
        rows = count * (_WINDOW + _LOOKAHEAD)
        self.buf = np.full(rows, np.nan)
        self.nbuf = np.full(rows, np.nan) if self.counted else None
        self.key = np.zeros(count, dtype=np.int64)
        self.end = np.zeros(count, dtype=np.int64)
        self.run_key = np.zeros(count, dtype=np.int64)
        self.stop = np.zeros(count, dtype=np.int64)
        self._locate(range(count))
        self._fill(range(count))
        item = np.dtype((np.void, 8 * self.width))
        shape = (self.buf.size - self.width + 1,)
        self.window = np.ndarray(shape, item, self.buf, strides=(8,))
        self.nwindow = None if self.nbuf is None else np.ndarray(
            shape, item, self.nbuf, strides=(8,))

    def _matrix(self, matrix: np.ndarray) -> np.ndarray:
        return matrix if self.in_order else matrix[self.rows]

    def _sync(self) -> None:
        """Write the sweep's state back to the TS-seeds and matrices."""
        for ts, ptr in zip(self.seeds, self.ptr.tolist()):
            ts.max_used = ptr - 1
        if not self.in_order:
            self.looper._contribution_matrix[self.rows] = self.old
            if self.counted:
                self.looper._count_matrix[self.rows] = self.old_n

    def _locate(self, indices) -> None:
        """Where the fresh runs of seeds ``indices`` lie in their
        candidate runs, which a refuel renews: run index ``run_key +
        position`` for positions up to ``stop``."""
        for i in indices:
            ts = self.seeds[i]
            first = ts.max_used + 1
            size = max(int(ts.positions[-1]) + 1 - first, 0)
            lo = ts.positions.size - size
            if size and ts.positions[lo] != first:
                raise EngineError(
                    f"fresh positions of seed {ts.handle} are not contiguous")
            self.run_key[i], self.stop[i] = lo - first, first + size

    def _fill(self, indices) -> None:
        """Copy the next :data:`_WINDOW` candidates of seeds ``indices``,
        from their pointers, into their rows of the look-ahead buffers;
        past its last candidate a row reads NaN for :data:`_LOOKAHEAD`
        cells."""
        candidates = self.looper._candidates
        buf, ptr, stop, run_key = self.buf, self.ptr, self.stop, self.run_key
        for i in indices:
            first = int(ptr[i])
            size = min(int(stop[i]) - first, _WINDOW)
            at = int(run_key[i]) + first
            row = i * (_WINDOW + _LOOKAHEAD)
            buf[row:row + size] = candidates.contribution[self.runs[i]][
                at:at + size]
            if size < _WINDOW:
                buf[row + size:row + _WINDOW] = np.nan
            if self.counted:
                self.nbuf[row:row + size] = \
                    candidates.presence_count[self.runs[i]][at:at + size]
            self.key[i], self.end[i] = row - first, first + size

    # -- the sweep ----------------------------------------------------------------

    def run(self) -> dict[int, tuple[int, int]] | None:
        """Run the sweep; ``None`` when done, else the ``(version,
        proposals used)`` each seed resumes at seed-major."""
        count, versions = len(self.seeds), self.versions
        try:
            for diagonal in range(count + versions - 1):
                if diagonal % _BARRIER == 0:
                    self._barrier(diagonal)
                self._diagonal(diagonal)
        except _Bail as bail:
            self._finish(bail.progress)
            return bail.progress
        self._sync()
        self._finish(None)
        return None

    def _finish(self, progress) -> None:
        stats = self.stats
        stats.proposals += int((self.ptr - self.start).sum())
        cells = self.count * self.versions if progress is None else \
            sum(version for version, _ in progress.values())
        stats.acceptances += cells - self.stalls
        stats.stalls += self.stalls

    def _diagonal(self, d: int) -> None:
        """Every cell ``(i, d - i)``: the look-ahead pass, the commit of
        its hits, then the scalar finder on its misses.

        The cells' entries of a ``(seeds, versions)`` matrix are one
        strided slice of it (``i * (versions - 1) + d``), and their
        versions a reversed slice of the accumulators, so nothing but
        the look-ahead and the hits' candidates is gathered; the commit
        writes through those slices, skipping the misses.
        """
        versions = self.versions
        lo = d - versions + 1 if d >= versions else 0
        hi = d + 1 if d < self.count else self.count
        cells = hi - lo
        step = versions - 1
        at = lo * step + d
        diagonal = slice(at, at + (cells - 1) * step + 1, step or 1)
        back = slice(step - d + lo, step - d + hi)
        old = self.old_flat[diagonal]
        ptr = self.ptr[lo:hi]
        sums = self.sums[back]
        key = self.key[lo:hi]
        slots = key + ptr
        # ``sums[v] + ((c + 0.0) - old[v])`` with the ``+ 0.0`` left out:
        # it only turns a -0.0 into +0.0, which no comparison can tell.
        totals = self.window[slots].view(np.float64).reshape(
            cells, self.width) - old[:, None]
        totals += sums[:, None]
        if self.read_counts:
            counts = self.counts[back][:, None]
            if self.counted:
                counts = counts + (
                    self.nwindow[slots].view(np.float64).reshape(
                        cells, self.width)
                    - self.old_n_flat[diagonal][:, None])
            totals = self.looper._combine(totals, counts)
        verdict = totals >= self.cutoff
        hit = verdict.argmax(axis=1)
        slots += hit
        new = self.buf[slots]
        delta = new - old
        if self.read_counts:
            ok = verdict.reshape(-1)[(self.row_base[:cells]
                                      if verdict.shape[1] > 1
                                      else self.seed_order[:cells]) + hit]
            # A verdict that reads no candidate holds on the NaN guard too.
            ok &= hit < self.end[lo:hi] - ptr
        else:  # the verdict at the first hit, or at a miss's first cell
            ok = delta + sums >= self.cutoff
        hits = True if ok.all() else ok
        np.add(sums, delta, out=sums, where=hits)
        np.copyto(old, new, where=hits)
        if self.counted:
            new = self.nbuf[slots]
            old = self.old_n_flat[diagonal]
            counts = self.counts[back]
            np.add(counts, new - old, out=counts, where=hits)
            np.copyto(old, new, where=hits)
        hit += 1
        np.add(ptr, hit, out=ptr, where=hits)
        np.subtract(slots, key, out=self.assignment_flat[diagonal],
                    where=hits)
        if hits is True:
            return
        missed = np.flatnonzero(~ok)
        # A miss rejected every real candidate of its look-ahead.
        rejected = np.minimum(self.width, self.end[lo:hi] - ptr)[missed]
        pending = (missed + lo).tolist()
        for skip in rejected.tolist():
            i = pending[0]
            self._find(pending, d, skip)
            if self.ptr[i] + _LOOKAHEAD > self.end[i]:
                # The finder walks the run itself, past the look-ahead.
                self._fill([i])
            pending.pop(0)

    def _find(self, pending: list[int], d: int, used: int = 0) -> None:
        """The scalar finder: seed ``pending[0]``'s cell on diagonal
        ``d``, whose first ``used`` candidates were rejected already, in
        chunks from there — ``max_proposals`` rejections make a stall,
        and an exhausted window a refuel, after which the walk resumes
        with the proposals it has used."""
        looper = self.looper
        i = pending[0]
        v = d - i
        self.ptr[i] += used
        if used >= looper.max_proposals:
            self.stalls += 1  # keep the current (valid) value
            return
        chunk = 2 * _LOOKAHEAD
        while True:
            first = int(self.ptr[i])
            available = int(self.stop[i]) - first
            if available <= 0:
                self._refuel(d, dry=i, pending=pending, used=used)
                continue
            take = min(available, looper.max_proposals - used, chunk)
            at = int(self.run_key[i]) + first
            run = self.runs[i]
            candidates = looper._candidates  # a refuel may renew it
            old = self.old[i, v]
            # As in _diagonal, over the candidate run itself.  (No view of
            # a run outlives a pass: a refuel renews it.)
            total = looper._sums[v] + (
                candidates.contribution[run][at:at + take] - old)
            if self.read_counts:
                count = looper._counts[v]
                if self.counted:
                    count = count + (
                        candidates.presence_count[run][at:at + take]
                        - self.old_n[i, v])
                total = looper._combine(total, count)
            verdict = total >= self.cutoff
            if verdict.ndim == 0:  # it reads no candidate: one for all
                verdict = np.broadcast_to(verdict, (take,))
            hit = int(verdict.argmax())
            if verdict[hit]:
                new = candidates.contribution[run][at + hit]
                looper._sums[v] += new - old
                self.old[i, v] = new
                if self.counted:
                    new = candidates.presence_count[run][at + hit]
                    looper._counts[v] += new - self.old_n[i, v]
                    self.old_n[i, v] = new
                self.ptr[i] = first + hit + 1
                self.assignment[i, v] = first + hit
                return
            self.ptr[i] = first + take
            used += take
            if used >= looper.max_proposals:
                self.stalls += 1  # keep the current (valid) value
                return
            chunk *= 2

    # -- refuels --------------------------------------------------------------------

    def _done(self, d: int) -> np.ndarray:
        """Versions each seed has finished before diagonal ``d``."""
        return self.ramp[d + 1:d + self.count + 1][::-1]

    def _barrier(self, d: int) -> None:
        """Refuel before diagonal ``d`` when some seed's fresh range
        would not last until the next barrier."""
        done = self._done(d)
        soon = self._done(d + _BARRIER) - done
        rates = consumption_rates(self.ptr - 1 - self.first,
                                  self.before + done)
        if np.any(self.stop - self.ptr < rates * soon):
            self._refuel(d)
        low = np.flatnonzero((self.end - self.ptr < _WINDOW // 2)
                             & (self.end < self.stop))
        if low.size:
            self._fill(low.tolist())

    def _refuel(self, d: int, dry: int | None = None,
                pending: list[int] | None = None, used: int = 0) -> None:
        """One plan run at diagonal ``d``: at its barrier, or for seed
        ``dry``, whose cell is the first of the cells of ``d`` not done
        yet (``pending``) and has spent ``used`` proposals."""
        looper = self.looper
        versions = self.versions
        done = self._done(d)
        self._sync()
        states = looper._states
        always_present = looper._candidates.always_present
        plans = looper._plan_refuel(self.seeds, done, dry)
        looper._replenish(plans)
        if looper._states is not states or \
                looper._candidates.always_present != always_present:
            try:
                self._load()
            except _Bail:
                if pending is None:
                    pending = list(range(max(0, d - versions + 1),
                                         min(len(self.seeds), d + 1)))
                raise _Bail(self._progress(d, pending, used)) from None
        else:
            refueled = [self.index[handle] for handle in plans]
            self._locate(refueled)
            self._fill(refueled)
        if dry is not None and self.stop[dry] <= self.ptr[dry]:
            raise EngineError(
                f"replenishment produced no fresh values for seed "
                f"{self.handles[dry]}")

    def _progress(self, d: int, pending: list[int], used: int):
        """Each seed's ``(version, proposals used)`` before diagonal
        ``d``'s cells ``pending`` — the first of them with ``used``
        proposals spent — and after the rest of it."""
        done = self._done(d + 1).copy()
        done[pending] -= 1
        progress = {handle: (int(version), 0)
                    for handle, version in zip(self.handles, done)}
        if pending:
            handle = self.handles[pending[0]]
            progress[handle] = (progress[handle][0], used)
        return progress
