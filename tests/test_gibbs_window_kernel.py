"""The Gibbs window kernel and scan against straightforward references.

``candidate_window_matrices`` keeps every intermediate at its natural
broadcast rank; ``_dense_reference`` below is the plain dense form —
every operand expanded to ``(count, width)`` up front, accumulators
seeded with zero matrices — and the two must agree *bit for bit* (signed
zeros included).  The refuel's ``WindowCandidates``, from which the
commit takes single-seed tuples' new state, are pinned against the same
per-window evaluation.  ``_scan_window`` walks the acceptability matrix on
plain ints; ``_scalar_scan`` is the one-candidate-at-a-time walk it must
reproduce, and the anti-diagonal sweep's scalar finder
(``Wavefront._find``) — the matrix-free walk of one cell of a seed read by
one single-seed tuple — must reproduce the matrix path.  The references
live only here.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gibbs import GibbsStats
from repro.core.gibbs_looper import (
    GibbsLooper, _TupleState, candidate_window_matrices, single_seed_rows,
    window_candidates)
from repro.core.gibbs_tuple import tuples_from_relation
from repro.core.ts_seed import TSSeed
from repro.core.wavefront import Wavefront
from repro.engine.bundles import BundleRelation, PresenceColumn, RandomColumn
from repro.engine.expressions import DictContext, col, lit

OWN, FOREIGN = 7, 9  # the perturbed seed's handle, and another seed's
VERSIONS, WINDOW = 9, 14


def _dense_reference(tuples, states, handle, aggregate_expr, final_predicate,
                     first_version, count, start, stop):
    width = stop - start
    remaining = slice(first_version, first_version + count)
    delta_sum = np.zeros((count, width))
    delta_count = np.zeros((count, width))
    cand_values, cand_present = [], []
    for gibbs_tuple, state in zip(tuples, states):
        columns = {name: np.asarray(value)
                   for name, value in gibbs_tuple.det.items()}
        for name, rand_field in gibbs_tuple.rand.items():
            if rand_field.handle == handle:
                columns[name] = np.broadcast_to(
                    rand_field.values[start:stop], (count, width))
            else:
                columns[name] = np.broadcast_to(
                    state.values[name][remaining, None], (count, width))
        context = DictContext(columns)
        if aggregate_expr is None:
            value = np.ones((count, width))
        else:
            value = np.broadcast_to(
                np.asarray(aggregate_expr.evaluate(context),
                           dtype=np.float64), (count, width))
        present = np.ones((count, width), dtype=bool)
        for slot, presence_field in enumerate(gibbs_tuple.presences):
            if presence_field.handle == handle:
                present = present & presence_field.flags[start:stop]
            else:
                present = present & state.presence[slot][remaining, None]
        if final_predicate is not None:
            present = present & np.broadcast_to(
                np.asarray(final_predicate.evaluate(context), dtype=bool),
                (count, width))
        delta_sum += (np.where(present, value, 0.0)
                      - state.contribution[remaining, None])
        delta_count += (present.astype(np.float64)
                        - state.presence_count[remaining, None])
        cand_values.append(value)
        cand_present.append(present)
    return delta_sum, delta_count, cand_values, cand_present


#: Values where exact arithmetic matters: signed zeros, ties, cancellation.
_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.3, 1e-17, -2.5]),
    st.floats(-1e3, 1e3, allow_nan=False, width=64))


def _floats(draw, size):
    return np.array(draw(st.lists(_VALUES, min_size=size, max_size=size)))


def _flags(draw, size):
    return np.array(draw(st.lists(st.booleans(), min_size=size,
                                  max_size=size)), dtype=bool)


def _relation(draw, rows):
    """``rows`` Gibbs-tuple rows over one window: column ``x`` on the
    perturbed seed, ``y`` on it or on another seed, det ``d``, and 0-2
    presence arrays, each row's on either seed (all-true flags: vacuous,
    dropped from the Gibbs tuple)."""
    def handles():
        return np.array(draw(st.lists(st.sampled_from([OWN, FOREIGN]),
                                      min_size=rows, max_size=rows)))

    def matrix():
        return _floats(draw, rows * WINDOW).reshape(rows, WINDOW)

    relation = BundleRelation(rows, WINDOW, aligned=False)
    relation.add_det_column("d", _floats(draw, rows))
    relation.add_rand_column("x", RandomColumn(matrix(),
                                               np.full(rows, OWN)))
    relation.add_rand_column("y", RandomColumn(matrix(), handles()))
    for _ in range(draw(st.integers(0, 2))):
        flags = _flags(draw, rows * WINDOW).reshape(rows, WINDOW)
        flags[_flags(draw, rows)] = True
        relation.add_presence(PresenceColumn(flags, handles()))
    return relation


def _ragged_relation(draw, rows, depth):
    """Like :func:`_relation`, but stored as runs: each row's run of a
    column is as deep as its seed's window, ``depth[handle]``."""
    def handles():
        return np.array(draw(st.lists(st.sampled_from([OWN, FOREIGN]),
                                      min_size=rows, max_size=rows)))

    def offsets(row_handles):
        return np.concatenate(
            [[0], np.cumsum([depth[int(h)] for h in row_handles])])

    relation = BundleRelation(rows, WINDOW, aligned=False)
    relation.add_det_column("d", _floats(draw, rows))
    for name, row_handles in (("x", np.full(rows, OWN)), ("y", handles())):
        bounds = offsets(row_handles)
        relation.add_rand_column(name, RandomColumn(
            _floats(draw, int(bounds[-1])), row_handles, offsets=bounds))
    for _ in range(draw(st.integers(0, 2))):
        row_handles = handles()
        bounds = offsets(row_handles)
        flags = _flags(draw, int(bounds[-1]))
        for row in np.flatnonzero(_flags(draw, rows)):
            flags[bounds[row]:bounds[row + 1]] = True
        relation.add_presence(PresenceColumn(flags, row_handles,
                                             offsets=bounds))
    return relation


def _states(draw, tuples, single):
    """Random per-version state.  When ``single`` is given, its tuples are
    set up as the looper sets up single-seed ones: a row of the per-refuel
    candidates and no per-version caches."""
    states = []
    for row, gibbs_tuple in enumerate(tuples):
        state = _TupleState()
        if single is not None and row in single:
            state.candidate = single.index(row)
        else:
            for name in gibbs_tuple.rand:
                state.values[name] = _floats(draw, VERSIONS)
            for _ in gibbs_tuple.presences:
                state.presence.append(_flags(draw, VERSIONS))
        present = _flags(draw, VERSIONS)
        state.contribution = np.where(present, _floats(draw, VERSIONS), 0.0)
        state.presence_count = present.astype(np.float64)
        states.append(state)
    return states


_AGGREGATES = [None, col("x"), col("x") * col("d"), col("d"),
               col("x") - col("y"), col("y")]
_PREDICATES = [None, col("x") > lit(0.0), col("d") > lit(0.0),
               col("x") > col("y")]


@st.composite
def _window_cases(draw):
    """1-3 tuples of the perturbed seed over one window — single- or
    multi-seed, with presence fields on either seed — and a window."""
    relation = _relation(draw, draw(st.integers(1, 3)))
    aggregate = draw(st.sampled_from(_AGGREGATES))
    predicate = draw(st.sampled_from(_PREDICATES))
    tuples = tuples_from_relation(relation)
    single = single_seed_rows(relation)
    states = _states(draw, tuples,
                     single.tolist() if draw(st.booleans()) else None)
    first_version = draw(st.integers(0, VERSIONS - 1))
    count = draw(st.integers(1, VERSIONS - first_version))
    start = draw(st.integers(0, WINDOW - 1))
    stop = draw(st.integers(start + 1, WINDOW))
    return (tuples, states, OWN, aggregate, predicate, first_version, count,
            start, stop)


def _same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    dense = np.broadcast_to(actual, expected.shape)
    assert dense.tobytes() == expected.tobytes()


class TestKernelAgainstDenseReference:
    @given(case=_window_cases())
    @settings(max_examples=150, deadline=None)
    def test_matrices_bit_identical(self, case):
        delta_sum, delta_count, values, present = \
            candidate_window_matrices(*case)
        ref_sum, ref_count, ref_values, ref_present = \
            _dense_reference(*case)
        _same_bits(delta_sum, ref_sum)
        _same_bits(delta_count, ref_count)
        for got_value, got_present, want_value, want_present in zip(
                values, present, ref_values, ref_present):
            for got, want in ((got_value, want_value),
                              (got_present, want_present)):
                assert got.shape == want.shape  # the commit indexes [row, col]
                _same_bits(got, want)

    @given(case=_window_cases(),
           kind=st.sampled_from(["sum", "count", "avg"]),
           totals=st.data(), cutoff=_VALUES)
    @settings(max_examples=100, deadline=None)
    def test_acceptance_mask_for_every_aggregate(self, case, kind, totals,
                                                 cutoff):
        """SUM skips the count matrix, COUNT and AVG read it: the mask
        must equal ``combine(sums + dsum, counts + dcount) >= cutoff``
        over the dense deltas either way."""
        first_version, count, start, stop = case[5:9]
        looper = object.__new__(GibbsLooper)
        looper.aggregate_kind = kind
        looper._sums = _floats(totals.draw, VERSIONS)
        looper._counts = np.array(totals.draw(st.lists(
            st.integers(0, 4), min_size=VERSIONS, max_size=VERSIONS)),
            dtype=np.float64)
        window = looper._window_from_matrices(
            first_version, start, stop, count,
            candidate_window_matrices(*case), cutoff)
        ref_sum, ref_count, _, _ = _dense_reference(*case)
        served = slice(first_version, first_version + count)
        expected = looper._combine(
            looper._sums[served, None] + ref_sum,
            looper._counts[served, None] + ref_count) >= cutoff
        assert window[:3] == (start, stop, first_version)
        assert window[3].shape == (count, stop - start)
        np.testing.assert_array_equal(window[3], expected)


class TestWindowCandidates:
    """The per-refuel candidate arrays against per-window evaluation."""

    @given(data=st.data(), rows=st.integers(1, 4),
           aggregate=st.sampled_from(_AGGREGATES),
           predicate=st.sampled_from(_PREDICATES))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_window_evaluation(self, data, rows, aggregate,
                                              predicate):
        relation = _relation(data.draw, rows)
        tuples = tuples_from_relation(relation)
        single = single_seed_rows(relation)
        assert single.tolist() == [
            row for row, gibbs_tuple in enumerate(tuples)
            if len(gibbs_tuple.handles) == 1]
        candidates = window_candidates(relation, single, aggregate,
                                       predicate)
        states = _states(data.draw, tuples, None)
        start = data.draw(st.integers(0, WINDOW - 1))
        stop = data.draw(st.integers(start + 1, WINDOW))
        for index, row in enumerate(single.tolist()):
            _, _, (value,), (present,) = _dense_reference(
                [tuples[row]], [states[row]], OWN, aggregate, predicate,
                0, 1, start, stop)
            window = slice(start, stop)
            _same_bits(candidates.contribution[index][window],
                       np.where(present[0], value[0], 0.0))
            _same_bits(candidates.presence_count[index][window],
                       present[0].astype(np.float64))
            if candidates.always_present:
                assert present.all()
                _same_bits(candidates.contribution[index][window], value[0])

    @given(data=st.data(), rows=st.integers(1, 4),
           aggregate=st.sampled_from(_AGGREGATES),
           predicate=st.sampled_from(_PREDICATES))
    @settings(max_examples=150, deadline=None)
    def test_ragged_runs_with_foreign_vacuous_presence(
            self, data, rows, aggregate, predicate):
        """Runs as a refuel leaves them: each seed's window has its own
        depth, and a presence array vacuous for a row may belong to
        another seed, hence be of another length than the row's run."""
        own_depth = data.draw(st.integers(1, WINDOW + 4))
        depth = {OWN: own_depth, FOREIGN: data.draw(
            st.integers(1, WINDOW + 4).filter(lambda d: d != own_depth))}
        relation = _ragged_relation(data.draw, rows, depth)
        tuples = tuples_from_relation(relation)
        single = single_seed_rows(relation)
        candidates = window_candidates(relation, single, aggregate,
                                       predicate)
        states = _states(data.draw, tuples, None)
        assert [run.size for run in candidates.contribution] == [
            own_depth] * single.size
        for index, row in enumerate(single.tolist()):
            _, _, (value,), (present,) = _dense_reference(
                [tuples[row]], [states[row]], OWN, aggregate, predicate,
                0, 1, 0, own_depth)
            _same_bits(candidates.contribution[index],
                       np.where(present[0], value[0], 0.0))
            _same_bits(candidates.presence_count[index],
                       present[0].astype(np.float64))

    def test_bare_column_sum_is_a_view(self):
        relation = BundleRelation(2, WINDOW, aligned=False)
        values = np.arange(2.0 * WINDOW).reshape(2, WINDOW)
        relation.add_rand_column("x", RandomColumn(values, [OWN, FOREIGN]))
        candidates = window_candidates(relation, np.arange(2), col("x"),
                                       None)
        assert candidates.always_present
        assert all(np.shares_memory(run, values)
                   for run in candidates.contribution)


def _walk_looper(relation, aggregate, kind, predicate, max_proposals,
                 draw):
    """A looper holding ``relation``'s one single-seed tuple, with random
    accumulators and per-version state."""
    looper = object.__new__(GibbsLooper)
    looper.aggregate_kind = kind
    looper.aggregate_expr = aggregate
    looper.final_predicate = predicate
    looper.max_proposals = max_proposals
    looper._versions = VERSIONS
    looper._tuples = tuples_from_relation(relation)
    single = single_seed_rows(relation)
    looper._states = _states(draw, looper._tuples, single.tolist())
    looper._candidates = window_candidates(relation, single, aggregate,
                                           predicate)
    looper._sums = _floats(draw, VERSIONS)
    looper._counts = np.array(draw(st.lists(
        st.integers(0, 3), min_size=VERSIONS, max_size=VERSIONS)),
        dtype=np.float64)
    return looper


class _Exhausted(Exception):
    def __init__(self, used):
        super().__init__()
        self.used = used


def _finder(looper, cutoff, positions, start, cuts):
    """A :class:`Wavefront` over ``looper``'s one seed whose fresh run is
    window slots ``[start, ...)``: it holds the slots up to ``cuts[0]``,
    and each refuel hands it the slots up to the next cut — or, past the
    last, ends the walk with the proposals its cell had used."""
    state = looper._states[0]
    wave = object.__new__(Wavefront)
    wave.looper, wave.cutoff, wave.stalls = looper, cutoff, 0
    wave.read_counts = looper.aggregate_kind != "sum"
    wave.counted = not looper._candidates.always_present
    wave.old = state.contribution[None, :].copy()
    wave.old_n = state.presence_count[None, :].copy()
    wave.runs = [state.candidate]
    wave.run_key = np.array([-int(positions[0])])
    wave.ptr = np.array([int(positions[start])])
    wave.assignment = np.zeros((1, VERSIONS), dtype=np.int64)
    cuts = list(cuts)
    wave.stop = np.array([int(positions[0]) + cuts.pop(0)])

    def refuel(d, dry, pending, used):
        if not cuts:
            raise _Exhausted(used)
        wave.stop[0] = int(positions[0]) + cuts.pop(0)

    wave._refuel = refuel
    return wave


class TestCandidateWalkAgainstMatrixScan:
    """The anti-diagonal sweep's scalar finder (``Wavefront._find``)
    evaluates a single-seed tuple's candidates in chunks as the pointer
    passes them, one cell at a time; the matrix path (``_build_window``
    then ``_scan_window``) evaluates the whole window first.  Same
    verdicts, same walk — also when refuels hand the finder the window
    in pieces, its cell resuming with the proposals it has used."""

    @given(data=st.data(), kind=st.sampled_from(["sum", "count", "avg"]),
           predicate=st.sampled_from([None, col("x") > lit(0.0),
                                      col("d") > lit(0.0)]),
           max_proposals=st.integers(1, 6), cutoff=_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_same_walk(self, data, kind, predicate, max_proposals, cutoff):
        relation = BundleRelation(1, WINDOW, aligned=False)
        relation.add_det_column("d", _floats(data.draw, 1))
        relation.add_rand_column("x", RandomColumn(
            _floats(data.draw, WINDOW).reshape(1, WINDOW), [OWN]))
        if data.draw(st.booleans()):
            relation.add_presence(PresenceColumn(
                _flags(data.draw, WINDOW).reshape(1, WINDOW), [OWN]))
        aggregate = None if kind == "count" else col("x")
        start = data.draw(st.integers(0, WINDOW - 1))
        stop = data.draw(st.integers(start + 1, WINDOW))
        cuts = sorted(data.draw(st.sets(st.integers(start, stop - 1)))) \
            + [stop]
        version = data.draw(st.integers(0, VERSIONS - 1))
        looper = _walk_looper(relation, aggregate, kind, predicate,
                              max_proposals, data.draw)
        if looper._candidates.always_present:
            # As in a looper (its splices check it): an always-present
            # tuple counts 1 in every version.
            looper._states[0].presence_count[:] = 1.0
        positions = np.arange(100, 100 + WINDOW, dtype=np.int64)
        ts = TSSeed(info=SimpleNamespace(handle=OWN), positions=positions,
                    max_used=int(positions[start]) - 1,
                    assignment=positions[:VERSIONS].copy())
        stats = GibbsStats()
        window = looper._build_window(
            ts, [0], version, cutoff, start, stop, WINDOW)
        (versions, columns), _, last, used = looper._scan_window(
            ts, window, version, 0, stats)
        want = ([(v, int(positions[start + column]))
                 for v, column in zip(versions, columns)], last, used,
                ts.max_used, stats.proposals, stats.stalls)

        wave = _finder(looper, cutoff, positions, start, cuts)
        accepted, at, used = [], version, 0
        try:
            while at < VERSIONS:
                stalls = wave.stalls
                wave._find([0], at)
                if wave.stalls == stalls:
                    accepted.append((at, int(wave.assignment[0, at])))
                at += 1
        except _Exhausted as exhausted:
            used = exhausted.used
        got = (accepted, at, used, int(wave.ptr[0]) - 1,
               int(wave.ptr[0] - positions[start]), wave.stalls)
        assert got == want


def _scalar_scan(acceptable, first_version, version, proposals_used,
                 versions, max_proposals):
    """One candidate at a time: the consumption pointer hands the next
    unconsumed candidate to the current version; an acceptable one is
    taken, an unacceptable one is burnt, ``max_proposals`` burnt in a
    row make the version stall (keep its value)."""
    rows, width = acceptable.shape
    accepted, proposals, stalls, column = [], 0, 0, 0
    while version < min(versions, first_version + rows) and column < width:
        proposals += 1
        if acceptable[version - first_version, column]:
            accepted.append((version, column))
            version += 1
            proposals_used = 0
        else:
            proposals_used += 1
            if proposals_used == max_proposals:
                stalls += 1
                version += 1
                proposals_used = 0
        column += 1
    return accepted, column, version, proposals_used, proposals, stalls


def _scan(acceptable, first_version, version, proposals_used, versions,
          max_proposals, lo=3):
    looper = object.__new__(GibbsLooper)
    looper._versions = versions
    looper.max_proposals = max_proposals
    width = acceptable.shape[1]
    positions = np.arange(100, 100 + lo + width + 2, dtype=np.int64)
    ts = TSSeed(info=None, positions=positions, max_used=int(positions[0]),
                assignment=positions[:1].copy())
    stats = GibbsStats()
    window = (lo, lo + width, first_version, acceptable, None, None)
    (accepted_versions, accepted_columns), consumed, version, used = \
        looper._scan_window(ts, window, version, proposals_used, stats)
    # The pointer's progress is recorded on the seed, by position.
    expected_max = positions[lo + consumed - 1] if consumed else positions[0]
    assert ts.max_used == expected_max
    return (list(zip(accepted_versions, accepted_columns)), consumed,
            version, used, stats.proposals, stats.stalls, stats.acceptances)


class TestScanAgainstScalarReference:
    @given(data=st.data(), rows=st.integers(1, 6), width=st.integers(1, 12),
           max_proposals=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_random_windows(self, data, rows, width, max_proposals):
        acceptable = _flags(data.draw, rows * width).reshape(rows, width)
        first_version = data.draw(st.integers(0, 3))
        version = first_version + data.draw(st.integers(0, rows - 1))
        # Fewer versions than rows clips the scan at ``version_limit``.
        versions = data.draw(st.integers(version + 1,
                                         first_version + rows + 2))
        used = data.draw(st.integers(0, max_proposals - 1))
        *got, acceptances = _scan(acceptable, first_version, version, used,
                                  versions, max_proposals)
        want = _scalar_scan(acceptable, first_version, version, used,
                            versions, max_proposals)
        assert tuple(got) == want
        assert acceptances == len(want[0])

    def test_stall_at_max_proposals(self):
        acceptable = np.zeros((3, 7), dtype=bool)
        acceptable[1, 5] = True
        accepted, consumed, version, used, proposals, stalls, _ = _scan(
            acceptable, 0, 0, 0, versions=3, max_proposals=3)
        # Version 0 burns 3 and stalls, version 1 burns 2 and accepts
        # column 5, version 2 gets the one candidate left.
        assert accepted == [(1, 5)]
        assert (consumed, version, used) == (7, 2, 1)
        assert (proposals, stalls) == (7, 1)

    def test_proposals_used_carries_over_a_window_edge(self):
        """A version that burnt 2 of its 3 proposals in the previous
        window stalls after one more rejection in this one."""
        acceptable = np.array([[False, True, True]])
        accepted, consumed, version, used, proposals, stalls, _ = _scan(
            acceptable, 4, 4, 2, versions=9, max_proposals=3)
        assert accepted == [] and stalls == 1
        assert (consumed, version, used, proposals) == (1, 5, 0, 1)
        # ... and with a fresh budget it would have accepted column 1.
        assert _scan(acceptable, 4, 4, 0, versions=9,
                     max_proposals=3)[0] == [(4, 1)]

    def test_window_without_acceptable_cell(self):
        acceptable = np.zeros((4, 6), dtype=bool)
        accepted, consumed, version, used, proposals, stalls, _ = _scan(
            acceptable, 2, 2, 1, versions=20, max_proposals=100)
        assert accepted == [] and stalls == 0
        # Everything consumed by the one version, which resumes with its
        # budget spent so far in the next window.
        assert (consumed, version, used, proposals) == (6, 2, 7, 6)

    @pytest.mark.parametrize("versions,expected", [(3, 2), (5, 4)])
    def test_version_limit_clips(self, versions, expected):
        acceptable = np.ones((4, 6), dtype=bool)
        accepted, consumed, version, _, _, _, _ = _scan(
            acceptable, 1, 1, 0, versions=versions, max_proposals=5)
        assert len(accepted) == expected == consumed
        assert version == min(versions, 5)
