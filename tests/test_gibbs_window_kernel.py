"""The Gibbs window kernel and scan against straightforward references.

``candidate_window_matrices`` keeps every intermediate at its natural
broadcast rank; ``_dense_reference`` below is the plain dense form — every
operand expanded to ``(count, width)`` up front, accumulators seeded with
zero matrices — and the two must agree *bit for bit* (signed zeros
included).  ``_scan_window`` walks the acceptability matrix on plain
ints; ``_scalar_scan`` is the one-candidate-at-a-time walk it must
reproduce.  Both references live only here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gibbs import GibbsStats
from repro.core.gibbs_looper import (
    GibbsLooper, _TupleState, candidate_window_matrices)
from repro.core.gibbs_tuple import GibbsTuple, PresenceField, RandField
from repro.core.ts_seed import TSSeed
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
        for presence_field, cached in zip(gibbs_tuple.presences,
                                          state.presence):
            if presence_field.handle == handle:
                present = present & presence_field.flags[start:stop]
            else:
                present = present & cached[remaining, None]
        if final_predicate is not None:
            present = present & np.broadcast_to(
                np.asarray(final_predicate.evaluate(context), dtype=bool),
                (count, width))
        old = np.where(state.present[remaining], state.value[remaining],
                       0.0)[:, None]
        delta_sum += np.where(present, value, 0.0) - old
        delta_count += (present.astype(np.float64)
                        - state.present[remaining].astype(np.float64)[:, None])
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


@st.composite
def _window_cases(draw):
    """1-3 tuples of the perturbed seed, each optionally carrying a
    foreign-seed random column and presence fields on either seed."""
    any_foreign_column = False
    tuples, states = [], []
    for tuple_id in range(draw(st.integers(1, 3))):
        rand = {"x": RandField("x", OWN, _floats(draw, WINDOW))}
        state = _TupleState()
        state.values["x"] = _floats(draw, VERSIONS)
        if draw(st.booleans()):
            any_foreign_column = True
            rand["y"] = RandField("y", FOREIGN, _floats(draw, WINDOW))
            state.values["y"] = _floats(draw, VERSIONS)
        presences = []
        for handle in (OWN, FOREIGN):
            if draw(st.booleans()):
                presences.append(PresenceField(handle, _flags(draw, WINDOW)))
                state.presence.append(_flags(draw, VERSIONS))
        state.value = _floats(draw, VERSIONS)
        state.present = _flags(draw, VERSIONS)
        tuples.append(GibbsTuple(
            tuple_id, {"d": np.float64(draw(_VALUES))}, rand, presences))
        states.append(state)
    # Expressions may only name "y" when every tuple has it.
    every_y = all("y" in gibbs_tuple.rand for gibbs_tuple in tuples)
    aggregates = [None, col("x"), col("x") * col("d"), col("d")]
    predicates = [None, col("x") > lit(0.0), col("d") > lit(0.0)]
    if every_y and any_foreign_column:
        aggregates += [col("x") - col("y"), col("y")]
        predicates += [col("x") > col("y")]
    first_version = draw(st.integers(0, VERSIONS - 1))
    count = draw(st.integers(1, VERSIONS - first_version))
    start = draw(st.integers(0, WINDOW - 1))
    stop = draw(st.integers(start + 1, WINDOW))
    return (tuples, states, OWN, draw(st.sampled_from(aggregates)),
            draw(st.sampled_from(predicates)), first_version, count, start,
            stop)


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
        ref_sum, ref_count, ref_values, ref_present = _dense_reference(*case)
        _same_bits(delta_sum, ref_sum)
        _same_bits(delta_count, ref_count)
        for got, want in zip(values + present, ref_values + ref_present):
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
        first_version, count, start, stop = case[5:]
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
