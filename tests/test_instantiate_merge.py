"""The batched delta merge against the per-row one it replaced.

A delta refuel re-runs ``Instantiate`` with a new position plan and
merges: every row it keeps copies the positions its handle's previous
window already held and draws the rest from its stream.  Under a
refuel's handle filter (``ExecutionContext.handle_filter``) it keeps
only the re-planned seeds' rows; without one, every row.
``Instantiate._merge_delta`` matches all rows in one vectorized pass —
run overlap by offset, the head by one search, one batched stream fill;
``PerRowMergeInstantiate`` (``tests/instantiate_oracles.py``) is the
row-at-a-time loop.  Both run the same baseline and refuel on their own
context, and must agree on the runs (bit for bit), the offsets, the
bases, the recorded per-handle baseline (positions, values and where
each window's last contiguous run starts) and the computed/reused row
counters.

Cases are ragged: every handle's window has its own length, in the
baseline and in the refuel.  They mix carried-over and re-planned rows
(with or without the handle filter), handles repeated within a run (a
self-join), a one- and a two-output VG, and refuel-shaped plans
(assigned positions plus a contiguous fresh run) as well as arbitrary
ones.  A delta run merges rows whose handles the baseline holds: any
other row set leaves ``Instantiate`` nothing to merge into.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from instantiate_oracles import PerRowMergeInstantiate
from repro.engine.bundles import BundleRelation
from repro.engine.expressions import col, lit
from repro.engine.operators import ExecutionContext, Instantiate, PlanNode
from repro.engine.table import Catalog
from repro.vg.builtin import MULTIVARIATE_NORMAL, NORMAL

#: Two correlated outputs per block: means (m, -m), covariance [[1, .5],
#: [.5, 2]].
_MVN_PARAMS = [col("m"), lit(0.0) - col("m"), lit(1.0), lit(0.5), lit(0.5),
               lit(2.0)]


class _Rows(PlanNode):
    """A fixed relation: handle column ``h`` and VG mean ``m``.  Counts as
    random so no det cache holds it across runs."""

    def __init__(self):
        super().__init__([])
        self.handles: list[int] = []

    @property
    def contains_random(self) -> bool:
        return True

    def _run(self, context):
        relation = BundleRelation(len(self.handles), context.positions,
                                  aligned=False)
        relation.add_det_column("h", np.array(self.handles, dtype=np.int64))
        relation.add_det_column(
            "m", np.array(self.handles, dtype=np.float64) % 7)
        return relation


def _positions(draw, width, low=0):
    """A refuel-shaped window (sorted assigned positions, then a
    contiguous fresh run) or an arbitrary ascending one."""
    if draw(st.booleans()):
        assigned = sorted(draw(st.sets(st.integers(low, low + 30),
                                       max_size=width - 1)))
        start = (assigned[-1] + 1 if assigned else low) + draw(
            st.integers(0, 3))
        run = list(range(start, start + width - len(assigned)))
        return np.array(assigned + run, dtype=np.int64)
    return np.array(sorted(draw(st.sets(
        st.integers(low, low + 60), min_size=width, max_size=width))),
        dtype=np.int64)


@st.composite
def _merge_cases(draw):
    old_handles = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    old_width = draw(st.integers(2, 9))
    baseline = None
    if draw(st.booleans()):  # else one shared window: arange(old_width)
        baseline = {handle: _positions(draw, draw(st.integers(2, 9)))
                    for handle in set(old_handles)}
    refuel, replanned = {}, set()
    for handle in sorted(set(old_handles)):
        if draw(st.booleans()):
            # Carried over: the plan entry the baseline run used.
            if baseline is not None:
                refuel[handle] = baseline[handle]
            continue
        replanned.add(handle)
        if draw(st.integers(0, 4)):  # else the default window
            refuel[handle] = _positions(draw, draw(st.integers(2, 12)),
                                        low=draw(st.integers(0, 20)))
    handle_filter = frozenset(replanned) if draw(st.booleans()) else None
    return (old_handles, old_width, baseline, refuel, handle_filter,
            draw(st.booleans()))


def _merge(node_class, case):
    """Baseline run, then the delta refuel; what the refuel produced."""
    handles, old_width, baseline, refuel, handle_filter, two_outputs = case
    rows = _Rows()
    if two_outputs:
        node = node_class(rows, MULTIVARIATE_NORMAL, _MVN_PARAMS,
                          [("a", 0), ("b", 1)], "h")
    else:
        node = node_class(rows, NORMAL, [col("m"), lit(1.0)], [("v", 0)],
                          "h")
    context = ExecutionContext(Catalog(), positions=old_width,
                               aligned=False, base_seed=7)
    context.delta_tracking = True
    rows.handles = list(handles)
    if baseline is not None:
        context.position_plan = dict(baseline)
    node.execute(context)
    context.position_plan = dict(refuel)
    context.handle_filter = handle_filter
    context.delta_mode = True
    computed, reused = (context.instantiate_rows_computed,
                        context.instantiate_rows_reused)
    relation = node.execute(context)
    materialized = context.materialized[node.node_id]
    return {
        "runs": {name: (column.values, column.offsets, column.bases)
                 for name, column in relation.rand_columns.items()},
        "positions": materialized.positions,
        "values": materialized.values,
        "finals": materialized.finals,
        "counters": (context.instantiate_rows_computed - computed,
                     context.instantiate_rows_reused - reused,
                     context.delta_runs),
    }


class TestBatchedMergeAgainstPerRow:
    @given(case=_merge_cases())
    @settings(max_examples=200, deadline=None)
    def test_same_refuel(self, case):
        got, want = _merge(Instantiate, case), _merge(
            PerRowMergeInstantiate, case)
        assert got["counters"] == want["counters"]
        assert got["runs"].keys() == want["runs"].keys()
        for name, (values, offsets, bases) in want["runs"].items():
            got_values, got_offsets, got_bases = got["runs"][name]
            assert got_values.tobytes() == values.tobytes()
            np.testing.assert_array_equal(got_offsets, offsets)
            np.testing.assert_array_equal(got_bases, bases)
        assert got["positions"].keys() == want["positions"].keys()
        for handle, positions in want["positions"].items():
            np.testing.assert_array_equal(got["positions"][handle],
                                          positions)
            assert got["values"][handle].tobytes() == \
                want["values"][handle].tobytes()
        assert got["finals"] == want["finals"]

    def test_refuel_merges_moved_rows_in_one_stream_fill(self, monkeypatch):
        """Every position a refuel lacks, across all moved rows, comes
        from one batched range fill — never from a per-row stream call,
        nor from the point fill."""
        from repro.engine import operators
        fills = []
        batched = operators.gather_stream_windows

        def spy(draw, streams, starts, stops, components):
            fills.append(int(np.sum(np.subtract(stops, starts))))
            return batched(draw, streams, starts, stops, components)

        def points(*args, **kwargs):
            raise AssertionError("point fill in a refuel")

        monkeypatch.setattr(operators, "gather_stream_windows", spy)
        monkeypatch.setattr(operators, "gather_stream_points", points)
        # Baseline: one shared window 0..3 (a batched full fill).  Handle
        # 1 keeps its window; 2 and 3 refuel to windows of their own
        # depths.
        plans = {2: np.array([1, 3, 4, 5]), 3: np.array([0, 4, 5, 6, 7])}
        got = _merge(Instantiate, ([1, 2, 3], 4, None, plans, None, False))
        # The baseline's three windows, then the refuel: row 2 lacks 4
        # and 5, row 3 lacks 4-7.
        assert fills == [12, 6]
        assert got["counters"] == (2, 1, 1)
        np.testing.assert_array_equal(got["runs"]["v"][1], [0, 4, 8, 13])
        # Under the refuel's handle filter, row 1 is not computed at all.
        fills.clear()
        got = _merge(Instantiate, ([1, 2, 3], 4, None, plans,
                                   frozenset({2, 3}), False))
        assert fills == [12, 6]
        assert got["counters"] == (2, 0, 1)
        np.testing.assert_array_equal(got["runs"]["v"][1], [0, 4, 9])
