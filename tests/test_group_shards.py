"""Group parts: a grouped Monte Carlo query sharded by group, not by slice.

When a query's GROUP BY keys are fixed by its random table's own rows,
``MonteCarloExecutor.run`` may deal whole groups to workers, each running
every repetition over its groups' seeds only; the parts' groups then
merge without arithmetic.  These tests hold that layout to the serial run
bit for bit — every sample's bytes, and the groups in the serial order —
on every backend, pin which layout a query takes (the draw-count rule on
eligible shapes, repetition slices on every other), count the seeds each
part draws, and drill a part that fails.  The property runs derandomized
in the test suite; ``GROUP_SHARD_PROFILE=stress`` runs it with a large
random sample::

    GROUP_SHARD_PROFILE=stress PYTHONPATH=src python -m pytest -q \\
        tests/test_group_shards.py
"""

import multiprocessing
import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExecutionOptions
from repro.engine.backends import make_backend
from repro.engine.errors import EngineError
from repro.engine.expressions import col, lit
from repro.engine.mcdb import AggregateSpec, MonteCarloExecutor
from repro.engine.operators import (
    Instantiate, Join, Scan, Seed, Select, random_table_pipeline)
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.sql import Session
from repro.vg.builtin import NORMAL
from repro.vg.streams import DEFAULT_CHUNK
from repro.workloads import TPCHWorkload

PROFILES = {
    "default": settings(max_examples=100, deadline=None, derandomize=True),
    "stress": settings(max_examples=2_000, deadline=None),
}
PROFILE = PROFILES[os.environ.get("GROUP_SHARD_PROFILE", "default")]

BACKENDS = ("serial", "thread", "process")
KEY_POOLS = {
    "int": [3, 1, 7, 2],
    "float": [0.5, -1.25, 2.0, 1e9],
    "str": ["b", "a", "d", "c"],
}
AGGREGATES = [
    AggregateSpec("total", "sum", col("val")),
    AggregateSpec("n", "count"),
    AggregateSpec("mean", "avg", col("val")),
    AggregateSpec("low", "min", col("val")),
    AggregateSpec("high", "max", col("val")),
]
#: Plan shapes: the first two are eligible for group parts, the rest
#: fail the rule (a right-side GROUP BY column, the random table on the
#: right of a join, a self-join's two Instantiates).
SHAPES = ("plain", "join", "right_key", "random_right", "self_join")


def _spec():
    return RandomTableSpec(
        name="R", parameter_table="base", vg=NORMAL,
        vg_params=(col("m"), col("v")),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("id", "key", "k2"))


@st.composite
def cases(draw):
    rows = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(sorted(KEY_POOLS)))
    distinct = draw(st.integers(1, 4))
    pool = KEY_POOLS[kind][:distinct]
    base = {
        "id": np.arange(rows),
        "key": np.array([draw(st.sampled_from(pool)) for _ in range(rows)]),
        "k2": np.array(draw(st.lists(st.integers(0, 1), min_size=rows,
                                     max_size=rows))),
        "m": np.array(draw(st.lists(
            st.floats(-3, 3, allow_nan=False), min_size=rows,
            max_size=rows))),
        "v": np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]),
                                    min_size=rows, max_size=rows))),
    }
    # Join fan-out: each right row names a seed, or none (-1); some seeds
    # get several mates, some none.
    mates = draw(st.lists(st.integers(-1, rows - 1), min_size=1,
                          max_size=2 * rows + 1))
    right = {"rid": np.array(mates),
             "seg": np.array([draw(st.sampled_from(["x", "y"]))
                              for _ in mates])}
    return {
        "base": base, "right": right,
        "shape": draw(st.sampled_from(SHAPES)),
        "threshold": draw(st.sampled_from([None, -0.5, 0.8])),
        "two_keys": draw(st.booleans()),
        "n": draw(st.sampled_from([200, 7, 300, 256, 1])),
        "n_jobs": draw(st.sampled_from([2, 3])),
    }


def _catalog(case) -> Catalog:
    catalog = Catalog()
    catalog.add_table(Table("base", case["base"]))
    catalog.add_table(Table("right", case["right"]))
    return catalog


def _plan_and_groups(case):
    shape, spec = case["shape"], _spec()
    if shape == "self_join":
        plan = Join(random_table_pipeline(spec, prefix="a."),
                    random_table_pipeline(spec, prefix="b."),
                    ["a.id"], ["b.id"])
        plan = Select(plan, col("a.val") > lit(case["threshold"] or -9.0))
        return plan, ["a.key"], "a.val"
    pipeline = random_table_pipeline(spec)
    if shape == "plain":
        plan = pipeline
    elif shape == "random_right":
        plan = Join(Scan("right"), pipeline, ["rid"], ["id"])
    else:
        plan = Join(pipeline, Scan("right"), ["id"], ["rid"])
    if case["threshold"] is not None:
        plan = Select(plan, col("val") > lit(case["threshold"]))
    groups = ["seg"] if shape == "right_key" else ["key"]
    if case["two_keys"]:
        groups.append("k2")
    return plan, groups, "val"


def _executor(case, options=None, backend=None) -> MonteCarloExecutor:
    plan, groups, value = _plan_and_groups(case)
    aggregates = [AggregateSpec(spec.name, spec.kind,
                                None if spec.expr is None else col(value))
                  for spec in AGGREGATES]
    return MonteCarloExecutor(plan, aggregates, _catalog(case),
                              group_by=groups, base_seed=11,
                              options=options, backend=backend)


def _expected_layout(case) -> str:
    """The layout rule, restated: eligible shapes with two or more keys
    take group parts when the busiest part draws fewer stream values than
    the widest repetition slice (counting its chunk prefix)."""
    n, n_jobs = case["n"], case["n_jobs"]
    if n == 1:
        return "serial"
    if case["shape"] not in ("plain", "join"):
        return "slices"
    base = case["base"]
    keys = list(zip(base["key"].tolist(), base["k2"].tolist())) \
        if case["two_keys"] else base["key"].tolist()
    counts = {}
    for key in keys:  # dicts keep first-appearance order
        counts[key] = counts.get(key, 0) + 1
    if len(counts) < 2:
        return "slices"
    loads = [0] * min(n_jobs, len(counts))
    for key in sorted(counts, key=lambda key: -counts[key]):  # stable
        loads[loads.index(min(loads))] += counts[key]
    bounds = ExecutionOptions(n_jobs=n_jobs).shard_bounds(n)
    slice_width = max(hi - lo // DEFAULT_CHUNK * DEFAULT_CHUNK
                      for lo, hi in bounds)
    return ("parts" if max(loads) * n < len(keys) * slice_width
            else "slices")


@contextmanager
def layout_spy():
    """Record which layout each ``run`` took: ``"parts"`` (group parts),
    ``"slices"`` (repetition slices) or ``"serial"`` (neither)."""
    taken = []
    run_parts = MonteCarloExecutor._run_parts
    merge_shards = MonteCarloExecutor._merge_shards

    def parts(self, *args):
        taken.append("parts")
        return run_parts(self, *args)

    def slices(self, *args):
        taken.append("slices")
        return merge_shards(self, *args)

    MonteCarloExecutor._run_parts = parts
    MonteCarloExecutor._merge_shards = slices
    try:
        yield taken
    finally:
        MonteCarloExecutor._run_parts = run_parts
        MonteCarloExecutor._merge_shards = merge_shards


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


def assert_same_result(got, want):
    """Same groups in the serial run's order (by lead), every sample's
    bytes equal."""
    assert got.group_keys == want.group_keys
    assert list(got._groups) == list(want._groups)
    assert got.repetitions == want.repetitions
    for key in want.group_keys:
        for name, distribution in want.aggregates(key).items():
            assert _bits(got.distribution(name, key).samples) == \
                _bits(distribution.samples), (key, name)


@pytest.fixture(scope="module", params=BACKENDS)
def pool(request):
    """One backend per transport for every example: three workers serve
    both ``n_jobs`` values (a job uses as many as it has tasks)."""
    backend = make_backend(ExecutionOptions(n_jobs=3,
                                            backend=request.param))
    yield request.param, backend
    backend.close()


class TestGroupPartsEqualSerial:
    @PROFILE
    @given(case=cases())
    def test_group_parts_bits_and_layout(self, pool, case):
        name, backend = pool
        serial = _executor(case).run(case["n"])
        options = ExecutionOptions(n_jobs=case["n_jobs"], backend=name)
        with layout_spy() as taken:
            sharded = _executor(case, options, backend).run(case["n"])
        assert taken == ([] if case["n"] == 1
                         else [_expected_layout(case)])
        assert_same_result(sharded, serial)


def _count_instantiated(monkeypatch):
    """Rows every ``Instantiate`` fills, summed over all runs (in this
    process: serial and thread backends)."""
    filled = []
    gather = Instantiate._gather_aligned

    def counting(self, context, relation, handles):
        filled.append(handles.copy())
        return gather(self, context, relation, handles)

    monkeypatch.setattr(Instantiate, "_gather_aligned", counting)
    return filled


MC_QUERY = """
    SELECT o_yr, SUM(val) AS total, COUNT(*) AS n FROM random_ord, lineitem
    WHERE o_orderkey = l_orderkey GROUP BY o_yr
    WITH RESULTDISTRIBUTION MONTECARLO(200)
"""
UNGROUPED_QUERY = """
    SELECT SUM(val) AS total FROM random_ord
    WITH RESULTDISTRIBUTION MONTECARLO(200)
"""


class TestPathEvidence:
    WORKLOAD = TPCHWorkload(orders=400, lineitems=1500, seed=5)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_each_seed_drawn_once_in_parts(self, monkeypatch, backend):
        """The join + group-by query at 200 repetitions on two workers
        takes group parts: the parts' seeds are disjoint and together
        are the serial run's, each drawn for every repetition once."""
        with self.WORKLOAD.build_session(base_seed=7) as session:
            filled = _count_instantiated(monkeypatch)
            serial = session.execute(MC_QUERY).distributions
            (everything,) = filled
        options = ExecutionOptions(n_jobs=2, backend=backend)
        with self.WORKLOAD.build_session(base_seed=7,
                                         options=options) as session:
            filled.clear()
            with layout_spy() as taken:
                sharded = session.execute(MC_QUERY).distributions
        assert taken == ["parts"]
        assert len(filled) == 2
        drawn = np.concatenate(filled)
        assert drawn.size == everything.size == self.WORKLOAD.orders
        np.testing.assert_array_equal(np.sort(drawn), np.sort(everything))
        assert_same_result(sharded, serial)

    def test_ungrouped_query_takes_repetition_slices(self):
        options = ExecutionOptions(n_jobs=2, backend="thread")
        with self.WORKLOAD.build_session(base_seed=7,
                                         options=options) as session:
            with layout_spy() as taken:
                session.execute(UNGROUPED_QUERY)
        assert taken == ["slices"]

    def test_large_n_keeps_repetition_slices(self):
        """At 2 048 repetitions the halves start on chunk edges: each
        slice draws 1 024 values per seed, fewer than the busiest
        part's share of 2 048."""
        options = ExecutionOptions(n_jobs=2, backend="serial")
        with self.WORKLOAD.build_session(base_seed=7,
                                         options=options) as session:
            with layout_spy() as taken:
                session.execute(MC_QUERY.replace("(200)", "(2048)"))
        assert taken == ["slices"]

    def test_a_group_from_the_wrong_part_is_refused(self, monkeypatch):
        """The merge's bug guard: a part that returns a group it was not
        dealt raises instead of merging."""
        run_shard = MonteCarloExecutor.run_shard

        def swapped(self, lo, hi):
            return run_shard(self, 1 - lo, 2 - lo)

        monkeypatch.setattr(MonteCarloExecutor, "run_shard", swapped)
        options = ExecutionOptions(n_jobs=2, backend="serial")
        with self.WORKLOAD.build_session(base_seed=7,
                                         options=options) as session:
            with pytest.raises(EngineError, match="not dealt"):
                session.execute(MC_QUERY)


class TestHandBuiltPlans:
    """Plans the planner does not build: a join *below* the
    ``Instantiate``.  Its input's seed handles can repeat (a fan-out) or
    come out of order (the seeds on the right), so neither a deal by
    handle nor a merge by first-row handle would hold: the query takes
    repetition slices."""

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    @pytest.mark.parametrize("seeds_left", [True, False],
                             ids=["fan_out", "reordered"])
    def test_join_below_instantiate_takes_repetition_slices(
            self, backend, seeds_left):
        catalog = Catalog()
        catalog.add_table(Table("base", {
            "id": np.arange(4), "key": np.array(["a", "b", "a", "b"]),
            "m": np.array([0.0, 1.0, 2.0, 3.0]), "v": np.ones(4)}))
        mates = [0, 0, 1, 2, 2, 3] if seeds_left else [2, 0, 3, 1]
        catalog.add_table(Table("right", {"rid": np.array(mates)}))
        seed = Seed(Scan("base"), label="R", column_name="R#seed")
        joined = (Join(seed, Scan("right"), ["id"], ["rid"]) if seeds_left
                  else Join(Scan("right"), seed, ["rid"], ["id"]))
        plan = Instantiate(joined, NORMAL, [col("m"), col("v")],
                           [("val", 0)], seed.handle_column)

        def executor(options=None, backend=None):
            return MonteCarloExecutor(plan, AGGREGATES, catalog,
                                      group_by=["key"], base_seed=3,
                                      options=options, backend=backend)

        serial = executor().run(200)
        options = ExecutionOptions(n_jobs=2, backend=backend)
        with make_backend(options) as pool, layout_spy() as taken:
            sharded = executor(options, pool).run(200)
        assert taken == ["slices"]
        assert_same_result(sharded, serial)


CREATE = """
    CREATE TABLE R (id, g, val) AS FOR EACH id IN params
    WITH x AS Normal(VALUES(m, v))
    SELECT id, g, x.* FROM x
"""
GROUPED = ("SELECT g, SUM(val) AS total, COUNT(*) AS n FROM R {where}"
           "GROUP BY g WITH RESULTDISTRIBUTION MONTECARLO(200)")


def _fault_session(options=None) -> Session:
    session = Session(base_seed=4, options=options)
    groups = ["a", "b", "c"] * 4
    variances = [1.0] * 12
    variances[8] = -1.0  # one seed of group "c"
    session.add_table("params", {
        "id": np.arange(12), "g": groups,
        "m": np.linspace(0.0, 2.0, 12), "v": variances})
    session.execute(CREATE)
    return session


def _new_children(before: set) -> list:
    return [child.pid for child in multiprocessing.active_children()
            if child.pid not in before]


class TestGroupPartFaults:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_negative_variance_in_one_part(self, backend):
        """A part whose group holds a negative variance fails typed; the
        process pool is reset with no child left, and the next query on
        the same session equals the serial run's bytes."""
        with _fault_session() as serial_session:
            clean = GROUPED.format(where="WHERE g <> 'c' ")
            expected = serial_session.execute(clean).distributions
        before = {child.pid for child in multiprocessing.active_children()}
        options = ExecutionOptions(n_jobs=2, backend=backend)
        with _fault_session(options) as session:
            with layout_spy() as taken, pytest.raises(
                    EngineError, match="variance must be >= 0"):
                session.execute(GROUPED.format(where=""))
            assert taken == ["parts"]
            if backend == "process":
                assert session.backend.workers_alive == 0
                assert _new_children(before) == []
            with layout_spy() as taken:
                recovered = session.execute(clean).distributions
            assert taken == ["parts"]
        assert_same_result(recovered, expected)
        assert _new_children(before) == []
