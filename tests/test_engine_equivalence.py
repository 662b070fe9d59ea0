"""The gate for the vectorized execution layer.

``engine="vectorized"`` and ``engine="reference"`` must produce *identical*
results — same tail samples, same (handle -> position) assignments, same
acceptance statistics, same replenishment schedule — for the same session
seed, on randomized plans and seeds.  Likewise the sharded Monte Carlo
executor must be invariant to ``n_jobs`` and shard geometry, and every
``backend × n_jobs × engine × replenishment × window_growth × shm``
combination must be bit-identical to the serial reference — a tail query
with ``n_jobs > 1`` included, which runs the serial looper in-process.
Nothing here is approximate: every comparison is exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gibbs_looper import GibbsLooper
from repro.core.params import TailParams
from repro.engine.expressions import col, lit
from repro.engine.mcdb import AggregateSpec, MonteCarloExecutor
from repro.engine.operators import (
    Join, Scan, Select, Split, random_table_pipeline)
from repro.engine.options import ExecutionOptions
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.sql import Session
from repro.vg.builtin import DISCRETE_CHOICE, NORMAL

ENGINES = ("reference", "vectorized")
BACKENDS = ("serial", "thread", "process")


def _losses_catalog(customers):
    catalog = Catalog()
    means = np.linspace(0.8, 3.5, customers)
    catalog.add_table(Table("means", {
        "CID": np.arange(customers), "m": means}))
    spec = RandomTableSpec(
        name="Losses", parameter_table="means", vg=NORMAL,
        vg_params=(col("m"), lit(1.0)),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID",))
    return catalog, spec


def _assert_identical(a, b):
    """Exact equality of everything a LooperResult exposes."""
    assert a.quantile_estimate == b.quantile_estimate
    np.testing.assert_array_equal(a.samples, b.samples)
    assert a.assignments == b.assignments
    assert a.plan_runs == b.plan_runs
    assert a.num_seeds == b.num_seeds
    assert a.num_tuples == b.num_tuples
    assert len(a.trace) == len(b.trace)
    for step_a, step_b in zip(a.trace, b.trace):
        assert step_a.cutoff == step_b.cutoff
        assert step_a.elite_count == step_b.elite_count
        assert step_a.replenish_runs == step_b.replenish_runs
        assert (step_a.stats.proposals, step_a.stats.acceptances,
                step_a.stats.stalls) == (step_b.stats.proposals,
                                         step_b.stats.acceptances,
                                         step_b.stats.stalls)


class TestLooperEquivalence:
    """Vectorized vs reference GibbsLooper on the portfolio family."""

    def _run(self, engine, customers=20, window=250, base_seed=0,
             aggregate_kind="sum", k=1, num_samples=25, m=2, p_step=0.3,
             versions=40, predicate=None, max_proposals=100_000,
             replenishment="delta", n_jobs=1, backend="process",
             shard_size=None, window_growth=1.0, shm="on"):
        catalog, spec = _losses_catalog(customers)
        plan = random_table_pipeline(spec)
        if predicate is not None:
            plan = Select(plan, predicate)
        params = TailParams(p=p_step ** m, m=m, n_steps=(versions,) * m,
                            p_steps=(p_step,) * m)
        expr = None if aggregate_kind == "count" else col("val")
        return GibbsLooper(
            plan, catalog, params, num_samples,
            aggregate_kind=aggregate_kind, aggregate_expr=expr,
            window=window, base_seed=base_seed, k=k,
            max_proposals=max_proposals,
            options=ExecutionOptions(engine=engine,
                                     replenishment=replenishment,
                                     n_jobs=n_jobs, backend=backend,
                                     shard_size=shard_size,
                                     window_growth=window_growth,
                                     shm=shm)).run()

    @given(customers=st.integers(3, 15),
           window=st.integers(60, 300),
           base_seed=st.integers(0, 10_000),
           aggregate_kind=st.sampled_from(["sum", "count", "avg"]),
           m=st.integers(1, 3))
    @settings(max_examples=12, deadline=None)
    def test_property_random_plans_and_seeds(self, customers, window,
                                             base_seed, aggregate_kind, m):
        kwargs = dict(customers=customers, window=window, base_seed=base_seed,
                      aggregate_kind=aggregate_kind, m=m, versions=30,
                      num_samples=15)
        if aggregate_kind == "count":
            kwargs["predicate"] = col("val") > lit(1.0)
        _assert_identical(self._run("reference", **kwargs),
                          self._run("vectorized", **kwargs))

    def test_replenishment_heavy_window(self):
        """A window barely above the population forces many plan re-runs —
        both engines must replenish at the same points."""
        kwargs = dict(customers=10, window=45, versions=40, m=2, base_seed=5)
        _assert_identical(self._run("reference", **kwargs),
                          self._run("vectorized", **kwargs))

    def test_multi_sweep_k(self):
        kwargs = dict(k=3, base_seed=17)
        _assert_identical(self._run("reference", **kwargs),
                          self._run("vectorized", **kwargs))

    def test_single_seed_presence_predicate(self):
        kwargs = dict(predicate=col("val") > lit(1.2), base_seed=23,
                      window=400)
        _assert_identical(self._run("reference", **kwargs),
                          self._run("vectorized", **kwargs))

    def test_tight_proposal_budget_stalls_identically(self):
        """With a tiny max_proposals both engines must stall on the same
        versions after consuming the same candidates."""
        kwargs = dict(max_proposals=7, base_seed=29, window=400, m=2)
        a = self._run("reference", **kwargs)
        b = self._run("vectorized", **kwargs)
        _assert_identical(a, b)
        assert a.total_stats.stalls > 0  # the scenario must exercise stalls

    def test_avg_aggregate_with_predicate(self):
        kwargs = dict(aggregate_kind="avg", predicate=col("val") > lit(0.5),
                      base_seed=31, window=400)
        _assert_identical(self._run("reference", **kwargs),
                          self._run("vectorized", **kwargs))


class TestDeltaReplenishmentEquivalence:
    """``replenishment="delta"`` must be bit-identical to full re-runs.

    The delta path merges never-materialized stream positions into the
    previous bundles and keeps the looper's per-version caches; streams
    are pure functions of position, so nothing observable may change —
    samples, assignments, acceptance statistics and the replenishment
    schedule itself all stay exact, for both engines.
    """

    _runner = TestLooperEquivalence()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_delta_equals_full_heavy_replenishment(self, engine):
        kwargs = dict(customers=10, window=45, versions=40, m=2, base_seed=5,
                      engine=engine)
        full = self._runner._run(replenishment="full", **kwargs)
        delta = self._runner._run(replenishment="delta", **kwargs)
        _assert_identical(full, delta)
        assert full.plan_runs > 1  # the scenario must replenish
        assert full.full_replenish_runs == full.plan_runs - 1
        assert full.delta_replenish_runs == 0
        assert delta.delta_replenish_runs == delta.plan_runs - 1
        assert delta.full_replenish_runs == 0

    @given(customers=st.integers(3, 12), window=st.integers(60, 200),
           base_seed=st.integers(0, 10_000),
           aggregate_kind=st.sampled_from(["sum", "count", "avg"]))
    @settings(max_examples=8, deadline=None)
    def test_property_delta_equals_full(self, customers, window, base_seed,
                                        aggregate_kind):
        kwargs = dict(customers=customers, window=window, base_seed=base_seed,
                      aggregate_kind=aggregate_kind, versions=30,
                      num_samples=15)
        if aggregate_kind == "count":
            kwargs["predicate"] = col("val") > lit(1.0)
        _assert_identical(
            self._runner._run("vectorized", replenishment="full", **kwargs),
            self._runner._run("vectorized", replenishment="delta", **kwargs))

    def test_presence_predicate_under_delta(self):
        kwargs = dict(predicate=col("val") > lit(1.2), base_seed=23,
                      window=60, customers=8, versions=40)
        full = self._runner._run("vectorized", replenishment="full", **kwargs)
        delta = self._runner._run("vectorized", replenishment="delta",
                                  **kwargs)
        _assert_identical(full, delta)
        assert full.plan_runs > 1

    def test_multi_seed_delta_equals_full(self):
        results = {}
        for replenishment in ("full", "delta"):
            catalog, plan = TestMultiSeedPlans._salary_plan()
            params = TailParams(p=0.1, m=1, n_steps=(60,), p_steps=(0.1,))
            results[replenishment] = GibbsLooper(
                plan, catalog, params, 30, aggregate_kind="sum",
                aggregate_expr=col("e2.sal") - col("e1.sal"),
                final_predicate=col("e2.sal") > col("e1.sal"),
                window=70, base_seed=3,
                options=ExecutionOptions(
                    replenishment=replenishment)).run()
        _assert_identical(results["full"], results["delta"])
        assert results["full"].plan_runs > 1

    def test_split_join_delta_equals_full(self):
        catalog = Catalog()
        catalog.add_table(Table("people", {"pid": np.arange(8)}))
        catalog.add_table(Table("bonus", {
            "bage": [20.0, 21.0], "amount": [10.0, 100.0]}))
        spec = RandomTableSpec(
            name="Ages", parameter_table="people", vg=DISCRETE_CHOICE,
            vg_params=(lit(20.0), lit(0.5), lit(21.0), lit(0.5)),
            random_columns=(RandomColumnSpec("age"),),
            passthrough_columns=("pid",))
        params = TailParams(p=0.2, m=1, n_steps=(50,), p_steps=(0.2,))
        results = {}
        for replenishment in ("full", "delta"):
            plan = Join(Split(random_table_pipeline(spec), "age"),
                        Scan("bonus"), ["age"], ["bage"])
            results[replenishment] = GibbsLooper(
                plan, catalog, params, 25, aggregate_kind="sum",
                aggregate_expr=col("amount"), window=60, base_seed=5,
                options=ExecutionOptions(
                    replenishment=replenishment)).run()
        _assert_identical(results["full"], results["delta"])
        assert results["full"].plan_runs > 1


class TestMultiSeedPlans:
    """Plans whose Gibbs tuples carry several TS-seed handles."""

    @staticmethod
    def _salary_plan():
        catalog = Catalog()
        catalog.add_table(Table("emp", {
            "eid": ["Joe", "Sue", "Jim", "Ann", "Sid"],
            "msal": [26.0, 24.0, 77.0, 45.0, 50.0]}))
        catalog.add_table(Table("sup", {
            "boss": ["Sue", "Jim", "Sue"], "peon": ["Joe", "Ann", "Sid"]}))
        spec = RandomTableSpec(
            name="salaries", parameter_table="emp", vg=NORMAL,
            vg_params=(col("msal"), lit(4.0)),
            random_columns=(RandomColumnSpec("sal"),),
            passthrough_columns=("eid",))
        emp1 = random_table_pipeline(spec, prefix="e1.")
        emp2 = random_table_pipeline(spec, prefix="e2.")
        plan = Join(Join(Scan("sup"), emp1, ["boss"], ["e1.eid"]),
                    emp2, ["peon"], ["e2.eid"])
        return catalog, plan

    def _run(self, engine, base_seed):
        catalog, plan = self._salary_plan()
        params = TailParams(p=0.1, m=1, n_steps=(60,), p_steps=(0.1,))
        return GibbsLooper(
            plan, catalog, params, 30, aggregate_kind="sum",
            aggregate_expr=col("e2.sal") - col("e1.sal"),
            final_predicate=col("e2.sal") > col("e1.sal"),
            window=500, base_seed=base_seed,
            options=ExecutionOptions(engine=engine)).run()

    @pytest.mark.parametrize("base_seed", [0, 7, 101])
    def test_salary_inversion_pulled_up_predicate(self, base_seed):
        _assert_identical(self._run("reference", base_seed),
                          self._run("vectorized", base_seed))

    def test_split_join_on_random_attribute(self):
        catalog = Catalog()
        catalog.add_table(Table("people", {"pid": np.arange(8)}))
        catalog.add_table(Table("bonus", {
            "bage": [20.0, 21.0], "amount": [10.0, 100.0]}))
        spec = RandomTableSpec(
            name="Ages", parameter_table="people", vg=DISCRETE_CHOICE,
            vg_params=(lit(20.0), lit(0.5), lit(21.0), lit(0.5)),
            random_columns=(RandomColumnSpec("age"),),
            passthrough_columns=("pid",))
        params = TailParams(p=0.2, m=1, n_steps=(50,), p_steps=(0.2,))
        results = []
        for engine in ENGINES:
            plan = Join(Split(random_table_pipeline(spec), "age"),
                        Scan("bonus"), ["age"], ["bage"])
            results.append(GibbsLooper(
                plan, catalog, params, 25, aggregate_kind="sum",
                aggregate_expr=col("amount"), window=300, base_seed=5,
                options=ExecutionOptions(engine=engine)).run())
        _assert_identical(*results)


class TestMonteCarloSharding:
    """MonteCarloExecutor results must not depend on n_jobs/shard layout."""

    @staticmethod
    def _executor(options=None, group_by=(), base_seed=3):
        catalog, spec = _losses_catalog(12)
        catalog.add_table(Table("segments", {
            "CID2": np.arange(12), "seg": ["a"] * 5 + ["b"] * 7}))
        plan = Join(Select(random_table_pipeline(spec),
                           col("val") > lit(1.0)),
                    Scan("segments"), ["CID"], ["CID2"])
        aggregates = [
            AggregateSpec("total", "sum", col("val")),
            AggregateSpec("n", "count"),
            AggregateSpec("mean", "avg", col("val")),
            AggregateSpec("worst", "max", col("val")),
        ]
        return MonteCarloExecutor(plan, aggregates, catalog,
                                  group_by=group_by, base_seed=base_seed,
                                  options=options)

    @staticmethod
    def _assert_results_equal(a, b):
        assert a.group_keys == b.group_keys
        assert a.repetitions == b.repetitions
        for key in a.group_keys:
            for name in ("total", "n", "mean", "worst"):
                np.testing.assert_array_equal(
                    a.distribution(name, key).samples,
                    b.distribution(name, key).samples)

    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_sharded_equals_serial(self, n_jobs):
        serial = self._executor().run(200)
        sharded = self._executor(
            ExecutionOptions(n_jobs=n_jobs)).run(200)
        self._assert_results_equal(serial, sharded)

    def test_sharded_group_by(self):
        serial = self._executor(group_by=["seg"]).run(150)
        sharded = self._executor(
            ExecutionOptions(n_jobs=2), group_by=["seg"]).run(150)
        self._assert_results_equal(serial, sharded)

    def test_shard_size_does_not_matter(self):
        serial = self._executor().run(100)
        for shard_size in (1, 33, 64):
            sharded = self._executor(ExecutionOptions(
                n_jobs=2, shard_size=shard_size)).run(100)
            self._assert_results_equal(serial, sharded)

    def test_uneven_split_covers_all_repetitions(self):
        bounds = ExecutionOptions(n_jobs=3).shard_bounds(100)
        assert bounds[0][0] == 0 and bounds[-1][1] == 100
        assert all(hi == next_lo for (_, hi), (next_lo, _)
                   in zip(bounds, bounds[1:]))

    def test_options_validation(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ExecutionOptions(engine="warp-drive")
        with pytest.raises(ValueError, match="n_jobs"):
            ExecutionOptions(n_jobs=0)
        with pytest.raises(ValueError, match="shard_size"):
            ExecutionOptions(shard_size=0)


class TestSessionLevelEquivalence:
    """The options thread end-to-end through the SQL surface."""

    CREATE = """
        CREATE TABLE Losses (CID, val) AS
        FOR EACH CID IN means
        WITH myVal AS Normal(VALUES(m, 1.0))
        SELECT CID, myVal.* FROM myVal
    """

    def _session(self, options=None):
        session = Session(base_seed=11, tail_budget=300, window=200,
                          options=options)
        session.add_table("means", {
            "CID": np.arange(15), "m": np.linspace(1.0, 3.0, 15)})
        session.execute(self.CREATE)
        return session

    def test_tail_query_same_result_under_both_engines(self):
        query = """
            SELECT SUM(val) AS loss FROM Losses WHERE CID < 12
            WITH RESULTDISTRIBUTION MONTECARLO(40)
            DOMAIN loss >= QUANTILE(0.95)
        """
        outputs = [
            self._session(ExecutionOptions(engine=engine)).execute(query)
            for engine in ENGINES]
        _assert_identical(outputs[0].tail, outputs[1].tail)

    def test_montecarlo_query_same_result_under_sharding(self):
        query = """
            SELECT SUM(val) AS loss FROM Losses
            WITH RESULTDISTRIBUTION MONTECARLO(120)
        """
        serial = self._session().execute(query)
        sharded = self._session(ExecutionOptions(n_jobs=2)).execute(query)
        np.testing.assert_array_equal(
            serial.distributions.distribution("loss").samples,
            sharded.distributions.distribution("loss").samples)

    TAIL_QUERY = """
        SELECT SUM(val) AS loss FROM Losses WHERE CID < 12
        WITH RESULTDISTRIBUTION MONTECARLO(40)
        DOMAIN loss >= QUANTILE(0.95)
    """

    @pytest.mark.parametrize("det_cache", ["session", "context", "off"])
    @pytest.mark.parametrize("replenishment", ["delta", "full"])
    def test_tail_query_invariant_to_cache_and_replenishment(
            self, det_cache, replenishment):
        """The full mode matrix: every (det_cache, replenishment) pair must
        reproduce the default configuration's tail result exactly."""
        baseline = self._session().execute(self.TAIL_QUERY)
        other = self._session(ExecutionOptions(
            det_cache=det_cache, replenishment=replenishment)
        ).execute(self.TAIL_QUERY)
        _assert_identical(baseline.tail, other.tail)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_session_backend_axis_tail_and_montecarlo(self, backend):
        """The whole SQL surface, sharded on each backend over the
        session's persistent pool, equals the serial session."""
        serial_tail = self._session().execute(self.TAIL_QUERY)
        mc_query = """
            SELECT SUM(val) AS loss FROM Losses
            WITH RESULTDISTRIBUTION MONTECARLO(90)
        """
        serial_mc = self._session().execute(mc_query)
        with self._session(ExecutionOptions(
                n_jobs=2, backend=backend)) as session:
            sharded_tail = session.execute(self.TAIL_QUERY)
            sharded_mc = session.execute(mc_query)
        _assert_identical(serial_tail.tail, sharded_tail.tail)
        np.testing.assert_array_equal(
            serial_mc.distributions.distribution("loss").samples,
            sharded_mc.distributions.distribution("loss").samples)

    @pytest.mark.parametrize("det_cache", ["session", "off"])
    def test_sharded_montecarlo_with_cache_modes(self, det_cache):
        query = """
            SELECT SUM(val) AS loss FROM Losses
            WITH RESULTDISTRIBUTION MONTECARLO(90)
        """
        serial = self._session().execute(query)
        sharded = self._session(ExecutionOptions(
            n_jobs=2, shard_size=25, det_cache=det_cache)).execute(query)
        np.testing.assert_array_equal(
            serial.distributions.distribution("loss").samples,
            sharded.distributions.distribution("loss").samples)

    def test_repeated_tail_query_hits_session_cache_identically(self):
        """Cross-query det-cache hits must not change tail results."""
        session = self._session()
        first = session.execute(self.TAIL_QUERY)
        assert len(session.det_cache) > 0
        second = session.execute(self.TAIL_QUERY)
        assert session.det_cache.hits > 0
        _assert_identical(first.tail, second.tail)


class TestBackendMatrix:
    """The backend axis: every backend × n_jobs × engine × replenishment
    combination must be bit-identical to the serial reference run.  Tail
    queries take the axis too and must come back with the serial bits:
    the looper runs in-process whatever the backend.
    """

    _runner = TestLooperEquivalence()
    #: Replenishment-heavy Gibbs workload: the window barely covers the
    #: population, so every sweep crosses refuel boundaries.
    GIBBS = dict(customers=12, window=60, versions=30, num_samples=15,
                 m=2, base_seed=9)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_monte_carlo_backends_equal_serial(self, backend, n_jobs):
        serial = TestMonteCarloSharding._executor().run(120)
        sharded = TestMonteCarloSharding._executor(
            ExecutionOptions(n_jobs=n_jobs, backend=backend)).run(120)
        TestMonteCarloSharding._assert_results_equal(serial, sharded)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_jobs", [2, 3])
    @pytest.mark.parametrize("replenishment", ["delta", "full"])
    def test_tail_backends_equal_serial(self, replenishment, backend,
                                        n_jobs):
        serial = self._runner._run("vectorized", replenishment=replenishment,
                                   **self.GIBBS)
        other = self._runner._run("vectorized", replenishment=replenishment,
                                  n_jobs=n_jobs, backend=backend,
                                  **self.GIBBS)
        _assert_identical(serial, other)
        assert serial.plan_runs > 1  # the scenario crosses replenishments

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_gibbs_engine_axis_under_process_backend(self, engine, n_jobs):
        """Both engines, with a process pool configured, must still match
        the scalar reference run."""
        reference = self._runner._run("reference", **self.GIBBS)
        pooled = self._runner._run(engine, n_jobs=n_jobs,
                                   backend="process", **self.GIBBS)
        _assert_identical(reference, pooled)

    @pytest.mark.parametrize("n_jobs", [2, 5])
    def test_gibbs_shard_size_geometry_invariance(self, n_jobs):
        """``shard_size`` cuts Monte Carlo repetitions, never the tail
        sweep: any geometry, down to one-repetition shards, must leave
        the tail bits alone."""
        serial = self._runner._run("vectorized", **self.GIBBS)
        for shard_size in (1, 3):
            other = self._runner._run(
                "vectorized", n_jobs=n_jobs, backend="serial",
                shard_size=shard_size, **self.GIBBS)
            _assert_identical(serial, other)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_multi_seed_plans_fall_back_to_serial_sweeps(self, backend):
        """Tuples carrying several handles couple seeds through shared
        state; a sharded configuration must come back with the serial
        sweep's bits."""
        runner = TestMultiSeedPlans()
        serial = runner._run("vectorized", base_seed=7)
        catalog, plan = TestMultiSeedPlans._salary_plan()
        params = TailParams(p=0.1, m=1, n_steps=(60,), p_steps=(0.1,))
        sharded = GibbsLooper(
            plan, catalog, params, 30, aggregate_kind="sum",
            aggregate_expr=col("e2.sal") - col("e1.sal"),
            final_predicate=col("e2.sal") > col("e1.sal"),
            window=500, base_seed=7,
            options=ExecutionOptions(n_jobs=2, backend=backend)).run()
        _assert_identical(serial, sharded)

    _sql = TestSessionLevelEquivalence()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("det_cache_keying", ["table", "catalog"])
    def test_det_cache_keying_axis_with_appends(self, backend,
                                                det_cache_keying):
        """Table-granular cache keying — including an append-splice refresh
        mid-session — must reproduce the coarse catalog protocol's tail
        samples bit-for-bit, on every backend."""
        def run(options):
            with self._sql._session(options) as session:
                before = session.execute(self._sql.TAIL_QUERY)
                session.append("means", {"CID": [15, 16], "m": [3.2, 3.4]})
                after = session.execute(self._sql.TAIL_QUERY)
                stats = session.cache_stats()
            return before, after, stats

        baseline = run(ExecutionOptions(det_cache_keying="catalog"))
        keyed = run(ExecutionOptions(det_cache_keying=det_cache_keying,
                                     n_jobs=2, backend=backend))
        _assert_identical(baseline[0].tail, keyed[0].tail)
        _assert_identical(baseline[1].tail, keyed[1].tail)
        if det_cache_keying == "table":
            assert keyed[2]["append_refreshes"] >= 1
        else:
            assert keyed[2]["invalidations"] >= 1

    @given(base_seed=st.integers(0, 10_000),
           n_jobs=st.integers(2, 4),
           aggregate_kind=st.sampled_from(["sum", "count", "avg"]))
    @settings(max_examples=8, deadline=None)
    def test_property_seed_sharding_invariance(self, base_seed, n_jobs,
                                               aggregate_kind):
        kwargs = dict(customers=10, window=80, versions=25, num_samples=12,
                      m=2, base_seed=base_seed, aggregate_kind=aggregate_kind)
        if aggregate_kind == "count":
            kwargs["predicate"] = col("val") > lit(1.0)
        _assert_identical(
            self._runner._run("vectorized", **kwargs),
            self._runner._run("vectorized", n_jobs=n_jobs, backend="serial",
                              **kwargs))


class TestZeroCopyEquivalence:
    """The ``shm`` axis: payloads delivered as shared-memory descriptors
    must be bit-identical to pickled copies.  The data plane moves bytes
    between transports, never values — catalog columns attach read-only.
    A tail query takes the axis too and must come back with the serial
    bits either way."""

    _runner = TestLooperEquivalence()
    GIBBS = TestBackendMatrix.GIBBS

    @pytest.mark.parametrize("replenishment", ["delta", "full"])
    def test_gibbs_tail_shm_on_equals_off(self, replenishment):
        serial = self._runner._run("vectorized", backend="serial",
                                   replenishment=replenishment, **self.GIBBS)
        runs = [self._runner._run("vectorized", n_jobs=2, backend="process",
                                  replenishment=replenishment, shm=shm,
                                  **self.GIBBS)
                for shm in ("on", "off")]
        _assert_identical(serial, runs[0])
        _assert_identical(runs[0], runs[1])

    def test_monte_carlo_shm_on_equals_off(self):
        serial = TestMonteCarloSharding._executor().run(120)
        for shm in ("on", "off"):
            sharded = TestMonteCarloSharding._executor(
                ExecutionOptions(n_jobs=2, backend="process",
                                 shm=shm)).run(120)
            TestMonteCarloSharding._assert_results_equal(serial, sharded)


class TestWindowGrowth:
    """``window_growth`` must change only the replenishment schedule.

    Window sizing never changes which candidate is accepted — the
    consumption pointer resumes across refuels — so samples, assignments
    and acceptance statistics stay bit-identical while the refuel count
    drops.
    """

    _runner = TestLooperEquivalence()
    #: ROADMAP's lever: a window barely above the population refuels
    #: dozens of times at fixed size.
    HEAVY = dict(customers=10, window=45, versions=40, m=2, base_seed=5)

    @staticmethod
    def _assert_same_samples(a, b):
        assert a.quantile_estimate == b.quantile_estimate
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.assignments == b.assignments
        stats_a, stats_b = a.total_stats, b.total_stats
        assert (stats_a.proposals, stats_a.acceptances, stats_a.stalls) == \
            (stats_b.proposals, stats_b.acceptances, stats_b.stalls)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_growth_preserves_results_and_cuts_refuels(self, engine):
        flat = self._runner._run(engine, **self.HEAVY)
        grown = self._runner._run(engine, window_growth=2.0, **self.HEAVY)
        self._assert_same_samples(flat, grown)
        assert flat.plan_runs > 2  # the scenario must refuel repeatedly
        assert grown.plan_runs < flat.plan_runs

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_growth_composes_with_seed_sharding(self, backend):
        flat = self._runner._run("vectorized", **self.HEAVY)
        grown = self._runner._run("vectorized", window_growth=1.5,
                                  n_jobs=2, backend=backend, **self.HEAVY)
        self._assert_same_samples(flat, grown)
        assert grown.plan_runs < flat.plan_runs

    @given(growth=st.sampled_from([1.3, 2.0, 3.0]),
           base_seed=st.integers(0, 1_000))
    @settings(max_examples=6, deadline=None)
    def test_property_growth_invariance(self, growth, base_seed):
        kwargs = dict(customers=10, window=50, versions=30, num_samples=15,
                      m=2, base_seed=base_seed)
        self._assert_same_samples(
            self._runner._run("vectorized", **kwargs),
            self._runner._run("vectorized", window_growth=growth, **kwargs))
