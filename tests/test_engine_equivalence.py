"""The gate for the vectorized execution layer.

``GibbsLooper``'s batched kernel and the scalar per-version kernel of
``tests/looper_oracles.py`` (the ``engine="reference"`` axis below) must
produce *identical* results — same tail samples, same (handle -> position)
assignments, same acceptance statistics, same replenishment schedule —
for the same session seed, on randomized plans and seeds; so must its
delta refuels and the oracle's full rebuilds (the ``replenishment``
axis).  Likewise the sharded Monte Carlo executor must be invariant to
``n_jobs`` and shard geometry, and every ``backend × n_jobs × engine ×
replenishment`` combination must be bit-identical to the serial
reference — a tail query with ``n_jobs > 1`` included, which runs the
serial looper in-process.  Nothing here is approximate: every comparison
is exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from looper_oracles import (
    FullRefuelLooper, ScalarKernelLooper, looper_class, planner_looper)

from repro.core.gibbs_looper import GibbsLooper
from repro.core.params import TailParams
from repro.engine.backends import make_backend
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


def cut(repetitions, width):
    """Explicit ``[lo, hi)`` bounds of ``width`` repetitions each."""
    return [(lo, min(lo + width, repetitions))
            for lo in range(0, repetitions, width)]


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
             replenishment="delta", n_jobs=1, backend="process"):
        catalog, spec = _losses_catalog(customers)
        plan = random_table_pipeline(spec)
        if predicate is not None:
            plan = Select(plan, predicate)
        params = TailParams(p=p_step ** m, m=m, n_steps=(versions,) * m,
                            p_steps=(p_step,) * m)
        expr = None if aggregate_kind == "count" else col("val")
        return looper_class(engine, replenishment)(
            plan, catalog, params, num_samples,
            aggregate_kind=aggregate_kind, aggregate_expr=expr,
            window=window, base_seed=base_seed, k=k,
            max_proposals=max_proposals,
            options=ExecutionOptions(n_jobs=n_jobs, backend=backend)).run()

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
    """Delta refuels must be bit-identical to the full-rebuild oracle.

    The delta path merges never-materialized stream positions into the
    previous bundles and keeps the looper's per-version caches; streams
    are pure functions of position, so nothing observable may change —
    samples, assignments, acceptance statistics and the replenishment
    schedule itself all stay exact, for both kernels.
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
        for replenishment, looper in (("full", FullRefuelLooper),
                                      ("delta", GibbsLooper)):
            catalog, plan = TestMultiSeedPlans._salary_plan()
            params = TailParams(p=0.1, m=1, n_steps=(60,), p_steps=(0.1,))
            results[replenishment] = looper(
                plan, catalog, params, 30, aggregate_kind="sum",
                aggregate_expr=col("e2.sal") - col("e1.sal"),
                final_predicate=col("e2.sal") > col("e1.sal"),
                window=70, base_seed=3).run()
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
        for replenishment, looper in (("full", FullRefuelLooper),
                                      ("delta", GibbsLooper)):
            plan = Join(Split(random_table_pipeline(spec), "age"),
                        Scan("bonus"), ["age"], ["bage"])
            results[replenishment] = looper(
                plan, catalog, params, 25, aggregate_kind="sum",
                aggregate_expr=col("amount"), window=60,
                base_seed=5).run()
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
        return looper_class(engine)(
            plan, catalog, params, 30, aggregate_kind="sum",
            aggregate_expr=col("e2.sal") - col("e1.sal"),
            final_predicate=col("e2.sal") > col("e1.sal"),
            window=500, base_seed=base_seed).run()

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
        for looper in (ScalarKernelLooper, GibbsLooper):
            plan = Join(Split(random_table_pipeline(spec), "age"),
                        Scan("bonus"), ["age"], ["bage"])
            results.append(looper(
                plan, catalog, params, 25, aggregate_kind="sum",
                aggregate_expr=col("amount"), window=300,
                base_seed=5).run())
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
        """Any contiguous cut of the repetition axis merges to the serial
        bits, whatever the shard width."""
        serial = self._executor().run(100)
        executor = self._executor()
        with make_backend(ExecutionOptions(n_jobs=2)) as backend:
            for width in (1, 33, 64):
                shards = backend.run_job(executor, cut(100, width))
                self._assert_results_equal(
                    serial, executor._merge_shards(shards, 100))

    def test_uneven_split_covers_all_repetitions(self):
        bounds = ExecutionOptions(n_jobs=3).shard_bounds(100)
        assert bounds[0][0] == 0 and bounds[-1][1] == 100
        assert all(hi == next_lo for (_, hi), (next_lo, _)
                   in zip(bounds, bounds[1:]))

    def test_options_validation(self):
        # A float would yield float shard bounds and fail deep inside the
        # query; a bool would silently count as 0 or 1 workers.
        for n_jobs in (0, -1, 2.5, 2.0, True, False, "2", None):
            with pytest.raises(ValueError, match="n_jobs"):
                ExecutionOptions(n_jobs=n_jobs)


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
        with planner_looper(ScalarKernelLooper):
            reference = self._session().execute(query)
        vectorized = self._session().execute(query)
        _assert_identical(reference.tail, vectorized.tail)

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

    @pytest.mark.parametrize("det_cache", ["session", "off"])
    @pytest.mark.parametrize("replenishment", ["delta", "full"])
    def test_tail_query_invariant_to_cache_and_replenishment(
            self, det_cache, replenishment):
        """The full mode matrix: every (det_cache, replenishment) pair must
        reproduce the default configuration's tail result exactly."""
        baseline = self._session().execute(self.TAIL_QUERY)
        with planner_looper(looper_class(replenishment=replenishment)):
            other = self._session(ExecutionOptions(
                det_cache=det_cache)).execute(self.TAIL_QUERY)
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
            n_jobs=4, det_cache=det_cache)).execute(query)
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
        """Shard geometry cuts Monte Carlo repetitions, never the tail
        sweep: the tail bits ignore ``n_jobs``, and the Monte Carlo pass
        of the same plan, cut into one- and three-repetition shards,
        merges to the serial samples."""
        serial = self._runner._run("vectorized", **self.GIBBS)
        other = self._runner._run("vectorized", n_jobs=n_jobs,
                                  backend="serial", **self.GIBBS)
        _assert_identical(serial, other)

        catalog, spec = _losses_catalog(self.GIBBS["customers"])
        executor = MonteCarloExecutor(
            random_table_pipeline(spec),
            [AggregateSpec("total", "sum", col("val"))], catalog,
            base_seed=self.GIBBS["base_seed"])
        expected = executor.run(30).distribution("total").samples
        with make_backend(ExecutionOptions(n_jobs=n_jobs,
                                           backend="serial")) as backend:
            for width in (1, 3):
                merged = executor._merge_shards(
                    backend.run_job(executor, cut(30, width)), 30)
                np.testing.assert_array_equal(
                    merged.distribution("total").samples, expected)

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
        samples bit-for-bit, on every backend.  The coarse protocol (drop
        every entry on any mutation) is a ``reset_cache()`` after the
        append."""
        def run(options, coarse):
            with self._sql._session(options) as session:
                before = session.execute(self._sql.TAIL_QUERY)
                session.append("means", {"CID": [15, 16], "m": [3.2, 3.4]})
                if coarse:
                    session.reset_cache()
                after = session.execute(self._sql.TAIL_QUERY)
                stats = session.cache_stats()
            return before, after, stats

        baseline = run(ExecutionOptions(), coarse=True)
        keyed = run(ExecutionOptions(n_jobs=2, backend=backend),
                    coarse=det_cache_keying == "catalog")
        _assert_identical(baseline[0].tail, keyed[0].tail)
        _assert_identical(baseline[1].tail, keyed[1].tail)
        if det_cache_keying == "table":
            assert keyed[2]["append_refreshes"] >= 1
        else:
            assert keyed[2]["append_refreshes"] == 0

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


class TestWindowGrowth:
    """Growing the window must change only the replenishment schedule.

    Window sizing never changes which candidate is accepted — the
    consumption pointer resumes across refuels — so samples, assignments
    and acceptance statistics stay bit-identical while the refuel count
    drops.
    """

    _runner = TestLooperEquivalence()
    #: A window barely above the population refuels dozens of times.
    HEAVY = dict(customers=10, versions=40, m=2, base_seed=5)

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
        narrow = self._runner._run(engine, window=45, **self.HEAVY)
        wide = self._runner._run(engine, window=180, **self.HEAVY)
        self._assert_same_samples(narrow, wide)
        assert narrow.plan_runs > 2  # the scenario must refuel repeatedly
        assert wide.plan_runs < narrow.plan_runs

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_growth_composes_with_seed_sharding(self, backend):
        narrow = self._runner._run("vectorized", window=45, **self.HEAVY)
        wide = self._runner._run("vectorized", window=100, n_jobs=2,
                                 backend=backend, **self.HEAVY)
        self._assert_same_samples(narrow, wide)
        assert wide.plan_runs < narrow.plan_runs

    @given(growth=st.sampled_from([1.3, 2.0, 3.0]),
           base_seed=st.integers(0, 1_000))
    @settings(max_examples=6, deadline=None)
    def test_property_growth_invariance(self, growth, base_seed):
        kwargs = dict(customers=10, versions=30, num_samples=15, m=2,
                      base_seed=base_seed)
        self._assert_same_samples(
            self._runner._run("vectorized", window=50, **kwargs),
            self._runner._run("vectorized", window=int(50 * growth),
                              **kwargs))


class TestHeavySeed:
    """One customer's loss dominates the total's variance, so in the tail
    most proposals for its seed are rejected and it runs dry again and
    again: the case demand-scheduled refuels serve with deep windows of
    its own.  Every looper must still agree bit for bit, and with a window
    wide enough to need fewer refuels."""

    #: ``plan_runs`` of this scenario when every refuel gave every
    #: perturbed seed one fixed window, padded to a common width.
    FIXED_WINDOW_PLAN_RUNS = 40

    @staticmethod
    def _run(looper, window):
        customers, heavy = 10, 3
        variances = np.ones(customers)
        variances[heavy] = 25.0
        catalog = Catalog()
        catalog.add_table(Table("means", {
            "CID": np.arange(customers),
            "m": np.linspace(0.8, 3.5, customers), "v": variances}))
        spec = RandomTableSpec(
            name="Losses", parameter_table="means", vg=NORMAL,
            vg_params=(col("m"), col("v")),
            random_columns=(RandomColumnSpec("val"),),
            passthrough_columns=("CID",))
        params = TailParams(p=0.09, m=2, n_steps=(40, 40),
                            p_steps=(0.3, 0.3))
        return looper(random_table_pipeline(spec), catalog, params, 25,
                      aggregate_kind="sum", aggregate_expr=col("val"),
                      window=window, base_seed=5).run()

    def test_heavy_seed_matches_oracles_and_a_wide_window(self, monkeypatch):
        from repro.core import gibbs_looper
        dry_runs = []
        plan_refuel = gibbs_looper.plan_refuel

        def spy(seeds, dry, sweep, *args):
            dry_runs.append((dry, sweep))
            return plan_refuel(seeds, dry, sweep, *args)

        monkeypatch.setattr(gibbs_looper, "plan_refuel", spy)
        result = self._run(GibbsLooper, window=45)
        # The heavy seed runs dry more than once within one sweep, so
        # its window deepens by doubling.
        assert max(dry_runs.count(run) for run in dry_runs) >= 2
        assert result.plan_runs < self.FIXED_WINDOW_PLAN_RUNS
        for oracle in (ScalarKernelLooper, FullRefuelLooper):
            _assert_identical(result, self._run(oracle, window=45))
        wide = self._run(GibbsLooper, window=2000)
        TestWindowGrowth._assert_same_samples(result, wide)
        assert wide.plan_runs < result.plan_runs
