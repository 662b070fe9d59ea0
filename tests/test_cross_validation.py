"""Cross-system validation: pure cloner vs GibbsLooper vs naive MCDB.

The three implementations answer the same statistical question through
completely different code paths:

* ``repro.core.cloner`` — Algorithm 3 over an in-memory vector model;
* ``repro.core.gibbs_looper`` — the full engine path (plans, tuple
  bundles, TS-seeds, priority queue, replenishment);
* ``repro.engine.mcdb`` — brute-force repetition (feasible at easy
  quantiles only).

Agreement across all three on identical models is the strongest internal
consistency check the reproduction has.
"""

import numpy as np
import pytest
from scipy import stats

from repro.core.cloner import tail_sample
from repro.core.gibbs_looper import GibbsLooper
from repro.core.model import IndependentBlockModel, SeparableSumQuery
from repro.core.params import TailParams
from repro.engine.expressions import col, lit
from repro.engine.mcdb import AggregateSpec, MonteCarloExecutor
from repro.engine.operators import random_table_pipeline
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.vg.builtin import NORMAL

R = 20
MEANS = np.linspace(0.0, 2.0, R)
PARAMS = TailParams(p=0.25 ** 4, m=4, n_steps=(150,) * 4, p_steps=(0.25,) * 4)
TRUE_Q = stats.norm.ppf(1 - PARAMS.p, loc=MEANS.sum(), scale=np.sqrt(R))


def _catalog_and_plan():
    catalog = Catalog()
    catalog.add_table(Table("params", {"pid": np.arange(R), "m": MEANS}))
    spec = RandomTableSpec(
        name="T", parameter_table="params", vg=NORMAL,
        vg_params=(col("m"), lit(1.0)),
        random_columns=(RandomColumnSpec("x"),),
        passthrough_columns=("pid",))
    return catalog, random_table_pipeline(spec)


def _cloner_estimates(seeds):
    model = IndependentBlockModel.from_vg(NORMAL, [(m, 1.0) for m in MEANS])
    query = SeparableSumQuery.simple_sum(R)
    return [
        tail_sample(model, query, PARAMS.p, num_samples=50, params=PARAMS,
                    rng=np.random.default_rng(seed)).quantile_estimate
        for seed in seeds]


def _looper_estimates(seeds):
    catalog, plan = _catalog_and_plan()
    return [
        GibbsLooper(plan, catalog, PARAMS, 50, aggregate_kind="sum",
                    aggregate_expr=col("x"), window=700,
                    base_seed=seed).run().quantile_estimate
        for seed in seeds]


@pytest.mark.slow
class TestThreeWayAgreement:
    def test_cloner_and_looper_agree_with_analytic(self):
        cloner = np.mean(_cloner_estimates(range(5)))
        looper = np.mean(_looper_estimates(range(5)))
        assert cloner == pytest.approx(TRUE_Q, rel=0.02)
        assert looper == pytest.approx(TRUE_Q, rel=0.02)
        assert cloner == pytest.approx(looper, rel=0.03)

    def test_against_naive_mc_at_easy_quantile(self):
        easy = TailParams(p=0.2, m=1, n_steps=(400,), p_steps=(0.2,))
        catalog, plan = _catalog_and_plan()
        looper = np.mean([
            GibbsLooper(plan, catalog, easy, 50, aggregate_kind="sum",
                        aggregate_expr=col("x"), window=700,
                        base_seed=seed).run().quantile_estimate
            for seed in range(5)])
        mc = MonteCarloExecutor(
            plan, [AggregateSpec("s", "sum", col("x"))], catalog,
            base_seed=555).run(8000).distribution("s")
        # Both are noisy estimates of the same 0.8-quantile; 2% covers the
        # combined sampling error comfortably without masking real bugs.
        assert looper == pytest.approx(mc.quantile(0.8), rel=0.02)

    def test_tail_samples_follow_conditional_distribution_per_run(self):
        """Each run's tail samples must follow the analytic conditional
        distribution at that run's own cutoff — for *both* implementations.

        (A pooled two-sample KS across runs would conflate per-run
        quantile-estimation noise with genuine distribution mismatch, so
        each run is tested against its own conditional law instead.)
        """
        sd = np.sqrt(R)

        def conditional_pvalue(samples, cutoff):
            mass = stats.norm.sf(cutoff, loc=MEANS.sum(), scale=sd)
            def cdf(x):
                return (stats.norm.cdf(x, loc=MEANS.sum(), scale=sd)
                        - stats.norm.cdf(cutoff, loc=MEANS.sum(), scale=sd)
                        ) / mass
            return stats.kstest(samples, cdf).pvalue

        model = IndependentBlockModel.from_vg(NORMAL,
                                              [(m, 1.0) for m in MEANS])
        query = SeparableSumQuery.simple_sum(R)
        pure_p = []
        for seed in range(4):
            result = tail_sample(model, query, PARAMS.p, num_samples=50,
                                 params=PARAMS, k=2,
                                 rng=np.random.default_rng(seed))
            pure_p.append(conditional_pvalue(result.samples,
                                             result.quantile_estimate))
        catalog, plan = _catalog_and_plan()
        engine_p = []
        for seed in range(4):
            result = GibbsLooper(plan, catalog, PARAMS, 50,
                                 aggregate_kind="sum",
                                 aggregate_expr=col("x"), window=700, k=2,
                                 base_seed=seed).run()
            engine_p.append(conditional_pvalue(result.samples,
                                               result.quantile_estimate))
        # Residual clone dependence makes single runs noisy; both systems
        # must look equally healthy, not grossly broken.
        assert np.median(pure_p) > 0.005, pure_p
        assert np.median(engine_p) > 0.005, engine_p

    def test_expected_shortfall_agreement(self):
        z = stats.norm.ppf(1 - PARAMS.p)
        analytic = MEANS.sum() + np.sqrt(R) * stats.norm.pdf(z) / PARAMS.p
        catalog, plan = _catalog_and_plan()
        shortfalls = [
            GibbsLooper(plan, catalog, PARAMS, 50, aggregate_kind="sum",
                        aggregate_expr=col("x"), window=700,
                        base_seed=seed).run().samples.mean()
            for seed in range(4)]
        assert np.mean(shortfalls) == pytest.approx(analytic, rel=0.02)
