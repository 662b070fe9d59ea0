"""Property-based tests on end-to-end tail-sampling invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from stream_oracle import stream_values

from repro.core.cloner import tail_sample
from repro.core.gibbs_looper import GibbsLooper
from repro.core.model import IndependentBlockModel, SeparableSumQuery
from repro.core.params import TailParams
from repro.engine.expressions import col, lit
from repro.engine.operators import random_table_pipeline
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.vg.builtin import NORMAL


@given(r=st.integers(2, 12),
       p_step=st.floats(0.2, 0.6),
       m=st.integers(1, 3),
       seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_property_cloner_invariants(r, p_step, m, seed):
    """For any small configuration: every returned sample lies in the tail,
    cutoffs increase, and states reproduce sample totals."""
    model = IndependentBlockModel.iid(lambda g, size: g.normal(0, 1, size), r)
    query = SeparableSumQuery.simple_sum(r)
    params = TailParams(p=p_step ** m, m=m, n_steps=(40,) * m,
                        p_steps=(p_step,) * m)
    result = tail_sample(model, query, p_step ** m, num_samples=20,
                         params=params, rng=np.random.default_rng(seed))
    assert np.all(result.samples >= result.quantile_estimate - 1e-9)
    cutoffs = [step.cutoff for step in result.trace]
    assert cutoffs == sorted(cutoffs)
    np.testing.assert_allclose(result.states.sum(axis=1), result.samples,
                               rtol=1e-9)
    assert len(result.samples) == 20


@given(customers=st.integers(3, 10),
       p_step=st.floats(0.25, 0.5),
       base_seed=st.integers(0, 1000),
       window=st.integers(60, 200))
@settings(max_examples=8, deadline=None)
def test_property_looper_invariants(customers, p_step, base_seed, window):
    """Engine-path invariants hold for arbitrary small workloads and
    window sizes (windows only change replenishment timing, never values)."""
    catalog = Catalog()
    catalog.add_table(Table("means", {
        "CID": np.arange(customers),
        "m": np.linspace(0.5, 2.0, customers)}))
    spec = RandomTableSpec(
        name="L", parameter_table="means", vg=NORMAL,
        vg_params=(col("m"), lit(1.0)),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID",))
    params = TailParams(p=p_step ** 2, m=2, n_steps=(50, 50),
                        p_steps=(p_step, p_step))
    result = GibbsLooper(
        random_table_pipeline(spec), catalog, params, 15,
        aggregate_kind="sum", aggregate_expr=col("val"),
        window=window, base_seed=base_seed).run()
    assert np.all(result.samples >= result.quantile_estimate - 1e-9)
    assert len(result.samples) == 15
    assert result.num_seeds == customers
    # Every sampled instance reproduces its query result from the streams.
    for version in (0, len(result.samples) - 1):
        assignment = result.assignments[version]
        total = 0.0
        for handle, position in assignment.items():
            # Reconstruct the stream value deterministically.
            from repro.engine.seeds import derive_prng_seed
            row = handle & ((1 << 40) - 1)
            mean = np.linspace(0.5, 2.0, customers)[row]
            total += stream_values(derive_prng_seed(base_seed, handle),
                                   NORMAL, (mean, 1.0), [position])[0]
        assert abs(total - result.samples[version]) < 1e-9
