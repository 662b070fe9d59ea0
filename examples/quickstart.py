"""Quickstart: the Sec. 2 portfolio-loss analysis, end to end.

Builds the uncertain ``Losses`` table over a ``means`` parameter table,
asks for 100 samples from the top 1% of the total-loss distribution, and
computes value-at-risk and expected shortfall — including via the paper's
``FTABLE`` post-queries.

Run:  python examples/quickstart.py

Environment knobs (exercised by CI under all backends; parsed and
validated by ``ExecutionOptions.from_env`` — a typo'd value fails fast
with an ``EngineError`` naming the variable):
  MCDBR_BACKEND=process|thread|serial     shard transport (Monte Carlo)
  MCDBR_N_JOBS=<n>                        shard workers (1 = no sharding)
  MCDBR_SHARD_SIZE=<n>                    max repetitions per shard
  MCDBR_DET_CACHE=session|off             cross-query det-cache
  MCDBR_SHM=on|off                        zero-copy shared-memory data
                                          plane for the process backend
Every combination produces bit-identical output for the same base seed.
The tail query below runs in-process whatever MCDBR_N_JOBS is: the Gibbs
sweep is Gauss–Seidel over TS-seeds, so only Monte Carlo queries shard.
"""

import numpy as np

from repro.engine.options import ExecutionOptions
from repro.risk import expected_shortfall, value_at_risk
from repro.sql import Session

# 1. A session and an ordinary parameter table: per-customer mean losses.
#    The ``with`` block releases the session's worker pool — and, under
#    the process backend, every shared-memory segment of the zero-copy
#    data plane — when the analysis ends, even on an exception (with
#    MCDBR_N_JOBS=1 there is no pool and close is a no-op).
options = ExecutionOptions.from_env()
with Session(base_seed=2026, tail_budget=1000, window=1000,
             options=options) as session:
    rng = np.random.default_rng(0)
    session.add_table("means", {
        "CID": np.arange(520),
        "m": rng.uniform(0.5, 3.0, size=520),
    })

    # 2. Declare the uncertain table — schema only, never materialized.
    session.execute("""
        CREATE TABLE Losses (CID, val) AS
        FOR EACH CID IN means
        WITH myVal AS Normal(VALUES(m, 1.0))
        SELECT CID, myVal.* FROM myVal
    """)

    # 3. The paper's risk query: condition the result distribution on its
    #    own top percentile and sample from that tail.
    output = session.execute("""
        SELECT SUM(val) AS totalLoss
        FROM Losses
        WHERE CID < 500
        WITH RESULTDISTRIBUTION MONTECARLO(100)
        DOMAIN totalLoss >= QUANTILE(0.99)
        FREQUENCYTABLE totalLoss
    """)
    tail = output.tail

    print(f"tail samples drawn      : {len(tail.samples)}")
    print(f"value at risk (0.99)    : {value_at_risk(tail):,.1f}")
    print(f"expected shortfall      : {expected_shortfall(tail):,.1f}")
    print(f"bootstrapping schedule  : m={tail.params.m}, "
          f"n_i={tail.params.n_steps[0]}, p_i={tail.params.p_steps[0]:.3f}")
    print(f"plan executions         : {tail.plan_runs} "
          f"(1 initial + {tail.plan_runs - 1} replenishment; "
          f"{tail.delta_replenish_runs} delta / "
          f"{tail.full_replenish_runs} full rebuilds)")

    # 4. The same quantities through SQL over the registered FTABLE
    #    (Sec. 2).
    minimum = session.execute("SELECT MIN(totalLoss) FROM FTABLE")
    shortfall = session.execute(
        "SELECT SUM(totalLoss * FRAC) AS es FROM FTABLE")
    print(f"SELECT MIN(totalLoss) FROM FTABLE        -> "
          f"{minimum.rows.column('min0')[0]:,.1f}")
    print(f"SELECT SUM(totalLoss*FRAC) FROM FTABLE   -> "
          f"{shortfall.rows.column('es')[0]:,.1f}")
