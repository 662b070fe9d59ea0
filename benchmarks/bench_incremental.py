"""Append-only incremental det-cache refresh: bit-identity across backends.

The session det-cache keys each entry by the per-table versions of its
plan's base tables, so unrelated mutations leave entries untouched, and
append-only growth (``Catalog.append``) extends each cached entry by what
its subtree computes over the new rows alone (Δ-execution) instead of
recomputing.

This pins the correctness contract: MC and deep-tail samples on every
backend — with a mid-session append on every leg that the cache must
extend — are bit-identical to a fresh serial session built directly on
the grown table.

Run:  python benchmarks/bench_incremental.py [--json]
"""

import numpy as np

from repro.engine.options import ExecutionOptions
from repro.experiments import (
    print_experiment, record_metric, run_benchmark_cli)
from repro.sql import Session

CREATE = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN means
    WITH myVal AS Normal(VALUES(m, 1.0))
    SELECT CID, myVal.* FROM myVal
"""
MC_QUERY = """
    SELECT SUM(val) AS loss FROM Losses
    WITH RESULTDISTRIBUTION MONTECARLO(24)
"""
TAIL_QUERY = """
    SELECT SUM(val) AS loss FROM Losses WHERE CID < 12
    WITH RESULTDISTRIBUTION MONTECARLO(24)
    DOMAIN loss >= QUANTILE(0.9)
"""
MEANS = {"CID": np.arange(15), "m": np.linspace(1.0, 3.0, 15)}
APPEND = {"CID": [15, 16], "m": [3.2, 3.4]}


def _loaded(session, means):
    session.add_table("means", means)
    session.execute(CREATE)
    return session


def _session_leg(backend):
    """MC + tail -> append -> MC + tail, returning the post-append samples."""
    n_jobs = 2 if backend != "serial" else 1
    with _loaded(Session(base_seed=11, tail_budget=200, window=150,
                         options=ExecutionOptions(backend=backend,
                                                  n_jobs=n_jobs)),
                 MEANS) as session:
        session.execute(MC_QUERY)
        session.execute(TAIL_QUERY)
        session.append("means", APPEND)
        after_mc = session.execute(MC_QUERY)
        after_tail = session.execute(TAIL_QUERY)
        stats = session.cache_stats()
    return (after_mc.distributions.distribution("loss").samples,
            after_tail.tail.samples), stats


def _fresh_reference():
    """What a fresh serial session says about the already-grown table."""
    grown = {name: np.concatenate([MEANS[name], APPEND[name]])
             for name in MEANS}
    with _loaded(Session(base_seed=11, tail_budget=200, window=150),
                 grown) as session:
        mc = session.execute(MC_QUERY)
        tail = session.execute(TAIL_QUERY)
    return (mc.distributions.distribution("loss").samples, tail.tail.samples)


def test_append_splice_is_bit_identical():
    reference = _fresh_reference()
    legs = ("serial", "process")
    identical = 0
    for backend in legs:
        samples, run_stats = _session_leg(backend)
        for got, want in zip(samples, reference):
            np.testing.assert_array_equal(got, want,
                                          err_msg=f"backend={backend}")
        assert run_stats["append_refreshes"] >= 1, (
            f"backend={backend} never extended over the mid-session append")
        identical += 1

    print_experiment(
        "Append-refresh bit-identity across backends",
        f"{identical}/{len(legs)} legs bit-identical to a fresh serial "
        f"session on the grown table (each leg spans a mid-session append)")
    record_metric("bench_incremental", "bit_identical_legs",
                  identical, gate=f"== {len(legs)}")
    assert identical == len(legs)


if __name__ == "__main__":
    run_benchmark_cli([test_append_splice_is_bit_identical])
