"""Worker-pool amortization: persistent ProcessBackend vs per-query pools.

The seed implementation spun up a throwaway ``ProcessPoolExecutor`` per
query and pickled the whole executor — catalog, plan, det cache — once
per shard task.  The backend layer (``src/repro/engine/backends.py``)
replaces that with a session-owned persistent pool, a broadcast-once job
payload and ``(job_id, lo, hi)`` shard-task triples, with the catalog on
a keyed shared channel shipped to each worker once per catalog version
(the LCG MCDB's service-level Monte Carlo production is the model,
PAPERS.md).

This benchmark runs an E1-style portfolio session — one CREATE, then
``QUERIES`` Monte Carlo loss queries — at ``n_jobs = 4`` two ways:

* **persistent** — one session, one pool: spawn + catalog broadcast paid
  once, amortized across every query;
* **per-query pool** — the same session, but the pool is torn down after
  every query (``session.close()``), reproducing the seed lifecycle.

Gates: the persistent pool must be >= 1.5x faster over a 4-query
session, and the transport accounting must show broadcast-once behavior
(catalog pickled once, shard tasks catalog-free — the byte-level
regression test lives in ``tests/test_backends.py``).

Tail queries are not measured here: they never use the pool (the Gibbs
sweep is Gauss–Seidel over TS-seeds and runs in-process).

Run:  python benchmarks/bench_scaling.py [--json]
"""

import numpy as np

from repro.engine.options import ExecutionOptions
from repro.experiments import (
    format_table, print_experiment, record_metric, run_benchmark_cli, timed)
from repro.sql import Session

CUSTOMERS = 120
REPETITIONS = 48
#: Rows in the position-ledger side table.  It rides the catalog, so the
#: per-query-pool lifecycle re-pickles and re-ships it to every worker on
#: every query; the persistent pool broadcasts it once per catalog
#: version — the cost the keyed shared channel exists to amortize.
LEDGER_ROWS = 120_000
QUERIES = 4
N_JOBS = 4
ROUNDS = 3
BASE_SEED = 2026

CREATE = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN means
    WITH myVal AS Normal(VALUES(m, 1.0))
    SELECT CID, myVal.* FROM myVal
"""
#: Four distinct portfolio slices — structurally different queries, same
#: catalog version, so the persistent pool re-broadcasts nothing.
QUERY = """
    SELECT SUM(val) AS loss FROM Losses WHERE CID < {cutoff}
    WITH RESULTDISTRIBUTION MONTECARLO({reps})
"""
CUTOFFS = (30, 60, 90, 120)


def _make_session():
    session = Session(base_seed=BASE_SEED, options=ExecutionOptions(
        n_jobs=N_JOBS, backend="process"))
    rng = np.random.default_rng(0)
    session.add_table("means", {
        "CID": np.arange(CUSTOMERS),
        "m": rng.uniform(0.5, 3.0, size=CUSTOMERS)})
    # The session catalog also carries the portfolio's position ledger —
    # E1-style sessions hold the full book even when a query touches only
    # the per-customer means.
    session.add_table("positions", {
        "PID": np.arange(LEDGER_ROWS),
        "CID": rng.integers(0, CUSTOMERS, size=LEDGER_ROWS),
        "qty": rng.uniform(0.0, 10.0, size=LEDGER_ROWS),
        "strike": rng.uniform(10.0, 90.0, size=LEDGER_ROWS)})
    session.execute(CREATE)
    return session


def _run_session(per_query_pool: bool):
    session = _make_session()
    results, seconds = [], 0.0
    stats = None
    try:
        for cutoff in CUTOFFS:
            sql = QUERY.format(cutoff=cutoff, reps=REPETITIONS)
            output, elapsed = timed(session.execute, sql)
            seconds += elapsed
            results.append(
                output.distributions.distribution("loss").samples)
            if session.backend is not None:
                stats = dict(session.backend.stats)
            if per_query_pool:
                session.close()  # seed lifecycle: pool dies with the query
    finally:
        session.close()
    return results, seconds, stats


def test_persistent_pool_amortizes_per_query_overhead():
    baselines = [_run_session(per_query_pool=False)[0]]
    best = {"persistent": np.inf, "per-query": np.inf}
    stats = {}
    for _ in range(ROUNDS):
        results, seconds, run_stats = _run_session(per_query_pool=False)
        best["persistent"] = min(best["persistent"], seconds)
        stats["persistent"] = run_stats
        assert all(np.array_equal(a, b)
                   for a, b in zip(results, baselines[0]))
        results, seconds, run_stats = _run_session(per_query_pool=True)
        best["per-query"] = min(best["per-query"], seconds)
        stats["per-query"] = run_stats
        assert all(np.array_equal(a, b)
                   for a, b in zip(results, baselines[0]))

    speedup = best["per-query"] / best["persistent"]
    persistent = stats["persistent"]
    body = format_table(
        ["pool lifecycle", "total s", "speedup", "worker spawns",
         "catalog pickles"],
        [["persistent", f"{best['persistent']:.3f}", f"{speedup:.2f}x",
          persistent["spawns"], persistent["shared_pickles"]],
         ["per-query", f"{best['per-query']:.3f}", "1.00x",
          stats["per-query"]["spawns"] * QUERIES,
          stats["per-query"]["shared_pickles"] * QUERIES]])
    body += "\n\n" + format_table(
        ["payload", "bytes"],
        [["job broadcast (once per query)", persistent["job_bytes"]],
         ["shard task (per shard)", persistent["task_bytes"]]])
    print_experiment(
        f"Persistent worker pool vs per-query pools "
        f"({QUERIES} queries, n_jobs={N_JOBS})", body)

    record_metric("bench_scaling", "persistent_pool_speedup",
                  round(speedup, 3), gate=">= 1.5x")
    record_metric("bench_scaling", "catalog_pickles",
                  persistent["shared_pickles"], gate="== 1")
    record_metric("bench_scaling", "shard_task_bytes",
                  persistent["task_bytes"], gate="< 100")

    # Broadcast-once accounting: one pool spawn, one catalog pickle for
    # the whole session, and shard tasks that are integer triples.
    assert persistent["spawns"] == N_JOBS
    assert persistent["shared_pickles"] == 1
    assert persistent["task_bytes"] < 100
    assert speedup >= 1.5, (
        f"persistent pool only {speedup:.2f}x faster; need >= 1.5x")


if __name__ == "__main__":
    run_benchmark_cli([test_persistent_pool_amortizes_per_query_overhead])
