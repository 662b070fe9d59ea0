"""The zero-copy shared-memory data plane vs whole-payload pickling.

The broadcast-once transport (``bench_scaling``) stopped the catalog
from being pickled per *task*, but it still crossed the pipe as pickled
bytes once per worker.  The shm data plane (``src/repro/engine/shm.py``)
places each bulk array in a ``multiprocessing.shared_memory`` segment
exactly once and ships tens of bytes of descriptor instead; workers
attach zero-copy views over the same physical pages.

This benchmark runs the bench_scaling session workload — a 120-customer
uncertain table next to a position ledger riding the catalog — through
one Monte Carlo query, with the data plane on vs ``MCDBR_SHM=off``, and
gates on

* **pickled bytes**: catalog-channel blobs (``shared_wire_bytes``) must
  shrink >= 5x;
* **bit-identity**: the query's samples must match exactly — the data
  plane is a transport, never a semantics change;
* **wall clock**: never materially slower than whole-payload pickling
  (best of interleaved ``ROUNDS``; same generous noise bound as the
  bench_scaling guards — CI boxes are noisy);
* **lifecycle**: zero ``mcdbr-*`` segments left in ``/dev/shm`` after
  every ``Session.close()``.

Run:  python benchmarks/bench_zero_copy.py [--json]
"""

import numpy as np

from repro.engine.options import ExecutionOptions
from repro.engine.shm import leaked_segments
from repro.experiments import (
    format_table, print_experiment, record_metric, run_benchmark_cli, timed)
from repro.sql import Session

CUSTOMERS = 120
#: Big enough that shipping the ledger dominates the session's transport
#: cost — the wall-clock gate compares transport regimes, not noise.
LEDGER_ROWS = 600_000
N_JOBS = 2
ROUNDS = 5
BASE_SEED = 2026

CREATE = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN means
    WITH myVal AS Normal(VALUES(m, 1.0))
    SELECT CID, myVal.* FROM myVal
"""
MC_QUERY = """
    SELECT SUM(val) AS loss FROM Losses WHERE CID < 120
    WITH RESULTDISTRIBUTION MONTECARLO(48)
"""


def _make_session(shm: str) -> Session:
    session = Session(
        base_seed=BASE_SEED,
        options=ExecutionOptions(n_jobs=N_JOBS, backend="process", shm=shm))
    rng = np.random.default_rng(0)
    session.add_table("means", {
        "CID": np.arange(CUSTOMERS),
        "m": rng.uniform(0.5, 3.0, size=CUSTOMERS)})
    # The bench_scaling position ledger: catalog bulk that every worker
    # needs but no query result returns — the shm data plane's bread and
    # butter.
    session.add_table("positions", {
        "PID": np.arange(LEDGER_ROWS),
        "CID": rng.integers(0, CUSTOMERS, size=LEDGER_ROWS),
        "qty": rng.uniform(0.0, 10.0, size=LEDGER_ROWS),
        "strike": rng.uniform(10.0, 90.0, size=LEDGER_ROWS)})
    session.execute(CREATE)
    return session


def _run(shm: str):
    session = _make_session(shm)
    try:
        # Warm-up: forks the pool and ships the catalog's first version,
        # so the timed window below compares transport regimes instead of
        # process-spawn noise.  The version bump then forces the timed
        # query to re-ship the whole ledger through whichever data plane
        # is under test.
        session.execute(MC_QUERY)
        session.add_table("epoch", {"k": np.arange(3)})
        mc, seconds = timed(session.execute, MC_QUERY)
        stats = dict(session.backend.stats)
    finally:
        session.close()
    assert leaked_segments() == [], (
        f"Session.close() leaked /dev/shm segments: {leaked_segments()}")
    return mc.distributions.distribution("loss").samples, seconds, stats


def test_shm_data_plane_cuts_pickled_bytes():
    samples, stats = {}, {}
    best = {"on": np.inf, "off": np.inf}
    # Interleaved rounds: background-load drift on the host hits both
    # data planes alike instead of biasing whichever ran first.
    for _ in range(ROUNDS):
        for shm in ("on", "off"):
            result, seconds, run_stats = _run(shm)
            best[shm] = min(best[shm], seconds)
            samples[shm] = result
            stats[shm] = run_stats

    # Bit-identity: the data plane changes how bytes travel, never which
    # bytes the query math sees.
    np.testing.assert_array_equal(samples["on"], samples["off"])

    pickled = {shm: stats[shm]["shared_wire_bytes"] for shm in stats}
    reduction = pickled["off"] / pickled["on"]
    wallclock = best["on"] / best["off"]

    body = format_table(
        ["data plane", "total s", "pickled catalog bytes",
         "segments", "segment bytes", "attached bytes"],
        [["shm on", f"{best['on']:.3f}", f"{pickled['on']:,}",
          stats["on"]["shm_segments"], f"{stats['on']['shm_bytes']:,}",
          f"{stats['on']['shm_attached_bytes']:,}"],
         ["shm off", f"{best['off']:.3f}", f"{pickled['off']:,}",
          0, 0, 0]])
    body += (f"\n\npickled-byte reduction: {reduction:.1f}x (gate: >= 5x)"
             f"\nwall-clock ratio (on/off): {wallclock:.2f}x "
             f"(gate: <= 1.2x)")
    print_experiment(
        f"Zero-copy shm data plane vs whole-payload pickling "
        f"(n_jobs={N_JOBS}, {LEDGER_ROWS:,}-row ledger)", body)

    record_metric("bench_zero_copy", "pickled_bytes_reduction",
                  round(reduction, 2), gate=">= 5x")
    record_metric("bench_zero_copy", "wallclock_ratio",
                  round(wallclock, 3), gate="<= 1.2x")
    record_metric("bench_zero_copy", "leaked_segments",
                  len(leaked_segments()), gate="== 0")

    assert stats["on"]["shm_segments"] > 0
    assert stats["off"]["shm_segments"] == 0
    assert reduction >= 5.0, (
        f"shm data plane only cut pickled catalog bytes "
        f"{reduction:.1f}x; need >= 5x")
    # Wall-clock guard: replacing bulk pickling with descriptor shipping
    # must not slow the session down (generous bound, matching the
    # bench_scaling guards: CI boxes are noisy).
    assert wallclock <= 1.2, (
        f"shm data plane ran {wallclock:.2f}x the plain-pickle wall "
        f"clock; must never be materially slower")


if __name__ == "__main__":
    run_benchmark_cli([test_shm_data_plane_cuts_pickled_bytes])
