"""Monte Carlo result goldens: bit-identity across refactors of the MC path.

``tests/data/mc_goldens.npz`` holds the ``MonteCarloResult`` sample vectors
of three queries as computed *before* the stream-kernel / sort-join /
factorized-group-by rewrite (commit 6f39bf6).  Streams are pure functions
of ``(base_seed, handle, position)`` and the fold is strict row order, so
any later change to the naive-MCDB path must reproduce every byte.

Regenerate (only when a change of values is intended and explained)::

    PYTHONPATH=src python tests/test_mc_goldens.py
"""

from pathlib import Path

import numpy as np
import pytest

from repro import ExecutionOptions
from repro.workloads import TPCHWorkload

GOLDENS = Path(__file__).parent / "data" / "mc_goldens.npz"

# 300 repetitions cross the 256-position chunk boundary of every stream.
JOIN_GROUP = """
    SELECT o_yr, SUM(val) AS total, COUNT(*) AS n FROM random_ord, lineitem
    WHERE o_orderkey = l_orderkey GROUP BY o_yr
    WITH RESULTDISTRIBUTION MONTECARLO(300)
"""
PRESENCE = """
    SELECT o_yr, SUM(val) AS total, COUNT(*) AS n, AVG(val) AS mean,
           MIN(val) AS low, MAX(val) AS high
    FROM random_ord WHERE val > 0.4 GROUP BY o_yr
    WITH RESULTDISTRIBUTION MONTECARLO(300)
"""
QUERIES = {
    "join_group": (JOIN_GROUP, ExecutionOptions(n_jobs=1)),
    "presence": (PRESENCE, ExecutionOptions(n_jobs=1)),
    "sharded": (JOIN_GROUP, ExecutionOptions(n_jobs=2, backend="thread")),
}


#: Which stored query each run is compared against: a sharded run must
#: reproduce the serial bytes, so it has no arrays of its own.
STORED_AS = {"join_group": "join_group", "presence": "presence",
             "sharded": "join_group"}


def compute(name: str) -> dict[str, np.ndarray]:
    """``{"<stored name>/<group>/<aggregate>": samples}`` of one query."""
    sql, options = QUERIES[name]
    name = STORED_AS[name]
    workload = TPCHWorkload(orders=120, lineitems=400, seed=13)
    with workload.build_session(base_seed=2010, options=options) as session:
        result = session.execute(sql).distributions
    return {f"{name}/{key[0]}/{aggregate}": distribution.samples
            for key in result.group_keys
            for aggregate, distribution in result.aggregates(key).items()}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_samples_equal_parent_commit_bytes(name):
    with np.load(GOLDENS) as goldens:
        expected = {key: goldens[key] for key in goldens.files
                    if key.startswith(STORED_AS[name] + "/")}
    actual = compute(name)
    assert sorted(actual) == sorted(expected)
    assert len(expected) >= 7  # one entry per (year, aggregate)
    for key, samples in actual.items():
        assert samples.dtype == expected[key].dtype
        assert samples.tobytes() == expected[key].tobytes(), key


if __name__ == "__main__":
    arrays = {}
    for query in sorted(set(STORED_AS.values())):
        arrays.update(compute(query))
    GOLDENS.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDENS, **arrays)
    print(f"wrote {len(arrays)} arrays to {GOLDENS}")
