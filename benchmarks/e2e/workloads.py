"""The six benchmark workloads, driven through the public surface only:
``Session``, ``ExecutionOptions``, ``repro.workloads`` and ``RiskServer``
over real HTTP — nothing a later mode cull deletes.

Every workload follows one protocol (:class:`Workload`): ``setup`` builds
data, session/pool/server and runs the untimed warm-up ops; ``run_timed``
repeats whole *rounds* of a fixed op list in a closed loop until the
requested seconds have passed; ``verify`` decides, after the clock has
stopped, which ops returned a correct answer.

Inputs derive from ``--seed``: table contents, appended rows and the op
schedule.  The engine's ``base_seed`` is the constant :data:`BASE_SEED`:
the Gibbs sampler's work (proposals, replenishments) is a chaotic
function of it — one portfolio tail query costs ±6.5 % across base seeds,
one standing tail refresh ±40 % — while it is *invariant* to the data
seed, because ``Normal(m, 1)`` losses shift with ``m``.  So a fixed
``base_seed`` makes every run do the same work, and the panel of
statements each tail workload cycles through supplies the variety of
sampler trajectories a single seed would otherwise have to.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import ExecutionOptions
from repro.engine.options import ServerOptions
from repro.server import RiskServer, output_to_wire
from repro.sql import Session
from repro.workloads import PortfolioWorkload, TPCHWorkload
from repro.workloads.portfolio import CREATE_LOSSES

__all__ = ["BASE_SEED", "BLOCK_MIX", "FULL", "SMOKE", "WORKLOADS",
           "OpRecord", "schedule_block"]

BASE_SEED = 2010

#: Input sizes.  FULL is what BENCHMARK.json measures; SMOKE exists so the
#: instrument's self-test can run all six workloads in seconds.
FULL = {
    "setup_repeats": 3,
    "tail": {"customers": 200, "panel": 3, "tail_budget": 1000,
             "window": 1000, "quantile": 0.99, "samples": 100,
             "tolerance": 0.01},
    "mc": {"orders": 8000, "lineitems": 30_000, "repetitions": 200},
    "standing": {"rows": 2000, "append_rows": 20, "mc_repetitions": 500,
                 "tail_cid": 100, "tail_repetitions": 50, "round_ops": 4},
    "http": {"ledger_rows": 50_000, "accounts": 300, "customers": 100,
             "mc_repetitions": 200, "append_rows": 50},
}
SMOKE = {
    "setup_repeats": 1,
    "tail": {"customers": 30, "panel": 3, "tail_budget": 200,
             "window": 200, "quantile": 0.9, "samples": 20,
             "tolerance": 0.1},
    "mc": {"orders": 300, "lineitems": 1500, "repetitions": 40},
    "standing": {"rows": 120, "append_rows": 5, "mc_repetitions": 40,
                 "tail_cid": 30, "tail_repetitions": 10, "round_ops": 2},
    "http": {"ledger_rows": 2000, "accounts": 50, "customers": 30,
             "mc_repetitions": 20, "append_rows": 10},
}


@dataclass
class OpRecord:
    """One timed operation: what ran, when, what came back."""

    kind: str
    start: float
    end: float
    outcome: object = None
    error: str | None = None
    ok: bool | None = None      # set by Workload.verify
    client: int = 0
    timers: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _looper_counters(result) -> dict:
    """The ``LooperResult`` diagnostics the per-layer table reads.  Looked
    up by name so a counter the trace spine later removes reads ``None``
    (metric ``null``) instead of failing the run."""
    stats = result.total_stats
    counters = {name: getattr(result, name, None) for name in (
        "plan_runs", "replenish_seconds", "sharded_windows",
        "followup_windows", "speculated_windows", "wasted_speculations")}
    counters["replenish_runs"] = (
        getattr(result, "full_replenish_runs", 0)
        + getattr(result, "delta_replenish_runs", 0))
    counters["step_seconds"] = sum(step.seconds for step in result.trace)
    counters["proposals"] = stats.proposals
    counters["acceptances"] = stats.acceptances
    return counters


def _backend_counters(session) -> dict:
    """Cumulative transport counters of a session's pool (empty when the
    session runs serially or the backend keeps no stats)."""
    stats = getattr(session.backend, "stats", None) or {}
    return {f"backend.{key}": value for key, value in stats.items()
            if isinstance(value, (int, float))}


def _cache_counters(stats: dict) -> dict:
    return {f"det_cache.{key}": stats[key]
            for key in ("hits", "misses", "append_refreshes")}


class Workload:
    """Protocol + the single-client closed loop most workloads use."""

    name = ""
    size_key = ""       # this workload's entry in FULL / SMOKE
    n_jobs = 1
    backend = "process"

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.size = sizes[self.size_key]
        self.options = ExecutionOptions(
            n_jobs=self.n_jobs, backend=self.backend)
        #: Seconds of the first op on a fresh session (pool spawn +
        #: catalog broadcast land here), set by :meth:`setup`.
        self.cold_op_s = 0.0
        self.setup_timers: dict[str, float] = {}

    def options_used(self) -> dict:
        return {"execution": repr(self.options), "base_seed": BASE_SEED}

    # -- lifecycle ----------------------------------------------------------

    def setup(self) -> None:
        """Build ``self.session`` (or a server) and run the warm-ups."""
        raise NotImplementedError

    def teardown(self) -> None:
        self.session.close()

    def _timed_cold(self, op) -> None:
        started = time.perf_counter()
        op()
        self.cold_op_s = time.perf_counter() - started

    # -- the timed phase ----------------------------------------------------

    def next_round(self) -> list[tuple[str, object]]:
        """``(kind, op)`` per op of one round; ``op(record)`` returns the
        op's outcome and may file client-side timers on the record."""
        raise NotImplementedError

    def run_timed(self, seconds: float, recorder=None) -> list[OpRecord]:
        records: list[OpRecord] = []
        started = time.perf_counter()
        while True:
            for kind, op in self.next_round():
                records.append(_run_op(kind, op, recorder, len(records)))
            if time.perf_counter() - started >= seconds:
                return records

    def counters(self) -> dict:
        """Cumulative engine counters; the runner reports their delta
        over the timed phase."""
        return {**_cache_counters(self.session.cache_stats()),
                **_backend_counters(self.session)}

    # -- after the clock stops ----------------------------------------------

    def verify(self, records: list[OpRecord]) -> dict:
        """Set ``record.ok`` on every record; return extra result fields
        (fingerprints, reference timings)."""
        raise NotImplementedError


def _run_op(kind, op, recorder, op_id, client=0) -> OpRecord:
    record = OpRecord(kind, time.perf_counter(), 0.0, client=client)
    try:
        if recorder is None:
            record.outcome = op(record)
        else:
            with recorder.span("op", op=op_id):
                record.outcome = op(record)
    except Exception as exc:  # a failed op is a counted result, not a crash
        record.error = repr(exc)
    record.end = time.perf_counter()
    return record


# -- tail_serial / tail_pool2 -------------------------------------------------

class TailWorkload(Workload):
    """Paper Sec. 2: the 0.99-quantile of a portfolio's total loss.

    A round is one ``Session.execute`` per panel statement (``WHERE CID <
    c`` for the ``panel`` largest cutoffs): same catalog and pool, but
    each statement's Gibbs trajectory — and cost — is its own.  The
    panel is odd-sized so ``op_s_p50`` falls inside the middle
    statement's repetitions, not in the gap between two statements.
    """

    size_key = "tail"

    def setup(self) -> None:
        size = self.size
        self.portfolio = PortfolioWorkload(
            customers=size["customers"], seed=self.seed)
        self.session = self._build_session(self.options)
        cutoffs = [size["customers"] - i for i in range(size["panel"])]
        self.statements = {
            cutoff: self.portfolio.tail_query(
                size["quantile"], size["samples"], max_cid=cutoff)
            for cutoff in cutoffs}
        self._timed_cold(lambda: self._execute(self.session, cutoffs[0]))

    def _build_session(self, options) -> Session:
        size = self.size
        return self.portfolio.build_session(
            base_seed=BASE_SEED, tail_budget=size["tail_budget"],
            window=size["window"], options=options)

    def _execute(self, session, cutoff) -> dict:
        tail = session.execute(self.statements[cutoff]).tail
        return {"cutoff": cutoff, "samples": int(tail.samples.size),
                "quantile": float(tail.quantile_estimate),
                "sha": _sha(tail.samples), **_looper_counters(tail)}

    def next_round(self):
        return [(f"tail<{cutoff}",
                 lambda _, cutoff=cutoff: self._execute(self.session, cutoff))
                for cutoff in self.statements]

    def verify(self, records) -> dict:
        size = self.size
        extras: dict = {}
        expected = {}
        if self.n_jobs > 1:
            # The serial twin, in this process: same data, statement and
            # base seed must give the same samples bit for bit.  Its
            # timings are the base of backends.parallel_efficiency.
            seconds = []
            with self._build_session(ExecutionOptions(n_jobs=1)) as serial:
                for cutoff in self.statements:
                    started = time.perf_counter()
                    expected[cutoff] = self._execute(serial, cutoff)["sha"]
                    seconds.append(time.perf_counter() - started)
            extras["serial_reference_op_s"] = seconds
        for record in records:
            outcome = record.outcome
            if outcome is None:
                record.ok = False
                continue
            cutoff = outcome["cutoff"]
            analytic = self.portfolio.analytic_total_loss(cutoff).quantile(
                size["quantile"])
            # First sighting pins the statement's fingerprint: every
            # repetition must reproduce it.
            reference = expected.setdefault(cutoff, outcome["sha"])
            record.ok = (
                outcome["samples"] == size["samples"]
                and abs(outcome["quantile"] - analytic)
                <= size["tolerance"] * abs(analytic)
                and outcome["sha"] == reference)
        extras["fingerprints"] = {
            str(cutoff): sha for cutoff, sha in sorted(expected.items())}
        return extras


class TailSerial(TailWorkload):
    name = "tail_serial"


class TailPool2(TailWorkload):
    name = "tail_pool2"
    n_jobs = 2


# -- mc_serial / mc_pool2 -----------------------------------------------------

MC_QUERY = """
    SELECT o_yr, SUM(val) AS total, COUNT(*) AS n FROM random_ord, lineitem
    WHERE o_orderkey = l_orderkey GROUP BY o_yr
    WITH RESULTDISTRIBUTION MONTECARLO({repetitions})
"""


class MCWorkload(Workload):
    """Naive MCDB: a join + group-by Monte Carlo query over TPC-H-like
    data; one op is one ``Session.execute``."""

    size_key = "mc"

    def setup(self) -> None:
        size = self.size
        self.tpch = TPCHWorkload(orders=size["orders"],
                                 lineitems=size["lineitems"], seed=self.seed)
        self.sql = MC_QUERY.format(repetitions=size["repetitions"])
        self.session = self.tpch.build_session(
            base_seed=BASE_SEED, options=self.options)
        self._timed_cold(lambda: self._execute(self.session))
        self._execute(self.session)

    def _execute(self, session) -> dict:
        result = session.execute(self.sql).distributions
        groups = {}
        arrays = []
        for key in sorted(result.group_keys):
            by_name = result.aggregates(key)
            names = sorted(by_name)
            groups[str(key[0])] = {
                name: (by_name[name].expectation(),
                       float(by_name[name].samples.min()),
                       float(by_name[name].samples.max()))
                for name in names}
            arrays.extend(by_name[name].samples for name in names)
        return {"groups": groups, "sha": _sha(*arrays)}

    def next_round(self):
        return [("mc", lambda _: self._execute(self.session))]

    def _analytic_groups(self) -> dict:
        """Per year: exact COUNT(*) and the N(mean, var) law of SUM(val) —
        each order's normal loss enters once per joined lineitem."""
        data = self.tpch.generate()
        joined = data["l_orderkey"][data["l_orderkey"] >= 0]
        fanout = np.bincount(joined, minlength=self.tpch.orders).astype(float)
        years = data["o_yr"].astype(str)
        analytic = {}
        for year in np.unique(years[fanout > 0]):
            weights = np.where(years == year, fanout, 0.0)
            analytic[str(year)] = (
                float(weights.sum()),
                float(weights @ data["o_mean"]),
                float((weights ** 2) @ data["o_var"]))
        return analytic

    def verify(self, records) -> dict:
        repetitions = self.size["repetitions"]
        analytic = self._analytic_groups()
        extras: dict = {}
        reference = None
        if self.n_jobs > 1:
            with self.tpch.build_session(
                    base_seed=BASE_SEED,
                    options=ExecutionOptions(n_jobs=1)) as serial:
                self._execute(serial)  # cold: det sub-plans computed here
                started = time.perf_counter()
                reference = self._execute(serial)["sha"]
                extras["serial_reference_op_s"] = [
                    time.perf_counter() - started]
        for record in records:
            outcome = record.outcome
            if outcome is None:
                record.ok = False
                continue
            reference = reference or outcome["sha"]
            record.ok = (outcome["sha"] == reference
                         and set(outcome["groups"]) == set(analytic))
            for year, (count, mean, variance) in analytic.items():
                if not record.ok:
                    break
                group = outcome["groups"][year]
                # COUNT(*) is deterministic; the mean of n normal sums
                # is N(mean, var/n) exactly, so 6 standard errors is a
                # one-in-a-billion false alarm.
                low, high = group["n"][1:]
                record.ok = (
                    low == high == count
                    and abs(group["total"][0] - mean)
                    <= 6.0 * (variance / repetitions) ** 0.5)
        extras["fingerprints"] = {"mc": reference}
        return extras


class MCSerial(MCWorkload):
    name = "mc_serial"


class MCPool2(MCWorkload):
    name = "mc_pool2"
    n_jobs = 2


# -- standing_append ----------------------------------------------------------

class StandingAppend(Workload):
    """The write path: append rows, refresh a standing MC estimate and a
    standing tail estimate.  One op = ``Session.append`` + ``refresh()``
    of both handles."""

    name = "standing_append"
    size_key = "standing"

    def setup(self) -> None:
        size = self.size
        self.portfolio = PortfolioWorkload(
            customers=size["rows"], seed=self.seed)
        self.mc_sql = ("SELECT SUM(val) AS totalLoss FROM Losses WITH "
                       f"RESULTDISTRIBUTION MONTECARLO({size['mc_repetitions']})")
        self.tail_sql = (
            f"SELECT SUM(val) AS totalLoss FROM Losses WHERE CID < "
            f"{size['tail_cid']} WITH RESULTDISTRIBUTION MONTECARLO("
            f"{size['tail_repetitions']}) DOMAIN totalLoss >= QUANTILE(0.9)")
        self.session = self.portfolio.build_session(
            base_seed=BASE_SEED, options=self.options)
        started = time.perf_counter()
        self.mc = self.session.standing_query(self.mc_sql)
        self.tail = self.session.standing_query(self.tail_sql)
        self.setup_timers["register_s"] = time.perf_counter() - started
        self.rows = size["rows"]
        self.appended: list[dict] = []
        self._rng = np.random.default_rng([self.seed, 0xA99E])
        self._timed_cold(lambda: self._append_and_refresh(None))

    def _append_and_refresh(self, _record) -> dict:
        count = self.size["append_rows"]
        rows = {"CID": np.arange(self.rows, self.rows + count),
                "m": self._rng.uniform(self.portfolio.mean_low,
                                       self.portfolio.mean_high, count)}
        self.rows += count
        self.appended.append(rows)
        self.session.append("means", rows)
        self.mc.refresh()
        tail = self.tail.refresh().tail
        modes = (self.mc.stats(), self.tail.stats())
        return {
            "modes": [stats["last_mode"] for stats in modes],
            "rows_computed": sum(s["last_rows_computed"] for s in modes),
            "rows_reused": sum(s["last_rows_reused"] for s in modes),
            **_looper_counters(tail)}

    def next_round(self):
        return [("append+refresh", self._append_and_refresh)
                ] * self.size["round_ops"]

    def verify(self, records) -> dict:
        # The standing estimates must equal what a fresh session computes
        # on the grown table.
        mc_now = self.mc.result.distributions.distribution("totalLoss")
        tail_now = self.tail.result.tail
        with self.portfolio.build_session(base_seed=BASE_SEED) as fresh:
            for rows in self.appended:
                fresh.append("means", rows)
            mc_fresh = fresh.execute(self.mc_sql).distributions.distribution(
                "totalLoss")
            tail_fresh = fresh.execute(self.tail_sql).tail
        equal = (np.array_equal(mc_now.samples, mc_fresh.samples)
                 and np.array_equal(tail_now.samples, tail_fresh.samples)
                 and tail_now.quantile_estimate
                 == tail_fresh.quantile_estimate)
        for record in records:
            # Any op may have introduced a divergence the final compare
            # finds, so a mismatch fails them all.
            record.ok = equal and record.outcome is not None
        return {"fingerprints": {"mc": _sha(mc_now.samples),
                                 "tail": _sha(tail_now.samples)}}


# -- http_mixed ---------------------------------------------------------------

TENANTS = ("acme", "globex")
READ_REGIONS = (2, 3, 5)
#: Ops per schedule block: 35 reads + 4 MC + 1 append = 87.5 % / 10 % /
#: 2.5 %.  A read takes ~5 ms alone, but 15-40 ms while the other client's
#: MC query holds the GIL or right after an append (det-cache splice); the
#: shares keep more than 60 % of all ops in the fast mode, so ``op_s_p50``
#: sits inside it.  At 70/25/5 only a third were, the median fell on the
#: sparse slope between the modes and moved 25 % from run to run.
BLOCK_MIX = (("read", 35), ("mc", 4), ("append", 1))


def http_statements(sizes: dict) -> dict[str, list[str]]:
    """The distinct statements of the mix: three cached det join reads
    and two small Monte Carlo queries."""
    customers = sizes["customers"]
    return {
        "read": [
            "SELECT SUM(amount) FROM ledger, accounts WHERE ledger.acct = "
            f"accounts.acct2 AND accounts.region < {region}"
            for region in READ_REGIONS],
        "mc": [
            f"SELECT SUM(val) FROM Losses WHERE CID < {cutoff} WITH "
            f"RESULTDISTRIBUTION MONTECARLO({sizes['mc_repetitions']})"
            for cutoff in (customers, 2 * customers // 3)],
    }


def schedule_block(seed: int, tenant: int, block: int, sizes: dict
                   ) -> list[tuple[str, object]]:
    """Ops ``(kind, sql | rows)`` of one block (:data:`BLOCK_MIX`) of a tenant's
    schedule: a pure function of its arguments, so the serial replay (and
    any other process) regenerates exactly what the client sent."""
    rng = np.random.default_rng([seed, tenant, block])
    kinds = [kind for kind, count in BLOCK_MIX for _ in range(count)]
    rng.shuffle(kinds)
    statements = http_statements(sizes)
    ops = []
    for kind in kinds:
        if kind == "append":
            count = sizes["append_rows"]
            ops.append((kind, {
                "acct": rng.integers(0, sizes["accounts"], count).tolist(),
                "amount": rng.uniform(0.0, 100.0, count).tolist()}))
        else:
            choices = statements[kind]
            ops.append((kind, choices[int(rng.integers(len(choices)))]))
    return ops


def _tenant_tables(seed: int, tenant: int, sizes: dict) -> dict:
    rng = np.random.default_rng([seed, tenant, 0x7AB1E])
    accounts, customers = sizes["accounts"], sizes["customers"]
    return {
        "ledger": {
            "acct": rng.integers(0, accounts, sizes["ledger_rows"]).tolist(),
            "amount": rng.uniform(0.0, 100.0, sizes["ledger_rows"]).tolist()},
        "accounts": {"acct2": list(range(accounts)),
                     "region": [a % 7 for a in range(accounts)]},
        "means": {"CID": list(range(customers)),
                  "m": rng.uniform(1.0, 5.0, customers).tolist()},
    }


class _Client:
    """The service's JSON over HTTP, one connection per request — the
    repo's own client idiom (``urllib``).  Keep-alive is deliberately not
    used: the stdlib handler writes headers and body separately without
    ``TCP_NODELAY``, so on a reused connection every reply waits out a
    40 ms delayed ACK and the benchmark would time the kernel's timer."""

    def __init__(self, host: str, port: int):
        self._address = (host, port)
        self.response_bytes = 0

    def call(self, method: str, path: str, body=None, expect: int = 200):
        data = None if body is None else json.dumps(body).encode()
        connection = http.client.HTTPConnection(*self._address, timeout=120)
        try:
            connection.request(
                method, path, body=data,
                headers={"Content-Type": "application/json",
                         "Connection": "close"})
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        self.response_bytes += len(raw)
        if response.status != expect:
            raise RuntimeError(
                f"{method} {path}: HTTP {response.status} {raw[:200]!r}")
        return json.loads(raw)


class HttpMixed(Workload):
    """Two tenants, one closed-loop client each, against a real
    ``RiskServer``: cached det join reads, small MC queries and ledger
    appends in a seeded 87.5/10/2.5 mix.  One op = submit → long-poll →
    result (or one append POST); a round is one 40-op schedule block per
    client."""

    name = "http_mixed"
    size_key = "http"
    n_jobs = 2
    backend = "thread"
    server_options = ServerOptions(concurrency=2, query_timeout=None)

    def options_used(self) -> dict:
        return {**super().options_used(),
                "server": repr(self.server_options)}

    def setup(self) -> None:
        size = self.size
        self.server = RiskServer(
            options=self.options, server_options=self.server_options,
            base_seed=BASE_SEED).start()
        self.clients = [_Client(self.server.host, self.server.port)
                        for _ in TENANTS]
        self._next_block = [0] * len(TENANTS)
        load_seconds = 0.0
        for index, (tenant, client) in enumerate(zip(TENANTS, self.clients)):
            client.call("POST", f"/tenants/{tenant}", expect=201)
            started = time.perf_counter()
            for name, columns in _tenant_tables(
                    self.seed, index, size).items():
                client.call("POST", f"/tenants/{tenant}/tables",
                            {"name": name, "columns": columns}, expect=201)
            load_seconds += time.perf_counter() - started
            self._query(client, tenant, CREATE_LOSSES)
        self.setup_timers["load_tables_s"] = load_seconds
        # Warm-up: every distinct statement once per tenant, so the timed
        # reads hit a filled det-cache.
        statements = [sql for group in http_statements(size).values()
                      for sql in group]
        self._timed_cold(lambda: self._query(
            self.clients[0], TENANTS[0], statements[0]))
        for tenant, client in zip(TENANTS, self.clients):
            for sql in statements:
                self._query(client, tenant, sql)

    def teardown(self) -> None:
        self.server.stop()

    def _query(self, client, tenant, sql, timers=None) -> dict:
        """Submit, long-poll until settled, return the result payload."""
        started = time.perf_counter()
        submitted = client.call(
            "POST", f"/tenants/{tenant}/queries", {"sql": sql}, expect=202)
        polled = time.perf_counter()
        while True:
            record = client.call(
                "GET", f"/queries/{submitted['query_id']}?wait=30")
            if record["status"] not in ("queued", "running"):
                break
        if timers is not None:
            timers.update(submit_s=polled - started,
                          poll_s=time.perf_counter() - polled,
                          queue_s=record["queue_seconds"],
                          run_s=record["run_seconds"])
        if record["status"] != "done":
            raise RuntimeError(
                f"query {record['status']}: {record.get('error')}")
        return record.get("result")

    def _op(self, index: int, kind: str, payload):
        tenant, client = TENANTS[index], self.clients[index]

        def op(record):
            before = client.response_bytes
            if kind == "append":
                started = time.perf_counter()
                outcome = client.call(
                    "POST", f"/tenants/{tenant}/tables/ledger/rows",
                    {"columns": payload})["appended"]
                record.timers["append_s"] = time.perf_counter() - started
            else:
                outcome = self._query(client, tenant, payload, record.timers)
            record.timers["response_bytes"] = client.response_bytes - before
            return outcome

        return op

    def _client_loop(self, index, seconds, recorder, records) -> None:
        size = self.size
        started = time.perf_counter()
        while True:
            block = self._next_block[index]
            self._next_block[index] += 1
            for kind, payload in schedule_block(self.seed, index, block, size):
                records.append(_run_op(
                    kind, self._op(index, kind, payload), recorder,
                    len(records) * len(TENANTS) + index, client=index))
            if time.perf_counter() - started >= seconds:
                return

    def run_timed(self, seconds, recorder=None):
        per_client: list[list[OpRecord]] = [[] for _ in TENANTS]
        threads = [threading.Thread(
            target=self._client_loop, name=f"client-{index}",
            args=(index, seconds, recorder, per_client[index]))
            for index in range(len(TENANTS))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [record for records in per_client for record in records]

    def counters(self) -> dict:
        stats = self.clients[0].call("GET", "/stats")
        totals = {"server.rejected": stats["counters"]["rejected"]}
        for tenant in stats["tenants"]:
            for key, value in _cache_counters(tenant["det_cache"]).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def verify(self, records) -> dict:
        """Replay each tenant's schedule on one serial session; every
        payload must equal ``output_to_wire`` of the replay.  A statement
        is re-executed only when an append moved the ledger since its
        last execution — execution is a function of (statement, tables)."""
        size = self.size
        for index in range(len(TENANTS)):
            mine = iter([r for r in records if r.client == index])
            with Session(base_seed=BASE_SEED) as session:
                for name, columns in _tenant_tables(
                        self.seed, index, size).items():
                    session.add_table(name, columns)
                session.execute(CREATE_LOSSES)
                self._replay(session, index, mine)
        return {"fingerprints": {}}

    def _replay(self, session, index, records) -> None:
        size = self.size
        expected: dict[str, dict] = {}
        for block in range(self._next_block[index]):
            for kind, payload in schedule_block(self.seed, index, block, size):
                record = next(records, None)
                if record is None:
                    return
                if kind == "append":
                    session.append("ledger", payload)
                    expected = {sql: wire for sql, wire in expected.items()
                                if "ledger" not in sql}
                    record.ok = record.outcome == size["append_rows"]
                    continue
                if payload not in expected:
                    expected[payload] = json.loads(json.dumps(
                        output_to_wire(session.execute(payload))))
                record.ok = record.outcome == expected[payload]


WORKLOADS = {cls.name: cls for cls in (
    TailSerial, TailPool2, MCSerial, MCPool2, StandingAppend, HttpMixed)}
