"""Execution policy: how a query runs, never what it computes.

:class:`ExecutionOptions` is the single knob object the SQL layer threads
down into :class:`~repro.engine.mcdb.MonteCarloExecutor` and
:class:`~repro.core.gibbs_looper.GibbsLooper`; :class:`ServerOptions`
does the same for the risk-service front end.  Every combination of
execution knobs must produce bit-identical results for the same session
seed — the contract ``tests/test_engine_equivalence.py`` enforces and the
MC/tail goldens pin across commits.  The knobs fall in three groups:

* **Kernel** — ``engine`` picks the Gibbs perturbation kernel
  (``"vectorized"`` batches the database-version axis of Algorithm 3;
  ``"reference"`` is the scalar per-version path kept for verification)
  and ``window_growth`` the refuel-window schedule.
* **Monte Carlo sharding** — ``n_jobs``, ``backend``, ``shard_size``,
  ``shm`` and ``join_timeout`` shape the stateless ``run_job`` sharding
  of the repetition axis (:mod:`repro.engine.backends`): every worker
  re-derives the same per-seed PRNG keys and materializes disjoint
  windows of the same streams, so merging shards in order reproduces the
  serial run.  Tail (``DOMAIN``) queries ignore this group: the Gibbs
  sweep is Gauss–Seidel over TS-seeds and always runs in-process.
* **Reuse** — ``replenishment`` (Sec. 9 delta vs full refuels),
  ``det_cache`` and ``det_cache_keying`` decide how much earlier work a
  run may splice in instead of recomputing.

Every knob also reads from an ``MCDBR_*`` environment variable through
:meth:`ExecutionOptions.from_env`, which rejects unknown names.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from repro.engine.errors import EngineError

__all__ = ["ENGINES", "BACKENDS", "REPLENISHMENT_MODES", "DET_CACHE_MODES",
           "DET_CACHE_KEYINGS", "SHM_MODES", "ExecutionOptions",
           "ServerOptions", "env_choice", "env_int", "env_float", "env_bool"]

#: Supported Gibbs perturbation kernels.
ENGINES = ("vectorized", "reference")

#: Shard transports (see :mod:`repro.engine.backends`).  ``"process"``
#: (default) is a persistent worker pool reused across a session's
#: queries; ``"thread"`` a persistent thread pool; ``"serial"`` runs the
#: sharded code paths in-process, in order.
BACKENDS = ("process", "thread", "serial")

#: Replenishment strategies (Sec. 9).  ``"delta"`` materializes only stream
#: positions that were never produced before and merges them into the
#: previous tuple bundles; ``"full"`` rebuilds every window from scratch
#: (the paper-literal behavior, kept for verification).
REPLENISHMENT_MODES = ("delta", "full")

#: Deterministic sub-plan cache tiers.  ``"session"`` shares materialized
#: deterministic relations across queries (keyed by structural plan
#: fingerprint, invalidated on catalog mutation); ``"context"`` scopes the
#: cache to one plan execution context (the seed behavior); ``"off"``
#: disables caching entirely.
DET_CACHE_MODES = ("session", "context", "off")

#: Session det-cache invalidation granularity.  ``"table"`` (default)
#: keys each entry by the base/random tables its subtree actually scans
#: (``PlanNode.base_tables()``) and their per-name catalog versions:
#: mutating table A leaves entries scanning only B untouched, and
#: append-only growth (``Catalog.append``) splices the new rows into the
#: cached relation instead of recomputing.  ``"catalog"`` reproduces the
#: coarse protocol bit-for-bit: any catalog mutation drops every entry.
DET_CACHE_KEYINGS = ("table", "catalog")

#: Zero-copy shared-memory data plane for ``backend="process"``
#: (:mod:`repro.engine.shm`).  ``"on"`` (default) places bulk payload
#: arrays — the catalog columns on the shared channel — in parent-owned
#: ``/dev/shm`` segments and ships tens-of-byte descriptors that workers
#: attach as read-only zero-copy views; ``"off"`` pickles every payload
#: whole (for hosts without POSIX shared memory, though the store also
#: degrades to this by itself if allocation fails).
#: Bit-identical either way; inert on the serial/thread backends.
SHM_MODES = ("on", "off")

#: Truthy/falsy spellings accepted by boolean env knobs.
_ENV_TRUE = ("1", "true", "yes", "on")
_ENV_FALSE = ("0", "false", "no", "off")

#: Every environment knob ``from_env`` recognizes — the whole MCDBR_*
#: namespace is reserved, so misspelled *names* fail fast too.
_ENV_KNOBS = frozenset((
    "MCDBR_ENGINE", "MCDBR_N_JOBS", "MCDBR_BACKEND", "MCDBR_SHARD_SIZE",
    "MCDBR_REPLENISHMENT", "MCDBR_DET_CACHE", "MCDBR_WINDOW_GROWTH",
    "MCDBR_JOIN_TIMEOUT", "MCDBR_SHM", "MCDBR_DET_CACHE_KEYING",
    # Risk-service front-end knobs (repro.server), parsed by
    # ServerOptions.from_env — registered here so ExecutionOptions.from_env
    # running inside the server process doesn't reject them as typos.
    "MCDBR_SERVER_CONCURRENCY", "MCDBR_SERVER_QUEUE_DEPTH",
    "MCDBR_SERVER_QUERY_TIMEOUT", "MCDBR_SERVER_STANDING_AUTOREFRESH"))


def env_choice(name: str, default: str, allowed: tuple) -> str:
    """An enum-valued ``MCDBR_*`` knob, validated against ``allowed``.

    Misspelled values fail *here*, with the env var named, instead of
    surfacing later as a ``ValueError`` from whichever construction site
    happened to read the option first.
    """
    value = os.environ.get(name)
    if value is None:
        return default
    if value not in allowed:
        raise EngineError(
            f"invalid {name}={value!r}; supported values: "
            f"{'|'.join(allowed)}")
    return value


def env_int(name: str, default: int, minimum: int = 1) -> int:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        parsed = int(value)
    except ValueError:
        raise EngineError(
            f"invalid {name}={value!r}; expected an integer") from None
    if parsed < minimum:
        raise EngineError(
            f"invalid {name}={parsed}; must be >= {minimum}")
    return parsed


def env_float(name: str, default: float, minimum: float) -> float:
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        parsed = float(value)
    except ValueError:
        raise EngineError(
            f"invalid {name}={value!r}; expected a number") from None
    if not parsed >= minimum:
        raise EngineError(
            f"invalid {name}={parsed}; must be >= {minimum}")
    return parsed


def env_bool(name: str, default: bool) -> bool:
    value = os.environ.get(name)
    if value is None:
        return default
    lowered = value.lower()
    if lowered in _ENV_TRUE:
        return True
    if lowered in _ENV_FALSE:
        return False
    raise EngineError(
        f"invalid {name}={value!r}; expected one of "
        f"{'|'.join(_ENV_TRUE + _ENV_FALSE)}")


#: Env-overridable defaults so CI can run whole suites under either data
#: plane (``MCDBR_SHM=on|off``) or det-cache keying without threading the
#: knobs through every construction site.  Read once at import — options
#: constructed at different times inside one process can never silently
#: disagree.
_DEFAULT_SHM = env_choice("MCDBR_SHM", "on", SHM_MODES)
_DEFAULT_DET_CACHE_KEYING = env_choice("MCDBR_DET_CACHE_KEYING", "table",
                                       DET_CACHE_KEYINGS)


@dataclass(frozen=True)
class ExecutionOptions:
    """How to execute a query: kernel selection + repetition sharding.

    Parameters
    ----------
    engine:
        ``"vectorized"`` (batched NumPy kernel, default) or ``"reference"``
        (the paper-literal scalar path).  Both produce identical results
        for identical seeds.
    n_jobs:
        Workers for Monte Carlo repetition slices; ``1`` runs serially
        in-process.  Results are independent of ``n_jobs``.  Tail
        queries always run in-process, whatever ``n_jobs`` is.
    backend:
        Shard transport: ``"process"`` (persistent worker pool owned by
        the session, job broadcast once, ``(job_id, lo, hi)`` shard
        tasks), ``"thread"`` or ``"serial"``.  Inert while
        ``n_jobs == 1``.
    shard_size:
        Optional maximum repetitions per shard.  ``None`` splits the
        work evenly across ``n_jobs`` workers.
    replenishment:
        ``"delta"`` (default) re-runs the plan in incremental mode when a
        Gibbs window runs dry: ``Instantiate`` gathers only stream
        positions never materialized before and merges them into its
        previous output.  ``"full"`` rebuilds every window from the
        streams each time.  Both are bit-identical (the streams are pure
        functions of position), only speed differs.
    det_cache:
        Cache tier for deterministic sub-plan results: ``"session"``
        (cross-query, the default under :class:`repro.sql.Session`),
        ``"context"`` (per plan execution) or ``"off"``.  Executors used
        directly fall back to ``"context"`` scoping unless a session cache
        object is handed to them.
    det_cache_keying:
        Invalidation granularity of the session det-cache (default
        ``"table"``; env ``MCDBR_DET_CACHE_KEYING``).  ``"table"`` keys
        every entry by the catalog names its subtree scans
        (``PlanNode.base_tables()``) and the per-name versions they were
        filled under: a mutation invalidates only entries that depend on
        the touched name, and an append-only mutation
        (``Catalog.append``) *refreshes* dependent entries by splicing
        the new rows into the cached relation (full recompute only for
        non-splicable shapes, e.g. a join whose build side also moved).
        ``"catalog"`` reproduces the coarse whole-cache drop on any
        mutation.  Bit-identical either way — only the amount of
        recomputation after catalog mutations differs.
    window_growth:
        Geometric growth factor applied to the GibbsLooper's window after
        each replenishment (``1.0`` — the default — disables growth).
        Rejection-heavy seeds refuel dozens of times at a fixed window;
        growing it makes the refuel count logarithmic in the consumption
        depth.  Window sizing never changes which candidate is accepted
        (the consumption pointer walks the same stream either way), so
        results stay bit-identical — only the replenishment schedule,
        and therefore ``plan_runs``, shrinks.
    join_timeout:
        Seconds :meth:`ProcessBackend.close` waits at each shutdown
        escalation step (stop message -> SIGTERM -> SIGKILL); ``None``
        (default) uses the library default of 5 seconds.  Env
        ``MCDBR_JOIN_TIMEOUT``; useful to shrink teardown latency in
        fault-injection tests or supervised deployments.
    shm:
        Zero-copy shared-memory data plane for the process backend
        (default ``"on"``; env ``MCDBR_SHM``).  Bulk payload arrays —
        catalog/bundle columns in the shared channel — are placed once
        in parent-owned shared-memory segments and shipped as
        descriptors that workers attach as read-only zero-copy NumPy
        views, instead of being pickled and re-materialized per
        worker.  ``"off"`` keeps the
        pure pickle transport (for ``/dev/shm``-less hosts; the store
        also falls back by itself if allocation fails).  Inert on the
        serial/thread backends.  Bit-identical either way.
    """

    engine: str = "vectorized"
    n_jobs: int = 1
    backend: str = "process"
    shard_size: int | None = None
    replenishment: str = "delta"
    det_cache: str = "session"
    det_cache_keying: str = _DEFAULT_DET_CACHE_KEYING
    window_growth: float = 1.0
    join_timeout: float | None = None
    shm: str = _DEFAULT_SHM

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; supported: {ENGINES}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; supported: {BACKENDS}")
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if not self.window_growth >= 1.0:
            raise ValueError(
                f"window_growth must be >= 1.0, got {self.window_growth}")
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError(
                f"shard_size must be >= 1 or None, got {self.shard_size}")
        if self.replenishment not in REPLENISHMENT_MODES:
            raise ValueError(
                f"unknown replenishment mode {self.replenishment!r}; "
                f"supported: {REPLENISHMENT_MODES}")
        if self.det_cache not in DET_CACHE_MODES:
            raise ValueError(
                f"unknown det_cache mode {self.det_cache!r}; "
                f"supported: {DET_CACHE_MODES}")
        if self.det_cache_keying not in DET_CACHE_KEYINGS:
            raise ValueError(
                f"unknown det_cache_keying mode {self.det_cache_keying!r}; "
                f"supported: {DET_CACHE_KEYINGS}")
        if self.join_timeout is not None and not self.join_timeout > 0:
            raise ValueError(
                f"join_timeout must be > 0 or None, got "
                f"{self.join_timeout}")
        if self.shm not in SHM_MODES:
            raise ValueError(
                f"unknown shm mode {self.shm!r}; supported: {SHM_MODES}")

    @classmethod
    def from_env(cls, **overrides) -> "ExecutionOptions":
        """Options from the ``MCDBR_*`` environment, validated eagerly.

        The one sanctioned way for entry points (quickstart, CI smoke
        runs, benchmarks) to pick up execution knobs from the
        environment: every variable is parsed and validated *here*, so a
        typo'd value fails with a clear :class:`EngineError` naming the
        variable, instead of a ``ValueError`` from deep inside options
        construction.  Explicit ``overrides`` win over the environment.

        ==========================  =====================================
        variable                    values
        ==========================  =====================================
        ``MCDBR_ENGINE``            ``vectorized|reference``
        ``MCDBR_N_JOBS``            integer >= 1
        ``MCDBR_BACKEND``           ``process|thread|serial``
        ``MCDBR_SHARD_SIZE``        integer >= 1 (unset = even split)
        ``MCDBR_REPLENISHMENT``     ``delta|full``
        ``MCDBR_DET_CACHE``         ``session|context|off``
        ``MCDBR_DET_CACHE_KEYING``  ``table|catalog``
        ``MCDBR_WINDOW_GROWTH``     number >= 1.0
        ``MCDBR_JOIN_TIMEOUT``      number > 0 seconds (unset = 5s)
        ``MCDBR_SHM``               ``on|off``
        ==========================  =====================================

        Unrecognized ``MCDBR_*`` variables are rejected too: a
        misspelled *name* would otherwise silently leave its knob at the
        default — the exact failure mode this parser exists to prevent.
        """
        unknown_vars = sorted(
            name for name in os.environ
            if name.startswith("MCDBR_") and name not in _ENV_KNOBS)
        if unknown_vars:
            raise EngineError(
                f"unrecognized environment knobs {unknown_vars}; "
                f"supported: {sorted(_ENV_KNOBS)}")
        values = dict(
            engine=env_choice("MCDBR_ENGINE", "vectorized", ENGINES),
            n_jobs=env_int("MCDBR_N_JOBS", 1),
            backend=env_choice("MCDBR_BACKEND", "process", BACKENDS),
            shard_size=(env_int("MCDBR_SHARD_SIZE", 1)
                        if "MCDBR_SHARD_SIZE" in os.environ else None),
            replenishment=env_choice("MCDBR_REPLENISHMENT", "delta",
                                     REPLENISHMENT_MODES),
            det_cache=env_choice("MCDBR_DET_CACHE", "session",
                                 DET_CACHE_MODES),
            det_cache_keying=env_choice("MCDBR_DET_CACHE_KEYING", "table",
                                        DET_CACHE_KEYINGS),
            window_growth=env_float("MCDBR_WINDOW_GROWTH", 1.0, 1.0),
            join_timeout=(env_float("MCDBR_JOIN_TIMEOUT", 5.0, 1e-3)
                          if "MCDBR_JOIN_TIMEOUT" in os.environ else None),
            shm=env_choice("MCDBR_SHM", "on", SHM_MODES),
        )
        known = {field.name for field in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise EngineError(
                f"unknown ExecutionOptions overrides: {sorted(unknown)}")
        values.update(overrides)
        return cls(**values)

    @property
    def sharded(self) -> bool:
        return self.n_jobs > 1

    def shard_bounds(self, repetitions: int) -> list[tuple[int, int]]:
        """Contiguous ``[lo, hi)`` repetition slices for the workers.

        The split is a pure function of ``repetitions`` and the options, so
        a sharded run is reproducible; and because shards are slices of the
        position axis of deterministic streams, the *merged* result is the
        same for every split (including the trivial one).
        """
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        size = self.shard_size
        if size is None:
            size = -(-repetitions // self.n_jobs)  # ceil division
        bounds = []
        lo = 0
        while lo < repetitions:
            hi = min(lo + size, repetitions)
            bounds.append((lo, hi))
            lo = hi
        return bounds


@dataclass(frozen=True)
class ServerOptions:
    """Admission policy of the risk-service front end (:mod:`repro.server`).

    Where :class:`ExecutionOptions` governs how one query runs, this
    object governs how many may run — the server's bounded admission
    queue and its executor pool:

    concurrency:
        Executor threads draining the admission queue — the maximum
        number of tenant queries in flight at once (each tenant session
        is additionally single-flight, so concurrency beyond the tenant
        count buys nothing).  Env ``MCDBR_SERVER_CONCURRENCY``.
    queue_depth:
        Maximum *queued* (admitted but not yet running) queries.  A
        submit that would exceed it is refused with HTTP 429 — load
        sheds at the door instead of piling onto the pool.  Env
        ``MCDBR_SERVER_QUEUE_DEPTH``.
    query_timeout:
        Seconds one query may spend from admission to completion
        (queue wait included) before it is abandoned and reported as
        ``"timeout"``; ``None`` disables the limit.  Env
        ``MCDBR_SERVER_QUERY_TIMEOUT`` (a number; ``0`` or less is
        rejected — use unset for no limit).
    standing_autorefresh:
        Whether a successful ``POST .../tables/{name}/append`` marks the
        tenant's standing queries dirty and schedules their refresh
        immediately (the streaming posture).  ``False`` refreshes only
        on demand (``POST .../standing/{id}/refresh``).  Env
        ``MCDBR_SERVER_STANDING_AUTOREFRESH``.
    """

    concurrency: int = 4
    queue_depth: int = 32
    query_timeout: float | None = 30.0
    standing_autorefresh: bool = True

    def __post_init__(self):
        if not isinstance(self.concurrency, int) \
                or isinstance(self.concurrency, bool) \
                or self.concurrency < 1:
            raise ValueError(
                f"concurrency must be an integer >= 1, got "
                f"{self.concurrency!r}")
        if not isinstance(self.queue_depth, int) \
                or isinstance(self.queue_depth, bool) \
                or self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be an integer >= 1, got "
                f"{self.queue_depth!r}")
        if self.query_timeout is not None and not self.query_timeout > 0:
            raise ValueError(
                f"query_timeout must be > 0 or None, got "
                f"{self.query_timeout}")
        if not isinstance(self.standing_autorefresh, bool):
            raise ValueError(
                f"standing_autorefresh must be a bool, got "
                f"{self.standing_autorefresh!r}")

    @classmethod
    def from_env(cls, **overrides) -> "ServerOptions":
        """Server knobs from the ``MCDBR_SERVER_*`` environment.

        Same eager-validation contract as
        :meth:`ExecutionOptions.from_env`: a typo'd value raises
        :class:`EngineError` naming the variable.

        ==============================  ================================
        variable                        values
        ==============================  ================================
        ``MCDBR_SERVER_CONCURRENCY``    integer >= 1 (executor threads)
        ``MCDBR_SERVER_QUEUE_DEPTH``    integer >= 1 (429 past this)
        ``MCDBR_SERVER_QUERY_TIMEOUT``  number > 0 seconds (unset = 30s)
        ``MCDBR_SERVER_STANDING_AUTOREFRESH``  boolean (default on)
        ==============================  ================================
        """
        values = dict(
            concurrency=env_int("MCDBR_SERVER_CONCURRENCY", 4),
            queue_depth=env_int("MCDBR_SERVER_QUEUE_DEPTH", 32),
            query_timeout=(
                env_float("MCDBR_SERVER_QUERY_TIMEOUT", 30.0, 1e-3)
                if "MCDBR_SERVER_QUERY_TIMEOUT" in os.environ else 30.0),
            standing_autorefresh=env_bool(
                "MCDBR_SERVER_STANDING_AUTOREFRESH", True),
        )
        known = {field.name for field in fields(cls)}
        unknown = set(overrides) - known
        if unknown:
            raise EngineError(
                f"unknown ServerOptions overrides: {sorted(unknown)}")
        values.update(overrides)
        return cls(**values)
