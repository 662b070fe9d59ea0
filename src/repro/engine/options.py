"""Execution policy: how a query runs, never what it computes.

:class:`ExecutionOptions` is the single knob object the SQL layer threads
down into :class:`~repro.engine.mcdb.MonteCarloExecutor` and
:class:`~repro.core.gibbs_looper.GibbsLooper`; :class:`ServerOptions`
does the same for the risk-service front end.  Every combination of
execution knobs must produce bit-identical results for the same session
seed — the contract ``tests/test_engine_equivalence.py`` enforces and the
MC/tail goldens pin across commits.

``n_jobs`` and ``backend`` shape the stateless ``run_job`` sharding of
the Monte Carlo repetition axis (:mod:`repro.engine.backends`): the
repetitions split evenly over ``n_jobs`` contiguous slices, every worker
re-derives the same per-seed PRNG keys and materializes disjoint windows
of the same streams, so merging shards in order reproduces the serial
run.  Tail (``DOMAIN``) queries ignore them: the Gibbs sweep is
Gauss–Seidel over TS-seeds and always runs in-process, with one kernel
and delta refuels.  ``det_cache`` decides whether deterministic sub-plan
results are shared across a session's queries.

Every knob also reads from an ``MCDBR_*`` environment variable through
:meth:`ExecutionOptions.from_env`, which rejects unknown names.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from repro.engine.errors import EngineError

__all__ = ["BACKENDS", "DET_CACHE_MODES", "ExecutionOptions",
           "ServerOptions", "env_choice", "env_int", "env_float", "env_bool"]

#: Shard transports (see :mod:`repro.engine.backends`).  ``"process"``
#: (default) is a persistent worker pool reused across a session's
#: queries; ``"thread"`` a persistent thread pool; ``"serial"`` runs the
#: sharded code paths in-process, in order.
BACKENDS = ("process", "thread", "serial")

#: Deterministic sub-plan cache tiers.  ``"session"`` shares materialized
#: deterministic relations across queries (keyed by structural plan
#: fingerprint and the per-table catalog versions each entry depends
#: on); ``"off"`` disables caching entirely.
DET_CACHE_MODES = ("session", "off")

#: Truthy/falsy spellings accepted by boolean env knobs.
_ENV_TRUE = ("1", "true", "yes", "on")
_ENV_FALSE = ("0", "false", "no", "off")

#: Every environment knob ``from_env`` recognizes — the whole MCDBR_*
#: namespace is reserved, so misspelled *names* fail fast too.
_ENV_KNOBS = frozenset((
    "MCDBR_N_JOBS", "MCDBR_BACKEND", "MCDBR_DET_CACHE",
    # ServerOptions.from_env's knobs, so ExecutionOptions.from_env in the
    # server process doesn't reject them as typos.
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


@dataclass(frozen=True)
class ExecutionOptions:
    """How to execute a query: Monte Carlo sharding + det-cache reuse.

    Parameters
    ----------
    n_jobs:
        Workers for Monte Carlo repetition slices; ``1`` runs serially
        in-process.  Results are independent of ``n_jobs``.  Tail
        queries always run in-process, whatever ``n_jobs`` is.
    backend:
        Shard transport (see :data:`BACKENDS`): ``"process"``,
        ``"thread"`` or ``"serial"``.  Inert while ``n_jobs == 1``.
    det_cache:
        Cache tier for deterministic sub-plan results: ``"session"``
        (the default) or ``"off"``.  Under :class:`repro.sql.Session`,
        ``"session"`` is the session's cross-query cache, whose entries
        a mutation invalidates only when it touches a table they scan,
        and an append (``Catalog.append``) refreshes by splicing in the
        new rows.  Executors used directly scope their cache to one plan
        execution unless a session cache object is handed to them.
        Bit-identical either way — only recomputation differs.
    """

    n_jobs: int = 1
    backend: str = "process"
    det_cache: str = "session"

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; supported: {BACKENDS}")
        if not isinstance(self.n_jobs, int) \
                or isinstance(self.n_jobs, bool) or self.n_jobs < 1:
            raise ValueError(
                f"n_jobs must be an integer >= 1, got {self.n_jobs!r}")
        if self.det_cache not in DET_CACHE_MODES:
            raise ValueError(
                f"unknown det_cache mode {self.det_cache!r}; "
                f"supported: {DET_CACHE_MODES}")

    @classmethod
    def from_env(cls, **overrides) -> "ExecutionOptions":
        """Options from the ``MCDBR_*`` environment, validated eagerly.

        The one sanctioned way for entry points (quickstart, CI smoke
        runs, benchmarks) to pick up execution knobs from the
        environment: every variable is parsed and validated *here*, so a
        typo'd value fails with a clear :class:`EngineError` naming the
        variable, instead of a ``ValueError`` from deep inside options
        construction.  Explicit ``overrides`` win over the environment.

        ===================  ============================================
        variable             values
        ===================  ============================================
        ``MCDBR_N_JOBS``     integer >= 1
        ``MCDBR_BACKEND``    ``process|thread|serial``
        ``MCDBR_DET_CACHE``  ``session|off``
        ===================  ============================================

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
            n_jobs=env_int("MCDBR_N_JOBS", 1),
            backend=env_choice("MCDBR_BACKEND", "process", BACKENDS),
            det_cache=env_choice("MCDBR_DET_CACHE", "session",
                                 DET_CACHE_MODES),
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

        The split is a pure function of ``repetitions`` and ``n_jobs``
        (an even ceiling split), so a sharded run is reproducible; and
        because shards are slices of the position axis of deterministic
        streams, the *merged* result is the same for every split
        (including the trivial one).
        """
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
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
