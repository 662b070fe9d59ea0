"""Per-tenant session registry for the risk service.

One server process owns ONE persistent worker pool; every tenant gets
its own :class:`~repro.sql.session.Session` — own
:class:`~repro.engine.table.Catalog`, own
:class:`~repro.engine.det_cache.SessionDetCache`, own analysis journal —
attached to that shared pool via ``Session(shared_backend=...)``.

That split is the isolation story: deterministic sub-plan sharing
happens *within* a tenant (cross-query det-cache hits on the tenant's
own session), never across tenants.  Plan fingerprints are structural,
so two tenants issuing the same SQL over same-named tables produce equal
fingerprints — which is exactly why the caches are per-session objects:
equal keys in disjoint caches cannot collide.  The shared pool is safe
to multiplex because shard jobs are self-contained and stateless (the
executor pickles its own catalog snapshot) — see
:class:`~repro.engine.backends.SharedBackend`.

Eviction frees a tenant's resources *now*: ``close()`` detaches the
shared pool (without closing it) and ``reset_cache()`` drops every
materialized deterministic relation, so no cached tenant data survives
its eviction.
"""

from __future__ import annotations

import threading
import time

from ..engine.options import ExecutionOptions
from ..sql.session import Session
from .records import AnalysisJournal
from .wire import ApiError

__all__ = ["TenantState", "TenantRegistry"]

_SESSION_KNOBS = ("base_seed", "tail_budget", "window", "gibbs_steps")


class TenantState:
    """One tenant: session (catalog + det-cache) and analysis journal."""

    __slots__ = ("tenant_id", "session", "journal", "created_at", "queries")

    def __init__(self, tenant_id: str, session: Session):
        self.tenant_id = tenant_id
        self.session = session
        self.journal = AnalysisJournal(tenant_id)
        self.created_at = time.time()
        self.queries = 0  # completed-statement counter (stats only)

    def table_versions(self) -> dict[str, int]:
        """Current per-name catalog versions — record provenance."""
        catalog = self.session.catalog
        names = catalog.table_names() + catalog.random_table_names()
        return {name: catalog.table_version(name) for name in sorted(names)}

    def stats(self) -> dict:
        cache = self.session.det_cache.stats()
        return {
            "tenant": self.tenant_id,
            "created_at": self.created_at,
            "queries": self.queries,
            "tables": self.session.catalog.table_names(),
            "random_tables": self.session.catalog.random_table_names(),
            "det_cache": cache,
        }


class TenantRegistry:
    """Thread-safe map of tenant id → :class:`TenantState`.

    All tenant sessions run the server's one :class:`ExecutionOptions`
    (so they all target the shared pool consistently); per-tenant
    ``base_seed``/``tail_budget``/``window``/``gibbs_steps`` may be set
    at tenant-creation time and are immutable afterwards — reproducible
    analyses need a pinned seed.
    """

    def __init__(self, options: ExecutionOptions,
                 shared_backend=None, base_seed: int = 0):
        self._options = options
        self._shared_backend = shared_backend
        self._base_seed = base_seed
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantState] = {}
        self.evictions = 0

    @staticmethod
    def validate_tenant_id(tenant_id: str) -> str:
        if not isinstance(tenant_id, str) or not tenant_id or \
                len(tenant_id) > 64 or \
                not all(c.isalnum() or c in "-_" for c in tenant_id):
            raise ApiError(
                400, f"invalid tenant id {tenant_id!r}: need 1-64 chars "
                     "from [A-Za-z0-9_-]")
        return tenant_id

    def _build_session(self, config: dict | None) -> Session:
        knobs = {"base_seed": self._base_seed}
        for key in (config or {}):
            if key not in _SESSION_KNOBS:
                raise ApiError(
                    400, f"unknown tenant config key {key!r}; "
                         f"allowed: {', '.join(_SESSION_KNOBS)}")
        if config:
            knobs.update(config)
        return Session(options=self._options,
                       shared_backend=self._shared_backend, **knobs)

    def create(self, tenant_id: str,
               config: dict | None = None) -> tuple[TenantState, bool]:
        """Get or create; returns ``(state, created)``."""
        self.validate_tenant_id(tenant_id)
        with self._lock:
            state = self._tenants.get(tenant_id)
            if state is not None:
                if config:
                    raise ApiError(
                        409, f"tenant {tenant_id!r} already exists; "
                             "config can only be set at creation")
                return state, False
            state = TenantState(tenant_id, self._build_session(config))
            self._tenants[tenant_id] = state
            return state, True

    def get(self, tenant_id: str) -> TenantState:
        with self._lock:
            state = self._tenants.get(tenant_id)
        if state is None:
            raise ApiError(404, f"unknown tenant {tenant_id!r}")
        return state

    def evict(self, tenant_id: str) -> TenantState:
        """Remove a tenant and free its cached relations immediately."""
        with self._lock:
            state = self._tenants.pop(tenant_id, None)
            if state is None:
                raise ApiError(404, f"unknown tenant {tenant_id!r}")
            self.evictions += 1
        # Outside the registry lock: close/reset take the session's own
        # execute lock and may wait for an in-flight statement.
        state.session.close()       # detaches the shared pool, never kills it
        state.session.reset_cache()  # frees every cached det relation
        return state

    def tenant_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._tenants)

    def states(self) -> list[TenantState]:
        with self._lock:
            return [self._tenants[t] for t in sorted(self._tenants)]

    def close(self) -> None:
        """Detach every tenant (server shutdown path)."""
        with self._lock:
            states = list(self._tenants.values())
            self._tenants.clear()
        for state in states:
            state.session.close()
            state.session.reset_cache()
