"""``MCDBR_*`` environment-knob parsing (``ExecutionOptions.from_env``).

Every execution knob is overridable from the environment for CI matrix
runs and the quickstart; parsing must be eager and strict — a misspelled
value fails with a clear :class:`EngineError` naming the variable, never
a late ``ValueError`` from some construction site deep in a query.
"""

from dataclasses import fields

import pytest

from repro.engine.errors import EngineError
from repro.engine.options import (
    ExecutionOptions, ServerOptions, env_bool, env_choice, env_float,
    env_int)

#: Knobs of the deleted seed-axis distributed Gibbs path, the kernel and
#: refuel selectors (now oracles in tests/looper_oracles.py), the
#: deleted window-growth, shutdown-timeout and cache-keying knobs, and
#: the shared-memory data plane and shard-width knobs.
REMOVED_KNOBS = {
    "gibbs_state": "MCDBR_GIBBS_STATE",
    "state_reinit": "MCDBR_STATE_REINIT",
    "speculate_followups": "MCDBR_SPECULATE",
    "speculate_depth": "MCDBR_SPECULATE_DEPTH",
    "sweep_order": "MCDBR_SWEEP_ORDER",
    "engine": "MCDBR_ENGINE",
    "replenishment": "MCDBR_REPLENISHMENT",
    "det_cache_keying": "MCDBR_DET_CACHE_KEYING",
    "window_growth": "MCDBR_WINDOW_GROWTH",
    "join_timeout": "MCDBR_JOIN_TIMEOUT",
    "shm": "MCDBR_SHM",
    "shard_size": "MCDBR_SHARD_SIZE",
}
ALL_KNOBS = ("MCDBR_N_JOBS", "MCDBR_BACKEND", "MCDBR_DET_CACHE",
             *REMOVED_KNOBS.values())
#: Settings the removed knobs used to accept, as (field, value,
#: environment spelling): none of them may fall back silently.
REMOVED_SETTINGS = [
    ("gibbs_state", "worker", "worker"),
    ("gibbs_state", "broadcast", "broadcast"),
    ("state_reinit", "delta", "delta"),
    ("state_reinit", "full", "full"),
    ("speculate_followups", True, "1"),
    ("speculate_followups", False, "0"),
    ("speculate_depth", 0, "0"),
    ("speculate_depth", 8, "8"),
    ("sweep_order", "natural", "natural"),
    ("sweep_order", "adaptive", "adaptive"),
    ("engine", "vectorized", "vectorized"),
    ("engine", "reference", "reference"),
    ("replenishment", "delta", "delta"),
    ("replenishment", "full", "full"),
    ("det_cache_keying", "table", "table"),
    ("det_cache_keying", "catalog", "catalog"),
    ("window_growth", 1.0, "1"),
    ("window_growth", 2.5, "2.5"),
    ("join_timeout", 2.5, "2.5"),
    ("shm", "on", "on"),
    ("shm", "off", "off"),
    ("shard_size", 7, "7"),
    ("shard_size", 1, "1"),
]


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for name in ALL_KNOBS:
        monkeypatch.delenv(name, raising=False)


class TestFromEnvDefaults:
    def test_empty_environment_gives_defaults(self):
        options = ExecutionOptions.from_env()
        assert options == ExecutionOptions(
            n_jobs=1, backend="process", det_cache="session")

    def test_overrides_win_over_environment(self, monkeypatch):
        monkeypatch.setenv("MCDBR_N_JOBS", "4")
        monkeypatch.setenv("MCDBR_BACKEND", "thread")
        options = ExecutionOptions.from_env(backend="serial")
        assert options.backend == "serial"
        assert options.n_jobs == 4  # env still applies where not overridden

    def test_unknown_override_is_rejected(self):
        with pytest.raises(EngineError, match="unknown ExecutionOptions"):
            ExecutionOptions.from_env(warp_drive=True)

    def test_misspelled_variable_name_is_rejected(self, monkeypatch):
        """A typo'd *name* must fail fast too — silently falling back to
        the default is the exact failure mode from_env exists to stop."""
        monkeypatch.setenv("MCDBR_SPECULTE", "0")
        with pytest.raises(EngineError, match="MCDBR_SPECULTE"):
            ExecutionOptions.from_env()


class TestRemovedKnobs:
    """Removed knobs are gone, and fail loudly: as a constructor argument
    (``TypeError``) and as an environment variable (``EngineError``
    naming it) — never a silent fallback."""

    def test_option_count(self):
        assert [field.name for field in fields(ExecutionOptions)] == [
            "n_jobs", "backend", "det_cache"]

    @pytest.mark.parametrize("field, value, spelling", REMOVED_SETTINGS)
    def test_constructor_rejects_removed_field(self, field, value, spelling):
        with pytest.raises(TypeError, match=field):
            ExecutionOptions(**{field: value})

    @pytest.mark.parametrize("field, value, spelling", REMOVED_SETTINGS)
    def test_from_env_rejects_removed_variable(self, monkeypatch, field,
                                               value, spelling):
        name = REMOVED_KNOBS[field]
        monkeypatch.setenv(name, spelling)
        with pytest.raises(EngineError, match=name):
            ExecutionOptions.from_env()

    @pytest.mark.parametrize("field", sorted(REMOVED_KNOBS))
    def test_removed_field_is_not_an_override(self, field):
        with pytest.raises(EngineError, match=field):
            ExecutionOptions.from_env(**{field: "worker"})

    def test_context_det_cache_is_rejected(self, monkeypatch):
        """``det_cache`` keeps ``"session"`` and ``"off"``; the per-context
        tier is no longer selectable."""
        with pytest.raises(ValueError, match="det_cache"):
            ExecutionOptions(det_cache="context")
        monkeypatch.setenv("MCDBR_DET_CACHE", "context")
        with pytest.raises(EngineError, match="MCDBR_DET_CACHE"):
            ExecutionOptions.from_env()


class TestFromEnvValues:
    @pytest.mark.parametrize("name, value, field, expected", [
        ("MCDBR_N_JOBS", "3", "n_jobs", 3),
        ("MCDBR_N_JOBS", "1", "n_jobs", 1),
        ("MCDBR_BACKEND", "serial", "backend", "serial"),
        ("MCDBR_BACKEND", "thread", "backend", "thread"),
        ("MCDBR_BACKEND", "process", "backend", "process"),
        ("MCDBR_DET_CACHE", "off", "det_cache", "off"),
        ("MCDBR_DET_CACHE", "session", "det_cache", "session"),
    ])
    def test_each_knob_flows_through(self, monkeypatch, name, value,
                                     field, expected):
        monkeypatch.setenv(name, value)
        assert getattr(ExecutionOptions.from_env(), field) == expected

    @pytest.mark.parametrize("spelling, expected", [
        ("1", True), ("true", True), ("YES", True), ("On", True),
        ("0", False), ("false", False), ("No", False), ("OFF", False),
    ])
    def test_boolean_spellings(self, monkeypatch, spelling, expected):
        monkeypatch.setenv("MCDBR_SERVER_STANDING_AUTOREFRESH", spelling)
        assert ServerOptions.from_env().standing_autorefresh is expected


class TestFromEnvRejections:
    @pytest.mark.parametrize("name, value", [
        ("MCDBR_ENGINE", "warp-drive"),
        ("MCDBR_ENGINE", "Vectorized"),
        ("MCDBR_BACKEND", "fork"),
        ("MCDBR_BACKEND", ""),
        ("MCDBR_REPLENISHMENT", "partial"),
        ("MCDBR_DET_CACHE", "disk"),
        ("MCDBR_DET_CACHE_KEYING", "row"),
        ("MCDBR_SHM", "auto"),
        ("MCDBR_SHM", "1"),
    ])
    def test_invalid_choice_names_the_variable(self, monkeypatch, name,
                                               value):
        monkeypatch.setenv(name, value)
        with pytest.raises(EngineError, match=name):
            ExecutionOptions.from_env()

    @pytest.mark.parametrize("value", ["two", "", "1.5"])
    def test_non_integer_n_jobs(self, monkeypatch, value):
        monkeypatch.setenv("MCDBR_N_JOBS", value)
        with pytest.raises(EngineError, match="MCDBR_N_JOBS"):
            ExecutionOptions.from_env()

    def test_n_jobs_below_minimum(self, monkeypatch):
        monkeypatch.setenv("MCDBR_N_JOBS", "0")
        with pytest.raises(EngineError, match="must be >= 1"):
            ExecutionOptions.from_env()

    # The shard-size, window-growth and join-timeout knobs are removed:
    # every value of their variables is rejected, naming the variable.
    def test_shard_size_below_minimum(self, monkeypatch):
        monkeypatch.setenv("MCDBR_SHARD_SIZE", "0")
        with pytest.raises(EngineError, match="MCDBR_SHARD_SIZE"):
            ExecutionOptions.from_env()

    @pytest.mark.parametrize("value", ["fast", "0.5"])
    def test_invalid_window_growth(self, monkeypatch, value):
        monkeypatch.setenv("MCDBR_WINDOW_GROWTH", value)
        with pytest.raises(EngineError, match="MCDBR_WINDOW_GROWTH"):
            ExecutionOptions.from_env()

    @pytest.mark.parametrize("value", ["0", "-2", "soon", ""])
    def test_invalid_join_timeout(self, monkeypatch, value):
        monkeypatch.setenv("MCDBR_JOIN_TIMEOUT", value)
        with pytest.raises(EngineError, match="MCDBR_JOIN_TIMEOUT"):
            ExecutionOptions.from_env()

    @pytest.mark.parametrize("value", ["maybe", "2", ""])
    def test_invalid_boolean(self, monkeypatch, value):
        monkeypatch.setenv("MCDBR_SERVER_STANDING_AUTOREFRESH", value)
        with pytest.raises(EngineError,
                           match="MCDBR_SERVER_STANDING_AUTOREFRESH"):
            ServerOptions.from_env()


class TestEnvHelpers:
    """The parsing primitives the import-time defaults also go through."""

    def test_env_choice_default_and_value(self, monkeypatch):
        assert env_choice("K_CHOICE", "left", ("left", "right")) == "left"
        monkeypatch.setenv("K_CHOICE", "right")
        assert env_choice("K_CHOICE", "left", ("left", "right")) == "right"

    def test_env_choice_lists_supported_values(self, monkeypatch):
        monkeypatch.setenv("K_CHOICE", "nowhere")
        with pytest.raises(EngineError, match="left|right"):
            env_choice("K_CHOICE", "left", ("left", "right"))

    def test_env_int_and_float_and_bool(self, monkeypatch):
        monkeypatch.setenv("K_INT", "5")
        monkeypatch.setenv("K_FLOAT", "1.25")
        monkeypatch.setenv("K_BOOL", "off")
        assert env_int("K_INT", 1) == 5
        assert env_float("K_FLOAT", 1.0, 1.0) == 1.25
        assert env_bool("K_BOOL", True) is False
        assert env_int("K_MISSING", 9) == 9
        assert env_float("K_MISSING", 2.0, 1.0) == 2.0
        assert env_bool("K_MISSING", True) is True

    def test_direct_construction_still_raises_value_error(self):
        # The constructor keeps its ValueError contract for programmatic
        # misuse; EngineError is specifically the env-parsing surface.
        with pytest.raises(ValueError, match="det_cache"):
            ExecutionOptions(det_cache="disk")
        with pytest.raises(ValueError, match="n_jobs"):
            ExecutionOptions(n_jobs=2.5)


SERVER_KNOBS = ("MCDBR_SERVER_CONCURRENCY", "MCDBR_SERVER_QUEUE_DEPTH",
                "MCDBR_SERVER_QUERY_TIMEOUT")


class TestServerOptionsFromEnv:
    """Risk-service admission knobs (``ServerOptions.from_env``)."""

    @pytest.fixture(autouse=True)
    def _clean_server_env(self, monkeypatch):
        for name in SERVER_KNOBS:
            monkeypatch.delenv(name, raising=False)

    def test_defaults(self):
        options = ServerOptions.from_env()
        assert options.concurrency == 4
        assert options.queue_depth == 32
        assert options.query_timeout == 30.0

    def test_each_knob_flows_through(self, monkeypatch):
        monkeypatch.setenv("MCDBR_SERVER_CONCURRENCY", "2")
        monkeypatch.setenv("MCDBR_SERVER_QUEUE_DEPTH", "5")
        monkeypatch.setenv("MCDBR_SERVER_QUERY_TIMEOUT", "1.5")
        options = ServerOptions.from_env()
        assert options.concurrency == 2
        assert options.queue_depth == 5
        assert options.query_timeout == 1.5

    def test_overrides_win_over_environment(self, monkeypatch):
        monkeypatch.setenv("MCDBR_SERVER_CONCURRENCY", "2")
        options = ServerOptions.from_env(concurrency=8, query_timeout=None)
        assert options.concurrency == 8
        assert options.query_timeout is None

    def test_unknown_override_rejected(self):
        with pytest.raises(EngineError, match="max_tenants"):
            ServerOptions.from_env(max_tenants=3)

    @pytest.mark.parametrize("name,value", [
        ("MCDBR_SERVER_CONCURRENCY", "zero"),
        ("MCDBR_SERVER_QUEUE_DEPTH", "1.5"),
        ("MCDBR_SERVER_QUERY_TIMEOUT", "soon"),
    ])
    def test_invalid_value_names_the_variable(self, monkeypatch, name,
                                              value):
        monkeypatch.setenv(name, value)
        with pytest.raises(EngineError, match=name):
            ServerOptions.from_env()

    def test_server_knobs_do_not_trip_execution_from_env(self, monkeypatch):
        # Both parsers run in one server process from one environment:
        # MCDBR_SERVER_* must not be flagged as a misspelled execution
        # knob by ExecutionOptions.from_env's unknown-name sweep.
        for name, value in zip(SERVER_KNOBS, ("2", "5", "1.5")):
            monkeypatch.setenv(name, value)
        assert ExecutionOptions.from_env().n_jobs >= 1

    def test_direct_construction_validation(self):
        with pytest.raises(ValueError, match="concurrency"):
            ServerOptions(concurrency=0)
        with pytest.raises(ValueError, match="queue_depth"):
            ServerOptions(queue_depth=0)
        with pytest.raises(ValueError, match="query_timeout"):
            ServerOptions(query_timeout=0.0)
        assert ServerOptions(query_timeout=None).query_timeout is None
