"""Append growth: base tables and det-cache entries extended in place.

``Table.append_rows`` and ``SessionDetCache.extend`` grow columns as
prefix views of capacity buffers (``engine.table.grow_column``), and every
cached holder of a table's rows takes the table's grown column instead of
a copy.  The property drives random interleavings of appends (int, float,
bool and str columns, int → float promotion, empty appends), rewrites,
rewrites by another table's live columns, drops plus re-adds, det-cache
hits and standing Monte Carlo and tail refreshes on one to three tables,
and holds after every step:

* every table column to an ``np.concatenate`` model of its appends;
* every det-cache entry, column by column, to a session whose cache
  extends by ``np.concatenate`` (the reference extend);
* every array read out earlier to its bytes then — no write ever lands
  below a frontier some holder can see;
* every caller array handed to ``add_table`` (a view with spare room
  behind it) to its bytes then — no table writes memory it did not
  allocate;
* the standing results to the reference session's, and at the end to a
  fresh session's on the grown tables.

Some steps run their Δ passes with a forged pass memo that offers each
stale column a grown candidate whose last row is wrong: no holder may
take it.  The property runs derandomized in the test suite;
``APPEND_GROWTH_PROFILE=stress`` runs it with a large random sample::

    APPEND_GROWTH_PROFILE=stress PYTHONPATH=src python -m pytest -q \\
        tests/test_append_growth.py
"""

import os
from contextlib import ExitStack
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import operators
from repro.engine.det_cache import SessionDetCache
from repro.sql import Session
from repro.sql import session as session_module

PROFILES = {
    "default": settings(max_examples=100, deadline=None, derandomize=True,
                        suppress_health_check=[HealthCheck.too_slow]),
    "stress": settings(max_examples=5_000, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow]),
}
PROFILE = PROFILES[os.environ.get("APPEND_GROWTH_PROFILE", "default")]

KINDS = ("int", "float", "bool", "str")
CREATE = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN t0
    WITH v AS Normal(VALUES(m, 1.0))
    SELECT CID, v.* FROM v
"""
MC_SQL = ("SELECT SUM(val) AS loss FROM Losses "
          "WITH RESULTDISTRIBUTION MONTECARLO(20)")
TAIL_SQL = ("SELECT SUM(val) AS loss FROM Losses WHERE CID < 4 "
            "WITH RESULTDISTRIBUTION MONTECARLO(20) "
            "DOMAIN loss >= QUANTILE(0.8)")


def _values(kind, rng, count):
    if kind == "int":
        return rng.integers(-5, 50, count)
    if kind == "float":
        return np.round(rng.uniform(-5.0, 5.0, count), 2)
    if kind == "bool":
        return rng.random(count) < 0.5
    return np.array(["".join(rng.choice(list("abc"), rng.integers(0, 4)))
                     for _ in range(count)], dtype=object)


def _same(a, b) -> bool:
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == object:
        return a.tolist() == b.tolist()
    return a.tobytes() == b.tobytes()


class _ConcatDetCache(SessionDetCache):
    """The reference extend: every column ⧺ its Δ by ``np.concatenate``."""

    @staticmethod
    def _grow(entry, delta, context, taken):
        return ({name: np.concatenate([old, delta.det_columns[name]])
                 for name, old in entry.relation.det_columns.items()},
                frozenset())


def _other(value):
    if isinstance(value, (bool, np.bool_)):
        return not value
    if isinstance(value, str):
        return value + "!"
    return value + 1


class _ForgedGrown(dict):
    """A pass memo that offers a grown candidate with a wrong last row."""

    def get(self, key, default=None):
        seen = super().get(key)
        if seen is None:
            return default
        old, column = seen
        if len(column) == len(old):
            return seen
        forged = column.copy()
        forged[-1] = _other(forged[-1])
        return old, forged


class _ForgingContext(operators.ExecutionContext):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.grown = _ForgedGrown()


def _forging(enabled):
    stack = ExitStack()
    if enabled:
        for module in (operators, session_module):
            stack.enter_context(mock.patch.object(
                module, "ExecutionContext", _ForgingContext))
    return stack


class _World:
    """The session under test, the reference session, and the model."""

    def __init__(self, schemas, m_kind, seed):
        self.rng = np.random.default_rng(seed)
        self.schemas = schemas
        self.model: dict[str, dict[str, np.ndarray]] = {}
        self.callers: list[tuple[np.ndarray, np.ndarray]] = []
        self.read_out: list[tuple[np.ndarray, np.ndarray]] = []
        self.sessions = [Session(base_seed=11, tail_budget=120, window=80)
                         for _ in range(2)]
        self.sessions[1].det_cache = _ConcatDetCache()
        self.m_kind = m_kind
        for name in schemas:
            self.rewrite(name, self.rng.integers(1, 6))
        self.handles = []
        for session in self.sessions:
            session.execute(CREATE)
            self.handles.append((session.standing_query(MC_SQL),
                                 session.standing_query(TAIL_SQL)))

    @property
    def session(self):
        return self.sessions[0]

    def fresh_rows(self, name, count, promote=False, start=0):
        rows = {}
        for column, kind in self.schemas[name].items():
            if name == "t0" and column == "CID":
                rows[column] = np.arange(start, start + count)
            elif name == "t0" and column == "m":
                rows[column] = (np.round(self.rng.uniform(0.5, 3.0, count), 1)
                                if promote or self.m_kind == "float"
                                else self.rng.integers(1, 4, count))
            elif kind == "int" and promote:
                rows[column] = np.round(self.rng.uniform(-5, 5, count), 1)
            else:
                rows[column] = _values(kind, self.rng, count)
        return rows

    def add(self, name, columns):
        """``add_table`` in both sessions; the model takes copies."""
        for session in self.sessions:
            session.add_table(name, columns)
        self.model[name] = {column: np.array(values, copy=True)
                            for column, values in columns.items()}

    def rewrite(self, name, count, drop=False):
        """Replace ``name`` by caller arrays that are views with spare
        room behind them, which no table may ever write."""
        columns = {}
        for column, values in self.fresh_rows(name, count).items():
            spare = np.concatenate([values, values[:1].repeat(8)]) \
                if count else values
            self.callers.append((spare, spare.copy()))
            columns[column] = spare[:count]
        if drop:
            for session in self.sessions:
                session.catalog.drop(name)
            self.model.pop(name)
        self.add(name, columns)

    def alias(self, name, source):
        """Rewrite ``name`` by reference to ``source``'s live columns
        (views of buffers ``source`` owns and keeps writing)."""
        self.schemas[name] = dict(self.schemas[source])
        for session in self.sessions:
            table = session.catalog.table(source)
            session.add_table(name, {column: table.column(column)
                                     for column in table.column_names})
        self.model[name] = {column: values.copy() for column, values
                            in self.model[source].items()}

    def append(self, name, count, promote):
        start = len(next(iter(self.model[name].values())))
        rows = self.fresh_rows(name, count, promote, start)
        for session in self.sessions:
            session.append(name, rows)
        if count:
            for column, values in rows.items():
                self.model[name][column] = np.concatenate(
                    [self.model[name][column], values])
            if name == "t0" and promote:
                self.m_kind = "float"

    def query(self, name):
        schema = self.schemas[name]
        columns = list(schema)
        numeric = [column for column in columns
                   if schema[column] in ("int", "float")]
        sql = f"SELECT {', '.join(columns)} FROM {name}"
        mask = np.ones(len(self.model[name][columns[0]]), dtype=bool)
        if numeric:
            sql += f" WHERE {numeric[0]} > 2"
            mask = self.model[name][numeric[0]] > 2
        for session in self.sessions:
            table = session.execute(sql).rows
            for column in columns:
                assert _same(table.column(column),
                             self.model[name][column][mask]), (sql, column)

    def refresh(self):
        for handles in self.handles:
            for handle in handles:
                handle.refresh()
        (mc, tail), (ref_mc, ref_tail) = self.handles
        assert np.array_equal(_mc_samples(mc.result),
                              _mc_samples(ref_mc.result))
        assert np.array_equal(tail.result.tail.samples,
                              ref_tail.result.tail.samples)

    def check(self):
        for name, columns in self.model.items():
            table = self.session.catalog.table(name)
            assert len(table) == len(next(iter(columns.values())))
            for column, values in columns.items():
                assert _same(table.column(column), values), (name, column)
                self.read_out.append((table.column(column),
                                      table.column(column).copy()))
        entries = self.session.det_cache._entries
        reference = self.sessions[1].det_cache._entries
        assert set(entries) == set(reference)
        for fingerprint, entry in entries.items():
            relation = entry.relation
            want = reference[fingerprint].relation
            assert relation.length == want.length
            assert set(relation.det_columns) == set(want.det_columns)
            for column, values in relation.det_columns.items():
                assert _same(values, want.det_columns[column]), (
                    fingerprint, column)
                self.read_out.append((values, values.copy()))
        for array, snapshot in self.read_out + self.callers:
            assert _same(array, snapshot)

    def check_fresh(self):
        with Session(base_seed=11, tail_budget=120, window=80) as fresh:
            for name, columns in self.model.items():
                fresh.add_table(name, {column: values.copy()
                                       for column, values in columns.items()})
            fresh.execute(CREATE)
            mc = fresh.execute(MC_SQL)
            tail = fresh.execute(TAIL_SQL)
        standing_mc, standing_tail = self.handles[0]
        assert np.array_equal(_mc_samples(standing_mc.result),
                              _mc_samples(mc))
        assert np.array_equal(standing_tail.result.tail.samples,
                              tail.tail.samples)
        assert (standing_tail.result.tail.quantile_estimate
                == tail.tail.quantile_estimate)

    def close(self):
        for session in self.sessions:
            session.close()


def _mc_samples(output):
    return np.asarray(output.distributions.distribution("loss").samples)


OPS = ("append",) * 4 + ("query", "refresh") * 2 + (
    "rewrite", "alias", "drop_readd")

schemas = st.tuples(
    st.lists(st.sampled_from(KINDS), max_size=2),
    st.lists(st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
             max_size=2))
steps = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 2),
                           st.integers(0, 4), st.booleans(),
                           st.booleans()),
                 min_size=1, max_size=12)


class TestAppendGrowth:
    @given(schema=schemas, m_kind=st.sampled_from(["int", "float"]),
           seed=st.integers(0, 2 ** 16), steps=steps)
    @PROFILE
    def test_interleavings_equal_the_concatenate_model(
            self, schema, m_kind, seed, steps):
        t0_extras, others = schema
        tables = {"t0": {"CID": "int", "m": m_kind,
                         **{f"x{i}": kind for i, kind in enumerate(t0_extras)}}}
        for index, kinds in enumerate(others, start=1):
            tables[f"t{index}"] = {f"c{index}{i}": kind
                                   for i, kind in enumerate(kinds)}
        world = _World(tables, m_kind, seed)
        try:
            world.check()
            names = list(tables)
            for op, index, count, flag, forge in steps:
                name = names[index % len(names)]
                with _forging(forge):
                    if op == "append":
                        world.append(name, count, promote=flag)
                    elif op == "rewrite":
                        world.rewrite(name, max(count, 1))
                    elif op == "drop_readd":
                        world.rewrite(name, max(count, 1), drop=True)
                    elif op == "alias" and name != "t0" and len(names) > 1:
                        world.alias(name, names[(index + 1) % len(names)])
                    elif op == "query":
                        world.query(name)
                    elif op == "refresh":
                        world.refresh()
                world.check()
            with _forging(seed % 2):
                world.refresh()
            world.check()
            world.check_fresh()
        finally:
            world.close()
