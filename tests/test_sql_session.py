"""End-to-end tests of the SQL surface (repro.sql.session + planner)."""

import re

import numpy as np
import pytest
from looper_oracles import ScalarKernelLooper, planner_looper
from scipy import stats

from repro.engine.errors import CatalogError, PlanError
from repro.sql import Session

CREATE_LOSSES = """
    CREATE TABLE Losses (CID, val) AS
    FOR EACH CID IN means
    WITH myVal AS Normal(VALUES(m, 1.0))
    SELECT CID, myVal.* FROM myVal
"""


def _catalog_state(session):
    """Everything a rejected statement must leave as it found it."""
    catalog = session.catalog
    ftable = catalog.table("FTABLE")
    return (catalog.table_names(), catalog.random_table_names(),
            {name: ftable.column(name).tolist()
             for name in ftable.column_names})


def _with_ftable(session):
    session.execute("""
        SELECT SUM(val) AS t FROM Losses
        WITH RESULTDISTRIBUTION MONTECARLO(20) FREQUENCYTABLE t
    """)
    return _catalog_state(session)


@pytest.fixture
def session():
    session = Session(base_seed=11, tail_budget=500, window=400)
    means = np.linspace(2.0, 5.0, 20)
    session.add_table("means", {"CID": np.arange(20), "m": means})
    session.execute(CREATE_LOSSES)
    return session


class TestCreate:
    def test_create_registers_random_table(self, session):
        assert session.catalog.is_random("Losses")
        spec = session.catalog.random_table("Losses")
        assert spec.passthrough_columns == ("CID",)
        assert [c.name for c in spec.random_columns] == ["val"]

    def test_create_with_unknown_vg_rejected(self, session):
        before = _with_ftable(session)
        with pytest.raises(PlanError, match="unknown VG function 'NoSuchVG'"):
            session.execute(CREATE_LOSSES
                            .replace("Losses", "L2")
                            .replace("Normal", "NoSuchVG"))
        assert _catalog_state(session) == before

    def test_create_over_unknown_table_rejected(self, session):
        before = _with_ftable(session)
        with pytest.raises(CatalogError, match="unknown table 'nope'"):
            session.execute(CREATE_LOSSES
                            .replace("Losses", "L2")
                            .replace("IN means", "IN nope"))
        assert _catalog_state(session) == before

    def test_create_header_mismatch_rejected(self, session):
        """A header naming more VG outputs than the VG's blocks hold is a
        PlanError at CREATE time — not an IndexError at the first query —
        and leaves the catalog as it was."""
        before = _with_ftable(session)
        bad = """
            CREATE TABLE L3 (CID, val, extra) AS
            FOR EACH CID IN means
            WITH v AS Normal(VALUES(m, 1.0))
            SELECT CID, v.* FROM v
        """
        with pytest.raises(PlanError, match="names 2 outputs of Normal"):
            session.execute(bad)
        assert _catalog_state(session) == before
        assert not session.catalog.has("L3")

    def test_create_checks_arity_of_written_parameters(self, session):
        """A VG whose arity follows its parameter count: two outputs fit
        a bivariate normal's six parameters, three do not, and a count
        no block fits is rejected too — all before any row is read."""
        create = """
            CREATE TABLE {name} (CID, {outputs}) AS
            FOR EACH CID IN means
            WITH v AS MultivariateNormal(VALUES({params}))
            SELECT CID, v.* FROM v
        """
        bivariate = "m, m, 1.0, 0.5, 0.5, 2.0"
        session.execute(create.format(name="Pair", outputs="a, b",
                                      params=bivariate))
        assert session.execute("""
            SELECT SUM(b) AS t FROM Pair
            WITH RESULTDISTRIBUTION MONTECARLO(10)
        """).kind == "montecarlo"
        before = _with_ftable(session)
        with pytest.raises(PlanError, match="blocks of 2 value"):
            session.execute(create.format(name="Triple", outputs="a, b, c",
                                          params=bivariate))
        with pytest.raises(PlanError, match="MultivariateNormal"):
            session.execute(create.format(name="Odd", outputs="a",
                                          params="m, 1.0, 2.0"))
        assert _catalog_state(session) == before

    @pytest.mark.parametrize("name, select", [
        ("L5", "CID, v.val"),
        ("L6", "CID, m, v.*"),
    ])
    def test_create_header_shorter_than_select_rejected(self, session, name,
                                                        select):
        """A header naming fewer columns than the SELECT produces is a
        PlanError naming both lists — not a bare IndexError or a
        ValueError from the catalog — and leaves the catalog as it was."""
        before = _with_ftable(session)
        with pytest.raises(PlanError, match=rf"header \(CID\) is shorter "
                                            rf"than its SELECT list "
                                            rf"\({re.escape(select)}\)"):
            session.execute(f"""
                CREATE TABLE {name} (CID) AS
                FOR EACH c IN means
                WITH v AS Normal(VALUES(m, 1.0))
                SELECT {select} FROM v
            """)
        assert _catalog_state(session) == before
        assert not session.catalog.has(name)

    def test_create_bad_passthrough_rejected(self, session):
        with pytest.raises(PlanError, match="neither a parameter column"):
            session.execute("""
                CREATE TABLE L4 (zz, val) AS
                FOR EACH r IN means
                WITH v AS Normal(VALUES(m, 1.0))
                SELECT zz, v.* FROM v
            """)

    def test_create_renaming_a_passthrough_column_rejected(self, session):
        """A header may name VG outputs as it likes, but a passthrough
        column keeps its parameter-table name: renaming it is a PlanError
        at CREATE time, not a Project failure at every later query."""
        before = _with_ftable(session)
        with pytest.raises(PlanError, match="'CID2' where the SELECT "
                                            "passes 'CID' through"):
            session.execute("""
                CREATE TABLE L2 (CID2, val2) AS
                FOR EACH c IN means
                WITH v AS Normal(VALUES(m, 1.0))
                SELECT CID, v.* FROM v
            """)
        assert _catalog_state(session) == before
        assert not session.catalog.has("L2")
        session.execute("""
            CREATE TABLE L2 (CID, val2) AS
            FOR EACH c IN means
            WITH v AS Normal(VALUES(m, 1.0))
            SELECT CID, v.* FROM v
        """)
        out = session.execute("SELECT SUM(val2) AS t FROM L2 "
                              "WITH RESULTDISTRIBUTION MONTECARLO(4)")
        assert out.distributions.distribution("t").samples.shape == (4,)


class TestDeterministicSelect:
    def test_projection(self, session):
        out = session.execute("SELECT CID, m FROM means WHERE CID < 3")
        assert out.kind == "rows"
        np.testing.assert_array_equal(out.rows.column("CID"), [0, 1, 2])

    def test_aggregation(self, session):
        out = session.execute("SELECT SUM(m) AS total, COUNT(*) AS n FROM means")
        assert out.rows.column("n")[0] == 20
        assert out.rows.column("total")[0] == pytest.approx(70.0)

    def test_group_by_aggregation(self, session):
        session.add_table("pets", {
            "kind": ["cat", "dog", "cat"], "weight": [4.0, 20.0, 6.0]})
        out = session.execute(
            "SELECT kind, SUM(weight) AS w FROM pets GROUP BY kind")
        by_kind = dict(zip(out.rows.column("kind"), out.rows.column("w")))
        assert by_kind == {"cat": 10.0, "dog": 20.0}

    def test_select_from_unknown_table_rejected(self, session):
        """``FROM FTABLE`` before any query registered one, say."""
        with pytest.raises(CatalogError, match="unknown table 'FTABLE'"):
            session.execute("SELECT MIN(t) FROM FTABLE")

    def test_random_table_requires_montecarlo(self, session):
        with pytest.raises(PlanError, match="RESULTDISTRIBUTION"):
            session.execute("SELECT SUM(val) AS t FROM Losses")


class TestMonteCarloSelect:
    def test_distribution_estimates(self, session):
        out = session.execute("""
            SELECT SUM(val) AS totalLoss FROM Losses
            WITH RESULTDISTRIBUTION MONTECARLO(2000)
        """)
        assert out.kind == "montecarlo"
        dist = out.distributions.distribution("totalLoss")
        assert dist.expectation() == pytest.approx(70.0, abs=0.5)
        assert dist.variance() == pytest.approx(20.0, rel=0.2)

    def test_where_pushdown(self, session):
        out = session.execute("""
            SELECT SUM(val) AS t FROM Losses WHERE CID < 10
            WITH RESULTDISTRIBUTION MONTECARLO(500)
        """)
        means = np.linspace(2.0, 5.0, 20)[:10]
        assert out.distributions.distribution("t").expectation() == \
            pytest.approx(means.sum(), abs=0.7)

    def test_frequencytable_registered(self, session):
        session.execute("""
            SELECT COUNT(*) AS n FROM Losses WHERE val > 3.5
            WITH RESULTDISTRIBUTION MONTECARLO(400)
            FREQUENCYTABLE n
        """)
        out = session.execute("SELECT SUM(n * FRAC) AS mean_n FROM FTABLE")
        expected = stats.norm.sf(3.5, loc=np.linspace(2.0, 5.0, 20), scale=1).sum()
        assert out.rows.column("mean_n")[0] == pytest.approx(expected, abs=1.0)

    @pytest.mark.parametrize("clauses, name", [
        ("WITH RESULTDISTRIBUTION MONTECARLO(20)", "nope"),
        ("WITH RESULTDISTRIBUTION MONTECARLO(20) "
         "DOMAIN t >= QUANTILE(0.9)", "nope"),
        ("GROUP BY CID WITH RESULTDISTRIBUTION MONTECARLO(20)", "t"),
    ])
    def test_frequencytable_of_unknown_column_rejected(self, session,
                                                       clauses, name):
        """Rejected before anything runs or registers: no FTABLE column
        ``nope``, and no per-group table under one name."""
        before = _with_ftable(session)
        with pytest.raises(PlanError, match=f"FREQUENCYTABLE {name!r}"):
            session.execute(f"SELECT SUM(val) AS t FROM Losses {clauses} "
                            f"FREQUENCYTABLE {name}")
        assert _catalog_state(session) == before

    def test_group_by_montecarlo(self, session):
        session.add_table("segments", {"CID2": np.arange(20),
                                       "seg": ["a"] * 10 + ["b"] * 10})
        out = session.execute("""
            SELECT SUM(val) AS t FROM Losses, segments
            WHERE CID = CID2
            GROUP BY seg
            WITH RESULTDISTRIBUTION MONTECARLO(300)
        """)
        result = out.distributions
        assert len(result.group_keys) == 2
        means = np.linspace(2.0, 5.0, 20)
        assert result.distribution("t", ("a",)).expectation() == pytest.approx(
            means[:10].sum(), abs=1.0)


class TestTailSelect:
    def test_sec2_query_end_to_end(self, session):
        out = session.execute("""
            SELECT SUM(val) AS totalLoss FROM Losses WHERE CID < 10
            WITH RESULTDISTRIBUTION MONTECARLO(100)
            DOMAIN totalLoss >= QUANTILE(0.99)
            FREQUENCYTABLE totalLoss
        """)
        assert out.kind == "tail"
        means = np.linspace(2.0, 5.0, 20)[:10]
        true_q = stats.norm.ppf(0.99, loc=means.sum(), scale=np.sqrt(10))
        assert out.tail.quantile_estimate == pytest.approx(true_q, rel=0.03)
        assert len(out.tail.samples) == 100

        minimum = session.execute("SELECT MIN(totalLoss) FROM FTABLE")
        assert minimum.rows.column("min0")[0] == pytest.approx(
            out.tail.samples.min())

        shortfall = session.execute(
            "SELECT SUM(totalLoss * FRAC) AS es FROM FTABLE")
        z = stats.norm.ppf(0.99)
        analytic = means.sum() + np.sqrt(10) * stats.norm.pdf(z) / 0.01
        assert shortfall.rows.column("es")[0] == pytest.approx(analytic, rel=0.02)

    def test_domain_must_match_aggregate(self, session):
        with pytest.raises(PlanError, match="does not name"):
            session.execute("""
                SELECT SUM(val) AS x FROM Losses
                WITH RESULTDISTRIBUTION MONTECARLO(10)
                DOMAIN y >= QUANTILE(0.9)
            """)

    def test_threshold_domain_rejected(self, session):
        with pytest.raises(PlanError, match="QUANTILE"):
            session.execute("""
                SELECT SUM(val) AS t FROM Losses
                WITH RESULTDISTRIBUTION MONTECARLO(10)
                DOMAIN t >= 100
            """)

    def test_group_by_tail_rejected(self, session):
        with pytest.raises(PlanError, match="per group"):
            session.execute("""
                SELECT SUM(val) AS t FROM Losses
                GROUP BY CID
                WITH RESULTDISTRIBUTION MONTECARLO(10)
                DOMAIN t >= QUANTILE(0.9)
            """)


class TestJoinPlanning:
    def _hr_session(self):
        session = Session(base_seed=5, tail_budget=400, window=500)
        session.add_table("emp_means", {
            "eid": ["Joe", "Sue", "Jim", "Ann", "Sid"],
            "msal": [26.0, 24.0, 77.0, 45.0, 50.0]})
        session.add_table("sup", {
            "boss": ["Sue", "Jim", "Sue"], "peon": ["Joe", "Ann", "Sid"]})
        session.execute("""
            CREATE TABLE emp (eid, sal) AS
            FOR EACH r IN emp_means
            WITH v AS Normal(VALUES(msal, 4.0))
            SELECT eid, v.* FROM v
        """)
        return session

    SALARY_QUERY = """
        SELECT SUM(emp2.sal - emp1.sal) AS inversion
        FROM emp AS emp1, emp AS emp2, sup
        WHERE sup.boss = emp1.eid AND emp1.sal < 90
          AND sup.peon = emp2.eid AND emp2.sal > 5
          AND emp2.sal > emp1.sal
        WITH RESULTDISTRIBUTION MONTECARLO({n})
        {tail}
    """

    def test_salary_inversion_tail_vs_mc(self):
        session = self._hr_session()
        tail = session.execute(self.SALARY_QUERY.format(
            n=60, tail="DOMAIN inversion >= QUANTILE(0.9)"))
        mc = session.execute(self.SALARY_QUERY.format(n=6000, tail=""))
        mc_q = mc.distributions.distribution("inversion").quantile(0.9)
        assert tail.tail.quantile_estimate == pytest.approx(mc_q, rel=0.08)

    def test_self_join_consistency_through_sql(self):
        """X supervising X nets zero inversion in every world."""
        session = Session(base_seed=1)
        session.add_table("emp_means", {"eid": ["X"], "msal": [50.0]})
        session.add_table("sup", {"boss": ["X"], "peon": ["X"]})
        session.execute("""
            CREATE TABLE emp (eid, sal) AS
            FOR EACH r IN emp_means
            WITH v AS Normal(VALUES(msal, 4.0))
            SELECT eid, v.* FROM v
        """)
        out = session.execute("""
            SELECT SUM(emp2.sal - emp1.sal) AS inv
            FROM emp AS emp1, emp AS emp2, sup
            WHERE sup.boss = emp1.eid AND sup.peon = emp2.eid
            WITH RESULTDISTRIBUTION MONTECARLO(50)
        """)
        np.testing.assert_allclose(
            out.distributions.distribution("inv").samples, 0.0, atol=1e-12)

    def test_cross_product_rejected(self, session):
        session.add_table("other", {"x": [1.0]})
        with pytest.raises(PlanError, match="cross products"):
            session.execute("SELECT SUM(m) AS s FROM means, other")

    def test_ambiguous_column_rejected(self):
        session = Session()
        session.add_table("a", {"x": [1.0]})
        session.add_table("b", {"x": [2.0], "y": [3.0]})
        with pytest.raises(PlanError, match="ambiguous"):
            session.execute("SELECT SUM(x) AS s FROM a, b WHERE a.x = b.y")

    def test_unknown_column_rejected(self, session):
        with pytest.raises(PlanError, match="unknown column"):
            session.execute("SELECT SUM(zzz) AS s FROM means")


class TestDocstringFlow:
    """The exact Session docstring sequence (Sec. 2) must run verbatim."""

    def test_sec2_docstring_sequence(self):
        session = Session(base_seed=42, tail_budget=300, window=200)
        session.add_table("means", {"CID": np.arange(10_000, 10_020),
                                    "m": np.linspace(1.0, 2.0, 20)})
        session.execute("""
            CREATE TABLE Losses (CID, val) AS
            FOR EACH CID IN means
            WITH myVal AS Normal(VALUES(m, 1.0))
            SELECT CID, myVal.* FROM myVal""")
        output = session.execute("""
            SELECT SUM(val) AS totalLoss FROM Losses
            WHERE CID < 10010
            WITH RESULTDISTRIBUTION MONTECARLO(100)
            DOMAIN totalLoss >= QUANTILE(0.99)
            FREQUENCYTABLE totalLoss""")
        assert output.kind == "tail"
        assert len(output.tail.samples) == 100
        minimum = session.execute("SELECT MIN(totalLoss) FROM FTABLE")
        assert minimum.rows.column("min0")[0] == pytest.approx(
            output.tail.samples.min())


class TestSessionOptions:
    """ExecutionOptions thread from the Session into both executors."""

    def _session(self, **kwargs):
        from repro.engine.options import ExecutionOptions

        session = Session(base_seed=7, tail_budget=300, window=200,
                          options=ExecutionOptions(**kwargs) if kwargs else None)
        session.add_table("means", {"CID": np.arange(12),
                                    "m": np.linspace(1.0, 3.0, 12)})
        session.execute(CREATE_LOSSES)
        return session

    def test_default_options_vectorized_serial(self):
        session = self._session()
        assert session.options.n_jobs == 1
        assert not session.options.sharded

    def test_engines_agree_through_sql(self):
        query = """
            SELECT SUM(val) AS loss FROM Losses
            WITH RESULTDISTRIBUTION MONTECARLO(30)
            DOMAIN loss >= QUANTILE(0.9)
        """
        with planner_looper(ScalarKernelLooper):
            reference = self._session().execute(query)
        vectorized = self._session().execute(query)
        assert (reference.tail.quantile_estimate
                == vectorized.tail.quantile_estimate)
        np.testing.assert_array_equal(reference.tail.samples,
                                      vectorized.tail.samples)

    def test_sharded_montecarlo_through_sql(self):
        query = """
            SELECT SUM(val) AS loss FROM Losses
            WITH RESULTDISTRIBUTION MONTECARLO(90)
        """
        serial = self._session().execute(query)
        sharded = self._session(n_jobs=3).execute(query)
        np.testing.assert_array_equal(
            serial.distributions.distribution("loss").samples,
            sharded.distributions.distribution("loss").samples)

    def test_deterministic_select_ignores_sharding(self):
        session = self._session(n_jobs=4)
        out = session.execute("SELECT SUM(m) AS total FROM means")
        assert out.rows.column("total")[0] == pytest.approx(
            np.linspace(1.0, 3.0, 12).sum())
