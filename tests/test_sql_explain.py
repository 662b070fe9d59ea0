"""Tests for Session.explain (plan introspection)."""

import numpy as np
import pytest

from repro.engine.errors import PlanError
from repro.sql import Session


@pytest.fixture
def session():
    session = Session(base_seed=1)
    session.add_table("means", {"CID": np.arange(5),
                                "m": np.linspace(1, 2, 5)})
    session.execute("""
        CREATE TABLE Losses (CID, val) AS
        FOR EACH CID IN means
        WITH v AS Normal(VALUES(m, 1.0))
        SELECT CID, v.* FROM v
    """)
    return session


class TestExplain:
    def test_tail_query_shows_looper_and_pipeline(self, session):
        text = session.explain("""
            SELECT SUM(val) AS t FROM Losses WHERE CID < 3
            WITH RESULTDISTRIBUTION MONTECARLO(10)
            DOMAIN t >= QUANTILE(0.99)
        """)
        assert "GibbsLooper(sum" in text
        assert "Instantiate(Normal" in text
        assert "Seed(Losses)" in text
        assert "Scan(means" in text
        assert "Select(" in text

    def test_pulled_up_predicate_shown(self, session):
        session.add_table("emp_means", {"eid": ["a", "b"], "msal": [1.0, 2.0]})
        session.add_table("sup", {"boss": ["a"], "peon": ["b"]})
        session.execute("""
            CREATE TABLE emp (eid, sal) AS
            FOR EACH r IN emp_means
            WITH v AS Normal(VALUES(msal, 1.0))
            SELECT eid, v.* FROM v
        """)
        text = session.explain("""
            SELECT SUM(emp2.sal - emp1.sal) AS inv
            FROM emp AS emp1, emp AS emp2, sup
            WHERE sup.boss = emp1.eid AND sup.peon = emp2.eid
              AND emp2.sal > emp1.sal
            WITH RESULTDISTRIBUTION MONTECARLO(10)
            DOMAIN inv >= QUANTILE(0.9)
        """)
        assert "pulled-up" in text
        assert "Join(" in text

    def test_mc_query_shows_aggregate(self, session):
        text = session.explain("""
            SELECT SUM(val) AS t FROM Losses
            WITH RESULTDISTRIBUTION MONTECARLO(10)
        """)
        assert text.startswith("Aggregate(sum")

    def test_plain_projection(self, session):
        text = session.explain("SELECT CID FROM means")
        assert "Scan(means" in text

    def test_create_rejected(self, session):
        with pytest.raises(PlanError, match="SELECT"):
            session.explain("""
                CREATE TABLE X (a, b) AS
                FOR EACH r IN means
                WITH v AS Normal(VALUES(m, 1.0))
                SELECT CID, v.* FROM v
            """)


class TestDetMarkers:
    def test_det_markers_flag_cacheable_subtrees(self, session):
        text = session.explain("""
            SELECT SUM(val) AS t FROM Losses WHERE CID < 3
            WITH RESULTDISTRIBUTION MONTECARLO(10)
            DOMAIN t >= QUANTILE(0.99)
        """, det_markers=True)
        # The filtered Seed subtree (Scan -> Seed -> Select) is
        # deterministic and served from the det cache on every
        # replenishment re-run; the random operators above it are not.
        assert ("Select((Col('Losses.CID') < Lit(3)))  [det-cached] "
                "[deps: losses, means]") in text
        assert "Instantiate" in text
        assert "Instantiate(Normal -> Losses.val)  [det-cached]" not in text
        # Children of a marked root are folded into it.
        assert "Seed(Losses)" not in text
        assert "Scan(means" not in text

    def test_default_explain_unchanged(self, session):
        text = session.explain("""
            SELECT SUM(val) AS t FROM Losses WHERE CID < 3
            WITH RESULTDISTRIBUTION MONTECARLO(10)
            DOMAIN t >= QUANTILE(0.99)
        """)
        assert "[det-cached]" not in text
        assert "Scan(means" in text
