"""Tests for repro.engine.table."""

import numpy as np
import pytest

from repro.engine.errors import CatalogError, EngineError
from repro.engine.expressions import col, lit
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.vg.builtin import NORMAL


class TestTable:
    def test_basic_construction(self):
        table = Table("t", {"a": [1, 2, 3], "b": ["x", "y", "z"]})
        assert len(table) == 3
        assert table.column_names == ["a", "b"]
        np.testing.assert_array_equal(table.column("a"), [1, 2, 3])
        assert table.column("b").dtype == object

    def test_from_rows(self):
        table = Table.from_rows("t", ["a", "b"], [(1, "x"), (2, "y")])
        assert len(table) == 2
        assert table.row(1) == {"a": 2, "b": "y"}
        assert table.rows()[0] == {"a": 1, "b": "x"}

    def test_from_rows_empty(self):
        table = Table.from_rows("t", ["a"], [])
        assert len(table) == 0

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            Table("t", {"a": [1, 2], "b": [1]})

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError, match="at least one column"):
            Table("t", {})

    def test_2d_column_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            Table("t", {"a": np.zeros((2, 2))})

    def test_unknown_column(self):
        table = Table("t", {"a": [1]})
        with pytest.raises(KeyError, match="no column"):
            table.column("zz")
        assert "a" in table and "zz" not in table


def _losses_spec():
    return RandomTableSpec(
        name="Losses", parameter_table="means", vg=NORMAL,
        vg_params=(col("m"), lit(1.0)),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID",))


class TestCatalog:
    def test_add_and_lookup(self):
        catalog = Catalog()
        table = Table("means", {"CID": [1], "m": [3.0]})
        catalog.add_table(table)
        assert catalog.table("MEANS") is table  # case-insensitive
        assert catalog.has("means")
        assert not catalog.is_random("means")

    def test_random_table_registration(self):
        catalog = Catalog()
        catalog.add_random_table(_losses_spec())
        assert catalog.is_random("losses")
        assert catalog.random_table("Losses").name == "Losses"
        assert catalog.random_table_names() == ["losses"]

    def test_name_conflicts_rejected(self):
        catalog = Catalog()
        catalog.add_table(Table("losses", {"a": [1]}))
        with pytest.raises(ValueError, match="base table"):
            catalog.add_random_table(_losses_spec())

        catalog2 = Catalog()
        catalog2.add_random_table(_losses_spec())
        with pytest.raises(ValueError, match="random table"):
            catalog2.add_table(Table("Losses", {"a": [1]}))

    def test_unknown_lookups(self):
        catalog = Catalog()
        with pytest.raises(KeyError, match="unknown table"):
            catalog.table("nope")
        with pytest.raises(KeyError, match="unknown random table"):
            catalog.random_table("nope")

    def test_drop(self):
        catalog = Catalog()
        catalog.add_table(Table("t", {"a": [1]}))
        catalog.drop("t")
        assert not catalog.has("t")

    def test_uid_is_process_unique(self):
        a, b = Catalog(), Catalog()
        assert a.uid != b.uid
        assert Catalog().uid > b.uid  # monotone


class TestTableAppend:
    def test_append_column_mapping(self):
        table = Table("t", {"a": [1, 2], "b": ["x", "y"]})
        assert table.append_rows({"a": [3], "b": ["z"]}) == (2, 3)
        np.testing.assert_array_equal(table.column("a"), [1, 2, 3])
        assert list(table.column("b")) == ["x", "y", "z"]

    def test_append_row_dicts(self):
        table = Table("t", {"a": [1]})
        assert table.append_rows([{"a": 2}, {"a": 3}]) == (1, 3)
        np.testing.assert_array_equal(table.column("a"), [1, 2, 3])

    def test_append_schema_mismatch_rejected(self):
        # Typed errors: every append rejection is a CatalogError (an
        # EngineError) naming the table and offending column — never a
        # bare KeyError/ValueError — so service layers can map data
        # errors to client responses.
        table = Table("t", {"a": [1], "b": [2]})
        with pytest.raises(CatalogError, match="'t'.*missing 'b'"):
            table.append_rows({"a": [3]})
        with pytest.raises(CatalogError, match="unknown columns.*'t'"):
            table.append_rows([{"a": 3, "b": 4, "c": 5}])
        with pytest.raises(CatalogError, match="'b'.*'t'.*expected"):
            table.append_rows({"a": [3, 4], "b": [5]})
        with pytest.raises(CatalogError, match="missing column 'b'"):
            table.append_rows([{"a": 3}])
        with pytest.raises(CatalogError, match="1-D"):
            table.append_rows({"a": np.zeros((1, 1)), "b": [1]})
        with pytest.raises(CatalogError, match="'a'.*'t'.*object"):
            table.append_rows({"a": ["x"], "b": [1]})
        names = Table("n", {"who": ["Joe"]})
        with pytest.raises(CatalogError, match="'who'.*'n'.*int"):
            names.append_rows([{"who": 5}])
        assert len(table) == 1 and table.column("a").dtype.kind == "i"
        assert names.column("who").tolist() == ["Joe"]

    def test_rejected_append_mutates_nothing(self):
        table = Table("t", {"a": [1], "b": [2]})
        for bad in ({"a": [3]}, [{"a": 3, "c": 5, "b": 1}],
                    {"a": [3, 4], "b": [5]}):
            with pytest.raises(CatalogError):
                table.append_rows(bad)
        assert len(table) == 1
        np.testing.assert_array_equal(table.column("a"), [1])
        np.testing.assert_array_equal(table.column("b"), [2])

    def test_append_errors_are_engine_errors(self):
        table = Table("t", {"a": [1]})
        with pytest.raises(EngineError):
            table.append_rows({"wrong": [1]})


class TestPerNameVersions:
    def test_mutations_bump_only_the_touched_name(self):
        catalog = Catalog()
        catalog.add_table(Table("a", {"x": [1]}))
        catalog.add_table(Table("b", {"x": [1]}))
        version_a = catalog.table_version("a")
        version_b = catalog.table_version("b")
        catalog.add_table(Table("b", {"x": [2]}))
        assert catalog.table_version("a") == version_a
        assert catalog.table_version("b") > version_b

    def test_untouched_name_is_version_zero(self):
        assert Catalog().table_version("nope") == 0

    def test_drop_and_readd_moves_the_version(self):
        catalog = Catalog()
        catalog.add_table(Table("t", {"x": [1]}))
        before = catalog.table_version("t")
        catalog.drop("t")
        assert catalog.table_version("t") > before
        dropped = catalog.table_version("t")
        catalog.add_table(Table("t", {"x": [1]}))
        assert catalog.table_version("t") > dropped

    def test_random_spec_names_are_versioned_too(self):
        catalog = Catalog()
        catalog.add_table(Table("means", {"CID": [1], "m": [1.0]}))
        catalog.add_random_table(_losses_spec())
        assert catalog.table_version("losses") > 0


class TestAppendJournal:
    def _catalog(self):
        catalog = Catalog()
        catalog.add_table(Table("t", {"x": [1.0, 2.0]}))
        return catalog

    def test_append_journals_the_row_range(self):
        catalog = self._catalog()
        recorded = catalog.table_version("t")
        assert catalog.append("t", {"x": [3.0]}) == (2, 3)
        assert catalog.appended_range("t", recorded) == (2, 3)

    def test_chained_appends_combine(self):
        catalog = self._catalog()
        recorded = catalog.table_version("t")
        catalog.append("t", {"x": [3.0]})
        middle = catalog.table_version("t")
        catalog.append("t", {"x": [4.0, 5.0]})
        assert catalog.appended_range("t", recorded) == (2, 5)
        assert catalog.appended_range("t", middle) == (3, 5)

    def test_unmoved_version_has_no_range(self):
        catalog = self._catalog()
        assert catalog.appended_range("t", catalog.table_version("t")) is None

    def test_rewrite_truncates_the_journal(self):
        catalog = self._catalog()
        recorded = catalog.table_version("t")
        catalog.append("t", {"x": [3.0]})
        catalog.add_table(Table("t", {"x": [9.0]}))  # rewrite
        assert catalog.appended_range("t", recorded) is None

    def test_drop_truncates_the_journal(self):
        catalog = self._catalog()
        recorded = catalog.table_version("t")
        catalog.append("t", {"x": [3.0]})
        catalog.drop("t")
        catalog.add_table(Table("t", {"x": [1.0, 2.0, 3.0]}))
        assert catalog.appended_range("t", recorded) is None

    def test_empty_append_is_a_no_op(self):
        catalog = self._catalog()
        version = catalog.version
        assert catalog.append("t", {"x": []}) == (2, 2)
        assert catalog.version == version

    def test_append_to_random_table_rejected(self):
        catalog = Catalog()
        catalog.add_table(Table("means", {"CID": [1], "m": [1.0]}))
        catalog.add_random_table(_losses_spec())
        with pytest.raises(CatalogError, match="parameter table"):
            catalog.append("Losses", {"CID": [2], "m": [2.0]})

    def test_append_to_missing_table_is_a_typed_error(self):
        catalog = self._catalog()
        with pytest.raises(CatalogError, match="unknown table 'nope'"):
            catalog.append("nope", {"x": [1.0]})
        # The failure is transactional: nothing was journaled or bumped.
        assert catalog.table_version("nope") == 0

    def test_failed_append_bumps_no_version_and_journals_nothing(self):
        catalog = self._catalog()
        recorded = catalog.table_version("t")
        version = catalog.version
        with pytest.raises(CatalogError, match="'t'"):
            catalog.append("t", {"wrong": [1.0]})
        with pytest.raises(CatalogError, match="'t'"):
            catalog.append("t", [{"x": 1.0, "y": 2.0}])
        assert catalog.version == version
        assert catalog.table_version("t") == recorded
        assert catalog.appended_range("t", recorded) is None
        assert len(catalog.table("t")) == 2


class TestRandomTableSpec:
    def test_column_names(self):
        spec = _losses_spec()
        assert spec.column_names == ["CID", "val"]
        assert not spec.is_block_vg

    def test_block_vg_detection(self):
        spec = RandomTableSpec(
            name="R", parameter_table="p", vg=NORMAL, vg_params=(),
            random_columns=(RandomColumnSpec("a", 0), RandomColumnSpec("b", 1)))
        assert spec.is_block_vg

    def test_no_random_columns_rejected(self):
        with pytest.raises(ValueError, match="at least one random column"):
            RandomTableSpec(name="R", parameter_table="p", vg=NORMAL,
                            vg_params=(), random_columns=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RandomTableSpec(
                name="R", parameter_table="p", vg=NORMAL, vg_params=(),
                random_columns=(RandomColumnSpec("a"), RandomColumnSpec("a")))

    def test_overlap_with_passthrough_rejected(self):
        with pytest.raises(ValueError, match="both random and passthrough"):
            RandomTableSpec(
                name="R", parameter_table="p", vg=NORMAL, vg_params=(),
                random_columns=(RandomColumnSpec("a"),),
                passthrough_columns=("a",))

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            RandomColumnSpec("a", component=-1)
