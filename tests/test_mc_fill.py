"""The Monte Carlo fill (repro.vg.streams.gather_aligned_windows) and the
seek it stands on.

* **Stream identity** — for every VG that declares a standard form, the
  aligned fill equals the stream oracle of ``tests/stream_oracle.py`` bit
  for bit, at window starts on and off chunk edges, across chunks and at
  the counter's carry word.  The property runs derandomized in the test
  suite; ``STREAM_IDENTITY_PROFILE=stress`` runs it with a large random
  sample::

      STREAM_IDENTITY_PROFILE=stress PYTHONPATH=src python -m pytest -q \\
          tests/test_mc_fill.py::TestStreamIdentity

* **The seek's import check** — a planted mismatch fails it typed, and
  nothing is written through the struct before its read-only half passes.
* **Registration** — a Monte Carlo run builds no ``SeedInfo``, validates
  each distinct parameter tuple once before any stream is drawn, and
  fills a zero-row ``Instantiate`` with an empty block.
* **The matrix check** — ``Normal`` validates its whole parameter matrix
  at once, naming the first bad row with the per-tuple message; a VG
  without one keeps the per-tuple loop.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from stream_oracle import DETERMINISM_PARAMS, stream_values

from repro.engine import operators
from repro.engine.errors import EngineError
from repro.engine.expressions import col, lit
from repro.engine.operators import (
    ExecutionContext, Instantiate, Scan, Seed, random_table_pipeline)
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.table import Catalog, Table
from repro.sql import Session
from repro.vg import streams
from repro.vg.base import default_registry
from repro.vg.builtin import NORMAL, Normal
from repro.vg.streams import DEFAULT_CHUNK, gather_aligned_windows

PROFILES = {
    "default": settings(max_examples=150, deadline=None, derandomize=True),
    "stress": settings(max_examples=5_000, deadline=None),
}
PROFILE = PROFILES[os.environ.get("STREAM_IDENTITY_PROFILE", "default")]

_FLOATS = {"allow_nan": False, "allow_infinity": False}
# Valid parameter rows of every VG that declares a standard form; a VG
# that declares one without a strategy here fails
# test_every_standard_form_has_a_strategy.
STANDARD_PARAMS = {
    "normal": st.tuples(
        st.one_of(st.floats(-1e6, 1e6, **_FLOATS), st.sampled_from(
            [0.0, -0.0])),
        st.one_of(st.floats(0.0, 1e6, **_FLOATS), st.sampled_from(
            [0.0, 1.0, 5e-324]))),
}
STANDARD_FORMS = sorted(
    name for name in default_registry.names()
    if default_registry.lookup(name).from_standard is not None)


def _oracle(keys, vg, rows, start, width):
    """``(rows, width)``: each row's stream read by the oracle."""
    positions = np.arange(start, start + width)
    return np.array([stream_values(key, vg, tuple(params), positions)
                     for key, params in zip(keys, rows)]).reshape(
        len(keys), width)


class TestStreamIdentity:
    def test_every_standard_form_has_a_strategy(self):
        assert "normal" in STANDARD_FORMS
        assert set(STANDARD_FORMS) <= set(STANDARD_PARAMS)

    @PROFILE
    @given(data=st.data())
    def test_aligned_fill_equals_the_oracle(self, data):
        name = data.draw(st.sampled_from(STANDARD_FORMS), label="vg")
        vg = default_registry.lookup(name)
        keys = data.draw(st.lists(
            st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]),
                      st.integers(0, 2**64 - 1)),
            min_size=0, max_size=3), label="keys")
        rows = [data.draw(STANDARD_PARAMS[name], label="params")
                for _ in keys]
        start = data.draw(st.sampled_from(
            [0, 100, DEFAULT_CHUNK - 1, DEFAULT_CHUNK,
             2**24 * DEFAULT_CHUNK + 3]), label="start")
        width = data.draw(st.sampled_from([1, 200, DEFAULT_CHUNK, 600]),
                          label="width")
        params = np.array(rows, dtype=np.float64).reshape(
            len(keys), len(DETERMINISM_PARAMS[name]))
        blocks = gather_aligned_windows(vg, keys, params, start, width,
                                        [0, 0])
        want = _oracle(keys, vg, rows, start, width)
        assert len(blocks) == 2 and blocks[0] is not blocks[1]
        for block in blocks:
            assert block.shape == (len(keys), width)
            assert block.view(np.uint64).tobytes() == \
                want.view(np.uint64).tobytes()

    def test_non_standard_vg_takes_the_chunk_path(self):
        """A VG without a standard form (here arity 2) fills through
        draw_chunk, one block per named component."""
        mvn = default_registry.lookup("multivariatenormal")
        row = (1.0, -2.0, 4.0, 1.2, 1.2, 9.0)
        keys = [5, 2**64 - 1]
        blocks = gather_aligned_windows(
            mvn, keys, np.array([row, row]), 250, 20, [1, 0])
        positions = np.arange(250, 270)
        for slot, component in enumerate([1, 0]):
            for r, key in enumerate(keys):
                np.testing.assert_array_equal(
                    blocks[slot][r],
                    stream_values(key, mvn, row, positions, component))

    @pytest.mark.parametrize("start, stop", [
        (0, 200), (100, 200), (200, 400), (DEFAULT_CHUNK, 2 * DEFAULT_CHUNK),
        (DEFAULT_CHUNK - 1, DEFAULT_CHUNK + 1), (1024, 2048)])
    def test_aligned_draws_counts_what_the_fill_draws(self, monkeypatch,
                                                       start, stop):
        """``aligned_draws`` is the number of values the fill draws per
        row: from the chunk's start for a standard form, whole chunks
        for any other VG."""
        drawn = []

        class Counted(Normal):
            def standard_fill(self, rng, out):
                drawn.append(out.size)
                super().standard_fill(rng, out)

        gather_aligned_windows(Counted(), [3], np.array([[0.0, 1.0]]),
                               start, stop - start, [0])
        assert sum(drawn) == streams.aligned_draws(NORMAL, start, stop)

        uniform = default_registry.lookup("uniform")
        drawn.clear()
        draw_chunk = streams.draw_chunk

        def counted(*args):
            drawn.append(DEFAULT_CHUNK)
            return draw_chunk(*args)

        monkeypatch.setattr(streams, "draw_chunk", counted)
        gather_aligned_windows(uniform, [3], np.array([[0.0, 1.0]]),
                               start, stop - start, [0])
        assert sum(drawn) == streams.aligned_draws(uniform, start, stop)

    def test_from_standard_shape_is_checked(self):
        class Clipped(Normal):
            name = "ClippedNormal"

            def from_standard(self, params, z):
                return z[:, :-1]

        with pytest.raises(EngineError, match="ClippedNormal returned "
                                              "shape"):
            gather_aligned_windows(Clipped(), [1], np.array([[0.0, 1.0]]),
                                   0, 8, [0])


class _SeekSpy:
    """Counts struct seeks (patched over ``_Seekable.seek``)."""

    def __init__(self, monkeypatch):
        self.calls = 0
        real = streams._Seekable.seek

        def counting(seek, seed, chunk_index):
            self.calls += 1
            return real(seek, seed, chunk_index)

        monkeypatch.setattr(streams._Seekable, "seek", counting)


class TestSeekCheck:
    def test_passes_on_this_numpy(self):
        streams._check_seek()

    @pytest.mark.parametrize("field, value", [
        ("buffer", [19, 2**62 + 23, 29, 0]),
        ("key", [13, 0]),
        ("buffer_pos", 4),
    ])
    def test_planted_read_mismatch_fails_before_any_write(
            self, monkeypatch, field, value):
        spy = _SeekSpy(monkeypatch)
        expected = {**streams._PROBE_STATE,
                    "state": dict(streams._PROBE_STATE["state"])}
        if field == "key":
            expected["state"]["key"] = value
        else:
            expected[field] = value
        with pytest.raises(ImportError, match=f"numpy {np.__version__}"):
            streams._check_seek(expected)
        assert spy.calls == 0

    def test_planted_write_mismatch_fails(self, monkeypatch):
        """A seek that leaves the counter's carry word as it found it
        draws from the wrong counter: the written half fails."""
        spy = _SeekSpy(monkeypatch)

        def no_carry(seek, seed, chunk_index):
            spy.calls += 1
            seek.counter[0] = (chunk_index << 40) & (2**64 - 1)
            seek.counter[2] = seek.counter[3] = 0
            seek.key[:] = (seed, 0)
            seek.state.buffer_pos, seek.state.has_uint32 = 4, 0

        monkeypatch.setattr(streams._Seekable, "seek", no_carry)
        with pytest.raises(ImportError, match=f"numpy {np.__version__}"):
            streams._check_seek()
        assert spy.calls > 0


def _catalog(ms):
    catalog = Catalog()
    catalog.add_table(Table("means", {"CID": np.arange(len(ms)), "m": ms}))
    return catalog


def _spec(variance=1.0):
    return RandomTableSpec(
        name="Losses", parameter_table="means", vg=NORMAL,
        vg_params=(col("m"), lit(variance)),
        random_columns=(RandomColumnSpec("val"),),
        passthrough_columns=("CID",))


class _CountingNormal(Normal):
    def __init__(self):
        self.validate_calls = 0

    def validate_params(self, params):
        self.validate_calls += 1
        return super().validate_params(params)


class TestRegistration:
    def _count_seed_infos(self, monkeypatch):
        built = []

        class Counting(operators.SeedInfo):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(operators, "SeedInfo", Counting)
        return built

    def test_montecarlo_builds_no_seed_info_and_tail_does(self, monkeypatch):
        session = Session(base_seed=3, tail_budget=200, window=100)
        session.add_table("means", {"CID": np.arange(12),
                                    "m": np.linspace(1.0, 2.0, 12)})
        session.execute("""
            CREATE TABLE Losses (CID, val) AS FOR EACH CID IN means
            WITH v AS Normal(VALUES(m, 1.0)) SELECT CID, v.* FROM v""")
        built = self._count_seed_infos(monkeypatch)
        session.execute("SELECT SUM(val) AS t FROM Losses "
                        "WITH RESULTDISTRIBUTION MONTECARLO(30)")
        assert built == []
        session.execute("SELECT SUM(val) AS t FROM Losses WITH "
                        "RESULTDISTRIBUTION MONTECARLO(20) "
                        "DOMAIN t >= QUANTILE(0.9)")
        assert len(built) >= 12

    def test_validates_once_per_distinct_tuple(self):
        vg = _CountingNormal()
        seed = Seed(Scan("means"), label="L")
        node = Instantiate(seed, vg, [col("m"), lit(1.0)], [("val", 0)],
                           seed.handle_column)
        relation = node.execute(ExecutionContext(
            _catalog([1.0, 2.0] * 4), positions=5, aligned=True))
        assert relation.length == 8 and vg.validate_calls == 2

    def test_invalid_variance_fails_before_any_draw(self, monkeypatch):
        spy = _SeekSpy(monkeypatch)
        plan = random_table_pipeline(_spec(variance=-1.0))
        with pytest.raises(EngineError, match="seed 'Losses'.*variance"):
            plan.execute(ExecutionContext(_catalog([1.0, 2.0]), positions=4,
                                          aligned=True))
        assert spy.calls == 0

    def test_zero_rows_fill_an_empty_block(self):
        plan = random_table_pipeline(
            _spec(), predicates=[col("CID") < lit(0)])
        relation = plan.execute(ExecutionContext(
            _catalog([1.0, 2.0, 3.0]), positions=7, aligned=True))
        assert relation.length == 0
        assert relation.rand_columns["val"].values.shape == (0, 7)

    def test_position_plan_is_refused(self):
        context = ExecutionContext(_catalog([1.0]), positions=4,
                                   aligned=True)
        context.position_plan = {0: np.arange(4)}
        with pytest.raises(EngineError, match="position plan"):
            random_table_pipeline(_spec()).execute(context)


def _validate_spy(monkeypatch, cls):
    """Record every ``validate_params`` call of a VG class."""
    calls = []
    validate = cls.validate_params

    def spy(self, params):
        calls.append(tuple(params))
        return validate(self, params)

    monkeypatch.setattr(cls, "validate_params", spy)
    return calls


def _instantiate_params(vg, columns, param_exprs):
    catalog = Catalog()
    catalog.add_table(Table("params", {"CID": np.arange(8), **columns}))
    seed = Seed(Scan("params"), label="L")
    node = Instantiate(seed, vg, param_exprs, [("val", 0)],
                       seed.handle_column)
    return node.execute(ExecutionContext(catalog, positions=5, aligned=True))


class TestMatrixCheck:
    """A VG with a matrix check (``Normal``) validates the whole parameter
    matrix at once and calls ``validate_params`` only on the first row it
    names, for the message; any other VG loops over distinct tuples."""

    MEANS = np.linspace(0.0, 1.0, 8)

    def _normal(self, variances):
        return _instantiate_params(
            NORMAL, {"m": self.MEANS, "v": variances},
            [col("m"), col("v")])

    def test_negative_variance_names_the_first_bad_row(self, monkeypatch):
        calls = _validate_spy(monkeypatch, Normal)
        variances = np.ones(8)
        variances[5], variances[7] = -1.0, -2.0
        with pytest.raises(EngineError) as failure:
            self._normal(variances)
        bad = (float(self.MEANS[5]), -1.0)
        assert str(failure.value) == (
            f"VG function Normal rejected parameters {bad} of seed 'L': "
            "Normal variance must be >= 0, got -1.0")
        assert calls == [bad]

    def test_nan_variance_passes(self, monkeypatch):
        calls = _validate_spy(monkeypatch, Normal)
        variances = np.ones(8)
        variances[3] = np.nan
        assert self._normal(variances).length == 8
        assert calls == []

    def test_valid_matrix_makes_no_validate_calls(self, monkeypatch):
        calls = _validate_spy(monkeypatch, Normal)
        assert self._normal(np.ones(8)).length == 8
        assert calls == []

    def test_wrong_arity_names_row_zero(self):
        with pytest.raises(EngineError, match="expects .mean, variance., "
                                              "got 3 params"):
            _instantiate_params(NORMAL, {"m": self.MEANS},
                                [col("m"), lit(1.0), lit(2.0)])

    def test_uniform_still_loops(self, monkeypatch):
        uniform = default_registry.lookup("uniform")
        calls = _validate_spy(monkeypatch, type(uniform))
        _instantiate_params(uniform, {"m": np.repeat([0.0, 1.0], 4)},
                            [col("m"), col("m") + lit(1.0)])
        assert calls == [(0.0, 1.0), (1.0, 2.0)]

    def test_subclass_overriding_validate_params_loops(self):
        """An inherited matrix check never stands in for a subclass's own
        ``validate_params``: it may check more."""
        vg = _CountingNormal()
        assert vg.matrix_check() is None
        assert NORMAL.matrix_check() is not None
