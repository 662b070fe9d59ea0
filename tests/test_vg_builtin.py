"""Unit, statistical, and property tests for the builtin VG functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stream_oracle import DETERMINISM_PARAMS, stream_values

from repro.vg import base, builtin
from repro.vg.base import VGRegistry, default_registry
from repro.vg.streams import draw_chunk, gather_stream_windows


def _draw(row, chunk_index):
    """The window fill's ``draw`` over ``(seed, vg, params)`` rows."""
    return draw_chunk(*row, chunk_index)


def _gather(positions, rows, components):
    """``out[c, r, i]``: component ``components[c]`` of row ``r``'s
    stream — ``(seed, vg, params)`` — at ``positions[i]``, each read
    through :func:`gather_stream_windows` as a one-position window."""
    positions = np.asarray(positions, dtype=np.int64)
    out = gather_stream_windows(
        _draw, [row for row in rows for _ in positions],
        np.tile(positions, len(rows)), np.tile(positions + 1, len(rows)),
        components)
    return out.reshape(len(components), len(rows), positions.size)


RNG_SEED = 20100913  # VLDB 2010 conference start date


def _draws(vg, params, size=20_000, seed=RNG_SEED):
    rng = np.random.default_rng(seed)
    return vg.sample_blocks(rng, params, size).reshape(size, -1)


SCALAR_CASES = [
    (builtin.NORMAL, (3.0, 4.0)),
    (builtin.UNIFORM, (-1.0, 5.0)),
    (builtin.GAMMA, (2.5, 1.5)),
    (builtin.INVERSE_GAMMA, (4.0, 1.0)),
    (builtin.LOGNORMAL, (0.2, 0.4)),
    (builtin.PARETO, (4.0, 1.0)),
    (builtin.POISSON, (6.0,)),
    (builtin.BERNOULLI, (0.3,)),
    (builtin.DISCRETE_CHOICE, (1.0, 0.2, 5.0, 0.8)),
    (builtin.MIXTURE, (0.4, 0.0, 1.0, 0.6, 10.0, 2.0)),
    (builtin.DETERMINISTIC, (7.5,)),
]


class TestMomentsMatchSampling:
    @pytest.mark.parametrize("vg,params", SCALAR_CASES,
                             ids=[type(v).__name__ for v, _ in SCALAR_CASES])
    def test_sample_mean_matches_analytic_mean(self, vg, params):
        draws = _draws(vg, params)[:, 0]
        se = draws.std(ddof=1) / math.sqrt(len(draws)) if draws.std() > 0 else 1e-12
        assert abs(draws.mean() - vg.mean(params)) < max(5 * se, 1e-9)

    @pytest.mark.parametrize("vg,params", SCALAR_CASES,
                             ids=[type(v).__name__ for v, _ in SCALAR_CASES])
    def test_sample_variance_matches_analytic_variance(self, vg, params):
        draws = _draws(vg, params)[:, 0]
        target = vg.variance(params)
        tolerance = max(0.15 * target, 1e-9)
        assert abs(draws.var(ddof=1) - target) < tolerance


class TestCDFs:
    def test_normal_cdf_against_scipy(self):
        x = np.linspace(-3, 9, 25)
        np.testing.assert_allclose(
            builtin.NORMAL.cdf(x, (3.0, 4.0)),
            stats.norm.cdf(x, loc=3.0, scale=2.0), atol=1e-12)

    def test_uniform_cdf_against_scipy(self):
        x = np.linspace(-2, 6, 25)
        np.testing.assert_allclose(
            builtin.UNIFORM.cdf(x, (-1.0, 5.0)),
            stats.uniform.cdf(x, loc=-1.0, scale=6.0), atol=1e-12)

    def test_lognormal_cdf_against_scipy(self):
        x = np.linspace(0.01, 5, 25)
        np.testing.assert_allclose(
            builtin.LOGNORMAL.cdf(x, (0.2, 0.4)),
            stats.lognorm.cdf(x, 0.4, scale=math.exp(0.2)), atol=1e-12)

    def test_pareto_cdf_against_scipy(self):
        x = np.linspace(0.5, 10, 25)
        np.testing.assert_allclose(
            builtin.PARETO.cdf(x, (4.0, 1.0)),
            stats.pareto.cdf(x, 4.0, scale=1.0), atol=1e-12)

    def test_discrete_choice_cdf_steps(self):
        params = (1.0, 0.2, 5.0, 0.8)
        cdf = builtin.DISCRETE_CHOICE.cdf(np.array([0.0, 1.0, 4.9, 5.0, 9.0]), params)
        np.testing.assert_allclose(cdf, [0.0, 0.2, 0.2, 1.0, 1.0])

    def test_mixture_cdf_is_weighted_sum(self):
        params = (0.4, 0.0, 1.0, 0.6, 10.0, 2.0)
        x = np.linspace(-3, 15, 40)
        expected = 0.4 * stats.norm.cdf(x) + 0.6 * stats.norm.cdf(
            x, loc=10.0, scale=math.sqrt(2.0))
        np.testing.assert_allclose(builtin.MIXTURE.cdf(x, params), expected, atol=1e-12)

    @pytest.mark.parametrize("vg,params", [
        (builtin.NORMAL, (3.0, 4.0)),
        (builtin.PARETO, (3.0, 2.0)),
        (builtin.LOGNORMAL, (0.0, 1.0)),
    ], ids=["Normal", "Pareto", "Lognormal"])
    def test_ks_sampling_agrees_with_cdf(self, vg, params):
        draws = _draws(vg, params, size=4000)[:, 0]
        statistic, pvalue = stats.kstest(draws, lambda x: vg.cdf(x, params))
        assert pvalue > 1e-4, f"KS test rejected: D={statistic}, p={pvalue}"


class TestValidation:
    @pytest.mark.parametrize("vg,bad_params", [
        (builtin.NORMAL, (0.0,)),
        (builtin.NORMAL, (0.0, -1.0)),
        (builtin.UNIFORM, (5.0, 1.0)),
        (builtin.GAMMA, (-1.0, 1.0)),
        (builtin.INVERSE_GAMMA, (1.0, -2.0)),
        (builtin.PARETO, (0.0, 1.0)),
        (builtin.POISSON, (-3.0,)),
        (builtin.BERNOULLI, (1.5,)),
        (builtin.DISCRETE_CHOICE, (1.0,)),
        (builtin.DISCRETE_CHOICE, (1.0, -1.0, 2.0, 0.5)),
        (builtin.MIXTURE, (1.0, 0.0)),
        (builtin.DETERMINISTIC, ()),
    ])
    def test_bad_params_rejected(self, vg, bad_params):
        with pytest.raises(ValueError):
            vg.validate_params(bad_params)

    def test_undefined_moments_raise(self):
        with pytest.raises(ValueError):
            builtin.PARETO.mean((0.5, 1.0))
        with pytest.raises(ValueError):
            builtin.PARETO.variance((1.5, 1.0))
        with pytest.raises(ValueError):
            builtin.INVERSE_GAMMA.variance((2.0, 1.0))

    def test_cdf_not_implemented_for_gamma(self):
        with pytest.raises(NotImplementedError):
            builtin.GAMMA.cdf(1.0, (2.0, 1.0))


class TestMultivariateNormal:
    PARAMS = (1.0, -2.0, 4.0, 1.2, 1.2, 9.0)  # means (1,-2); cov [[4,1.2],[1.2,9]]

    def test_block_arity(self):
        assert builtin.MULTIVARIATE_NORMAL.block_arity(self.PARAMS) == 2

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            builtin.MULTIVARIATE_NORMAL.block_arity((1.0, 2.0, 3.0))

    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            builtin.MULTIVARIATE_NORMAL.validate_params(
                (0.0, 0.0, 1.0, 0.9, 0.1, 1.0))

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            builtin.MULTIVARIATE_NORMAL.validate_params(
                (0.0, 0.0, 1.0, 2.0, 2.0, 1.0))

    def test_sample_covariance(self):
        draws = _draws(builtin.MULTIVARIATE_NORMAL, self.PARAMS, size=30_000)
        cov = np.cov(draws.T)
        np.testing.assert_allclose(cov, [[4.0, 1.2], [1.2, 9.0]], atol=0.25)
        np.testing.assert_allclose(draws.mean(axis=0), [1.0, -2.0], atol=0.1)

    def test_block_stream_correlated_within_block(self):
        params = (0.0, 0.0, 1.0, 0.95, 0.95, 1.0)
        blocks = _gather(
            np.arange(2000), [(3, builtin.MULTIVARIATE_NORMAL, params)],
            [0, 1])[:, 0]
        correlation = np.corrcoef(blocks)[0, 1]
        assert correlation > 0.9

    def test_block_stream_deterministic(self):
        vg = builtin.MULTIVARIATE_NORMAL
        for component in (0, 1):
            a = stream_values(5, vg, self.PARAMS, [77], component)
            b = _gather([77], [(5, vg, self.PARAMS)], [component])[0, 0]
            np.testing.assert_array_equal(a, b)


class TestRegistry:
    def test_default_registry_has_all_builtins(self):
        for name in ["Normal", "Uniform", "Gamma", "InverseGamma", "Lognormal",
                     "Pareto", "Poisson", "Bernoulli", "DiscreteChoice",
                     "Mixture", "MultivariateNormal", "Deterministic"]:
            assert name in default_registry
            assert default_registry.lookup(name).name == name

    def test_lookup_is_case_insensitive(self):
        assert default_registry.lookup("NORMAL") is builtin.NORMAL
        assert default_registry.lookup("normal") is builtin.NORMAL

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="unknown VG function"):
            default_registry.lookup("NoSuchVG")

    def test_empty_name_rejected(self):
        class Nameless(base.VGFunction):
            def sample_blocks(self, rng, params, size):
                return np.zeros((size, 1))

        with pytest.raises(ValueError):
            VGRegistry().register(Nameless())

    def test_custom_registry_isolated(self):
        registry = VGRegistry()
        assert "Normal" not in registry
        registry.register(builtin.Normal())
        assert "Normal" in registry


class TestUserDefinedVG:
    def test_user_defined_vg_roundtrip(self):
        """The 'black-box VG function' contract: users can plug in anything."""

        class Triangular(base.VGFunction):
            name = "Triangular"

            def sample_blocks(self, rng, params, size):
                low, mode, high = params
                return rng.triangular(low, mode, high, size=size).reshape(size, 1)

            def mean(self, params):
                return sum(params) / 3.0

        registry = VGRegistry()
        registry.register(Triangular())
        vg = registry.lookup("triangular")
        values = _gather(
            np.arange(5000), [(17, vg, (0.0, 1.0, 2.0))], [0])[0, 0]
        assert np.all((values >= 0.0) & (values <= 2.0))
        assert abs(values.mean() - 1.0) < 0.05


@given(mean=st.floats(-100, 100), variance=st.floats(0.01, 100),
       seed=st.integers(0, 2**31))
@settings(max_examples=30, deadline=None)
def test_property_normal_stream_deterministic_and_finite(mean, variance, seed):
    rows = [(seed, builtin.NORMAL, (mean, variance))]
    values = _gather(np.arange(32), rows, [0])[0, 0]
    assert np.all(np.isfinite(values))
    np.testing.assert_array_equal(
        values, stream_values(seed, builtin.NORMAL, (mean, variance),
                              np.arange(32)))


class TestSeedDeterminism:
    """Stream position i must be a pure function of (seed, params, i) for
    every registered VG — the property replenishment (Sec. 9) relies on."""

    def test_every_registered_vg_is_covered(self):
        assert set(default_registry.names()) == set(DETERMINISM_PARAMS)

    @pytest.mark.parametrize("name", sorted(DETERMINISM_PARAMS))
    def test_same_seed_same_stream(self, name):
        vg = default_registry.lookup(name)
        params = DETERMINISM_PARAMS[name]
        last = vg.block_arity(params) - 1
        positions = np.array([0, 1, 7, 255, 256, 1000, 5003])
        first = _gather(positions, [(99, vg, params)], [last])[0, 0]
        second = stream_values(99, vg, params, positions, last)
        np.testing.assert_array_equal(first, second)
        assert np.all(np.isfinite(first))

    @pytest.mark.parametrize("name", sorted(DETERMINISM_PARAMS))
    def test_access_order_does_not_matter(self, name):
        """Random access at position i equals sequential access at i."""
        vg = default_registry.lookup(name)
        params = DETERMINISM_PARAMS[name]
        backwards = stream_values(7, vg, params, [600, 300, 3, 0])
        forwards = _gather([0, 3, 300, 600], [(7, vg, params)], [0])[0, 0]
        np.testing.assert_array_equal(backwards, forwards[::-1])

    # "deterministic" is excluded: constant streams are seed-independent
    # by design (Sec. 3.3's probability-1 convention).
    @pytest.mark.parametrize(
        "name", sorted(set(DETERMINISM_PARAMS) - {"deterministic"}))
    def test_different_seeds_differ(self, name):
        vg = default_registry.lookup(name)
        params = DETERMINISM_PARAMS[name]
        out = _gather(
            np.arange(64), [(1, vg, params), (2, vg, params)], [0])
        assert not np.array_equal(out[0, 0], out[0, 1])
