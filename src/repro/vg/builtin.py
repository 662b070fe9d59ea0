"""Builtin VG functions.

``Normal`` is the one the paper uses throughout (Secs. 2, 4.2, Appendix D);
``InverseGamma`` parameterizes the Appendix D accuracy experiment;
``Lognormal`` and ``Pareto`` are the subexponential counterexamples of
Appendix B; the rest round out a usable library.

Parameter conventions follow the paper's SQL examples: ``Normal(VALUES(m,
v))`` takes a mean and a **variance** (the paper writes ``Normal(VALUES(m,
1.0))`` with "the default variance value of 1.0").
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.vg.base import VGFunction, register

_SQRT2 = math.sqrt(2.0)


def _normal_cdf(z: np.ndarray | float) -> np.ndarray | float:
    """Standard normal CDF via erf (vectorized, no scipy dependency)."""
    return 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(z) / _SQRT2))


class Normal(VGFunction):
    """``Normal(mean, variance)`` — the paper's workhorse VG function."""

    name = "Normal"

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) != 2:
            raise ValueError(f"Normal expects (mean, variance), got {len(params)} params")
        if params[1] < 0:
            raise ValueError(f"Normal variance must be >= 0, got {params[1]}")

    def first_invalid_row(self, params):
        if params.shape[1] != 2:
            return 0 if params.shape[0] else None
        bad = np.flatnonzero(params[:, 1] < 0)
        return int(bad[0]) if bad.size else None

    def sample_blocks(self, rng, params, size):
        mean, variance = params
        return rng.normal(mean, math.sqrt(variance), size=size).reshape(size, 1)

    # The standard form: NumPy's ``normal`` draws ``loc + scale * z`` for
    # each standard normal ``z`` of ``standard_normal``'s ziggurat, which
    # consumes the bit stream one variate at a time.
    def standard_fill(self, rng, out):
        rng.standard_normal(out=out)

    def from_standard(self, params, z):
        z *= np.sqrt(params[:, 1:2])
        z += params[:, 0:1]
        return z

    def mean(self, params):
        return float(params[0])

    def variance(self, params):
        return float(params[1])

    def cdf(self, x, params):
        mean, variance = params
        if variance == 0:
            return np.where(np.asarray(x) >= mean, 1.0, 0.0)
        return _normal_cdf((np.asarray(x) - mean) / math.sqrt(variance))


class Uniform(VGFunction):
    """``Uniform(low, high)``."""

    name = "Uniform"

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) != 2:
            raise ValueError(f"Uniform expects (low, high), got {len(params)} params")
        if params[1] < params[0]:
            raise ValueError(f"Uniform requires low <= high, got {params}")

    def sample_blocks(self, rng, params, size):
        low, high = params
        return rng.uniform(low, high, size=size).reshape(size, 1)

    def mean(self, params):
        return (params[0] + params[1]) / 2.0

    def variance(self, params):
        return (params[1] - params[0]) ** 2 / 12.0

    def cdf(self, x, params):
        low, high = params
        if high == low:
            return np.where(np.asarray(x) >= low, 1.0, 0.0)
        return np.clip((np.asarray(x) - low) / (high - low), 0.0, 1.0)


class Gamma(VGFunction):
    """``Gamma(shape, scale)``."""

    name = "Gamma"

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) != 2:
            raise ValueError(f"Gamma expects (shape, scale), got {len(params)} params")
        if params[0] <= 0 or params[1] <= 0:
            raise ValueError(f"Gamma shape and scale must be > 0, got {params}")

    def sample_blocks(self, rng, params, size):
        shape, scale = params
        return rng.gamma(shape, scale, size=size).reshape(size, 1)

    def mean(self, params):
        return params[0] * params[1]

    def variance(self, params):
        return params[0] * params[1] ** 2


class InverseGamma(VGFunction):
    """``InverseGamma(shape, scale)`` — used for Appendix D hyper-parameters.

    If ``G ~ Gamma(shape, 1/scale)`` then ``1/G ~ InverseGamma(shape,
    scale)``.  Mean ``scale/(shape-1)`` for ``shape > 1``; variance
    ``scale^2 / ((shape-1)^2 (shape-2))`` for ``shape > 2``.
    """

    name = "InverseGamma"

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) != 2:
            raise ValueError(
                f"InverseGamma expects (shape, scale), got {len(params)} params")
        if params[0] <= 0 or params[1] <= 0:
            raise ValueError(f"InverseGamma shape and scale must be > 0, got {params}")

    def sample_blocks(self, rng, params, size):
        shape, scale = params
        return (1.0 / rng.gamma(shape, 1.0 / scale, size=size)).reshape(size, 1)

    def mean(self, params):
        shape, scale = params
        if shape <= 1:
            raise ValueError(f"InverseGamma mean undefined for shape {shape} <= 1")
        return scale / (shape - 1.0)

    def variance(self, params):
        shape, scale = params
        if shape <= 2:
            raise ValueError(f"InverseGamma variance undefined for shape {shape} <= 2")
        return scale ** 2 / ((shape - 1.0) ** 2 * (shape - 2.0))


class Lognormal(VGFunction):
    """``Lognormal(mu, sigma)`` of the underlying normal — heavy-tailed."""

    name = "Lognormal"

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) != 2:
            raise ValueError(f"Lognormal expects (mu, sigma), got {len(params)} params")
        if params[1] < 0:
            raise ValueError(f"Lognormal sigma must be >= 0, got {params[1]}")

    def sample_blocks(self, rng, params, size):
        mu, sigma = params
        return rng.lognormal(mu, sigma, size=size).reshape(size, 1)

    def mean(self, params):
        mu, sigma = params
        return math.exp(mu + sigma ** 2 / 2.0)

    def variance(self, params):
        mu, sigma = params
        return (math.exp(sigma ** 2) - 1.0) * math.exp(2.0 * mu + sigma ** 2)

    def cdf(self, x, params):
        mu, sigma = params
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x, dtype=np.float64)
        positive = x > 0
        out[positive] = _normal_cdf((np.log(x[positive]) - mu) / sigma)
        return out


class Pareto(VGFunction):
    """``Pareto(alpha, xm)`` — the canonical subexponential law (App. B)."""

    name = "Pareto"

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) != 2:
            raise ValueError(f"Pareto expects (alpha, xm), got {len(params)} params")
        if params[0] <= 0 or params[1] <= 0:
            raise ValueError(f"Pareto alpha and xm must be > 0, got {params}")

    def sample_blocks(self, rng, params, size):
        alpha, xm = params
        return (xm * (1.0 + rng.pareto(alpha, size=size))).reshape(size, 1)

    def mean(self, params):
        alpha, xm = params
        if alpha <= 1:
            raise ValueError(f"Pareto mean undefined for alpha {alpha} <= 1")
        return alpha * xm / (alpha - 1.0)

    def variance(self, params):
        alpha, xm = params
        if alpha <= 2:
            raise ValueError(f"Pareto variance undefined for alpha {alpha} <= 2")
        return xm ** 2 * alpha / ((alpha - 1.0) ** 2 * (alpha - 2.0))

    def cdf(self, x, params):
        alpha, xm = params
        x = np.asarray(x, dtype=np.float64)
        return np.where(x >= xm, 1.0 - (xm / np.maximum(x, xm)) ** alpha, 0.0)


class Poisson(VGFunction):
    """``Poisson(lam)`` — discrete counts (e.g. uncertain order quantities)."""

    name = "Poisson"

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) != 1:
            raise ValueError(f"Poisson expects (lam,), got {len(params)} params")
        if params[0] < 0:
            raise ValueError(f"Poisson rate must be >= 0, got {params[0]}")

    def sample_blocks(self, rng, params, size):
        return rng.poisson(params[0], size=size).astype(np.float64).reshape(size, 1)

    def mean(self, params):
        return float(params[0])

    def variance(self, params):
        return float(params[0])


class Bernoulli(VGFunction):
    """``Bernoulli(p)`` — 0/1 indicator (tuple-existence style uncertainty)."""

    name = "Bernoulli"

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) != 1:
            raise ValueError(f"Bernoulli expects (p,), got {len(params)} params")
        if not 0.0 <= params[0] <= 1.0:
            raise ValueError(f"Bernoulli p must be in [0, 1], got {params[0]}")

    def sample_blocks(self, rng, params, size):
        return (rng.random(size) < params[0]).astype(np.float64).reshape(size, 1)

    def mean(self, params):
        return float(params[0])

    def variance(self, params):
        return float(params[0] * (1.0 - params[0]))


class DiscreteChoice(VGFunction):
    """``DiscreteChoice(v1, w1, v2, w2, ...)`` — finite support with weights.

    This is the discrete-attribute case required by ``Split`` (Sec. 8): a
    random attribute with a small set of possible values (e.g. Jane's ``age``
    in {20, 21}) so that joins on it can be made deterministic.
    """

    name = "DiscreteChoice"

    def _split(self, params: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        values = np.asarray(params[0::2], dtype=np.float64)
        weights = np.asarray(params[1::2], dtype=np.float64)
        return values, weights / weights.sum()

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) < 2 or len(params) % 2 != 0:
            raise ValueError(
                "DiscreteChoice expects (value, weight) pairs, got "
                f"{len(params)} params")
        weights = np.asarray(params[1::2], dtype=np.float64)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError(f"DiscreteChoice weights must be >= 0 and sum > 0")

    def support(self, params: Sequence[float]) -> np.ndarray:
        return self._split(params)[0]

    def sample_blocks(self, rng, params, size):
        values, probs = self._split(params)
        return rng.choice(values, size=size, p=probs).reshape(size, 1)

    def mean(self, params):
        values, probs = self._split(params)
        return float(values @ probs)

    def variance(self, params):
        values, probs = self._split(params)
        mu = values @ probs
        return float((values - mu) ** 2 @ probs)

    def cdf(self, x, params):
        values, probs = self._split(params)
        x = np.asarray(x, dtype=np.float64)
        return (probs[None, :] * (values[None, :] <= x[..., None])).sum(axis=-1)


class Mixture(VGFunction):
    """``Mixture(w1, m1, v1, w2, m2, v2, ...)`` — mixture of normals."""

    name = "Mixture"

    def _split(self, params: Sequence[float]):
        weights = np.asarray(params[0::3], dtype=np.float64)
        means = np.asarray(params[1::3], dtype=np.float64)
        variances = np.asarray(params[2::3], dtype=np.float64)
        return weights / weights.sum(), means, variances

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) < 3 or len(params) % 3 != 0:
            raise ValueError(
                "Mixture expects (weight, mean, variance) triples, got "
                f"{len(params)} params")
        weights = np.asarray(params[0::3], dtype=np.float64)
        variances = np.asarray(params[2::3], dtype=np.float64)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("Mixture weights must be >= 0 and sum > 0")
        if np.any(variances < 0):
            raise ValueError("Mixture variances must be >= 0")

    def sample_blocks(self, rng, params, size):
        probs, means, variances = self._split(params)
        component = rng.choice(len(probs), size=size, p=probs)
        draws = rng.normal(means[component], np.sqrt(variances[component]))
        return draws.reshape(size, 1)

    def mean(self, params):
        probs, means, _ = self._split(params)
        return float(probs @ means)

    def variance(self, params):
        probs, means, variances = self._split(params)
        mu = probs @ means
        return float(probs @ (variances + means ** 2) - mu ** 2)

    def cdf(self, x, params):
        probs, means, variances = self._split(params)
        x = np.asarray(x, dtype=np.float64)
        total = np.zeros_like(x, dtype=np.float64)
        for p, m, v in zip(probs, means, variances):
            if v == 0:
                total = total + p * (x >= m)
            else:
                total = total + p * _normal_cdf((x - m) / math.sqrt(v))
        return total


class MultivariateNormal(VGFunction):
    """``MultivariateNormal(m1..mk, flattened k x k covariance)``.

    Produces a *block* of k correlated values per invocation — the paper's
    "table containing one or more correlated data values" (Sec. 1).
    """

    name = "MultivariateNormal"

    @staticmethod
    def _dimension(params: Sequence[float]) -> int:
        # k means + k*k covariance entries = len(params)  =>  k^2 + k - n = 0.
        n = len(params)
        k = int((math.isqrt(1 + 4 * n) - 1) // 2)
        if k * k + k != n:
            raise ValueError(
                f"MultivariateNormal expects k means + k*k covariances; "
                f"{n} params do not fit any k")
        return k

    def block_arity(self, params: Sequence[float]) -> int:
        return self._dimension(params)

    def validate_params(self, params: Sequence[float]) -> None:
        k = self._dimension(params)
        cov = np.asarray(params[k:], dtype=np.float64).reshape(k, k)
        if not np.allclose(cov, cov.T):
            raise ValueError("MultivariateNormal covariance must be symmetric")
        eigenvalues = np.linalg.eigvalsh(cov)
        if np.any(eigenvalues < -1e-9):
            raise ValueError("MultivariateNormal covariance must be PSD")

    def sample_blocks(self, rng, params, size):
        k = self._dimension(params)
        mean = np.asarray(params[:k], dtype=np.float64)
        cov = np.asarray(params[k:], dtype=np.float64).reshape(k, k)
        return rng.multivariate_normal(mean, cov, size=size, method="svd")


class Exponential(VGFunction):
    """``Exponential(rate)`` — e.g. inter-arrival or service times."""

    name = "Exponential"

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) != 1:
            raise ValueError(f"Exponential expects (rate,), got {len(params)} params")
        if params[0] <= 0:
            raise ValueError(f"Exponential rate must be > 0, got {params[0]}")

    def sample_blocks(self, rng, params, size):
        return rng.exponential(1.0 / params[0], size=size).reshape(size, 1)

    def mean(self, params):
        return 1.0 / params[0]

    def variance(self, params):
        return 1.0 / params[0] ** 2

    def cdf(self, x, params):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x >= 0, 1.0 - np.exp(-params[0] * np.maximum(x, 0.0)), 0.0)


class Weibull(VGFunction):
    """``Weibull(shape, scale)`` — lifetimes / extreme-value modelling."""

    name = "Weibull"

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) != 2:
            raise ValueError(f"Weibull expects (shape, scale), got {len(params)} params")
        if params[0] <= 0 or params[1] <= 0:
            raise ValueError(f"Weibull shape and scale must be > 0, got {params}")

    def sample_blocks(self, rng, params, size):
        shape, scale = params
        return (scale * rng.weibull(shape, size=size)).reshape(size, 1)

    def mean(self, params):
        shape, scale = params
        return scale * math.gamma(1.0 + 1.0 / shape)

    def variance(self, params):
        shape, scale = params
        g1 = math.gamma(1.0 + 1.0 / shape)
        g2 = math.gamma(1.0 + 2.0 / shape)
        return scale ** 2 * (g2 - g1 ** 2)

    def cdf(self, x, params):
        shape, scale = params
        x = np.asarray(x, dtype=np.float64)
        return np.where(x >= 0,
                        1.0 - np.exp(-np.power(np.maximum(x, 0.0) / scale, shape)),
                        0.0)


class Beta(VGFunction):
    """``Beta(alpha, beta)`` — bounded rates and proportions."""

    name = "Beta"

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) != 2:
            raise ValueError(f"Beta expects (alpha, beta), got {len(params)} params")
        if params[0] <= 0 or params[1] <= 0:
            raise ValueError(f"Beta parameters must be > 0, got {params}")

    def sample_blocks(self, rng, params, size):
        return rng.beta(params[0], params[1], size=size).reshape(size, 1)

    def mean(self, params):
        alpha, beta = params
        return alpha / (alpha + beta)

    def variance(self, params):
        alpha, beta = params
        total = alpha + beta
        return alpha * beta / (total ** 2 * (total + 1.0))


class StudentT(VGFunction):
    """``StudentT(df, loc, scale)`` — heavier-than-normal but polynomial
    tails; a middle ground for the Appendix B applicability spectrum."""

    name = "StudentT"

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) != 3:
            raise ValueError(
                f"StudentT expects (df, loc, scale), got {len(params)} params")
        if params[0] <= 0 or params[2] <= 0:
            raise ValueError(f"StudentT df and scale must be > 0, got {params}")

    def sample_blocks(self, rng, params, size):
        df, loc, scale = params
        return (loc + scale * rng.standard_t(df, size=size)).reshape(size, 1)

    def mean(self, params):
        df, loc, _ = params
        if df <= 1:
            raise ValueError(f"StudentT mean undefined for df {df} <= 1")
        return float(loc)

    def variance(self, params):
        df, _, scale = params
        if df <= 2:
            raise ValueError(f"StudentT variance undefined for df {df} <= 2")
        return scale ** 2 * df / (df - 2.0)


class Triangular(VGFunction):
    """``Triangular(low, mode, high)`` — the classic three-point estimate."""

    name = "Triangular"

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) != 3:
            raise ValueError(
                f"Triangular expects (low, mode, high), got {len(params)} params")
        low, mode, high = params
        if not low <= mode <= high or low == high:
            raise ValueError(f"Triangular requires low <= mode <= high, got {params}")

    def sample_blocks(self, rng, params, size):
        low, mode, high = params
        return rng.triangular(low, mode, high, size=size).reshape(size, 1)

    def mean(self, params):
        return sum(params) / 3.0

    def variance(self, params):
        low, mode, high = params
        return (low ** 2 + mode ** 2 + high ** 2
                - low * mode - low * high - mode * high) / 18.0


class Deterministic(VGFunction):
    """``Deterministic(c)`` — a constant stream.

    The paper treats "each deterministic data value c as a random variable
    that is equal to c with probability 1" (Sec. 3.3); this VG function makes
    that convention executable.
    """

    name = "Deterministic"

    def validate_params(self, params: Sequence[float]) -> None:
        if len(params) != 1:
            raise ValueError(f"Deterministic expects (c,), got {len(params)} params")

    def sample_blocks(self, rng, params, size):
        return np.full((size, 1), float(params[0]))

    def mean(self, params):
        return float(params[0])

    def variance(self, params):
        return 0.0

    def cdf(self, x, params):
        return np.where(np.asarray(x) >= params[0], 1.0, 0.0)


# Populate the default registry.
NORMAL = register(Normal())
UNIFORM = register(Uniform())
GAMMA = register(Gamma())
INVERSE_GAMMA = register(InverseGamma())
LOGNORMAL = register(Lognormal())
PARETO = register(Pareto())
POISSON = register(Poisson())
BERNOULLI = register(Bernoulli())
DISCRETE_CHOICE = register(DiscreteChoice())
MIXTURE = register(Mixture())
MULTIVARIATE_NORMAL = register(MultivariateNormal())
EXPONENTIAL = register(Exponential())
WEIBULL = register(Weibull())
BETA = register(Beta())
STUDENT_T = register(StudentT())
TRIANGULAR = register(Triangular())
DETERMINISTIC = register(Deterministic())
