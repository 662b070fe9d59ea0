"""VG-function interface and registry.

A VG function (Jampani et al., SIGMOD 2008; Sec. 2 here) is a pseudorandom
table generator: given one row of parameter values it produces a block of
one or more *correlated* output values.  Independence holds **across**
blocks (across parameter rows and across stream positions), never within a
block — that is exactly the block-independence structure the Gibbs sampler
of Sec. 3.1 exploits (it resamples one whole block at a time).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.vg.streams import (
    DEFAULT_CHUNK, RandomStream, borrowed_generator, gather_stream_values)


class VGFunction(ABC):
    """Base class for variable-generation functions.

    Subclasses implement :meth:`sample_blocks`; everything else (streams,
    analytic moments where available) is derived.  ``params`` is a tuple of
    scalars taken from one row of a parameter table, in the order written in
    the SQL ``VALUES(...)`` clause.
    """

    #: Name used by the SQL frontend (``WITH v AS Normal(VALUES(m, 1.0))``).
    name: str = ""

    #: Number of values produced per invocation; subclasses with
    #: parameter-dependent arity override :meth:`block_arity`.
    arity: int = 1

    def block_arity(self, params: Sequence[float]) -> int:
        """Values per block for this parameterization."""
        return self.arity

    @abstractmethod
    def sample_blocks(self, rng: np.random.Generator, params: Sequence[float],
                      size: int) -> np.ndarray:
        """Draw ``size`` independent blocks; returns shape ``(size, arity)``.

        ``rng`` is *borrowed*: the stream layer hands every call the same
        per-thread generator, re-seeked to the chunk being drawn (see
        :func:`repro.vg.streams.borrowed_generator`).  Draw from it and
        return — do not keep a reference past the call, and do not read
        another stream's values from inside it.
        """

    def validate_params(self, params: Sequence[float]) -> None:
        """Raise ``ValueError`` for an invalid parameterization."""

    # -- analytic hooks (used by tests and the analytic baselines) ---------

    def mean(self, params: Sequence[float]) -> float:
        """Marginal mean of a (scalar) block, if known in closed form."""
        raise NotImplementedError(f"{type(self).__name__} has no closed-form mean")

    def variance(self, params: Sequence[float]) -> float:
        """Marginal variance of a (scalar) block, if known in closed form."""
        raise NotImplementedError(f"{type(self).__name__} has no closed-form variance")

    def cdf(self, x: np.ndarray | float, params: Sequence[float]) -> np.ndarray | float:
        """Marginal CDF of a (scalar) block, if known in closed form."""
        raise NotImplementedError(f"{type(self).__name__} has no closed-form cdf")

    # -- stream construction ------------------------------------------------

    def make_stream(self, seed: int, params: Sequence[float],
                    chunk: int = DEFAULT_CHUNK,
                    validate: bool = True) -> RandomStream:
        """Deterministic scalar stream of invocations of this VG function.

        ``validate=False`` skips parameter validation for callers that
        already validated the signature (the signature-batched Instantiate
        validates once per distinct parameter tuple, not once per seed).
        """
        if self.block_arity(params) != 1:
            raise ValueError(
                f"{type(self).__name__} produces {self.block_arity(params)}-value "
                "blocks; use make_block_stream")
        if validate:
            self.validate_params(params)
        params = tuple(float(p) for p in params)

        def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
            return self.sample_blocks(rng, params, size).reshape(size)

        return RandomStream(seed, sampler, chunk=chunk)

    def make_block_stream(self, seed: int, params: Sequence[float],
                          chunk: int = DEFAULT_CHUNK,
                          validate: bool = True) -> "BlockStream":
        """Deterministic stream of whole blocks (for multi-value VGs)."""
        if validate:
            self.validate_params(params)
        return BlockStream(seed, self, tuple(float(p) for p in params), chunk=chunk)


class BlockStream:
    """Deterministic stream whose elements are blocks of correlated values.

    Mirrors :class:`repro.vg.streams.RandomStream` but each position maps to
    a 1-D array of ``arity`` values drawn in a single VG invocation.
    """

    def __init__(self, seed: int, vg: VGFunction, params: tuple[float, ...],
                 chunk: int = DEFAULT_CHUNK):
        self.seed = int(seed)
        self.vg = vg
        self.params = params
        self.arity = vg.block_arity(params)
        self._chunk = int(chunk)
        self._cache: dict[int, np.ndarray] = {}

    def _chunk_values(self, chunk_index: int) -> np.ndarray:
        blocks = self._cache.get(chunk_index)
        if blocks is None:
            rng = borrowed_generator(self.seed, chunk_index)
            blocks = np.asarray(
                self.vg.sample_blocks(rng, self.params, self._chunk), dtype=np.float64)
            blocks = blocks.reshape(self._chunk, self.arity)
            self._cache[chunk_index] = blocks
        return blocks

    def block_at(self, position: int) -> np.ndarray:
        if position < 0:
            raise IndexError(f"stream position must be >= 0, got {position}")
        chunk_index, offset = divmod(position, self._chunk)
        return self._chunk_values(chunk_index)[offset]

    def component_value_at(self, position: int, component: int) -> float:
        return float(self.block_at(position)[component])

    def component_values_at(self, positions, component: int) -> np.ndarray:
        """Vectorized :meth:`component_value_at` over a position array."""
        return gather_stream_values(
            positions, self._chunk,
            lambda cid: self._chunk_values(cid)[:, component])


class VGRegistry:
    """Name → VG-function lookup used by the SQL frontend."""

    def __init__(self) -> None:
        self._functions: dict[str, VGFunction] = {}

    def register(self, vg: VGFunction) -> VGFunction:
        key = vg.name.lower()
        if not key:
            raise ValueError(f"{type(vg).__name__} has an empty name")
        self._functions[key] = vg
        return vg

    def lookup(self, name: str) -> VGFunction:
        try:
            return self._functions[name.lower()]
        except KeyError:
            known = ", ".join(sorted(self._functions)) or "<none>"
            raise KeyError(f"unknown VG function {name!r}; registered: {known}") from None

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._functions

    def names(self) -> list[str]:
        return sorted(self._functions)


#: Process-wide registry pre-populated with the builtin VG functions.
default_registry = VGRegistry()


def register(vg: VGFunction) -> VGFunction:
    """Register a VG function in the default registry (returns it)."""
    return default_registry.register(vg)
