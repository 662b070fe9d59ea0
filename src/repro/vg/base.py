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


class VGFunction(ABC):
    """Base class for variable-generation functions.

    Subclasses implement :meth:`sample_blocks`; the stream layer
    (:func:`repro.vg.streams.draw_chunk`) calls it one chunk at a time,
    and the analytic moments are optional.  ``params`` is a tuple of
    scalars taken from one row of a parameter table, in the order written in
    the SQL ``VALUES(...)`` clause.

    **The standard form** is an optional pair of methods that lets a Monte
    Carlo run fill its block without a ``sample_blocks`` call per stream
    (:func:`repro.vg.streams.gather_aligned_windows`); the base class
    declares none (both ``None``).  A VG whose blocks are one value each
    and a fixed transform of one variate each may declare both:

    * ``standard_fill(rng, out)`` draws ``len(out)`` *standard* variates
      from the borrowed ``rng`` into the float64 vector ``out``;
    * ``from_standard(params, z)`` turns a ``(rows, width)`` block of them
      into the VG's values, row ``r`` under parameter row ``params[r]`` of
      a ``(rows, parameters)`` float64 matrix, *in place*, and returns
      ``z``.

    The obligation is bit identity: for every valid parameter row, every
    ``k`` and every generator state, ``from_standard`` over the first
    ``k`` values ``standard_fill`` draws must equal, bit for bit, the
    first ``k`` blocks of ``sample_blocks(rng, params, DEFAULT_CHUNK)``
    from the same state — so the draw must consume the bit stream in
    order, one variate after another, and the transform must repeat
    ``sample_blocks``'s floating-point operations exactly.  The
    stream-identity property of ``tests/test_vg_streams.py`` holds every
    declaring builtin to it.
    """

    #: The standard form (see above): both set, or neither.
    standard_fill = from_standard = None

    #: Optional matrix check: ``first_invalid_row(params)`` over a
    #: ``(rows, parameters)`` float64 matrix returns the index of the
    #: first row :meth:`validate_params` would reject, or ``None``.
    #: ``Instantiate`` then calls :meth:`validate_params` on that row alone
    #: (for its message) instead of once per distinct parameter tuple —
    #: see :meth:`matrix_check` for when it counts.
    first_invalid_row = None

    #: Name used by the SQL frontend (``WITH v AS Normal(VALUES(m, 1.0))``).
    name: str = ""

    #: Number of values produced per invocation; subclasses with
    #: parameter-dependent arity override :meth:`block_arity`.
    arity: int = 1

    def block_arity(self, params: Sequence[float]) -> int:
        """Values per block for this parameterization.

        It may depend on the number of parameters only, never on their
        values: ``CREATE TABLE`` checks the outputs it names against the
        arity of the ``VALUES(...)`` it was written with, before any
        parameter row is read.  Raise ``ValueError`` for a parameter count
        no block fits.
        """
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
        """Raise ``ValueError`` for an invalid parameterization.

        ``Instantiate`` calls it once per distinct parameter tuple, before
        any stream of that tuple is drawn — or, for a VG that declares
        :attr:`first_invalid_row`, on the first row that check names.
        """

    def matrix_check(self):
        """The bound :attr:`first_invalid_row` when the class that
        defines this VG's :meth:`validate_params` declares it too, else
        ``None``: a subclass overriding ``validate_params`` alone keeps
        the per-tuple loop, so an inherited check never skips its rules."""
        for klass in type(self).__mro__:
            if "validate_params" in vars(klass):
                check = vars(klass).get("first_invalid_row")
                return None if check is None else check.__get__(self)

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
