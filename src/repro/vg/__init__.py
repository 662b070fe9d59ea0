"""Variable-generation (VG) functions and deterministic random streams.

In MCDB/MCDB-R every uncertain value in the database is produced by a *VG
function* (Sec. 2 of the paper): a pseudorandom generator that is
parameterized by a row of an ordinary "parameter table" and that emits a
block of one or more correlated values per invocation.  Repeated invocation
with a fixed PRNG seed yields a deterministic *stream* of value blocks; the
i-th element of the stream is the instantiation used by the i-th Monte Carlo
repetition (MCDB) or by whichever database version the Gibbs sampler has
assigned position i to (MCDB-R, Sec. 4.1).

:mod:`repro.vg.streams` holds the one definition of a stream,
:func:`~repro.vg.streams.draw_chunk`, and the two batched readers built on
it; the engine reads every stream value through them.
"""

from repro.vg.base import VGFunction, VGRegistry, default_registry, register
from repro.vg.builtin import (
    Bernoulli,
    Deterministic,
    DiscreteChoice,
    Gamma,
    InverseGamma,
    Lognormal,
    Mixture,
    MultivariateNormal,
    Normal,
    Pareto,
    Poisson,
    Uniform,
)

__all__ = [
    "VGFunction",
    "VGRegistry",
    "default_registry",
    "register",
    "Normal",
    "Uniform",
    "Gamma",
    "InverseGamma",
    "Lognormal",
    "Pareto",
    "Poisson",
    "Bernoulli",
    "DiscreteChoice",
    "Mixture",
    "MultivariateNormal",
    "Deterministic",
]
