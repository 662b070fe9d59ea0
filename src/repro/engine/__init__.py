"""The MCDB substrate: tables, expressions, tuple-bundle query plans.

This package implements the system MCDB-R extends — enough of the Monte
Carlo Database System (Jampani et al., SIGMOD 2008) to run the paper's
query plans: deterministic relational operators lifted to *tuple bundles*
(tuples whose uncertain attributes carry one value per Monte Carlo
repetition), the ``Seed``/``Instantiate``/``Split`` operators, and the
naive Monte Carlo executor that serves as the paper's baseline.

A single plan representation serves both systems: in *Monte Carlo mode*
the position axis of a bundle's random columns is the repetition index,
while in *tail mode* it is a window into each tuple's random-value stream
that the GibbsLooper (in :mod:`repro.core.gibbs_looper`) perturbs.
"""

from repro.engine.table import Catalog, Table
from repro.engine.expressions import (
    BinOp,
    Col,
    Expr,
    Lit,
    Not,
    and_all,
    col,
    lit,
)
from repro.engine.options import BACKENDS, ExecutionOptions
from repro.engine.backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    make_backend,
)
from repro.engine.random_table import RandomColumnSpec, RandomTableSpec
from repro.engine.mcdb import MonteCarloExecutor, MonteCarloResult

__all__ = [
    "BACKENDS",
    "ExecutionOptions",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "make_backend",
    "Catalog",
    "Table",
    "Expr",
    "Col",
    "Lit",
    "BinOp",
    "Not",
    "col",
    "lit",
    "and_all",
    "RandomTableSpec",
    "RandomColumnSpec",
    "MonteCarloExecutor",
    "MonteCarloResult",
]
