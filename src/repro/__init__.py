"""repro — a from-scratch reproduction of MCDB-R (VLDB 2010).

MCDB-R extends the Monte Carlo Database System with in-database risk
analysis: estimating an extreme quantile of a query-result distribution and
drawing (approximately independent) samples from the tail it defines, using
a Gibbs-cloning scheme integrated into tuple-bundle query processing.

Public layers
-------------
``repro.sql``
    SQL-ish surface: ``Session.execute`` on ``CREATE TABLE ... FOR EACH``
    and ``SELECT ... WITH RESULTDISTRIBUTION``.
``repro.core``
    The paper's contribution: tail sampling (Algorithms 1-3), the
    GibbsLooper operator, TS-seeds, and Appendix C parameter selection.
``repro.engine``
    The MCDB substrate: tables, plans, tuple bundles and the naive Monte
    Carlo executor used as the paper's baseline.
``repro.vg``
    Variable-generation functions and deterministic random streams.
``repro.risk``
    Risk measures (value-at-risk, expected shortfall) over tail samples.
``repro.workloads``
    Generators for the paper's example workloads (portfolio losses,
    salary inversion, TPC-H-like Appendix D data sets).

Execution policy
----------------
Both executors accept an :class:`~repro.engine.options.ExecutionOptions`
(also threaded down from ``Session(options=...)``)::

    from repro import ExecutionOptions
    from repro.sql import Session

    session = Session(base_seed=42, options=ExecutionOptions(n_jobs=4))

``n_jobs`` shards independent Monte Carlo repetitions across worker
processes.  Every setting produces bit-identical results for the same
``base_seed``; ``tests/test_engine_equivalence.py`` enforces the contract.
"""

from repro.engine.options import ExecutionOptions

__version__ = "1.1.0"

__all__ = ["ExecutionOptions", "__version__"]
