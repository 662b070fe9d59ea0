"""MCDB-R's contribution: tail sampling on query-result distributions.

This package holds everything Sections 3-9 and Appendices A-C of the paper
add on top of MCDB:

* :mod:`repro.core.model` — the block-independent vector model of
  Sec. 3.1 the samplers below run on.
* :mod:`repro.core.gibbs` — Algorithms 1 and 2 (systematic Gibbs sampler
  with rejection-based conditional generation).
* :mod:`repro.core.cloner` — Algorithm 3 (the cloning/bootstrapping tail
  sampler) over a pure block-independent vector model.
* :mod:`repro.core.params` — Appendix C parameter selection (MSRE theory,
  Theorem 1, budget selection).
* :mod:`repro.core.ts_seed` — TS-seed bookkeeping (Sec. 6).
* :mod:`repro.core.gibbs_tuple` — Gibbs tuples with lineage (Sec. 5).
* :mod:`repro.core.gibbs_looper` — the GibbsLooper operator (Sec. 7,
  Appendix A) with cloning, replenishment (Sec. 9) and Split-based joins on
  random attributes (Sec. 8).
"""

from repro.core.params import (
    TailParams,
    choose_parameters,
    choose_total_samples,
    msre,
    optimal_m,
    per_step_quantile,
)

__all__ = [
    "TailParams",
    "choose_parameters",
    "choose_total_samples",
    "msre",
    "optimal_m",
    "per_step_quantile",
]
