"""The stream oracle: what position ``i`` of a stream *is*.

``stream_values`` reads stream positions with nothing of the engine's
stream layer but its chunk geometry: one freshly constructed generator
per chunk (:func:`repro.vg.streams.generator_for_chunk`, not the borrowed
per-thread one) and the VG's own ``sample_blocks``, so
:func:`~repro.vg.streams.draw_chunk` and the batched readers built on it
are held against an independent definition.
"""

import numpy as np

from repro.vg.streams import DEFAULT_CHUNK, generator_for_chunk

# Valid parameterizations covering *every* VG in the default registry
# (``test_vg_builtin`` fails when a new VG is registered without a case).
DETERMINISM_PARAMS = {
    "normal": (3.0, 4.0),
    "uniform": (-1.0, 5.0),
    "gamma": (2.5, 1.5),
    "inversegamma": (4.0, 1.0),
    "lognormal": (0.2, 0.4),
    "pareto": (4.0, 1.0),
    "poisson": (6.0,),
    "bernoulli": (0.3,),
    "discretechoice": (1.0, 0.2, 5.0, 0.8),
    "mixture": (0.4, 0.0, 1.0, 0.6, 10.0, 2.0),
    "multivariatenormal": (1.0, -2.0, 4.0, 1.2, 1.2, 9.0),
    "exponential": (1.5,),
    "weibull": (1.5, 2.0),
    "beta": (2.0, 3.0),
    "studentt": (5.0, 1.0, 2.0),
    "triangular": (0.0, 1.0, 2.0),
    "deterministic": (7.5,),
}


def stream_values(prng_seed, vg, params, positions, component=0):
    """Component ``component`` of the stream of ``vg`` with ``params``
    fueled by ``prng_seed``, at ``positions`` (any order, repeats
    allowed)."""
    positions = np.asarray(positions, dtype=np.int64)
    if np.any(positions < 0):
        raise IndexError("stream positions must be >= 0")
    out = np.empty(positions.shape)
    chunk_ids, offsets = divmod(positions, DEFAULT_CHUNK)
    for chunk_index in np.unique(chunk_ids).tolist():
        blocks = np.asarray(vg.sample_blocks(
            generator_for_chunk(prng_seed, chunk_index), params,
            DEFAULT_CHUNK), dtype=np.float64)
        assert blocks.shape[0] == DEFAULT_CHUNK, blocks.shape
        if blocks.ndim == 1:
            blocks = blocks[:, None]
        mask = chunk_ids == chunk_index
        out[mask] = blocks[offsets[mask], component]
    return out
