"""Seed handles and per-seed stream access.

Every uncertain value in a running query traces back to a *TS-seed handle*:
a stable 64-bit identifier for one VG-function invocation site (one
parameter row of one ``Seed`` operator).  Handles are pure functions of the
plan and the data — ``(seed-node label, parameter-row index)`` — so
re-running a plan during replenishment (Sec. 9) reproduces the same handles
and therefore the same streams.

:class:`SeedInfo` is a tail run's registry entry for a handle: it names
the handle's deterministic stream and reads it a chunk at a time
(:meth:`SeedInfo.chunk_blocks`).  A Monte Carlo run registers none: its
fill reads the rows' PRNG keys (:func:`derive_prng_seeds`) and parameter
matrix directly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.vg.base import VGFunction
from repro.vg.streams import draw_chunk

__all__ = ["seed_handle", "seed_handles", "handle_label_id",
           "derive_prng_seed", "derive_prng_seeds", "SeedInfo"]

# 20 label bits + 40 row bits = 60 bits, comfortably inside int64.
_LABEL_BITS = 20
_ROW_BITS = 40


def seed_handle(label_id: int, row_index: int) -> int:
    """Pack a seed-node label id and parameter-row index into one handle."""
    if not 0 <= label_id < (1 << _LABEL_BITS):
        raise ValueError(f"label id out of range: {label_id}")
    if not 0 <= row_index < (1 << _ROW_BITS):
        raise ValueError(f"row index out of range: {row_index}")
    return (label_id << _ROW_BITS) | row_index


def seed_handles(label_id: int, start: int, stop: int) -> np.ndarray:
    """:func:`seed_handle` of rows ``[start, stop)`` as one int64 vector."""
    if stop > start:
        seed_handle(label_id, start)
        seed_handle(label_id, stop - 1)
    return (label_id << _ROW_BITS) | np.arange(start, stop, dtype=np.int64)


def handle_label_id(handle: int) -> int:
    """The label id :func:`seed_handle` packed into ``handle``."""
    return handle >> _ROW_BITS


def label_id_of(label: str) -> int:
    """Stable 24-bit id for a seed-node label."""
    return zlib.crc32(label.encode("utf-8")) & ((1 << _LABEL_BITS) - 1)


def derive_prng_seed(base_seed: int, handle: int) -> int:
    """SplitMix64-style mixing of the session seed and a handle.

    Gives well-separated PRNG keys for nearby handles so that streams are
    effectively independent across seeds.
    """
    z = (base_seed * 0x9E3779B97F4A7C15 + handle + 0x9E3779B97F4A7C15) & (2**64 - 1)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
    return z ^ (z >> 31)


def derive_prng_seeds(base_seed: int, handles: np.ndarray) -> np.ndarray:
    """:func:`derive_prng_seed` over a handle vector, as ``uint64``.

    ``uint64`` array arithmetic wraps modulo 2**64, which is the scalar's
    ``& (2**64 - 1)`` after every step, so the keys are bit-equal.
    """
    gold = 0x9E3779B97F4A7C15
    z = np.asarray(handles).astype(np.uint64) + np.uint64(
        (base_seed * gold + gold) & (2**64 - 1))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@dataclass
class SeedInfo:
    """Registry entry for one TS-seed handle.

    This is the value-producing half of the paper's TS-seed (Sec. 6, items
    1-2): identifier plus the actual PRNG stream.  The *bookkeeping* half
    (materialized range, max used position, per-version assignment — items
    3-5) lives in :class:`repro.core.ts_seed.TSSeed`, which wraps this.
    """

    handle: int
    prng_seed: int
    vg: VGFunction
    params: tuple[float, ...]
    _chunk_memo: tuple[int, np.ndarray] | None = field(default=None,
                                                       repr=False)

    def chunk_blocks(self, chunk_index: int) -> np.ndarray:
        """One stream chunk as a ``(DEFAULT_CHUNK, arity)`` block matrix
        (:func:`~repro.vg.streams.draw_chunk`).

        The chunk drawn last is kept: a refuel's missing positions start
        in the chunk the previous refuel's window ended in, which that
        refuel drew already.
        """
        memo = self._chunk_memo
        if memo is not None and memo[0] == chunk_index:
            return memo[1]
        blocks = draw_chunk(self.prng_seed, self.vg, self.params,
                            chunk_index)
        self._chunk_memo = (chunk_index, blocks)
        return blocks
