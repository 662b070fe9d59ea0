"""Seed handles and per-seed stream access.

Every uncertain value in a running query traces back to a *TS-seed handle*:
a stable 64-bit identifier for one VG-function invocation site (one
parameter row of one ``Seed`` operator).  Handles are pure functions of the
plan and the data — ``(seed-node label, parameter-row index)`` — so
re-running a plan during replenishment (Sec. 9) reproduces the same handles
and therefore the same streams.

:class:`SeedInfo` is the execution-time registry entry for a handle: it
owns the (lazily built) deterministic stream and answers point and range
value lookups for any component of the VG output block.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.vg.base import BlockStream, VGFunction
from repro.vg.streams import RandomStream

__all__ = ["seed_handle", "seed_handles", "derive_prng_seed",
           "derive_prng_seeds", "SeedInfo"]

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
    arity: int = 1
    _scalar_stream: RandomStream | None = field(default=None, repr=False)
    _block_stream: BlockStream | None = field(default=None, repr=False)

    def value(self, position: int, component: int = 0) -> float:
        if self.arity == 1:
            return self._scalar().value_at(position)
        return self._block().component_value_at(position, component)

    def values_range(self, start: int, stop: int, component: int = 0) -> np.ndarray:
        """Contiguous stream values ``[start, stop)`` for one component."""
        if self.arity == 1:
            return self._scalar().range_values(start, stop)
        return self._block().component_values_at(
            np.arange(start, stop, dtype=np.int64), component)

    def values_at(self, positions: Sequence[int], component: int = 0) -> np.ndarray:
        if self.arity == 1:
            return self._scalar().values_at(np.asarray(positions, dtype=np.int64))
        return self._block().component_values_at(
            np.asarray(positions, dtype=np.int64), component)

    def _scalar(self) -> RandomStream:
        if self._scalar_stream is None:
            # Params were validated when this SeedInfo was registered
            # (once per distinct signature), so the stream skips it.
            self._scalar_stream = self.vg.make_stream(
                self.prng_seed, self.params, validate=False)
        return self._scalar_stream

    def _block(self) -> BlockStream:
        if self._block_stream is None:
            self._block_stream = self.vg.make_block_stream(
                self.prng_seed, self.params, validate=False)
        return self._block_stream
