"""The per-row delta merge the batched ``Instantiate._merge_delta``
replaced, kept as the oracle ``tests/test_instantiate_merge.py`` holds it
against.

:class:`PerRowMergeInstantiate` is ``Instantiate`` with a row-at-a-time
``_merge_delta``: every row its run keeps — all of them, or under a
refuel's handle filter just the re-planned seeds' rows — is matched
against the window its handle materialized last with its own
``searchsorted`` and filled from its seed's stream by the stream oracle
(``stream_oracle.stream_values``).  Streams are pure functions of
position, so both must produce the same runs, offsets, bases, recorded
per-handle baselines and ``instantiate_rows_computed``/``_reused``
counts.
"""

import numpy as np
from stream_oracle import stream_values

from repro.engine.operators import Instantiate, _Runs


def _final_run(positions):
    """Slot where the ascending ``positions`` start their last contiguous
    run, walked back one position at a time."""
    slot = positions.size - 1
    while slot and positions[slot - 1] == positions[slot] - 1:
        slot -= 1
    return slot


class PerRowMergeInstantiate(Instantiate):
    """``Instantiate`` merging a delta run one row at a time."""

    def _merge_delta(self, context, handles, previous):
        """Delta replenishment: copy what the baseline holds, gather only
        new positions.

        Each row matches its new positions against the ones its handle
        materialized last with one ``searchsorted``; matched values are
        copied from the baseline and only the rest touch the streams.
        """
        runs, bases, finals = [], [], []
        positions_by_handle: dict[int, np.ndarray] = {}
        for handle in handles.tolist():
            new_positions = context.positions_for(handle)
            positions_by_handle[handle] = new_positions
            bases.append(new_positions[0])
            finals.append(_final_run(new_positions))
            info = context.seeds[handle]
            values = np.empty((len(self.outputs), new_positions.size))
            runs.append(values)
            old_positions = previous.positions[handle]
            index = np.searchsorted(old_positions, new_positions)
            index[index == old_positions.size] = 0  # clamp; masked below
            found = old_positions[index] == new_positions
            missing = np.flatnonzero(~found)
            if missing.size:
                context.instantiate_rows_computed += 1
            else:
                context.instantiate_rows_reused += 1
            values[:, found] = previous.values[handle][:, index[found]]
            for slot, (_, component) in enumerate(self.outputs):
                if missing.size:
                    values[slot, missing] = stream_values(
                        info.prng_seed, info.vg, info.params,
                        new_positions[missing], component)
        offsets = np.zeros(len(runs) + 1, dtype=np.int64)
        np.cumsum([run.shape[1] for run in runs], out=offsets[1:])
        columns = (np.concatenate(runs, axis=1) if runs
                   else np.empty((len(self.outputs), 0)))
        return _Runs(positions_by_handle, columns, offsets,
                     np.array(bases, dtype=np.int64),
                     np.array(finals, dtype=np.int64))
