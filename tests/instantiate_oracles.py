"""The per-row delta merge the batched ``Instantiate._merge_delta``
replaced, kept as the oracle ``tests/test_instantiate_merge.py`` holds it
against.

:class:`PerRowMergeInstantiate` is ``Instantiate`` with a row-at-a-time
``_merge_delta``: every row outside the refuel set copies its previous
run, and every other row is matched against its previous window with its
own ``searchsorted`` and filled from its seed's stream by the stream
oracle (``stream_oracle.stream_values``).  Streams are pure functions of position, so both must
produce the same runs, offsets, bases, per-handle positions and
``instantiate_rows_computed``/``_reused`` counts.
"""

import numpy as np
from stream_oracle import stream_values

from repro.engine.operators import Instantiate, _Materialization


class PerRowMergeInstantiate(Instantiate):
    """``Instantiate`` merging a delta refuel one row at a time."""

    def _merge_delta(self, context, handles, previous):
        """Delta replenishment: copy overlap, gather only new positions.

        A row of a handle outside ``context.refuel_handles`` copies the
        run the previous run recorded for it.  Each remaining row (every
        row, when the context names no refuel set) matches its new
        positions against the previously materialized ones with one
        ``searchsorted``; matched values are copied from the recorded
        runs and only the rest touch the streams.
        """
        refuel = context.refuel_handles
        old = previous.offsets
        runs, bases = [], []
        positions_by_handle: dict[int, np.ndarray] = {}
        for row, handle in enumerate(handles.tolist()):
            if refuel is not None and handle not in refuel:
                runs.append(previous.columns[:, old[row]:old[row + 1]])
                bases.append(previous.bases[row])
                positions_by_handle[handle] = previous.positions[handle]
                context.instantiate_rows_reused += 1
                continue
            new_positions = context.positions_for(handle)
            positions_by_handle[handle] = new_positions
            bases.append(new_positions[0])
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
            origin = previous.columns[:, old[row]:old[row + 1]]
            values[:, found] = origin[:, index[found]]
            for slot, (_, component) in enumerate(self.outputs):
                if missing.size:
                    values[slot, missing] = stream_values(
                        info.prng_seed, info.vg, info.params,
                        new_positions[missing], component)
        offsets = np.zeros(len(runs) + 1, dtype=np.int64)
        np.cumsum([run.shape[1] for run in runs], out=offsets[1:])
        columns = (np.concatenate(runs, axis=1) if runs
                   else np.empty((len(self.outputs), 0)))
        return _Materialization(handles, positions_by_handle, columns,
                                offsets, np.array(bases, dtype=np.int64))
