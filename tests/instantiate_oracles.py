"""The per-row delta merge the batched ``Instantiate._merge_delta``
replaced, kept as the oracle ``tests/test_instantiate_merge.py`` holds it
against.

:class:`PerRowMergeInstantiate` is ``Instantiate`` with the old
``_merge_delta``: every moved row matched against its previous window
with its own ``searchsorted`` and filled from its seed's stream with its
own ``values_at`` call.  Streams are pure functions of position, so both
must produce the same windows, bases, per-handle positions and
``instantiate_rows_computed``/``_reused`` counts.
"""

import numpy as np

from repro.engine.operators import Instantiate


class PerRowMergeInstantiate(Instantiate):
    """``Instantiate`` merging a delta refuel one row at a time."""

    def _merge_delta(self, context, handles, windows, bases, previous,
                     prev_rows):
        """Delta replenishment: copy overlap, gather only new positions.

        Rows whose handle is in ``context.stable_handles`` (see
        :class:`ExecutionContext`) materialize exactly the window the
        previous run recorded — their plan entry is the same object — so
        they carry over in one block copy per output and are never
        visited.  Each remaining row (every row, when the context names
        no stable handle) matches its new positions against the
        previously materialized ones with one ``searchsorted``; matched
        values are copied from the recorded windows and only the rest —
        everything past the seed's ``max_used`` — touch the streams.
        Rows past ``prev_rows`` were appended since the baseline run:
        their window values come from the streams (their handles are
        fresh, or — under a self-join — copied from the old row carrying
        the same handle).

        Returns the per-handle position vectors and the one shared
        position vector when every row materialized it, else ``None``
        (see :class:`_Materialization`).
        """
        if prev_rows and previous.shared_positions is not None \
                and not context.position_plan and not context.window_bases:
            shared = context.positions_for(int(handles[0]))
            if np.array_equal(shared, previous.shared_positions):
                return self._extend_shared(
                    context, handles, windows, bases, previous, prev_rows,
                    shared)
        names = [name for name, _ in self.outputs]
        prev_columns = [previous.columns[name] for name in names]
        windows = dict(zip(names, windows))
        stable = context.stable_handles
        moved = ~np.isin(handles, np.fromiter(stable, dtype=np.int64,
                                              count=len(stable)))
        moved[prev_rows:] = True
        kept = np.flatnonzero(~moved)
        positions_by_handle: dict[int, np.ndarray] = {}
        if kept.size:
            # An unchanged plan entry has the previous run's length, so
            # the old and new matrices are equally wide: the whole old
            # block lands with one contiguous copy and the visited rows
            # below overwrite theirs.
            for name, prev_values in zip(names, prev_columns):
                windows[name][:prev_rows] = prev_values
            bases[kept] = previous.bases[kept]
            positions_by_handle.update(previous.positions)
            context.instantiate_rows_reused += int(kept.size)
        for row in np.flatnonzero(moved).tolist():
            handle = int(handles[row])
            new_positions = context.positions_for(handle)
            positions_by_handle[handle] = new_positions
            bases[row] = new_positions[0]
            old_positions = previous.positions.get(handle)
            if old_positions is None:
                info = context.seeds[handle]
                context.instantiate_rows_computed += 1
                for (name, component) in self.outputs:
                    windows[name][row] = info.values_at(
                        new_positions, component)
                continue
            # The old rows are a prefix of the new ones (checked by the
            # caller), so an old row is its own baseline; an appended row
            # repeating an old handle copies from that handle's row.
            source = row if row < prev_rows else int(
                np.flatnonzero(previous.handles == handle)[0])
            overlap = min(old_positions.size, new_positions.size)
            if np.array_equal(new_positions[:overlap],
                              old_positions[:overlap]):
                # Untouched seed: its plan is unchanged except for width
                # padding, so the new window is a prefix extension (or
                # truncation) of the old one — copy the overlap and gather
                # only the contiguous fresh tail.
                if overlap < new_positions.size:
                    context.instantiate_rows_computed += 1
                else:
                    context.instantiate_rows_reused += 1
                for (name, component), prev_values in zip(self.outputs,
                                                          prev_columns):
                    target = windows[name][row]
                    target[:overlap] = prev_values[source][:overlap]
                    if overlap < new_positions.size:
                        target[overlap:] = context.seeds[handle].values_at(
                            new_positions[overlap:], component)
                continue
            index = np.searchsorted(old_positions, new_positions)
            index[index == old_positions.size] = 0  # clamp; masked below
            found = old_positions[index] == new_positions
            missing = np.nonzero(~found)[0]
            if missing.size:
                context.instantiate_rows_computed += 1
            else:
                context.instantiate_rows_reused += 1
            for (name, component), prev_values in zip(self.outputs,
                                                      prev_columns):
                target = windows[name][row]
                target[found] = prev_values[source][index[found]]
                if missing.size:
                    target[missing] = context.seeds[handle].values_at(
                        new_positions[missing], component)
        return positions_by_handle, None

