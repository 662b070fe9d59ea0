"""Leak oracle for ``/dev/shm``: no ``mcdbr-*`` segment may outlive a run.

The process backend ships the catalog by plain protocol-5 pickling and
creates no shared-memory segment.  The lifecycle tests and the end-to-end
benchmark still assert that none exists after a session closes, a worker
dies or a server stops, so a reintroduced segment that leaks fails them.
"""

from __future__ import annotations

import os

__all__ = ["SEGMENT_PREFIX", "leaked_segments"]

#: Name prefix of every shared-memory segment this package may create.
SEGMENT_PREFIX = "mcdbr-"


def leaked_segments() -> list[str]:
    """Names of every live ``mcdbr-*`` segment on this host (POSIX only).

    Returns ``[]`` where ``/dev/shm`` does not exist.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(name for name in entries
                  if name.startswith(SEGMENT_PREFIX))
