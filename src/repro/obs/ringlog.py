"""Bounded logs: keep the newest entries, count all of them."""

from __future__ import annotations

from collections import deque


LOG_LIMIT = 512
"""Default number of entries a :class:`RingLog` keeps."""


class RingLog:
    """The newest ``limit`` entries of a log, plus a running ``total``.

    A log that grows per call is a memory leak dressed up as an audit
    trail; counts read ``total``, which never depends on what the ring
    still holds.
    """

    __snapshot__ = "auto"

    def __init__(self, limit=LOG_LIMIT):
        self._entries = deque(maxlen=int(limit))
        self.total = 0

    @property
    def limit(self):
        return self._entries.maxlen

    @limit.setter
    def limit(self, value):
        self._entries = deque(self._entries, maxlen=int(value))

    @property
    def dropped(self):
        """Entries that fell off the old end."""
        return self.total - len(self._entries)

    def append(self, entry):
        self._entries.append(entry)
        self.total += 1

    def __iter__(self):
        return iter(self._entries)

    def __len__(self):
        return len(self._entries)
