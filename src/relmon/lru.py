"""A small bounded least-recently-used map, shared by the engine's memo caches.

Keys must describe their value by content (category tables, distributor
and functor tables, caps), never by object identity, so an entry can only
be returned for an input that would compute the same value.
"""

from __future__ import annotations

from collections import OrderedDict


class LRUCache:
    """At most maxsize entries; the least recently used one is dropped first."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        try:
            value = self._entries[key]
        except KeyError:
            return default
        self._entries.move_to_end(key)
        return value

    def put(self, key, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)
