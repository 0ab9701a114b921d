"""The one bounded memoization cache, and its PERF replay contract.

Coordinate descent re-scores the same neighbours over and over, the
attestation service sees the same reports again and again, and boot
regenerates the same keys from the same seeds.  :class:`Memo` is a
small bounded, thread-safe LRU map from a canonical, hashable key to a
computed value, with hit/miss/eviction accounting so callers can report
how much work the cache removed.

``None`` is a legal cached value — the explorers cache *infeasibility*
too, which is exactly the expensive repeated outcome on masked spaces —
so lookups go through :meth:`Memo.lookup`'s ``(found, value)`` pair
rather than a sentinel-default ``get``.

Replay contract (:meth:`Memo.get_or_build`): a miss builds the value
while recording the PERF counter delta of the build (:func:`record`)
and stores ``(value, delta)``; a hit merges that delta back into the
counters (:func:`replay`).  Counter totals are therefore identical
whether a value was built cold or served warm.  An entry built while
PERF was off recorded nothing, so it never serves a PERF-on lookup: it
is rebuilt while recording.  A recorded *empty* delta (uncounted
precomputation) replays as nothing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import nullcontext

from ..obs.perf import PERF
from ..obs.telemetry import TELEMETRY

#: Default capacity: comfortably above any library template's neighbour
#: churn while keeping worst-case memory at laptop scale.
DEFAULT_MAXSIZE = 65536


def record(build) -> tuple:
    """``(build(), delta)``: the PERF delta of the build, or ``None``
    when PERF is off."""
    if not PERF.enabled:
        return build(), None
    before = PERF.snapshot()
    value = build()
    return value, PERF.delta_since(before)


def replay(delta) -> None:
    """Merge a recorded PERF delta back into the counters."""
    if delta and PERF.enabled:
        PERF.merge(delta)


class Memo:
    """A bounded, thread-safe least-recently-used ``key -> value``
    cache."""

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_entries",
                 "_lock")

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def lookup(self, key) -> tuple:
        """``(True, value)`` on a hit — refreshing recency — else
        ``(False, None)``; counts the access either way."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
            return True, value

    def store(self, key, value) -> None:
        """Insert (or refresh) ``key``; evicts the least recently used
        entry when full."""
        with self._lock:
            entries = self._entries
            if key in entries:
                entries.move_to_end(key)
            entries[key] = value
            if len(entries) > self.maxsize:
                entries.popitem(last=False)
                self.evictions += 1

    def get_or_build(self, key, build, span: str = None):
        """The value for ``key`` under the replay contract, built by
        ``build()`` on a miss.  ``build`` runs without the lock held,
        so it may build through this memo too.  With telemetry on, a
        hit replays inside a span named ``span``, if given."""
        found, entry = self.lookup(key)
        if found and (entry[1] is not None or not PERF.enabled):
            with TELEMETRY.span(span) if span else nullcontext():
                replay(entry[1])
            return entry[0]
        value, delta = record(build)
        self.store(key, (value, delta))
        return value

    def stats(self) -> dict:
        return {"size": len(self._entries), "maxsize": self.maxsize,
                "hits": self.hits, "misses": self.misses,
                "evictions": self.evictions}
