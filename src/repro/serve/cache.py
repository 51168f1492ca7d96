"""Bounded rendered-insight cache with exact stamp invalidation.

The cache stores fully rendered JSON responses keyed by
``(user_id, question, params)`` together with a **validation token**.
The serving tier uses the user's cell stamp vector — ``(time, model_fp,
revision)`` per cell at render time — and serves a hit only after the
stored vector equals the *current* one, so staleness detection is
exact, not a TTL guess.  ``model_fp`` alone is not enough: a user who
re-runs ``create_session`` while the models stay the same rewrites
every cell under the same fingerprints.  The store's per-cell
``revision`` stamp strictly increases on every rewrite, so any entry
rendered before a rewrite fails validation on its next lookup.  That
validation read is one indexed primary-key scan (``temporal_inputs`` is
``PRIMARY KEY (user_id, time)``) versus the ~15–25 queries of a full
bundle render — the serving tier's whole speedup lives in that ratio.

Entries can also be dropped eagerly (:meth:`invalidate_cells`) when the
refresh orchestrator reports which cells it rewrote, turning the first
post-refresh request into a clean miss instead of a validate-then-miss.
Eager invalidation is an optimisation only — correctness never depends
on it, because every hit re-validates.

Thread-safe; the server's executor threads share one instance.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["CacheStats", "InsightCache"]

#: key of one rendered response: (user_id, question-or-"bundle", params)
CacheKey = tuple


class CacheStats:
    """Monotonic counters (reads under the cache lock, so consistent)."""

    __slots__ = ("hits", "misses", "stale", "evicted", "invalidated")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.evicted = 0
        self.invalidated = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class InsightCache:
    """LRU cache of rendered responses, validated by a stamp vector.

    Parameters
    ----------
    max_entries:
        Hard bound on resident entries; least-recently-used entries are
        evicted past it.  Rendered bundles are a few KB, so the default
        comfortably serves ~100k hot users in well under a GB.
    """

    def __init__(self, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        #: key -> (validation token, rendered payload)
        self._entries: OrderedDict[CacheKey, tuple[tuple, Any]] = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def fingerprint_vector(ledger: dict[int, str]) -> tuple:
        """Canonical, hashable form of a ``{time: model_fp}`` ledger
        slice, usable as a validation token where fingerprints alone
        identify the content (the server validates against the stricter
        cell stamps, see :meth:`repro.db.prepared.PreparedQueries.
        cell_stamps`)."""
        return tuple(sorted(ledger.items()))

    def get(self, key: CacheKey, current_fps: tuple) -> Any | None:
        """The cached payload, iff it was rendered under ``current_fps``.

        ``current_fps`` must be the *caller's fresh read* of the
        validation token (the server's cell stamp vector) — the
        comparison against it is the exact-invalidation step.  A
        mismatch drops the entry and reads as a miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            stored_fps, payload = entry
            if stored_fps != current_fps:
                # rendered under an older model state: stale, evict now
                del self._entries[key]
                self.stats.stale += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return payload

    def put(self, key: CacheKey, fps: tuple, payload: Any) -> None:
        """Store ``payload`` rendered under validation token ``fps``."""
        with self._lock:
            self._entries[key] = (fps, payload)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evicted += 1

    # -------------------------------------------------- eager invalidation

    def invalidate_user(self, user_id: Hashable) -> int:
        """Drop every entry of one user; returns the count dropped.

        User ids are compared as strings: cache keys carry the user id
        parsed from query params (always ``str``), while refresh-side
        callers report ids in whatever type their source used (CSV
        feeds and orchestrator reports produce ints) — an exact-type
        comparison silently invalidated nothing for those callers.
        """
        user = str(user_id)
        with self._lock:
            doomed = [k for k in self._entries if str(k[0]) == user]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidated += len(doomed)
            return len(doomed)

    def invalidate_cells(self, cells) -> int:
        """Drop the entries of every user appearing in ``cells``.

        ``cells`` is an iterable of ``(user_id, time)`` — the refresh
        orchestrator's per-epoch recompute report.  Invalidation is
        per-user (not per-time) because a rendered bundle mixes all of
        the user's time points, and user ids compare as strings for the
        same reason as :meth:`invalidate_user`.
        """
        users = {str(user) for user, _time in cells}
        with self._lock:
            doomed = [k for k in self._entries if str(k[0]) in users]
            for key in doomed:
                del self._entries[key]
            self.stats.invalidated += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
