"""Thread-safe factorization cache: LRU, byte budget, single-flight.

The cache holds factored solvers keyed by :func:`~repro.service.fingerprint.factor_key`
so a request stream pays each matrix's ``O(M^3)`` factor cost once and
every later right-hand side only the ``O(M^2)`` solve cost — the
amortization the paper's ARD split exists to enable.

Three properties matter under concurrency:

**Single-flight.**  When many threads miss on the same key at once,
exactly one (the *leader*) builds the factorization; the rest wait on
its completion event and share the result.  A failed build propagates
the leader's exception to every waiter — retrying an already-failing
factorization from each waiter would multiply the damage, not fix it.

**Byte budget.**  Every entry is charged its factorization's ``nbytes``
(all factorization classes expose it) once, at insert; inserting past
``max_bytes`` evicts least-recently-used entries until the budget holds
again.  A hit only counts and refreshes the entry: no factorization
that :func:`~repro.core.api.factor` builds changes size after it is
built (an ARD factorization's rank states are fixed at factor time).
A single entry larger than the whole budget is still admitted
(evicting everything else) — rejecting it would livelock the request
that needs it.

**Honest counters.**  ``hits`` counts requests served without building
(including single-flight waiters), ``misses`` counts builds, and
``evictions``/``bytes`` track the budget.  :meth:`FactorizationCache.stats`
snapshots them; the solver service merges this into its
:class:`repro.obs.MetricsRegistry` snapshot.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Any, Callable, Iterator

__all__ = ["FactorizationCache", "CacheStats"]

_DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@dataclasses.dataclass
class CacheStats:
    """Point-in-time snapshot of one cache's counters.

    ``hits`` includes single-flight waiters (requests that arrived
    during a build and shared its result without building); ``misses``
    counts actual factorizations performed.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    bytes: int
    max_bytes: int | None
    max_entries: int | None

    @property
    def hit_rate(self) -> float | None:
        """``hits / (hits + misses)``, or ``None`` before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else None

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict (JSON-serializable) form, including the rate."""
        out = dataclasses.asdict(self)
        out["hit_rate"] = self.hit_rate
        return out


class _InFlight:
    """One in-progress build: waiters block on ``event``."""

    __slots__ = ("event", "fact", "exc")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.fact: Any = None
        self.exc: BaseException | None = None


def _entry_nbytes(fact: Any) -> int:
    """Byte charge for a cached factorization."""
    nbytes = getattr(fact, "nbytes", None)
    return int(nbytes) if nbytes is not None else 0


class FactorizationCache:
    """LRU cache of factorization objects with a byte-size budget.

    Parameters
    ----------
    max_bytes:
        Eviction budget over the entries' ``nbytes`` (default 256 MiB);
        ``None`` disables byte-based eviction.
    max_entries:
        Optional cap on the entry count (handy for deterministic LRU
        tests); ``None`` disables it.

    Example
    -------
    >>> from repro.core.api import factor
    >>> from repro.service import FactorizationCache, factor_key
    >>> from repro.workloads import poisson_block_system
    >>> A, _ = poisson_block_system(8, 2)
    >>> cache = FactorizationCache()
    >>> key = factor_key(A, "thomas", 1)
    >>> f1, hit1 = cache.get_or_create(key, lambda: factor(A, method="thomas"))
    >>> f2, hit2 = cache.get_or_create(key, lambda: factor(A, method="thomas"))
    >>> (hit1, hit2, f1 is f2)
    (False, True, True)
    """

    def __init__(self, max_bytes: int | None = _DEFAULT_MAX_BYTES,
                 max_entries: int | None = None):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, tuple[Any, int]] = OrderedDict()
        self._inflight: dict[str, _InFlight] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- lookup ------------------------------------------------------------

    def get(self, key: str) -> Any | None:
        """The cached factorization for ``key`` (refreshing its LRU
        position), or ``None``.  Counts a hit or a miss."""
        with self._lock:
            if key not in self._entries:
                self._misses += 1
                return None
            return self._hit_locked(key)

    def get_or_create(self, key: str,
                      build: Callable[[], Any]) -> tuple[Any, bool]:
        """Return ``(factorization, hit)``, building at most once per key.

        On a miss the calling thread becomes the build leader; threads
        that miss on the same key while the build is in progress wait
        for the leader instead of building again (single-flight) and
        count as hits.  If the leader's ``build()`` raises, every
        waiter re-raises that exception.
        """
        while True:
            with self._lock:
                if key in self._entries:
                    return self._hit_locked(key), True
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _InFlight()
                    leader = True
                else:
                    leader = False
            if leader:
                try:
                    fact = build()
                except BaseException as exc:
                    with self._lock:
                        flight.exc = exc
                        del self._inflight[key]
                    flight.event.set()
                    raise
                with self._lock:
                    flight.fact = fact
                    del self._inflight[key]
                    self._misses += 1
                    self._insert_locked(key, fact)
                flight.event.set()
                return fact, False
            flight.event.wait()
            if flight.exc is not None:
                raise flight.exc
            if flight.fact is not None:
                with self._lock:
                    if key in self._entries:
                        self._hit_locked(key)
                    else:
                        self._hits += 1
                return flight.fact, True
            # Leader vanished without result or exception (evicted
            # between set() and our wakeup is impossible — fact is kept
            # on the flight record — so this is unreachable), but loop
            # defensively rather than return None.

    # -- mutation ----------------------------------------------------------

    def put(self, key: str, fact: Any) -> None:
        """Insert (or replace) an entry, applying the eviction budget."""
        with self._lock:
            self._insert_locked(key, fact)

    def evict(self, key: str) -> bool:
        """Drop one entry; ``True`` if it was present.  Counts as an
        (explicit) eviction."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry[1]
            self._evictions += 1
            return True

    def clear(self) -> int:
        """Drop every entry; returns the number removed."""
        with self._lock:
            n = len(self._entries)
            self._evictions += n
            self._entries.clear()
            self._bytes = 0
            return n

    def _insert_locked(self, key: str, fact: Any) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old[1]
        nbytes = _entry_nbytes(fact)
        self._entries[key] = (fact, nbytes)
        self._bytes += nbytes
        self._evict_locked()

    def _hit_locked(self, key: str) -> Any:
        """Count a hit on a present ``key`` and make it most recent."""
        self._entries.move_to_end(key)
        self._hits += 1
        return self._entries[key][0]

    def _evict_locked(self) -> None:
        """Evict least-recently-used entries until the budget holds,
        never the most recent one."""
        while len(self._entries) > 1 and (
            (self.max_bytes is not None and self._bytes > self.max_bytes)
            or (self.max_entries is not None
                and len(self._entries) > self.max_entries)
        ):
            _, (_, dropped) = self._entries.popitem(last=False)
            self._bytes -= dropped
            self._evictions += 1

    # -- introspection -----------------------------------------------------

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> Iterator[str]:
        """Cached keys in LRU order (least recent first)."""
        with self._lock:
            return iter(list(self._entries))

    @property
    def nbytes(self) -> int:
        """Current total byte charge of all entries."""
        return self._bytes

    def stats(self) -> CacheStats:
        """Consistent snapshot of the cache counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                bytes=self._bytes,
                max_bytes=self.max_bytes,
                max_entries=self.max_entries,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (f"FactorizationCache(entries={s.entries}, bytes={s.bytes}, "
                f"hits={s.hits}, misses={s.misses}, evictions={s.evictions})")
