"""One keyed cache for the flow's expensive, reusable artifacts.

Three things dominate a cold flow run and are pure functions of a few
config fields, so they are worth keeping hot across runs:

* the characterized **library** + its :class:`MatchTable` (keyed by the
  rail set);
* the **prepared circuit** -- the optimize / map / constrain prefix
  (keyed by circuit, rail set, slack factor, and the preparation
  options).

Historically every consumer grew its own ad-hoc dict (the campaign
workers' module-level caches, every script's locals).  They collapse
into :class:`PreparedCache`: one keyed, LRU-evicting,
hit/miss-counted cache that :meth:`Flow.prepare()
<repro.api.flow.Flow.prepare>` consults when constructed with
``cache=``, the campaign workers share per process, and the serving
daemon (:mod:`repro.serve`) keeps hot across requests behind a memory
cap.

Eviction applies to prepared circuits only (libraries are few and
small; they stay pinned until :meth:`PreparedCache.clear`).  Entry
sizes are estimated from the pickled representation -- measured on
insert, cached on the entry, and only when a byte cap is actually
active (an unbounded cache never pays the pickle) -- so the
``max_bytes`` cap tracks what a worker would actually hold; the cap is
advisory for a single entry (the newest entry always stays, otherwise a
cache smaller than one circuit could never serve it).  A circuit's
scale record, attached by its first scale and left out of its pickle,
is charged at the next hit or insert, which then sheds.

The batch campaign keeps its historical memory profile by constructing
the cache with ``retain_prepared=False``: every group is dispatched
once per campaign, so the runner evicts each prepared circuit as soon
as its group is done.  The daemon flips retention on and lets LRU
eviction decide instead.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.api.config import FlowConfig
    from repro.api.flow import PreparedCircuit


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`PreparedCache`.

    ``hits`` / ``misses`` count prepared-circuit lookups, the cache's
    expensive section; ``library_hits`` / ``library_misses`` count the
    (library, match table) section.  ``bytes`` is the estimated size of
    the retained prepared circuits and their scale records.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    library_hits: int = 0
    library_misses: int = 0
    entries: int = 0
    bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "library_hits": self.library_hits,
            "library_misses": self.library_misses,
            "entries": self.entries,
            "bytes": self.bytes,
        }

    def add(self, other: dict[str, Any]) -> None:
        """Fold another cache's ``as_dict`` into this one (aggregation
        across the daemon's worker processes)."""
        self.hits += int(other.get("hits", 0))
        self.misses += int(other.get("misses", 0))
        self.evictions += int(other.get("evictions", 0))
        self.library_hits += int(other.get("library_hits", 0))
        self.library_misses += int(other.get("library_misses", 0))
        self.entries += int(other.get("entries", 0))
        self.bytes += int(other.get("bytes", 0))


def _estimate_bytes(value: Any) -> int:
    """A deterministic size estimate: the pickled representation.

    Pickling is what a prepared circuit costs to hold or ship, and it
    is stable across runs (unlike ``sys.getsizeof``, which ignores the
    object graph entirely).
    """
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 1 << 20  # unpicklable oddity: charge it 1 MiB


@dataclass
class _Entry:
    value: Any
    size: int = 0
    #: The :func:`_record_of` pair ``size`` was measured with.
    record: tuple | None = None


def _record_of(value: Any) -> tuple | None:
    """``(scale record, its CVS point)`` of ``value``, or ``None``."""
    record = getattr(value, "scale_baseline", None)
    return None if record is None else (record, record.cvs)


@dataclass
class PreparedCache:
    """Keyed cache of built libraries and prepared circuits.

    ``max_bytes`` caps the estimated memory of *retained prepared
    circuits* (``None`` = unbounded), shedding the least recently used
    first; ``retain_prepared=False``
    disables cross-call retention of prepared circuits entirely -- the
    consumer evicts explicitly (the batch campaign's one-shot groups).

    Not thread-safe: each campaign worker process and the daemon's
    workers hold their own instance.
    """

    max_bytes: int | None = None
    retain_prepared: bool = True
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._libraries: dict[tuple[float, ...], tuple[Any, Any]] = {}
        # Least recently used first.
        self._prepared: OrderedDict[Any, _Entry] = OrderedDict()

    # -- libraries ---------------------------------------------------

    def library(self, rail_key: tuple[float, ...]) -> tuple[Any, Any]:
        """The (library, match table) pair for one rail set.

        ``rail_key`` follows the campaign convention: the full ordered
        rail set for an MSV run, ``(vdd_low,)`` for classic dual-Vdd.
        Built on first use, pinned until :meth:`clear`.
        """
        rail_key = tuple(float(v) for v in rail_key)
        pair = self._libraries.get(rail_key)
        if pair is not None:
            self.stats.library_hits += 1
            return pair
        self.stats.library_misses += 1
        from repro.library.compass import build_compass_library
        from repro.mapping.match import MatchTable

        if len(rail_key) == 1:
            library = build_compass_library(vdd_low=rail_key[0])
        else:
            library = build_compass_library(rails=rail_key)
        pair = (library, MatchTable(library))
        self._libraries[rail_key] = pair
        return pair

    # -- prepared circuits -------------------------------------------

    @staticmethod
    def prepared_key(config: FlowConfig) -> tuple:
        """What a prepared circuit is keyed on: everything the
        optimize/map/constrain prefix depends on (and nothing the
        per-method suffix varies)."""
        from dataclasses import asdict

        return (
            config.circuit,
            config.rail_key,
            config.slack_factor,
            tuple(sorted(asdict(config.options).items())),
        )

    def prepared(
        self,
        config: FlowConfig,
        build: Callable[[], PreparedCircuit],
    ) -> PreparedCircuit:
        """The prepared circuit for ``config``, building on a miss.

        Sizing is lazy: an unbounded cache (``max_bytes=None``, the
        campaign workers and plain flows) never pickles the value, so
        large generated circuits skip the serialize-per-insert tax
        entirely.  A byte-capped cache (the daemon) measures the entry
        on insert and keeps the number on the entry; every hit and
        insert measures again the entries whose scale record changed.
        """
        key = self.prepared_key(config)
        entry = self._prepared.get(key)
        if entry is not None:
            self.stats.hits += 1
            self._prepared.move_to_end(key)
            self._shed(protect=key)
            return entry.value
        self.stats.misses += 1
        entry = _Entry(value=build())
        self._prepared[key] = entry
        self.stats.entries = len(self._prepared)
        if self.max_bytes is not None:
            self._measure(entry)
        self._shed(protect=key)
        return entry.value

    def _measure(self, entry: _Entry) -> None:
        """Size ``entry``, its scale record included; fix the total."""
        entry.record = _record_of(entry.value)
        size = _estimate_bytes(entry.value)
        if entry.record is not None:
            size += _estimate_bytes(entry.record[0].sized_parts())
        self.stats.bytes += size - entry.size
        entry.size = size

    def evict_prepared(self, config: FlowConfig) -> bool:
        """Explicitly drop one prepared circuit (the batch runner's
        group-is-done hook).  Returns whether it was present."""
        return self._pop(self.prepared_key(config), count_eviction=False)

    def _pop(self, key: Any, count_eviction: bool) -> bool:
        entry = self._prepared.pop(key, None)
        if entry is None:
            return False
        self.stats.bytes -= entry.size
        self.stats.entries = len(self._prepared)
        if count_eviction:
            self.stats.evictions += 1
        return True

    def _shed(self, protect: Any) -> None:
        """Evict under the byte cap; never evicts ``protect`` (the
        entry just inserted or hit -- the cap is advisory for a lone
        entry bigger than the whole budget).  Entries whose scale
        record changed since they were sized are sized again first."""
        if self.max_bytes is None:
            return
        for entry in self._prepared.values():
            if _record_of(entry.value) != entry.record:
                self._measure(entry)
        while self.stats.bytes > self.max_bytes and len(self._prepared) > 1:
            key = next(iter(self._prepared))
            if key == protect:
                # Moves it behind the other candidates.
                self._prepared.move_to_end(key)
                continue
            self._pop(key, count_eviction=True)

    # -- maintenance -------------------------------------------------

    def clear(self) -> None:
        """Drop everything (libraries included); counters survive."""
        for key in list(self._prepared):
            self._pop(key, count_eviction=False)
        self._libraries.clear()

    def __len__(self) -> int:
        return len(self._prepared)


__all__ = [
    "CacheStats",
    "PreparedCache",
]
