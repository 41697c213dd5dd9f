"""PreparedCache tests: keying, byte-capped LRU eviction, counters,
library pinning."""

import pytest

from repro.api.cache import (
    CacheStats,
    PreparedCache,
    _estimate_bytes,
)
from repro.api.config import FlowConfig
from repro.api.flow import Flow


def make_config(circuit="z4ml", method="gscale", **kw):
    return FlowConfig(circuit=circuit, method=method, **kw)


def payload(n_bytes):
    """A cacheable value whose estimated size tracks ``n_bytes``."""
    return b"x" * n_bytes


def test_miss_builds_once_then_hits():
    cache = PreparedCache()
    config = make_config()
    builds = []

    def build():
        builds.append(1)
        return payload(64)

    first = cache.prepared(config, build)
    second = cache.prepared(config, build)
    assert first is second
    assert builds == [1]
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.hit_rate == 0.5
    assert len(cache) == 1


def test_prepared_key_ignores_the_per_method_suffix():
    key = PreparedCache.prepared_key
    assert key(make_config(method="cvs")) == key(make_config(method="gscale"))
    assert key(make_config(max_iter=5)) == key(make_config(max_iter=500))
    assert key(make_config(circuit="x2")) != key(make_config(circuit="z4ml"))
    assert key(make_config(slack_factor=1.2)) != key(
        make_config(slack_factor=1.5)
    )
    assert key(make_config(rails=(5.0, 3.3))) != key(
        make_config(vdd_low=3.3)
    )


def test_byte_cap_evicts_oldest_first():
    size = _estimate_bytes(payload(1000))
    cache = PreparedCache(max_bytes=2 * size)
    configs = [make_config(circuit=c) for c in ("a", "b", "c")]
    for config in configs:
        cache.prepared(config, lambda: payload(1000))

    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.stats.bytes <= 2 * size
    # "a" was shed; "b" and "c" still answer without a rebuild.
    assert cache.prepared(configs[1], pytest.fail) == payload(1000)
    assert cache.prepared(configs[2], pytest.fail) == payload(1000)
    rebuilt = []
    cache.prepared(configs[0], lambda: rebuilt.append(1) or payload(1000))
    assert rebuilt == [1]


def test_lru_hit_refreshes_an_entry():
    size = _estimate_bytes(payload(1000))
    a, b, c = (make_config(circuit=x) for x in ("a", "b", "c"))

    lru = PreparedCache(max_bytes=2 * size)
    lru.prepared(a, lambda: payload(1000))
    lru.prepared(b, lambda: payload(1000))
    lru.prepared(a, pytest.fail)  # refresh a's lease
    lru.prepared(c, lambda: payload(1000))  # overflows: b dies, a lives
    assert lru.prepared(a, pytest.fail) == payload(1000)


def test_single_oversized_entry_survives_the_cap():
    cache = PreparedCache(max_bytes=8)
    config = make_config()
    cache.prepared(config, lambda: payload(4096))
    assert len(cache) == 1
    assert cache.prepared(config, pytest.fail) == payload(4096)


def test_byte_cap_charges_the_scale_record():
    # The first scale of a cached circuit attaches its scale record,
    # which its pickle leaves out.  The cap below holds two unscaled
    # circuits but not two scaled ones, so the next hit or insert must
    # size a scaled circuit again and shed.
    configs = [make_config(circuit=c) for c in ("z4ml", "x2")]
    library = configs[0].build_library()
    sizes, records = [], []
    for config in configs:
        probe = Flow(config, library=library).prepare()
        sizes.append(_estimate_bytes(probe))
        Flow(config, library=library).run(prepared=probe)
        records.append(_estimate_bytes(probe.scale_baseline.sized_parts()))
        assert _estimate_bytes(probe) == sizes[-1]  # pickle unchanged
    cache = PreparedCache(max_bytes=sum(sizes))
    a, b = (Flow(config, library=library, cache=cache) for config in configs)
    held = a.prepare(), b.prepare()
    assert len(cache) == 2 and cache.stats.bytes == sum(sizes)

    a.run(prepared=held[0])
    assert a.prepare() is held[0]  # a hit that finds the record
    assert cache.stats.evictions == 1
    assert cache.stats.bytes == sizes[0] + records[0]
    assert a.prepare() is held[0]  # sized once per record
    assert cache.stats.bytes == sizes[0] + records[0]

    cache.clear()
    a.run(prepared=a.prepare())
    b.prepare()  # an insert finds the other entry's record
    assert cache.stats.evictions == 2
    assert len(cache) == 1
    assert cache.stats.bytes == sizes[1]


def test_explicit_evict_is_not_counted_as_pressure():
    cache = PreparedCache()
    config = make_config()
    cache.prepared(config, lambda: payload(16))
    assert cache.evict_prepared(config) is True
    assert cache.evict_prepared(config) is False
    assert cache.stats.evictions == 0
    assert cache.stats.bytes == 0
    assert len(cache) == 0


def test_library_is_built_once_and_pinned():
    cache = PreparedCache(max_bytes=1)  # cap applies to prepared only
    first = cache.library((4.3,))
    second = cache.library((4.3,))
    assert first is second
    assert cache.stats.library_misses == 1
    assert cache.stats.library_hits == 1
    library, table = first
    assert library is not None and table is not None
    # A config-derived rail key resolves to the same pinned pair.
    assert cache.library(make_config(vdd_low=4.3).rail_key) is first


def test_clear_drops_entries_but_keeps_counters():
    cache = PreparedCache()
    cache.prepared(make_config(), lambda: payload(32))
    cache.library((4.3,))
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.bytes == 0
    assert cache.stats.misses == 1
    assert cache.stats.library_misses == 1
    cache.library((4.3,))
    assert cache.stats.library_misses == 2  # really gone


def test_stats_fold_across_workers():
    total = CacheStats()
    total.add({"hits": 3, "misses": 1, "evictions": 2, "bytes": 100})
    total.add({"hits": 1, "library_hits": 5, "entries": 2, "bytes": 50})
    assert total.hits == 4
    assert total.misses == 1
    assert total.evictions == 2
    assert total.library_hits == 5
    assert total.entries == 2
    assert total.bytes == 150
    assert total.as_dict()["hits"] == 4


def test_unbounded_cache_never_sizes_entries(monkeypatch):
    # With no byte cap there is nothing to evict, so the (pickle-based)
    # size estimate must never run -- it is the dominant insert cost for
    # large prepared circuits.
    import repro.api.cache as cache_mod

    def boom(value):
        raise AssertionError("unbounded cache must not pickle entries")

    monkeypatch.setattr(cache_mod, "_estimate_bytes", boom)
    cache = PreparedCache(max_bytes=None)
    cache.prepared(make_config(), lambda: payload(4096))
    assert cache.stats.bytes == 0
    assert len(cache) == 1
