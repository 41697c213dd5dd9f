"""The plane-by-plane equality check of flat snapshots.

A module at the tests root, so tests in any folder can import it.
"""

from __future__ import annotations

import numpy as np

from repro.netlist.flat import FlatNetwork


def assert_planes_equal(flat, fresh):
    """Every plane of ``flat`` equals the fresh build's."""
    skip = {
        "network",
        "rate_cache",
        "reach_cache",
    }
    for plane in FlatNetwork.__slots__:
        if plane in skip:
            continue
        got, want = getattr(flat, plane), getattr(fresh, plane)
        if plane == "by_depth":
            assert len(got) == len(want)
            assert all(map(np.array_equal, got, want))
        elif isinstance(want, np.ndarray):
            assert np.array_equal(got, want), plane
        else:
            assert got == want, plane
    assert flat.reach() == fresh.reach()
