"""Tests for the OS interval table (buffer-id lookup)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryModelError
from repro.mem.intervals import IntervalTable


def test_lookup_hits_and_misses():
    table = IntervalTable()
    table.add(100, 200, owner=7)
    table.add(300, 400, owner=8)
    assert table.lookup(100) == 7
    assert table.lookup(199) == 7
    assert table.lookup(200) is None
    assert table.lookup(350) == 8
    assert table.lookup(50) is None


def test_overlap_rejected():
    table = IntervalTable()
    table.add(100, 200, owner=1)
    for base, end in ((150, 250), (50, 150), (100, 200), (120, 180), (0, 500)):
        with pytest.raises(MemoryModelError):
            table.add(base, end, owner=2)


def test_adjacent_intervals_allowed():
    table = IntervalTable()
    table.add(100, 200, owner=1)
    table.add(200, 300, owner=2)
    assert table.lookup(199) == 1
    assert table.lookup(200) == 2


def test_empty_interval_rejected():
    table = IntervalTable()
    with pytest.raises(MemoryModelError):
        table.add(100, 100, owner=1)


def test_remove_interval():
    table = IntervalTable()
    table.add(100, 200, owner=1)
    table.remove(100)
    assert table.lookup(150) is None
    with pytest.raises(MemoryModelError):
        table.remove(100)


def test_clear():
    table = IntervalTable()
    table.add(0, 10, owner=1)
    table.clear()
    assert len(table) == 0
    assert table.lookup(5) is None


def test_iteration_is_address_ordered():
    table = IntervalTable()
    table.add(300, 400, owner=3)
    table.add(100, 200, owner=1)
    table.add(200, 300, owner=2)
    assert [owner for _b, _e, owner in table] == [1, 2, 3]


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 20)), max_size=30))
def test_property_lookup_matches_linear_scan(spec):
    """Whatever subset of intervals gets inserted, lookup == linear scan."""
    table = IntervalTable()
    accepted = []
    for i, (base, length) in enumerate(spec):
        base, end = base * 100, base * 100 + length * 5
        try:
            table.add(base, end, owner=i + 1)
            accepted.append((base, end, i + 1))
        except MemoryModelError:
            pass
    for addr in range(0, 5200, 37):
        expected = None
        for base, end, owner in accepted:
            if base <= addr < end:
                expected = owner
                break
        assert table.lookup(addr) == expected


def test_lookup_many_matches_scalar_lookup():
    import numpy as np

    table = IntervalTable()
    table.add(100, 200, owner=3)
    table.add(400, 420, owner=5)
    addrs = np.array([0, 99, 100, 199, 200, 399, 400, 419, 420, 10_000])
    got = table.lookup_many(addrs)
    expected = [table.lookup(int(a)) for a in addrs]
    assert [None if g == -1 else int(g) for g in got.tolist()] == expected


def test_lookup_many_empty_table():
    import numpy as np

    table = IntervalTable()
    assert (table.lookup_many(np.array([1, 2, 3])) == -1).all()


@pytest.mark.parametrize("base,end", [
    (-4096, 0), (-1, 64), (2**63, 2**63 + 4096), (2**63 - 64, 2**63),
])
def test_bounds_outside_int64_addresses_rejected(base, end):
    """Addresses are non-negative and the compiled engine binds the
    table as int64, so both engines would disagree on such a bound."""
    table = IntervalTable()
    with pytest.raises(MemoryModelError, match="2\\*\\*63"):
        table.add(base, end, owner=3)
    assert len(table) == 0 and table.version == 0
    table.add(2**63 - 64, 2**63 - 1, owner=3)
    assert table.lookup(2**63 - 2) == 3
