"""The table contract, checked once over every Table and every cache.

Every Table grows to the same entries whatever order they are asked in and
however many threads ask, and a step that raises leaves the entries before
it.  Every per-family cache holds TABLE_CACHE_SIZE families and rebuilds an
evicted one equal, and threads that ask table_cache for a new key at once
get one object.  Each table and cache is reached through its module
attribute at call time, so a monkeypatched one is the one tested.
"""

import sys
import threading
import time
from fractions import Fraction as F

import pytest

from sievedops import chebyshev, numerics, recurrence, semiclassical
from sievedops.chebyshev import TABLE_CACHE_SIZE, Table, table_cache
from sievedops.recurrence import SievedFamily, composed_q, sieved_monic
from sievedops.semiclassical import structure_pair_recursive

TOP = 90  # the highest entry every table is grown to

FAMILIES = [SievedFamily("first", F(3, 4), 3), SievedFamily("second", F(2, 7), 4)]

PER_FAMILY = [(recurrence, "_monic_table"), (recurrence, "_composed_table"),
              (semiclassical, "_pair_table"), (numerics, "_gamma_table")]


def module_table(name):
    """A fresh copy of a chebyshev module Table: its two starting entries and
    the step it holds."""
    def make():
        table = getattr(chebyshev, name)
        return Table(table[:2], table.step)

    return make


def family_table(module, name, fam):
    """A fresh Table of fam, made by the cache's own factory."""
    return lambda: getattr(module, name).__wrapped__(fam)


TABLES = {
    "t_hat": module_table("_T_TABLE"),
    "u_hat": module_table("_U_TABLE"),
    **{f"{name}-{fam.kind.value}": family_table(module, name, fam)
       for module, name in PER_FAMILY for fam in FAMILIES},
}

CACHES = [(semiclassical, "pearson_data"), (semiclassical, "_first_block"),
          *PER_FAMILY]


def serial(make) -> Table:
    table = make()
    table.grow(TOP)
    return table


@pytest.mark.parametrize("make", TABLES.values(), ids=TABLES.keys())
def test_entries_asked_highest_first_equal_the_in_order_build(make):
    table, in_order = make(), make()
    high = [table.grow(n) for n in (TOP, 3, 0)]
    in_order_entries = [in_order.grow(n) for n in range(TOP + 1)]
    assert high == [in_order_entries[TOP], in_order_entries[3], in_order_entries[0]]
    assert table == in_order


@pytest.mark.parametrize("make", TABLES.values(), ids=TABLES.keys())
def test_threads_growing_highest_first_leave_the_serial_table(make):
    expect = serial(make)

    def fill(table, start, k):
        start.wait()
        for n in range(TOP - k, 0, -7):  # highest first: every thread grows
            table.grow(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            table, start = make(), threading.Barrier(4)
            threads = [threading.Thread(target=fill, args=(table, start, k))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert table == expect
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("make", TABLES.values(), ids=TABLES.keys())
def test_failed_step_leaves_the_entries_before_it(make):
    expect, table = serial(make), make()
    real, raised = table.step, []

    def flaky(t):
        if len(t) == 17 and not raised:
            raised.append(17)
            raise ArithmeticError("injected")
        return real(t)

    table.step = flaky
    with pytest.raises(ArithmeticError, match="injected"):
        table.grow(TOP)
    assert table == expect[:17]
    table.grow(TOP)
    assert table == expect


@pytest.mark.parametrize("index", range(len(CACHES)), ids=[n for _, n in CACHES])
def test_cache_holds_its_bound_and_rebuilds_the_evicted_family(index):
    module, name = CACHES[index]

    def lookup(fam):
        found = getattr(module, name)(fam)
        if isinstance(found, Table):
            found.grow(12)
        return found

    # families that no other test asks for, one set per cache
    first, *others = [SievedFamily("first", index + F(i, 997), 3)
                      for i in range(1, TABLE_CACHE_SIZE + 2)]
    old = lookup(first)
    for fam in others:
        lookup(fam)
    assert getattr(module, name).cache_info().currsize == TABLE_CACHE_SIZE
    new = lookup(first)
    assert new is not old and new == old


def test_every_per_family_cache_is_in_the_suite():
    found = {(module, name) for module in (recurrence, semiclassical, numerics)
             for name, obj in vars(module).items()
             if hasattr(obj, "cache_info") and obj.__module__ == module.__name__}
    assert found == set(CACHES)


def test_concurrent_first_lookups_share_one_object():
    made, got, barrier = [], [], threading.Barrier(4)

    def factory(key):
        made.append(key)
        time.sleep(0.05)  # every thread reaches the cache while this builds
        return []

    tables = table_cache(factory)

    def look():
        barrier.wait()
        got.append(tables("new"))

    threads = [threading.Thread(target=look) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert made == ["new"]
    assert len(got) == 4 and all(table is got[0] for table in got)


@pytest.mark.parametrize(
    "table,builder,lookup",
    [
        ((recurrence, "_monic_table"), (recurrence, "three_term_table"), sieved_monic),
        ((recurrence, "_composed_table"), (recurrence, "_q_beta"), composed_q),
        ((semiclassical, "_pair_table"), (semiclassical, "pearson_data"),
         structure_pair_recursive),
    ],
    ids=["sieved_monic", "composed_q", "structure_pair_recursive"],
)
def test_table_hit_builds_nothing(monkeypatch, table, builder, lookup):
    # a fresh table makes its step once, when it is made; of 20 lookups of
    # one family, 19 are hits, and they build no step
    module, name = table
    monkeypatch.setattr(module, name, table_cache(getattr(module, name).__wrapped__))
    module, name = builder
    real, calls = getattr(module, name), []
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or real(*args))
    fam = SievedFamily("second", F(2, 7), 4)
    for _ in range(20):
        lookup(fam, 19)
    assert len(calls) == 1
