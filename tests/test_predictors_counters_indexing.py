"""Saturating counter and index-function tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.predictors.counters import CounterTable
from repro.predictors.indexing import (
    PCModuloIndex,
    StaticIndexMap,
    XorFoldIndex,
)


# -- counters ----------------------------------------------------------------


def test_counter_initialises_weakly_taken():
    table = CounterTable(4, bits=2)
    assert all(v == 2 for v in table.table)
    assert table.predict(0)


def test_counter_saturates_high_and_low():
    table = CounterTable(1, bits=2)
    for _ in range(10):
        table.update(0, True)
    assert table.table[0] == 3
    for _ in range(10):
        table.update(0, False)
    assert table.table[0] == 0


def test_one_wrong_flips_weakly_taken():
    table = CounterTable(1, bits=2)  # starts at 2 (weakly taken)
    table.update(0, False)
    # value 1 < threshold 2 -> now predicts not taken
    assert table.table[0] == 1
    assert not table.predict(0)


def test_access_predicts_before_updating():
    table = CounterTable(1, bits=2)
    prediction = table.access(0, False)
    assert prediction is True      # predicted from the pre-update value 2
    assert table.table[0] == 1


def test_counter_widths():
    table = CounterTable(1, bits=3)
    assert table.max_value == 7
    assert table.threshold == 4
    table_1bit = CounterTable(1, bits=1, initial=0)
    assert not table_1bit.predict(0)
    table_1bit.update(0, True)
    assert table_1bit.predict(0)


def test_counter_reset():
    table = CounterTable(2, bits=2)
    table.update(0, True)
    table.reset()
    assert table.table == [2, 2]
    table.reset(initial=0)
    assert table.table == [0, 0]


def test_counter_validation():
    with pytest.raises(ValueError):
        CounterTable(0)
    with pytest.raises(ValueError):
        CounterTable(4, bits=0)
    with pytest.raises(ValueError):
        CounterTable(4, bits=2, initial=9)


@pytest.mark.parametrize("initial", [7, 4, -2])
def test_counter_reset_rejects_what_the_constructor_rejects(initial):
    # an out-of-range counter made the scalar and chunked paths disagree:
    # after reset(7) on a 2-bit table, T,T,F,F,F,F predicted six takens
    # one at a time but T,T,T,T,F,F through access_chunk
    table = CounterTable(1, bits=2)
    with pytest.raises(ValueError, match="out of range"):
        CounterTable(1, bits=2, initial=initial)
    with pytest.raises(ValueError, match="out of range"):
        table.reset(initial)
    assert table.table == [2]


@given(st.lists(st.booleans(), max_size=60))
def test_counter_stays_in_range(outcomes):
    table = CounterTable(1, bits=2)
    for taken in outcomes:
        table.update(0, taken)
        assert 0 <= table.table[0] <= 3


# -- index functions -----------------------------------------------------------


def test_pc_modulo_discards_word_offset():
    index = PCModuloIndex(1024)
    assert index.index(0x1000) == index.index(0x1000 + 1024 * 4) != \
        index.index(0x1004)


def test_pc_modulo_range():
    index = PCModuloIndex(64)
    for pc in range(0, 4096, 4):
        assert 0 <= index.index(pc) < 64


def test_index_size_validation():
    with pytest.raises(ValueError):
        PCModuloIndex(0)


def test_xorfold_requires_power_of_two():
    with pytest.raises(ValueError):
        XorFoldIndex(100)
    index = XorFoldIndex(256)
    for pc in range(0, 1 << 16, 52):
        assert 0 <= index.index(pc) < 256


def test_static_map_uses_assignment_then_fallback():
    index = StaticIndexMap(16, {0x1000: 7})
    assert index.index(0x1000) == 7
    assert index.index(0x2004) == PCModuloIndex(16).index(0x2004)
    assert index.mapped_count == 1


def test_static_map_rejects_out_of_range_entries():
    with pytest.raises(ValueError):
        StaticIndexMap(8, {0x1000: 8})


def test_static_map_rejects_mismatched_fallback():
    with pytest.raises(ValueError):
        StaticIndexMap(8, {}, fallback=PCModuloIndex(16))


def test_index_functions_are_callable():
    assert PCModuloIndex(4)(0x1008) == PCModuloIndex(4).index(0x1008)
