import random

import pytest

from xagsynth.bitops import clear_mask, full_mask, mobius_transform, variable_column

from oracles import naive_mobius


def division_variable_column(arity, var):
    """The earlier big-int-division form of the input column."""
    block = 1 << (var - 1)
    full = (1 << (1 << arity)) - 1
    return (full // ((1 << block) + 1)) << block


def division_mobius(bits, arity):
    """The earlier big-int-division form of the subset-sum butterfly."""
    full = (1 << (1 << arity)) - 1
    for j in range(arity):
        block = 1 << j
        bits ^= (bits & (full // ((1 << block) + 1))) << block
    return bits


@pytest.mark.parametrize("arity", range(1, 13))
def test_variable_column_bit_x_is_bit_of_point(arity):
    for var in range(1, arity + 1):
        col = variable_column(arity, var)
        assert col >> (1 << arity) == 0
        for x in range(1 << arity):
            assert (col >> x) & 1 == (x >> (var - 1)) & 1, (var, x)


@pytest.mark.parametrize("arity", range(1, 9))
def test_clear_mask_is_complement_of_variable_column(arity):
    for j in range(arity):
        assert clear_mask(arity, j) == full_mask(1 << arity) ^ variable_column(arity, j + 1)


def test_mobius_matches_subset_sum_definition():
    rng = random.Random(0)
    for arity in range(0, 9):
        for _ in range(4):
            bits = rng.getrandbits(1 << arity)
            table = [(bits >> x) & 1 for x in range(1 << arity)]
            coeffs = naive_mobius(arity, table)
            assert mobius_transform(bits, arity) == sum(c << x for x, c in enumerate(coeffs)), arity


@pytest.mark.parametrize("arity", range(13, 19))
def test_masks_equal_division_formulas(arity):
    for var in range(1, arity + 1):
        assert variable_column(arity, var) == division_variable_column(arity, var)
    bits = random.Random(arity).getrandbits(1 << arity)
    assert mobius_transform(bits, arity) == division_mobius(bits, arity)


@pytest.mark.parametrize("arity, j", [(0, 0), (3, 3), (3, -1)])
def test_clear_mask_rejects_bit_out_of_range(arity, j):
    with pytest.raises(ValueError):
        clear_mask(arity, j)
