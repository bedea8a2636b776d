import pytest

from xagsynth.bitops import clear_mask, full_mask, variable_column


def division_variable_column(arity, var):
    """The earlier big-int-division form of the input column."""
    block = 1 << (var - 1)
    full = (1 << (1 << arity)) - 1
    return (full // ((1 << block) + 1)) << block


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


@pytest.mark.parametrize("arity", range(13, 19))
def test_masks_equal_division_formulas(arity):
    for var in range(1, arity + 1):
        assert variable_column(arity, var) == division_variable_column(arity, var)


@pytest.mark.parametrize("arity, j", [(0, 0), (3, 3), (3, -1)])
def test_clear_mask_rejects_bit_out_of_range(arity, j):
    with pytest.raises(ValueError):
        clear_mask(arity, j)
