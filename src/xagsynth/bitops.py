# Bit-column helpers. A "column" is a Python int whose bit t holds the value
# of some signal at sample/point t; wide ints give cheap bit-parallel logic.


def full_mask(width: int) -> int:
    return (1 << width) - 1


def clear_mask(arity: int, j: int) -> int:
    """Column over all 2^arity points with ones where bit j of the point is clear.

    Built from one period (2^j ones, then 2^j zeros) by doubling with
    shift-and-OR, so it costs O(2^arity) bit operations.
    """
    if not 0 <= j < arity:
        raise ValueError(f"bit index {j} out of range 0..{arity - 1}")
    width = 2 << j
    mask = (1 << (1 << j)) - 1
    total = 1 << arity
    while width < total:
        mask |= mask << width
        width <<= 1
    return mask


def variable_column(arity: int, var: int) -> int:
    """Column of input x_var over all 2^arity points.

    Point x is an integer; bit j-1 of x is the value of x_j. So bit x of the
    returned column is (x >> (var-1)) & 1.
    """
    if not 1 <= var <= arity:
        raise ValueError(f"variable index {var} out of range 1..{arity}")
    return clear_mask(arity, var - 1) << (1 << (var - 1))


def iter_one_bits(x: int, limit: int | None = None):
    """Yield positions of set bits of x, lowest first, up to limit."""
    n = 0
    while x:
        if limit is not None and n >= limit:
            return
        lsb = x & -x
        yield lsb.bit_length() - 1
        x ^= lsb
        n += 1
