"""XOR-AND graph circuits.

A circuit is an append-only DAG: its inputs, then gates over the basis
{AND, XOR, NOT}, in which a constant 1 is NOT(XOR(x, x)). Gate ids are dense
and assigned in creation order, and every gate's operands have strictly
smaller ids, so id order is a topological order. AND and XOR gates are
binary, as in Bristol Fashion; NOT is x XOR 1 and never counts toward the
AND total.

Layout: gates sit in packed arrays. Gate g has a kind byte (0 input, 4 XOR,
8 AND, 16 NOT) and two signed 4-byte operand slots, 0 where unused. A
circuit of arity n starts with its n inputs, so input x_v is gate v - 1, as
in Bristol Fashion where inputs are wires 0..n-1; every later gate has kind
AND, XOR or NOT. Output gate ids sit in an array beside their labels, strs
or numbered by index. :attr:`Circuit.gates` and :attr:`Circuit.outputs`
build tuples on each read; no library path reads either.

The builder appends AND and XOR gates through one checked path, ``run``: a
repeated AND/XOR pattern per ``run`` call, one AND per ``and_`` call and a
left-associated chain of XORs per ``xor`` call are each a run; ``not_``
appends one NOT. It performs no algebraic rewriting: what you build is what
you get, and correctness is checked by the independent oracles in
:mod:`xagsynth.verify`.

Evaluation is bit-parallel: every wire is a wide Python int holding one bit
per evaluation point, so a full 2^n-point truth table costs one pass over the
gate list.
"""

from __future__ import annotations

from array import array
from itertools import compress, islice, product
from operator import countOf, lt
from typing import Iterable, Iterator, Sequence

MAX_DENSE_ARITY = 24  # eval_all's cap: a 2 MiB column per output

INPUT = "INPUT"
AND = "AND"
XOR = "XOR"
NOT = "NOT"

# Operand count of each kind that may follow the inputs.
_OPERAND_COUNTS = {AND: 2, XOR: 2, NOT: 1}
_CODES = {XOR: 4, AND: 8, NOT: 16}  # kind byte
_KINDS = {0: INPUT, 4: XOR, 8: AND, 16: NOT}
_ID_LIMIT = (1 << 31) - 1  # largest gate id an operand slot holds
_FLAGS = bytes([0]) + bytes([1]) * 255  # plan byte -> reachable flag


def variable_column(arity: int, var: int) -> int:
    """Column of input x_var over all 2^arity points: bit x is (x >> (var-1)) & 1.

    Built from one period (2^(var-1) zeros, then as many ones) by doubling
    with shift-and-OR, so it costs O(2^arity) bit operations.
    """
    if not 1 <= var <= arity:
        raise ValueError(f"variable index {var} out of range 1..{arity}")
    block = 1 << (var - 1)
    width = 2 * block
    mask = (1 << block) - 1
    total = 1 << arity
    while width < total:
        mask |= mask << width
        width <<= 1
    return mask << block


class CircuitBuilder:
    """Single-owner, append-only builder; call :meth:`finish` to freeze a Circuit.

    A new builder holds the inputs: x_v is gate v - 1. :meth:`run` appends a
    repeated pattern of AND and XOR gates; :meth:`and_` (one AND) and
    :meth:`xor` (a chain of two-operand XORs) are runs too. :meth:`not_`
    appends one gate. Ids are dense, in creation order. A construction that
    wants a node reused keeps its id and passes it again.
    """

    def __init__(self, arity: int):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        if arity > _ID_LIMIT:
            raise ValueError(f"arity {arity}: gate ids past {_ID_LIMIT} do not fit 4 bytes")
        self.arity = arity
        self._kinds = bytearray(arity)
        self._first, self._second = array("i", [0]) * arity, array("i", [0]) * arity
        self.and_gates_created = 0

    def and_(self, a: int, b: int) -> int:
        """AND(a, b), a run of one gate. Returns its id."""
        return self.run([AND], [[a]], [[b]], 1)[0]

    def xor(self, *operands: int) -> int:
        """XOR(o1, o2), then XOR(that, o3) and so on: one gate per operand past
        the first, left-associated. Returns the last id."""
        if len(operands) < 2:
            raise ValueError("XOR needs at least 2 operands")
        gid = len(self._kinds)
        chained = [operands[0], *range(gid, gid + len(operands) - 2)]
        return self.run([XOR], [chained], [operands[1:]], len(operands) - 1)[-1]

    def run(self, pattern: Sequence[str], firsts: Sequence[Sequence[int]],
            seconds: Sequence[Sequence[int]], count: int) -> range:
        """Append ``count`` repeats of ``pattern``, AND and XOR kinds, and return their ids;
        gate j of repeat r reads ``firsts[j][r]`` and ``seconds[j][r]``. Each lane is checked
        first: a ``range`` by its ends, others by min and max, then one by one if need be."""
        p, gid, lanes = len(pattern), len(self._kinds), [*firsts, *seconds]
        if not {*pattern} <= {AND, XOR} or len(lanes) != 2 * p or {*map(len, lanes)} - {count}:
            raise ValueError(f"a run takes AND and XOR kinds, each with two lanes of {count} ids")
        for j, lane in enumerate(lanes):
            ids, ends = range(gid + j % p, gid + p * count, p), slice(None, None, count - 1 or 1)
            if isinstance(lane, range):  # arithmetic like its ids, so the two ends decide
                lane, ids = lane[ends], ids[ends]
            if lane and not (min(lane) >= 0 and (max(lane) < gid or all(map(lt, lane, ids)))):
                for r, k in product(range(count), range(2 * p)):  # name the first bad operand
                    if not 0 <= (o := lanes[k % 2 * p + k // 2][r]) < gid + r * p + k // 2:
                        raise ValueError(f"unknown gate id {o}")
        self._kinds += bytes(_CODES[k] for k in pattern) * count
        for arr, lanes in (self._first, firsts), (self._second, seconds):
            arr.frombytes(bytes(arr.itemsize * p * count))  # zeros, then each lane in place
            for j, lane in enumerate(lanes):
                arr[gid + j::p] = array("i", lane)
        self.and_gates_created += count * pattern.count(AND)
        return range(gid, gid + p * count)

    def not_(self, a: int) -> int:
        gid = len(self._kinds)
        if not 0 <= a < gid:
            raise ValueError(f"unknown gate id {a}")
        self._kinds.append(16)
        self._first.append(a)
        self._second.append(0)
        return gid

    def finish(self, outputs: Iterable[tuple[str, int]]) -> "Circuit":
        """A Circuit of copies of the arrays, so the builder stays usable;
        ``outputs`` is read once, as pairs."""
        pairs = tuple(outputs)
        return self._finish(tuple(label for label, _ in pairs), [gid for _, gid in pairs],
                            (bytes(self._kinds), self._first[:], self._second[:]))

    def _finish(self, labels: Iterable[str], ids: Sequence[int],
                gates: tuple | None = None) -> "Circuit":
        """:meth:`finish` for the labels and the output gate ids apart. Without
        ``gates`` the circuit takes the builder's own arrays, not copies, and
        the builder must not be used again."""
        known = len(self._kinds)
        if ids and not (min(ids) >= 0 and max(ids) < known):
            raise ValueError(f"unknown gate id {next(g for g in ids if not 0 <= g < known)}")
        gates = gates or (self._kinds, self._first, self._second)
        return Circuit(self.arity, (), (), _arrays=(*gates, labels, array("i", ids)))


def _pack(n: int, gates: Iterable[tuple]) -> tuple[bytearray, array, array]:
    """(kinds, first operands, second operands) of ``(kind, *operand ids)``
    tuples. A gate the layout cannot hold is refused with the message
    :meth:`Circuit.validate` gives for it; operand order is left to validate."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    kinds, first, second = bytearray(), array("i"), array("i")
    for gid, (kind, *ops) in enumerate(gates):
        if gid < n and (kind != INPUT or ops):
            raise ValueError(f"gates 0..{n - 1} must be the inputs x1..x{n}")
        if gid >= n and kind not in _OPERAND_COUNTS:
            raise ValueError(f"gate {gid}: kind {kind!r} cannot follow the {n} inputs")
        if gid >= n and len(ops) != _OPERAND_COUNTS[kind]:
            raise ValueError(f"gate {gid}: wrong operand count {len(ops)} for {kind}")
        if max(map(abs, ops), default=0) > _ID_LIMIT:  # an array would raise OverflowError
            raise ValueError(f"gate {gid}: operand ids past {_ID_LIMIT} do not fit 4 bytes")
        kinds.append(_CODES.get(kind, 0))
        first.append((ops + [0])[0])
        second.append((ops + [0, 0])[1])
    return kinds, first, second


class _Numbered:
    """Labels prefix1..prefix<size>, made from the index on each read: no str per output."""

    def __init__(self, prefix: str, size: int):
        self.prefix, self.size = prefix, size

    def __iter__(self) -> Iterator[str]:
        return map(self.prefix.__add__, map(str, range(1, self.size + 1)))


class Circuit:
    """Immutable gate DAG with labeled outputs; safe to share across threads."""

    __slots__ = ("arity", "_kinds", "_first", "_second", "_labels", "_ids", "_live")

    def __init__(self, arity: int, gates: Iterable[tuple], outputs: Iterable[tuple[str, int]],
                 *, _arrays: tuple | None = None):
        """Pack gate tuples and ``(label, gate id)`` pairs, each read once, or take
        ``_arrays`` already packed: the gate arrays, the labels and the output ids."""
        if _arrays is None:  # an output id past 4 bytes names no gate, as validate says
            _arrays, pairs = _pack(arity, gates), tuple(outputs)
            for label, gid in pairs:
                if not -_ID_LIMIT <= gid <= _ID_LIMIT:
                    raise ValueError(f"output {label!r} references unknown gate {gid}")
            _arrays += (tuple(label for label, _ in pairs), array("i", [g for _, g in pairs]))
        self.arity, self._live = arity, None  # _live: filled by _plan()
        self._kinds, self._first, self._second, self._labels, self._ids = _arrays

    def __len__(self) -> int:  # the gate count, inputs included
        return len(self._kinds)

    def _rows(self) -> Iterator[tuple[str, Sequence[int]]]:
        """(kind, operand ids) of every gate in id order, read off the arrays."""
        for k, a, b in zip(self._kinds, self._first, self._second):
            yield _KINDS[k], (a, b) if k & 12 else (a,) if k else ()

    @property
    def gates(self) -> tuple[tuple, ...]:
        """Every gate as ``(kind, *operand ids)``, built anew on each call."""
        return tuple((kind, *ops) for kind, ops in self._rows())

    @property
    def outputs(self) -> tuple[tuple[str, int], ...]:
        """Every output as ``(label, gate id)``, built anew on each call."""
        return tuple(zip(self._labels, self._ids))

    def validate(self) -> None:
        """Check structural invariants; used on import and in tests."""
        n, kinds = self.arity, self._kinds
        if len(kinds) < n:
            raise ValueError(f"gates 0..{n - 1} must be the inputs x1..x{n}")
        for gid, a, b in zip(range(n, len(kinds)), islice(self._first, n, None),
                             islice(self._second, n, None)):
            if not (0 <= a < gid and 0 <= b < gid):  # a NOT's second slot holds 0
                raise ValueError(f"gate {gid}: operand {b if 0 <= a < gid else a} not before gate")
        for label, gid in zip(self._labels, self._ids):
            if not 0 <= gid < len(kinds):
                raise ValueError(f"output {label!r} references unknown gate {gid}")

    # -- structure ---------------------------------------------------------

    def _plan(self) -> bytearray:
        """A byte per gate, walked backward once and cached: 0 for a gate no
        output reads, 32 for an input one does, and for a live gate past the
        inputs its kind byte plus 1 to drop its first operand's column after
        it and 2 its second's. Outputs start out read; the first reader the
        walk meets is the last, and a gate still unread when met reads nothing."""
        if self._live is None:
            kinds, n = self._kinds, self.arity
            plan = bytearray(len(kinds))
            for gid in self._ids:
                plan[gid] = 32
            gates = zip(range(len(kinds) - 1, n - 1, -1), reversed(kinds), reversed(self._first),
                        reversed(self._second))
            # reversed(plan) reads each byte after the gate's readers (higher ids) ran
            for gid, k, a, b in compress(gates, reversed(plan)):
                if not plan[a]:
                    k |= 1
                    plan[a] = 32
                if k & 12 and not plan[b]:  # AND or XOR; a NOT has no second operand
                    k |= 2
                    plan[b] = 32
                plan[gid] = k
            self._live = plan
        return self._live

    def reachable(self) -> bytearray:
        """Flag per gate: reachable from some output (a fresh copy per call)."""
        return self._plan().translate(_FLAGS)

    def and_count(self) -> int:
        """Number of AND gates reachable from the outputs."""
        return countOf(compress(self._kinds, self._plan()), 8)

    # -- evaluation --------------------------------------------------------

    def output_columns(self, input_columns: Iterable[int], width: int) -> list[int]:
        """Forward pass over bit columns of the given width.

        ``input_columns`` yields x_1's column first; bit t of each output
        column is that output's value at point t. The pass dispatches on each
        gate's plan byte and skips dead gates. It holds its own copy of the
        columns and drops each, an input's too, after its last reader, so
        only the live set is held at once.
        """
        n = self.arity
        cols: list[int | None] = list(input_columns)
        if len(cols) != n:
            raise ValueError(f"expected {n} input columns, got {len(cols)}")
        ones = (1 << width) - 1
        append = cols.append
        for f, a, b in zip(islice(self._plan(), n, None), islice(self._first, n, None),
                           islice(self._second, n, None)):
            if f & 12:  # AND or XOR: most gates
                v = cols[a] & cols[b] if f & 8 else cols[a] ^ cols[b]
            elif f:  # NOT
                v = cols[a] ^ ones
            else:  # dead
                append(None)
                continue
            if f & 2:
                cols[b] = None
            if f & 1:
                cols[a] = None
            append(v)
        return [cols[gid] for gid in self._ids]

    def eval_all(self) -> list[int]:
        """Truth table of every output over all 2^arity inputs: bit x of an
        output's int is its value at point x."""
        if self.arity > MAX_DENSE_ARITY:
            raise ValueError(f"dense enumeration limited to arity {MAX_DENSE_ARITY}")
        columns = (variable_column(self.arity, v) for v in range(1, self.arity + 1))
        return self.output_columns(columns, 1 << self.arity)
