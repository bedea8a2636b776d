"""XOR-AND graph circuits.

A circuit is an append-only DAG: its inputs, then gates over the basis
{AND, XOR, NOT}, in which a constant 1 is NOT(XOR(x, x)). Gate ids are dense
and assigned in creation order, and every gate's operands have strictly
smaller ids, so id order is a topological order. AND gates are binary; XOR
gates take two or more operands, and only the Bristol writer in
:mod:`xagsynth.io_formats` lowers them to binary chains; NOT is x XOR 1 and
never counts toward the AND total.

Layout: every gate is ``(kind, *operand ids)``. A circuit of arity n starts
with its n inputs, each the operand-free ``(INPUT,)``, so input x_v is known
only by its position: it is gate v - 1, as in Bristol Fashion where inputs
are wires 0..n-1. Every later gate has kind AND, XOR or NOT.
:meth:`Circuit.validate` enforces this, and every walk over the gates relies
on it: evaluation and export seed the first n gates from the inputs, and a
walk along edges reads ``gate[1:]`` as operands without asking for the kind.

The builder shares nothing behind the caller's back and performs no
algebraic rewriting: what you build is what you get, and correctness is
checked by the independent oracles in :mod:`xagsynth.verify`.

Evaluation is bit-parallel: every wire is a wide Python int holding one bit
per evaluation point, so a full 2^n-point truth table costs one pass over the
gate list.
"""

from __future__ import annotations

import sys
from itertools import compress, islice
from operator import countOf, itemgetter
from typing import Iterable, Sequence

from .bitops import full_mask, variable_column

MAX_DENSE_ARITY = 24  # eval_all's cap: a 2 MiB column per output

INPUT = "INPUT"
AND = "AND"
XOR = "XOR"
NOT = "NOT"

# Operand counts allowed for each kind that may follow the inputs.
_OPERAND_COUNTS = {AND: range(2, 3), XOR: range(2, sys.maxsize), NOT: range(1, 2)}


class CircuitBuilder:
    """Single-owner, append-only builder; call :meth:`finish` to freeze a Circuit.

    A new builder holds the inputs: x_v is gate v - 1. Each of
    :meth:`and_`, :meth:`xor` and :meth:`not_` appends one gate and returns
    its id, the next dense id; a construction that wants a node reused
    keeps its id and passes it again.
    """

    def __init__(self, arity: int):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        self.arity = arity
        self._gates: list[tuple] = [(INPUT,)] * arity
        self.and_gates_created = 0

    def _check_operand(self, gid: int) -> None:
        if not 0 <= gid < len(self._gates):
            raise ValueError(f"unknown gate id {gid}")

    def and_(self, a: int, b: int) -> int:
        gates = self._gates
        gid = len(gates)
        if not (0 <= a < gid and 0 <= b < gid):
            raise ValueError(f"unknown gate id {b if 0 <= a < gid else a}")
        gates.append((AND, a, b))
        self.and_gates_created += 1
        return gid

    def xor(self, *operands: int) -> int:
        if len(operands) < 2:
            raise ValueError("XOR needs at least 2 operands")
        gates = self._gates
        gid = len(gates)
        for o in operands:
            if not 0 <= o < gid:
                raise ValueError(f"unknown gate id {o}")
        gates.append((XOR, *operands))
        return gid

    def not_(self, a: int) -> int:
        self._check_operand(a)
        gid = len(self._gates)
        self._gates.append((NOT, a))
        return gid

    def finish(self, outputs: Sequence[tuple[str, int]]) -> "Circuit":
        for _, gid in outputs:
            self._check_operand(gid)
        return Circuit(self.arity, tuple(self._gates), tuple(outputs))


class Circuit:
    """Immutable gate DAG with labeled outputs; safe to share across threads."""

    __slots__ = ("arity", "gates", "outputs", "_walk", "_last")

    def __init__(self, arity: int, gates: tuple[tuple, ...], outputs: tuple[tuple[str, int], ...]):
        self.arity = arity
        self.gates = gates
        self.outputs = outputs
        self._walk: tuple[bytearray, int] | None = None  # filled by _structure() or _drop_plan()
        self._last: tuple[bytes, dict] | None = None  # filled by _drop_plan()

    def validate(self) -> None:
        """Check structural invariants; used on import and in tests."""
        n, gates = self.arity, self.gates
        if len(gates) < n or gates[:n].count((INPUT,)) != n:
            raise ValueError(f"gates 0..{n - 1} must be the inputs x1..x{n}")
        for gid, gate in enumerate(gates[n:], n):
            if len(gate) == 3:  # AND or two-operand XOR over earlier gates: most gates
                kind, a, b = gate
                if (kind == AND or kind == XOR) and 0 <= a < gid and 0 <= b < gid:
                    continue
            kind, ops = gate[0], gate[1:]
            counts = _OPERAND_COUNTS.get(kind)
            if counts is None:
                raise ValueError(f"gate {gid}: kind {kind!r} cannot follow the {n} inputs")
            if len(ops) not in counts:
                raise ValueError(f"gate {gid}: wrong operand count {len(ops)} for {kind}")
            for o in ops:
                if not 0 <= o < gid:
                    raise ValueError(f"gate {gid}: operand {o} not before gate")
        for label, gid in self.outputs:
            if not 0 <= gid < len(gates):
                raise ValueError(f"output {label!r} references unknown gate {gid}")

    # -- structure ---------------------------------------------------------

    def _structure(self) -> tuple[bytearray, int]:
        """(reachable flags, reachable ANDs), walked once and cached; the
        first evaluation fills it too, from its plan walk."""
        if self._walk is None:
            gates = self.gates
            mark = bytearray(len(gates))
            for _, gid in self.outputs:
                mark[gid] = 1
            # reversed(mark) reads each flag after the gate's readers (higher ids) ran
            for gate in compress(reversed(gates), reversed(mark)):
                if len(gate) == 3:  # AND or two-operand XOR: most gates
                    mark[gate[1]] = mark[gate[2]] = 1
                else:
                    for o in gate[1:]:
                        mark[o] = 1
            self._cache_structure(mark)
        return self._walk

    def _cache_structure(self, mark: bytearray) -> None:
        self._walk = (mark, countOf(map(itemgetter(0), compress(self.gates, mark)), AND))

    def reachable(self) -> bytearray:
        """Flag per gate: reachable from some output (a fresh copy per call)."""
        return bytearray(self._structure()[0])

    def and_count(self) -> int:
        """Number of AND gates reachable from the outputs."""
        return self._structure()[1]

    # -- evaluation --------------------------------------------------------

    def _drop_plan(self) -> tuple[bytes, dict[int, list[int]]]:
        """Per non-input gate a flag byte, built on first evaluation and cached:
        0 for a dead gate, else its kind (4 two-operand XOR, 8 AND, 16 NOT, 32
        wider XOR) plus 1 to drop its first operand's column after it and 2 its
        second's; a wider XOR lists the operands it drops in the dict. Walking
        backward, the first reader met is the last, and a gate still unread
        when met is dead and reads nothing; outputs start out read. The final
        read flags are the reachable flags, so they fill _structure's cache."""
        if self._last is None:
            n, gates = self.arity, self.gates
            read = bytearray(len(gates))  # 1 once an output or a later live gate reads it
            for _, gid in self.outputs:
                read[gid] = 1
            drops = bytearray()  # last gate first
            push, wide = drops.append, {}
            # reversed(read) reads each flag after the gate's readers (higher ids) ran
            for gate, live in zip(islice(reversed(gates), len(gates) - n), reversed(read)):
                if not live:
                    push(0)
                elif len(gate) == 3:  # AND or two-operand XOR: most gates
                    kind, a, b = gate
                    f = 8 if kind == AND else 4
                    if not read[a]:
                        f |= 1
                        read[a] = 1
                    if not read[b]:
                        f |= 2
                        read[b] = 1
                    push(f)
                elif len(gate) == 2:  # NOT
                    push(16 if read[gate[1]] else 17)
                    read[gate[1]] = 1
                else:  # a repeated operand is listed, and dropped, twice
                    ops = wide[len(gates) - 1 - len(drops)] = [o for o in gate[1:] if not read[o]]
                    for o in ops:
                        read[o] = 1
                    push(32)
            drops.reverse()
            self._last = (bytes(drops), wide)
            if self._walk is None:
                self._cache_structure(read)
        return self._last

    def output_columns(self, input_columns: Iterable[int], width: int) -> list[int]:
        """Forward pass over bit columns of the given width.

        ``input_columns`` yields x_1's column first; bit t of each output
        column is that output's value at point t. The pass dispatches on each
        gate's plan byte and skips dead gates. It holds its own copy of the
        columns and drops each, an input's too, after its last reader, so
        only the live set is held at once.
        """
        n, gates = self.arity, self.gates
        cols: list[int | None] = list(input_columns)
        if len(cols) != n:
            raise ValueError(f"expected {n} input columns, got {len(cols)}")
        ones = full_mask(width)
        flags, wide = self._drop_plan()
        append = cols.append
        for gate, f in zip(islice(gates, n, None), flags):
            if f & 12:  # AND or two-operand XOR: most gates
                _, a, b = gate
                v = cols[a] & cols[b] if f & 8 else cols[a] ^ cols[b]
            elif f & 16:  # NOT
                a = gate[1]
                v = cols[a] ^ ones
            elif f:  # XOR of three or more operands
                ops = gate[1:]
                v = cols[ops[0]]
                for o in ops[1:]:
                    v ^= cols[o]
                for o in wide[len(cols)]:
                    cols[o] = None
            else:  # dead
                append(None)
                continue
            if f & 2:
                cols[b] = None
            if f & 1:
                cols[a] = None
            append(v)
        return [cols[gid] for _, gid in self.outputs]

    def eval_all(self) -> list[int]:
        """Truth table of every output over all 2^arity inputs: bit x of an
        output's int is its value at point x."""
        if self.arity > MAX_DENSE_ARITY:
            raise ValueError(f"dense enumeration limited to arity {MAX_DENSE_ARITY}")
        columns = (variable_column(self.arity, v) for v in range(1, self.arity + 1))
        return self.output_columns(columns, 1 << self.arity)
