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
from itertools import compress
from operator import countOf, itemgetter
from typing import Sequence

from .anf import MAX_DENSE_ARITY, TruthTable
from .bitops import full_mask, variable_column

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
        self._walk: tuple[bytearray, int] | None = None  # filled by _structure()
        self._last: list[int] | None = None  # filled by _last_uses(), on first evaluation

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
        """(reachable flags, reachable ANDs), walked once and cached."""
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
            self._walk = (mark, countOf(map(itemgetter(0), compress(gates, mark)), AND))
        return self._walk

    def reachable(self) -> bytearray:
        """Flag per gate: reachable from some output (a fresh copy per call)."""
        return bytearray(self._structure()[0])

    def and_count(self) -> int:
        """Number of AND gates reachable from the outputs."""
        return self._structure()[1]

    # -- evaluation --------------------------------------------------------

    def _last_uses(self) -> list[int]:
        """Per gate, the id of the last gate that reads it, built on first
        evaluation and cached.

        An unread gate maps to its own id; an output maps to ``len(gates)``,
        past every gate, so its column is never dropped.
        """
        if self._last is None:
            n, gates = self.arity, self.gates
            last = list(range(len(gates)))
            for gid, gate in enumerate(gates[n:], n):
                if len(gate) == 3:  # AND or two-operand XOR: most gates
                    last[gate[1]] = last[gate[2]] = gid
                else:
                    for o in gate[1:]:
                        last[o] = gid
            for _, gid in self.outputs:
                last[gid] = len(gates)
            self._last = last
        return self._last

    def output_columns(self, input_columns: Sequence[int], width: int) -> list[int]:
        """Forward pass over bit columns of the given width.

        ``input_columns[v - 1]`` is the column of x_v; bit t of each output
        column is that output's value at evaluation point t. A gate's column
        is dropped after its last reader, so only the live set is held at
        once.
        """
        n, gates = self.arity, self.gates
        if len(input_columns) != n:
            raise ValueError(f"expected {n} input columns, got {len(input_columns)}")
        ones = full_mask(width)
        last = self._last_uses()
        cols: list[int | None] = [input_columns[v] for v in range(n)] + [None] * (len(gates) - n)
        for gid, gate in enumerate(gates[n:], n):
            if len(gate) == 3:  # AND or two-operand XOR: most gates
                kind, a, b = gate
                v = cols[a] & cols[b] if kind == AND else cols[a] ^ cols[b]
                if last[a] == gid:
                    cols[a] = None
                if last[b] == gid:
                    cols[b] = None
            elif gate[0] == NOT:
                a = gate[1]
                v = cols[a] ^ ones
                if last[a] == gid:
                    cols[a] = None
            else:  # XOR of three or more operands
                ops = gate[1:]
                v = cols[ops[0]]
                for o in ops[1:]:
                    v ^= cols[o]
                for o in ops:
                    if last[o] == gid:
                        cols[o] = None
            if last[gid] != gid:
                cols[gid] = v
        return [cols[gid] for _, gid in self.outputs]

    def eval_all(self) -> list[TruthTable]:
        """Truth table of every output over all 2^arity inputs."""
        if self.arity > MAX_DENSE_ARITY:
            raise ValueError(f"dense enumeration limited to arity {MAX_DENSE_ARITY}")
        columns = [variable_column(self.arity, v) for v in range(1, self.arity + 1)]
        width = 1 << self.arity
        return [TruthTable(self.arity, c) for c in self.output_columns(columns, width)]
