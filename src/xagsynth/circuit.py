"""XOR-AND graph circuits.

A circuit is an append-only DAG of gates over {INPUT, CONST1, AND, XOR, NOT}.
Gate ids are dense and assigned in creation order, and every gate's operands
have strictly smaller ids, so id order is a topological order. AND gates are
binary; XOR gates take two or more operands and are lowered to binary chains
only at export time; NOT is x XOR 1 and never counts toward the AND total.

Layout: a circuit of arity n starts with its n inputs, so input x_v is gate
v - 1, as in Bristol Fashion where inputs are wires 0..n-1. Every later gate
is ``(kind, *operand ids)`` with kind CONST1, AND, XOR or NOT; no INPUT gate
follows the prefix. :meth:`Circuit.validate` enforces this, and every walk
over the gates relies on it: evaluation and export seed the first n gates
from the inputs, and a walk along edges reads ``gate[1:]`` of the later
gates as operands without asking for the kind.

The builder is append-only: it starts with the n inputs, every later call
adds exactly one gate and returns its id, and nothing is shared behind the
caller's back. A construction that wants a node reused keeps its id and
passes it again. The builder performs no algebraic rewriting either: what
you build is what you get, and correctness is checked by the independent
oracles in :mod:`xagsynth.verify`.

Evaluation is bit-parallel: every wire is a wide Python int holding one bit
per evaluation point, so a full 2^n-point truth table costs one pass over the
gate list.
"""

from __future__ import annotations

import sys
from typing import Sequence

from .anf import MAX_DENSE_ARITY, TruthTable
from .bitops import full_mask, variable_column

INPUT = "INPUT"
CONST1 = "CONST1"
AND = "AND"
XOR = "XOR"
NOT = "NOT"

# Gates are plain tuples. Gates 0..arity-1 are (INPUT, 1)..(INPUT, arity);
# after them come (CONST1,), (AND, a, b), (XOR, op1, op2, ...) and (NOT, a),
# so gate[1:] of every non-input gate is its operand ids.
Gate = tuple

# Operand counts allowed for each kind that may follow the inputs.
_OPERAND_COUNTS = {CONST1: range(1), AND: range(2, 3), XOR: range(2, sys.maxsize),
                   NOT: range(1, 2)}


class CircuitBuilder:
    """Single-owner, append-only builder; call :meth:`finish` to freeze a Circuit.

    A new builder holds the inputs: x_v is gate v - 1. Each of
    :meth:`const1`, :meth:`and_`, :meth:`xor` and :meth:`not_` appends one
    gate and returns its id, the next dense id.
    """

    def __init__(self, arity: int):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        self.arity = arity
        self._gates: list[Gate] = [(INPUT, v) for v in range(1, arity + 1)]
        self.and_gates_created = 0

    def _check_operand(self, gid: int) -> None:
        if not 0 <= gid < len(self._gates):
            raise ValueError(f"unknown gate id {gid}")

    def const1(self) -> int:
        gid = len(self._gates)
        self._gates.append((CONST1,))
        return gid

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

    __slots__ = ("arity", "gates", "outputs")

    def __init__(self, arity: int, gates: tuple[Gate, ...], outputs: tuple[tuple[str, int], ...]):
        self.arity = arity
        self.gates = gates
        self.outputs = outputs

    def validate(self) -> None:
        """Check structural invariants; used on import and in tests."""
        n, gates = self.arity, self.gates
        if tuple(gates[:n]) != tuple((INPUT, v) for v in range(1, n + 1)):
            raise ValueError(f"gates 0..{n - 1} must be the inputs x1..x{n} in order")
        for gid, gate in enumerate(gates[n:], n):
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

    def __len__(self) -> int:
        return len(self.gates)

    def reachable(self) -> bytearray:
        """Flag per gate: reachable from some output."""
        gates = self.gates
        mark = bytearray(len(gates))
        for _, gid in self.outputs:
            mark[gid] = 1
        for gid in range(len(gates) - 1, self.arity - 1, -1):
            if mark[gid]:
                for o in gates[gid][1:]:
                    mark[o] = 1
        return mark

    def and_count(self) -> int:
        """Number of AND gates reachable from the outputs."""
        mark = self.reachable()
        return sum(1 for gate, m in zip(self.gates, mark) if m and gate[0] == AND)

    def replace_output(self, index: int, gid: int) -> "Circuit":
        """New circuit sharing all gates, with one output re-tapped."""
        if not 0 <= gid < len(self.gates):
            raise ValueError(f"unknown gate id {gid}")
        label, _ = self.outputs[index]
        outs = list(self.outputs)
        outs[index] = (label, gid)
        return Circuit(self.arity, self.gates, tuple(outs))

    # -- evaluation --------------------------------------------------------

    def _last_uses(self) -> list[int]:
        """Per gate, the id of the last gate that reads it.

        An unread gate maps to its own id; an output maps to ``len(gates)``,
        past every gate, so its column is never dropped.
        """
        gates = self.gates
        last = list(range(len(gates)))
        for gid in range(self.arity, len(gates)):
            for o in gates[gid][1:]:
                last[o] = gid
        for _, gid in self.outputs:
            last[gid] = len(gates)
        return last

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
            kind, ops = gate[0], gate[1:]
            if kind == AND:
                v = cols[ops[0]] & cols[ops[1]]
            elif kind == XOR:
                v = cols[ops[0]]
                for o in ops[1:]:
                    v ^= cols[o]
            elif kind == NOT:
                v = cols[ops[0]] ^ ones
            else:  # CONST1
                v = ones
            for o in ops:
                if last[o] == gid:
                    cols[o] = None
            if last[gid] != gid:
                cols[gid] = v
        return [cols[gid] for _, gid in self.outputs]

    def eval(self, bits: Sequence[int]) -> tuple[int, ...]:
        """Evaluate on one input, given as a bit sequence for x_1..x_n."""
        return tuple(self.output_columns([int(bool(b)) for b in bits], 1))

    def eval_all(self) -> list[TruthTable]:
        """Truth table of every output over all 2^arity inputs."""
        if self.arity > MAX_DENSE_ARITY:
            raise ValueError(f"dense enumeration limited to arity {MAX_DENSE_ARITY}")
        columns = [variable_column(self.arity, v) for v in range(1, self.arity + 1)]
        width = 1 << self.arity
        return [TruthTable(self.arity, c) for c in self.output_columns(columns, width)]
