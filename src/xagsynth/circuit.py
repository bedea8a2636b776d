"""XOR-AND graph circuits.

A circuit is an append-only DAG of gates over {INPUT, CONST1, AND, XOR, NOT}.
Gate ids are dense and assigned in creation order, and every gate's operands
have strictly smaller ids, so id order is a topological order. AND gates are
binary; XOR gates take two or more operands and are lowered to binary chains
only at export time; NOT is x XOR 1 and never counts toward the AND total.

The builder is append-only: every call adds exactly one gate and returns its
id, and nothing is shared behind the caller's back. A construction that wants
a node reused keeps its id and passes it again. The builder performs no
algebraic rewriting either: what you build is what you get, and correctness
is checked by the independent oracles in :mod:`xagsynth.verify`.

Evaluation is bit-parallel: every wire is a wide Python int holding one bit
per evaluation point, so a full 2^n-point truth table costs one pass over the
gate list.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .anf import MAX_DENSE_ARITY, TruthTable
from .bitops import full_mask, variable_column

INPUT = "INPUT"
CONST1 = "CONST1"
AND = "AND"
XOR = "XOR"
NOT = "NOT"

# Gates are plain tuples: (INPUT, var), (CONST1,), (AND, a, b),
# (XOR, op1, op2, ...), (NOT, a).
Gate = tuple


class CircuitBuilder:
    """Single-owner, append-only builder; call :meth:`finish` to freeze a Circuit.

    Each of :meth:`input`, :meth:`const1`, :meth:`and_`, :meth:`xor` and
    :meth:`not_` appends one gate and returns its id, the next dense id.
    """

    def __init__(self, arity: int):
        if arity < 1:
            raise ValueError("arity must be at least 1")
        self.arity = arity
        self._gates: list[Gate] = []
        self._inputs: dict[int, int] = {}
        self.and_gates_created = 0

    def _check_operand(self, gid: int) -> None:
        if not 0 <= gid < len(self._gates):
            raise ValueError(f"unknown gate id {gid}")

    def input(self, var: int) -> int:
        if not 1 <= var <= self.arity:
            raise ValueError(f"input index {var} out of range 1..{self.arity}")
        if var in self._inputs:
            raise ValueError(f"input x{var} already added")
        gid = len(self._gates)
        self._gates.append((INPUT, var))
        self._inputs[var] = gid
        return gid

    def add_inputs(self) -> list[int]:
        """Add all inputs x_1..x_arity; returns their ids in index order."""
        return [self.input(v) for v in range(1, self.arity + 1)]

    def input_id(self, var: int) -> int:
        try:
            return self._inputs[var]
        except KeyError:
            raise ValueError(f"input x{var} has not been added") from None

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
        seen_vars = set()
        for gid, gate in enumerate(self.gates):
            kind = gate[0]
            if kind == INPUT:
                var = gate[1]
                if not 1 <= var <= self.arity:
                    raise ValueError(f"gate {gid}: input index {var} out of range")
                if var in seen_vars:
                    raise ValueError(f"gate {gid}: duplicate input x{var}")
                seen_vars.add(var)
            elif kind == CONST1:
                pass
            elif kind in (AND, XOR, NOT):
                ops = gate[1:]
                if kind == AND and len(ops) != 2:
                    raise ValueError(f"gate {gid}: AND must have 2 operands")
                if kind == XOR and len(ops) < 2:
                    raise ValueError(f"gate {gid}: XOR needs at least 2 operands")
                if kind == NOT and len(ops) != 1:
                    raise ValueError(f"gate {gid}: NOT takes 1 operand")
                for o in ops:
                    if not 0 <= o < gid:
                        raise ValueError(f"gate {gid}: operand {o} not before gate")
            else:
                raise ValueError(f"gate {gid}: unknown kind {kind!r}")
        for label, gid in self.outputs:
            if not 0 <= gid < len(self.gates):
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
        for gid in range(len(gates) - 1, -1, -1):
            if mark[gid]:
                gate = gates[gid]
                kind = gate[0]
                if kind == AND:
                    mark[gate[1]] = 1
                    mark[gate[2]] = 1
                elif kind == XOR or kind == NOT:
                    for o in gate[1:]:
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
        for gid, gate in enumerate(gates):
            if gate[0] in (AND, XOR, NOT):
                for o in gate[1:]:
                    last[o] = gid
        for _, gid in self.outputs:
            last[gid] = len(gates)
        return last

    def output_columns(self, input_columns: Mapping[int, int], width: int) -> list[int]:
        """Forward pass over bit columns of the given width.

        ``input_columns`` maps a 1-based variable index to its column; bit t
        of each output column is that output's value at evaluation point t.
        A gate's column is dropped after its last reader, so only the live
        set is held at once.
        """
        ones = full_mask(width)
        last = self._last_uses()
        cols: list[int | None] = [None] * len(self.gates)
        for gid, gate in enumerate(self.gates):
            kind = gate[0]
            if kind == INPUT:
                v = input_columns[gate[1]]
            elif kind == CONST1:
                v = ones
            else:
                ops = gate[1:]
                if kind == AND:
                    v = cols[ops[0]] & cols[ops[1]]
                elif kind == XOR:
                    v = cols[ops[0]]
                    for o in ops[1:]:
                        v ^= cols[o]
                else:  # NOT
                    v = cols[ops[0]] ^ ones
                for o in ops:
                    if last[o] == gid:
                        cols[o] = None
            if last[gid] != gid:
                cols[gid] = v
        return [cols[gid] for _, gid in self.outputs]

    def eval(self, bits: Sequence[int]) -> tuple[int, ...]:
        """Evaluate on one input, given as a bit sequence for x_1..x_n."""
        if len(bits) != self.arity:
            raise ValueError(f"expected {self.arity} input bits, got {len(bits)}")
        columns = {v + 1: int(bool(b)) for v, b in enumerate(bits)}
        return tuple(self.output_columns(columns, 1))

    def eval_all(self) -> list[TruthTable]:
        """Truth table of every output over all 2^arity inputs."""
        if self.arity > MAX_DENSE_ARITY:
            raise ValueError(f"dense enumeration limited to arity {MAX_DENSE_ARITY}")
        columns = {v: variable_column(self.arity, v) for v in range(1, self.arity + 1)}
        width = 1 << self.arity
        return [TruthTable(self.arity, c) for c in self.output_columns(columns, width)]
