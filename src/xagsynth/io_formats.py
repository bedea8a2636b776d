"""Circuit serialization: Bristol Fashion text, Graphviz DOT, and JSON.

Bristol Fashion dialect emitted here (see README for the byte-exact rules):

* header line 1: ``<ngates> <nwires>``
* header line 2: ``<#input groups> <size>...`` (we emit one group of arity)
* header line 3: ``<#output groups> <size>...`` (one size-1 group per output)
* blank line, then one gate per line: ``<#in> <#out> <in wires...> <out wire> <OP>``
  with OP in {AND, XOR, INV}; wires are dense from 0, inputs lowest, each
  output group's wires highest in output order.

Only binary AND/XOR and unary INV appear: wide XOR gates are lowered to a
left-associated chain, CONST1 becomes INV(XOR(w0, w0)) using the first input
wire, and every output is copied onto its final wire with XOR against the
shared zero wire. None of the lowering adds AND gates, so the AND line count
equals the circuit's reachable AND count.
"""

from __future__ import annotations

import json

from .circuit import AND, CONST1, INPUT, NOT, XOR, Circuit, CircuitBuilder

# Largest declared input count import_bristol accepts: each declared input
# becomes a gate before any gate line is read.
MAX_BRISTOL_INPUTS = 1 << 20


class BristolFormatError(ValueError):
    """Raised for malformed Bristol Fashion documents."""


def export_bristol(circuit: Circuit) -> str:
    if not circuit.outputs:
        raise ValueError("cannot export a circuit with no outputs")
    n, gates = circuit.arity, circuit.gates
    reach = circuit.reachable()
    lines: list[str] = []
    wire_of = list(range(n)) + [-1] * (len(gates) - n)  # input x_v is wire v - 1
    next_wire = n

    def fresh() -> int:
        nonlocal next_wire
        w = next_wire
        next_wire += 1
        return w

    # shared zero wire for constant lowering and output copies
    zero = fresh()
    lines.append(f"2 1 0 0 {zero} XOR")
    one_wire: int | None = None

    for gid, gate in enumerate(gates[n:], n):
        if not reach[gid]:
            continue
        kind = gate[0]
        if kind == CONST1:
            if one_wire is None:
                one_wire = fresh()
                lines.append(f"1 1 {zero} {one_wire} INV")
            wire_of[gid] = one_wire
        elif kind == AND:
            w = fresh()
            lines.append(f"2 1 {wire_of[gate[1]]} {wire_of[gate[2]]} {w} AND")
            wire_of[gid] = w
        elif kind == NOT:
            w = fresh()
            lines.append(f"1 1 {wire_of[gate[1]]} {w} INV")
            wire_of[gid] = w
        else:  # XOR, lowered left-associated
            acc = wire_of[gate[1]]
            for o in gate[2:]:
                w = fresh()
                lines.append(f"2 1 {acc} {wire_of[o]} {w} XOR")
                acc = w
            wire_of[gid] = acc

    for _, gid in circuit.outputs:
        w = fresh()
        lines.append(f"2 1 {wire_of[gid]} {zero} {w} XOR")

    sizes = " ".join(["1"] * len(circuit.outputs))
    header = [
        f"{len(lines)} {next_wire}",
        f"1 {n}",
        f"{len(circuit.outputs)} {sizes}",
        "",
    ]
    return "\n".join(header + lines) + "\n"


def _ints(tokens: list[str], line_no: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise BristolFormatError(f"line {line_no}: expected integers, got {tokens}") from None


_OP_ARITY = {"AND": 2, "XOR": 2, "INV": 1}


def import_bristol(text: str) -> Circuit:
    raw = text.splitlines()
    stripped = [(i + 1, line.strip()) for i, line in enumerate(raw)]
    nonempty = [(no, line) for no, line in stripped if line]
    if len(nonempty) < 3:
        raise BristolFormatError("missing header lines")

    (no1, h1), (no2, h2), (no3, h3) = nonempty[:3]
    h1v = _ints(h1.split(), no1)
    if len(h1v) != 2:
        raise BristolFormatError(f"line {no1}: header must be '<ngates> <nwires>'")
    ngates, nwires = h1v
    body = nonempty[3:]
    if len(body) != ngates:
        raise BristolFormatError(f"header declares {ngates} gates, found {len(body)}")
    h2v = _ints(h2.split(), no2)
    if not h2v or len(h2v) != h2v[0] + 1:
        raise BristolFormatError(f"line {no2}: bad input group declaration")
    n_inputs = sum(h2v[1:])
    h3v = _ints(h3.split(), no3)
    if not h3v or len(h3v) != h3v[0] + 1:
        raise BristolFormatError(f"line {no3}: bad output group declaration")
    n_output_wires = sum(h3v[1:])
    if n_inputs < 1:
        raise BristolFormatError("circuit must declare at least one input wire")
    if n_inputs > MAX_BRISTOL_INPUTS:
        raise BristolFormatError(f"{n_inputs} input wires declared, limit {MAX_BRISTOL_INPUTS}")
    if n_output_wires < 1:
        raise BristolFormatError("circuit must declare at least one output wire")
    if nwires < n_inputs + n_output_wires:
        raise BristolFormatError("wire count smaller than declared inputs plus outputs")

    builder = CircuitBuilder(n_inputs)
    wire_map = {w: w for w in range(n_inputs)}  # input wire w is gate w

    for no, line in body:
        tokens = line.split()
        if len(tokens) < 4:
            raise BristolFormatError(f"line {no}: truncated gate line")
        op = tokens[-1]
        if op not in _OP_ARITY:
            raise BristolFormatError(f"line {no}: unknown op {op!r}")
        nin, nout = _ints(tokens[:2], no)
        if nin != _OP_ARITY[op] or nout != 1:
            raise BristolFormatError(f"line {no}: {op} must have {_OP_ARITY[op]} inputs, 1 output")
        wires = _ints(tokens[2:-1], no)
        if len(wires) != nin + 1:
            raise BristolFormatError(f"line {no}: expected {nin + 1} wires")
        *in_wires, out_wire = wires
        for w in in_wires:
            if w not in wire_map:
                raise BristolFormatError(f"line {no}: wire {w} used before definition")
        if not 0 <= out_wire < nwires:
            raise BristolFormatError(f"line {no}: output wire {out_wire} out of range")
        if out_wire in wire_map:
            raise BristolFormatError(f"line {no}: wire {out_wire} defined twice")
        if op == "AND":
            gid = builder.and_(wire_map[in_wires[0]], wire_map[in_wires[1]])
        elif op == "XOR":
            gid = builder.xor(wire_map[in_wires[0]], wire_map[in_wires[1]])
        else:
            gid = builder.not_(wire_map[in_wires[0]])
        wire_map[out_wire] = gid

    outputs = []
    for k, w in enumerate(range(nwires - n_output_wires, nwires), start=1):
        if w not in wire_map:
            raise BristolFormatError(f"output wire {w} is never driven")
        outputs.append((f"o{k}", wire_map[w]))
    circuit = builder.finish(outputs)
    circuit.validate()
    return circuit


_DOT_LABEL = {CONST1: "1", AND: "AND", XOR: "XOR", NOT: "NOT"}


def export_dot(circuit: Circuit) -> str:
    """Graphviz digraph; node order and edges follow gate ids, so two exports
    of the same circuit are byte-identical."""
    labels_by_gid: dict[int, list[str]] = {}
    for label, gid in circuit.outputs:
        labels_by_gid.setdefault(gid, []).append(label)
    lines = ["digraph circuit {", "  rankdir=LR;"]
    for gid, gate in enumerate(circuit.gates):
        kind = gate[0]
        label = f"x{gate[1]}" if kind == INPUT else _DOT_LABEL[kind]
        if gid in labels_by_gid:
            label += " (" + ", ".join(labels_by_gid[gid]) + ")"
        shape = " shape=box" if kind == INPUT else ""
        lines.append(f'  g{gid} [label="{label}"{shape}];')
    for gid, gate in enumerate(circuit.gates[circuit.arity:], circuit.arity):
        for o in gate[1:]:
            lines.append(f"  g{o} -> g{gid};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(circuit: Circuit, construction: str | None = None) -> str:
    gates = []
    for gid, gate in enumerate(circuit.gates):
        kind = gate[0]
        entry: dict = {"id": gid, "kind": kind}
        if kind == INPUT:
            entry["var"] = gate[1]
        elif kind != CONST1:
            entry["operands"] = list(gate[1:])
        gates.append(entry)
    doc = {
        "arity": circuit.arity,
        "construction": construction,
        "and_count": circuit.and_count(),
        "gates": gates,
        "outputs": [{"label": label, "id": gid} for label, gid in circuit.outputs],
    }
    return json.dumps(doc, indent=2) + "\n"
