"""Circuit serialization: Bristol Fashion text, Graphviz DOT, and JSON.

Bristol Fashion dialect emitted here (see README for the byte-exact rules):

* header line 1: ``<ngates> <nwires>``
* header line 2: ``<#input groups> <size>...`` (we emit one group of arity)
* header line 3: ``<#output groups> <size>...`` (one size-1 group per output)
* blank line, then one gate per line: ``<#in> <#out> <in wires...> <out wire> <OP>``
  with OP in {AND, XOR, INV}; wires are dense from 0, inputs lowest, each
  output group's wires highest in output order.

Only binary AND/XOR and unary INV appear, and every gate line defines one new
wire: line k (from 0) writes wire n + k. Line 0 is the shared zero wire
XOR(w0, w0), then one line per reachable gate, and every output is copied
onto its final wire with XOR against the zero wire. Neither addition is an
AND, so the AND line count equals the circuit's reachable AND count.
"""

from __future__ import annotations

import io
from array import array
import json
import re
from itertools import chain, compress, count, islice
from operator import countOf, itemgetter
from typing import Iterable, Iterator, TextIO

from .circuit import _KINDS, INPUT, Circuit, _Numbered

# Largest declared input count import_bristol accepts: each declared input
# takes its slots in the gate arrays before any gate line is read.
MAX_BRISTOL_INPUTS = 1 << 20

_CHUNK = 4096  # items joined per write by the streaming writers


class BristolFormatError(ValueError):
    """Raised for malformed Bristol Fashion documents."""


def _to_string(write, circuit: Circuit, *args) -> str:
    """Run a writer into a string: the one code path behind each ``export_*``."""
    fh = io.StringIO()
    write(circuit, fh, *args)
    return fh.getvalue()


def _write_joined(fh: TextIO, items: Iterable[str], sep: str, lead: str = "") -> bool:
    """Write ``lead + sep.join(items)`` to ``fh`` in chunks of _CHUNK items, or
    nothing if there are no items; return whether anything was written."""
    it, wrote = iter(items), False
    for chunk in iter(lambda: list(islice(it, _CHUNK)), []):
        fh.write(sep if wrote else lead)  # apart, so the joined chunk is not copied again
        fh.write(sep.join(chunk))
        wrote = True
    return wrote


def _bristol_lines(circuit: Circuit, live: Iterable[int]) -> Iterator[str]:
    """The gate lines, over the non-input gates flagged in ``live``."""
    n, kinds = circuit.arity, circuit._kinds
    # gate id -> wire, input x_v is wire v - 1; an array holds no int objects
    wire_of = array("q", range(n)) + array("q", [-1]) * (len(kinds) - n)
    zero = n  # defined by line 0; read by the output copies
    yield f"2 1 0 0 {zero} XOR"
    w = n + 1  # the wire the next line writes
    gates = islice(zip(count(), kinds, circuit._first, circuit._second), n, None)
    for gid, k, a, b in compress(gates, live):
        if k & 12:  # AND or XOR: most gates
            yield f"2 1 {wire_of[a]} {wire_of[b]} {w} {_KINDS[k]}"
        else:  # NOT
            yield f"1 1 {wire_of[a]} {w} INV"
        wire_of[gid] = w
        w += 1
    for gid in circuit._ids:
        yield f"2 1 {wire_of[gid]} {zero} {w} XOR"
        w += 1


def write_bristol(circuit: Circuit, fh: TextIO) -> None:
    """Write the circuit as Bristol Fashion. The header's gate count is
    counted from the circuit's plan bytes before the body streams."""
    if not circuit._ids:
        raise ValueError("cannot export a circuit with no outputs")
    n, outs, plan = circuit.arity, len(circuit._ids), circuit._plan()
    lines = 1 + len(plan) - n - plan.count(0, n) + outs  # zero wire, live gates, output copies
    fh.write(f"{lines} {n + lines}\n1 {n}\n{outs} {' '.join(['1'] * outs)}\n\n")
    _write_joined(fh, _bristol_lines(circuit, islice(plan, n, None)), "\n")
    fh.write("\n")


def export_bristol(circuit: Circuit) -> str:
    return _to_string(write_bristol, circuit)


def _ints(tokens: list[str], line_no: int) -> list[int]:
    values = []
    for t in tokens:
        try:
            values.append(int(t))
        except ValueError:  # also a digit run past int()'s length limit
            more = f" ({len(t)} characters)" if len(t) > 20 else ""
            raise BristolFormatError(
                f"line {line_no}: expected an integer, got {t[:20]!r}{more}") from None
    return values


# Bristol op -> (kind byte, input wire count)
_OPS = {"AND": (8, 2), "XOR": (4, 2), "INV": (16, 1)}
_TWO_OPERAND = {("2", "1", "AND"): 8, ("2", "1", "XOR"): 4}  # keyed by #in, #out, op


def import_bristol(text: str) -> Circuit:
    # int() also takes signs, underscores and non-ASCII digits; an ASCII
    # document free of "+-_" leaves it only runs of ASCII digits.
    if not text.isascii() or "+" in text or "-" in text or "_" in text:
        bad = re.search(r"[^\x00-\x7f]|[-+_]", text)
        no = len((text[:bad.start()] + "x").splitlines())
        raise BristolFormatError(f"line {no}: unexpected {bad.group()!r}; numbers are ASCII digits")
    lines = text.splitlines()
    # (line number, line) of each non-blank line, numbered as they are read
    nonempty = filter(itemgetter(1), enumerate(map(str.strip, lines), 1))
    header = list(islice(nonempty, 3))
    if len(header) < 3:
        raise BristolFormatError("missing header lines")

    (no1, h1), (no2, h2), (no3, h3) = header
    h1v = _ints(h1.split(), no1)
    if len(h1v) != 2:
        raise BristolFormatError(f"line {no1}: header must be '<ngates> <nwires>'")
    ngates, nwires = h1v
    # the non-blank lines after the header, counted before any is parsed
    nbody = len(lines) - lines.count("") - countOf(map(str.isspace, lines), True) - 3
    if nbody != ngates:
        raise BristolFormatError(f"header declares {ngates} gates, found {nbody}")
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
    if n_output_wires > ngates:  # each output wire is driven by its own gate line
        raise BristolFormatError(f"more output wires ({n_output_wires}) than gate lines ({ngates})")

    kinds = bytearray(n_inputs)  # the packed layout of xagsynth.circuit
    first, second = array("i", [0]) * n_inputs, array("i", [0]) * n_inputs
    gate_of: dict[int, int] = {}  # non-input wire -> gate id; input wire w is gate w

    for no, line in nonempty:
        tokens = line.split()
        try:  # "2 1 a b w AND|XOR" over defined wires: most lines
            nin, nout, a, b, out_wire, op = tokens
            kind = _TWO_OPERAND[nin, nout, op]
            a, b, out_wire = int(a), int(b), int(out_wire)
            a, b = a if a < n_inputs else gate_of[a], b if b < n_inputs else gate_of[b]
        except (ValueError, KeyError):
            kind = None
        if kind is None:  # any other line, or one with an error to name
            if len(tokens) < 4:
                raise BristolFormatError(f"line {no}: truncated gate line")
            op = tokens[-1]
            if op not in _OPS:
                raise BristolFormatError(f"line {no}: unknown op {op!r}")
            kind, arity = _OPS[op]
            try:
                nin, nout, *in_wires, out_wire = map(int, tokens[:-1])
            except ValueError:  # convert group by group, so the message names the bad one
                nin, nout = _ints(tokens[:2], no)
                in_wires = None
            if nin != arity or nout != 1:
                raise BristolFormatError(f"line {no}: {op} must have {arity} inputs, 1 output")
            if in_wires is None:
                _ints(tokens[2:-1], no)  # raises: a wire token is not an integer
            if len(in_wires) != nin:
                raise BristolFormatError(f"line {no}: expected {nin + 1} wires")
            ops = [w if w < n_inputs else gate_of.get(w, -1) for w in in_wires]
            if -1 in ops:
                w = in_wires[ops.index(-1)]
                raise BristolFormatError(f"line {no}: wire {w} used before definition")
            a, b = (*ops, 0)[:2]
        if not 0 <= out_wire < nwires:
            raise BristolFormatError(f"line {no}: output wire {out_wire} out of range")
        if out_wire < n_inputs or out_wire in gate_of:
            raise BristolFormatError(f"line {no}: wire {out_wire} defined twice")
        gate_of[out_wire] = len(kinds)
        kinds.append(kind)
        first.append(a)
        second.append(b)

    out_wires = range(nwires - n_output_wires, nwires)
    ids = array("i", [gate_of.get(w, -1) for w in out_wires])  # -1: never driven
    if -1 in ids:
        raise BristolFormatError(f"output wire {out_wires[ids.index(-1)]} is never driven")
    labels = _Numbered("o", len(ids))
    circuit = Circuit(n_inputs, (), (), _arrays=(kinds, first, second, labels, ids))
    circuit.validate()
    return circuit


def write_dot(circuit: Circuit, fh: TextIO) -> None:
    """Graphviz digraph; node order and edges follow gate ids, so two exports
    of the same circuit are byte-identical."""
    labels_by_gid: dict[int, list[str]] = {}
    for label, gid in zip(circuit._labels, circuit._ids):
        label = label.replace("\\", "\\\\").replace('"', '\\"')  # inside a quoted DOT string
        labels_by_gid.setdefault(gid, []).append(label)

    def nodes() -> Iterator[str]:
        for gid, (kind, _) in enumerate(circuit._rows()):
            label = f"x{gid + 1}" if kind == INPUT else kind  # AND, XOR or NOT
            if gid in labels_by_gid:
                label += " (" + ", ".join(labels_by_gid[gid]) + ")"
            shape = " shape=box" if kind == INPUT else ""
            yield f'  g{gid} [label="{label}"{shape}];'

    edges = (f"  g{o} -> g{gid};"
             for gid, (_, ops) in enumerate(circuit._rows()) for o in ops)
    _write_joined(fh, chain(["digraph circuit {", "  rankdir=LR;"], nodes(), edges, ["}"]), "\n")
    fh.write("\n")


def export_dot(circuit: Circuit) -> str:
    return _to_string(write_dot, circuit)


def write_json(circuit: Circuit, fh: TextIO, construction: str | None = None) -> None:
    """The circuit as the JSON document that ``json.dumps`` with ``indent=2``
    writes, byte for byte, built without json's pure-Python indent encoder;
    only the free-text values pass through ``json.dumps``."""
    n, sep = circuit.arity, ",\n        "
    fh.write(f'{{\n  "arity": {n},\n  "construction": {json.dumps(construction)},\n'
             f'  "and_count": {circuit.and_count()},\n  "gates": [')
    inputs = (f'    {{\n      "id": {gid},\n      "kind": "INPUT",\n      "var": {gid + 1}\n    }}'
              for gid in range(n))
    others = (f'    {{\n      "id": {gid},\n      "kind": "{_KINDS[k]}",\n      "operands": [\n'
              f'        {a}{f"{sep}{b}" if k & 12 else ""}\n      ]\n    }}'
              for gid, k, a, b in islice(zip(count(), circuit._kinds, circuit._first,
                                             circuit._second), n, None))
    outputs = (f'    {{\n      "label": {json.dumps(label)},\n      "id": {gid}\n    }}'
               for label, gid in zip(circuit._labels, circuit._ids))
    fh.write(("\n  ]" if _write_joined(fh, chain(inputs, others), ",\n", "\n") else "]")
             + ',\n  "outputs": [')
    fh.write(("\n  ]" if _write_joined(fh, outputs, ",\n", "\n") else "]") + "\n}\n")


def export_json(circuit: Circuit, construction: str | None = None) -> str:
    return _to_string(write_json, circuit, construction)
