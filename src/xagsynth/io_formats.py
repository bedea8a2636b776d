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
AND, so the AND line count equals the circuit's reachable AND count. The
writer formats each chunk of gates with one ``%`` over a template of one line
per live gate; a gate's wire comes from a 4-byte running count of live gates.

The importer reads any document in the format, with any group shapes, line
breaks and spacing, line by line through a wire -> gate map. A document in
exactly the dialect above with AND and XOR lines only, as ``write_bristol``
emits for a synthesized circuit, takes a bulk branch instead: each wire is
its own gate id, and each chunk of about 256 KiB of lines is parsed at C
level as one JSON array. Any fault sends the document to the per-line
parser, which alone raises, so its messages are the only ones.

The JSON writer, too, formats each chunk of gates with one ``%`` over a
template of one record per gate's kind.
"""

from __future__ import annotations

import io
from array import array
import json
import re
from itertools import accumulate, chain, compress, count, islice
from operator import countOf, itemgetter, lt, neg
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


# Bristol line per kind byte; a NOT's unused second operand is formatted to nothing
_LINES = {4: "2 1 %d %d %d XOR\n", 8: "2 1 %d %d %d AND\n", 16: "1 1 %d %.0s%d INV\n"}


def write_bristol(circuit: Circuit, fh: TextIO) -> None:
    """Write the circuit as Bristol Fashion, one ``%`` format per chunk of
    gates. Wires are counted from the circuit's plan bytes before the body
    streams: input x_v is wire v - 1, the zero wire is n and the k-th live
    gate past the inputs (from 1) is wire n + k."""
    if not circuit._ids:
        raise ValueError("cannot export a circuit with no outputs")
    n, ids, plan, first, second = (circuit.arity, circuit._ids, circuit._plan(),
                                   circuit._first, circuit._second)
    # gate id -> wire; a dead gate's entry is never read, and the one past the
    # last gate is the first output copy's wire
    wire = array("I", range(n))
    wire.extend(accumulate(map(bool, islice(plan, n, None)), initial=n + 1))
    at, outs = wire.__getitem__, len(ids)
    lines = wire[-1] - n + outs  # zero wire, live gates, output copies
    fh.write(f"{lines} {n + lines}\n1 {n}\n{outs} {' '.join(['1'] * outs)}\n\n2 1 0 0 {n} XOR\n")
    for lo in range(n, len(plan), _CHUNK):
        hi = lo + _CHUNK
        live = plan[lo:hi]
        fmt = "".join(map(_LINES.__getitem__, compress(circuit._kinds[lo:hi], live)))
        fh.write(fmt % tuple(chain.from_iterable(zip(
            map(at, compress(first[lo:hi], live)), map(at, compress(second[lo:hi], live)),
            count(wire[lo])))))
    for lo in range(0, outs, _CHUNK):  # each output copied onto its wire: XOR with zero
        chunk = ids[lo:lo + _CHUNK]
        fh.write(f"2 1 %d {n} %d XOR\n" * len(chunk)
                 % tuple(chain.from_iterable(zip(map(at, chunk), count(wire[-1] + lo)))))


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


def import_bristol(text: str) -> Circuit:
    """The validated circuit of a Bristol Fashion document.

    Two branches read it, and the text selects which. A document in the exact
    dialect :func:`write_bristol` emits is parsed a chunk of lines at a time;
    any other document, or one that branch cannot prove is in that dialect,
    is read by the per-line parser. Both give the same circuit. The bulk
    branch never raises: only the per-line parser raises
    :class:`BristolFormatError`, and its message names the first fault.
    """
    # int() also takes signs, underscores and non-ASCII digits; an ASCII
    # document free of "+-_" leaves it only runs of ASCII digits, and leaves
    # the bulk branch's negative op codes unambiguous.
    if not text.isascii() or "+" in text or "-" in text or "_" in text:
        bad = re.search(r"[^\x00-\x7f]|[-+_]", text)
        no = len((text[:bad.start()] + "x").splitlines())
        raise BristolFormatError(f"line {no}: unexpected {bad.group()!r}; numbers are ASCII digits")
    circuit = _read_canonical(text)
    if circuit is None:
        circuit = _read_lines(text)
    circuit.validate()
    return circuit


# write_bristol's header: gate and wire counts, one input group, one size-1
# group per output, then a blank line
_CANONICAL_HEAD = re.compile(r"([0-9]+) ([0-9]+)\n1 ([0-9]+)\n([0-9]+)((?: 1)*)\n\n")
_BULK = 1 << 18  # characters of body text the bulk branch parses per step
_NUMERIC = dict.fromkeys(map(ord, "0123456789,-"))  # str.translate deletes these


def _read_canonical(text: str) -> Circuit | None:
    """The circuit of a document in write_bristol's dialect, or None for any
    document this cannot prove is in it.

    Body line k is ``2 1 a b n+k AND|XOR`` with a, b < n + k, so each wire is
    its own gate id and no wire map is needed. Each chunk of lines becomes
    one JSON array of six numbers per line, the op as -8 or -4 (the text has
    no '-'), and is checked field by field with slices before its gates are
    appended."""
    head = _CANONICAL_HEAD.match(text)
    # every chunk then ends a line, and a ',' would read as a space
    if head is None or not text.endswith("\n") or "," in text:
        return None
    try:
        ngates, nwires, n, outs = map(int, head.group(1, 2, 3, 4))
    except ValueError:  # a digit run past int()'s length limit
        return None
    if (len(head[5]) != 2 * outs or not 1 <= n <= MAX_BRISTOL_INPUTS
            or not 1 <= outs <= ngates or nwires != n + ngates):
        return None
    kinds = bytearray(n)
    first, second = array("i", [0]) * n, array("i", [0]) * n
    pos = head.end()
    while pos < len(text):
        end = text.find("\n", pos + _BULK) + 1 or len(text)
        body = (text[pos:end].replace(" AND\n", ",-8,").replace(" XOR\n", ",-4,")
                .replace(" ", ","))
        if body.translate(_NUMERIC):  # JSON would also read 1.5, 1e3, NaN or true
            return None
        try:
            v = json.loads(f"[{body[:-1]}]")
        except ValueError:  # 07, an empty field, or a digit run past int()'s length limit
            return None
        a, b, ops = v[2::6], v[3::6], v[5::6]
        m = len(ops)
        wires = range(len(kinds), len(kinds) + m)
        if (len(v) % 6 or v[::6].count(2) != m or v[1::6].count(1) != m
                or ops.count(-8) + ops.count(-4) != m or v[4::6] != list(wires)
                or min(a) < 0 or min(b) < 0
                or not all(map(lt, a, wires)) or not all(map(lt, b, wires))):
            return None
        kinds += bytes(map(neg, ops))
        first += array("i", a)
        second += array("i", b)
        pos = end
    if len(kinds) != n + ngates:
        return None
    ids = array("i", range(nwires - outs, nwires))
    return Circuit(n, (), (), _arrays=(kinds, first, second, _Numbered("o", outs), ids))


def _read_lines(text: str) -> Circuit:
    """The circuit of any Bristol Fashion document, read line by line through
    a wire -> gate map, or :class:`BristolFormatError` naming the first fault."""
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
        if len(tokens) < 4:
            raise BristolFormatError(f"line {no}: truncated gate line")
        op = tokens[-1]
        if op not in _OPS:
            raise BristolFormatError(f"line {no}: unknown op {op!r}")
        kind, arity = _OPS[op]
        nin, nout = _ints(tokens[:2], no)
        if nin != arity or nout != 1:
            raise BristolFormatError(f"line {no}: {op} must have {arity} inputs, 1 output")
        *in_wires, out_wire = _ints(tokens[2:-1], no)
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
    return Circuit(n_inputs, (), (), _arrays=(kinds, first, second, _Numbered("o", len(ids)), ids))


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


# JSON gate record per kind byte, formatted from (id, operand or an input's
# variable, second operand); a record leaves out the slots its kind lacks
_RECORDS = {k: '    {\n      "id": %d,\n      "kind": "' + name + (
    '",\n      "var": %d%.0s\n    }' if k == 0 else
    '",\n      "operands": [\n        %d' + (",\n        %d" if k & 12 else "%.0s") + "\n      ]\n    }")
    for k, name in _KINDS.items()}


def write_json(circuit: Circuit, fh: TextIO, construction: str | None = None) -> None:
    """The circuit as the JSON document that ``json.dumps`` with ``indent=2``
    writes, byte for byte, built without json's pure-Python indent encoder:
    gate records one ``%`` format per chunk of gates, the construction
    through ``json.dumps`` and each label through the C string encoder that
    ``json.dumps`` calls for a ``str``."""
    n, kinds, second = circuit.arity, circuit._kinds, circuit._second
    fh.write(f'{{\n  "arity": {n},\n  "construction": {json.dumps(construction)},\n'
             f'  "and_count": {circuit.and_count()},\n  "gates": [')
    firsts = chain(range(1, n + 1), islice(circuit._first, n, None))  # x_v is gate v - 1
    for lo in range(0, len(kinds), _CHUNK):
        hi = lo + _CHUNK
        fh.write(",\n" if lo else "\n")
        fh.write(",\n".join(map(_RECORDS.__getitem__, kinds[lo:hi]))
                 % tuple(chain.from_iterable(zip(range(lo, hi), firsts, second[lo:hi]))))
    labels = map(json.encoder.encode_basestring_ascii, circuit._labels)
    outputs = (f'    {{\n      "label": {label},\n      "id": {gid}\n    }}'
               for label, gid in zip(labels, circuit._ids))
    fh.write(("\n  ]" if kinds else "]") + ',\n  "outputs": [')
    fh.write(("\n  ]" if _write_joined(fh, outputs, ",\n", "\n") else "]") + "\n}\n")


def export_json(circuit: Circuit, construction: str | None = None) -> str:
    return _to_string(write_json, circuit, construction)
