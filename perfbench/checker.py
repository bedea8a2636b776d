"""Independent checker for xagsynth artifacts.

It never imports ``xagsynth``: it has its own readers for the Bristol
dialect and the JSON document, its own bit-parallel evaluator, and computes
expected outputs in closed form. Output i of the leave-one-out product
family is 1 exactly on the all-ones point and on all-ones with x_i cleared.

A "column" is a Python int whose bit t is a signal's value at point t.
Points are evaluated in batches so that the live columns stay within a
memory budget whatever the arity.
"""

from __future__ import annotations

import json
import random
import re

AND, XOR, INV, ONE = "AND", "XOR", "INV", "ONE"
LIVE_BITS_BUDGET = 1 << 30  # about 128 MiB of live columns per batch
DEFAULT_RANDOM_POINTS = 64


class CheckError(Exception):
    """An artifact breaks the format or computes a wrong value."""


class Netlist:
    """Inputs are wires 0..n-1; ``gates`` holds ``(op, a, b, out)`` in
    evaluation order, with ``b = -1`` for INV and ``a = b = -1`` for ONE;
    ``outputs`` lists the wire of output 1..m."""

    def __init__(self, n_inputs: int, gates: list, outputs: list, n_wires: int):
        self.n_inputs = n_inputs
        self.gates = gates
        self.outputs = outputs
        self.n_wires = n_wires

    def and_count(self) -> int:
        """AND gates that some output depends on."""
        live = self.reachable()
        return sum(1 for (op, _, _, out) in self.gates if op == AND and live[out])

    def reachable(self) -> bytearray:
        live = bytearray(self.n_wires + 1)  # the last slot stands for wire -1
        for w in self.outputs:
            live[w] = 1
        for _, a, b, out in reversed(self.gates):
            if live[out]:
                live[a] = live[b] = 1
        return live


_NUM = r"(?:0|[1-9][0-9]*)"
_BAD_GATE_LINE = re.compile(
    rf"^(?!2 1 {_NUM} {_NUM} {_NUM} (?:AND|XOR)$|1 1 {_NUM} {_NUM} INV$).*$", re.M)


def _header_fields(line: str, line_no: int) -> list[int]:
    if not re.fullmatch(rf"{_NUM}(?: {_NUM})*", line):
        raise CheckError(f"bristol line {line_no}: not a list of integers: {line[:80]!r}")
    return [int(f) for f in line.split(" ")]


def read_bristol(text: str) -> Netlist:
    """Parse the exporter's dialect and hold it to the README's byte rules:
    one input group of n, n output groups of size 1, a blank fourth line,
    binary AND/XOR and unary INV only, every wire written once, outputs on
    the highest n wires in order."""
    head = text.split("\n", 4)
    if len(head) < 5 or head[3] != "" or not text.endswith("\n"):
        raise CheckError("bristol: expected three header lines, a blank line, "
                         "and a final newline")
    h1, h2, h3 = (_header_fields(head[i], i + 1) for i in range(3))
    if len(h1) != 2:
        raise CheckError("bristol line 1: expected '<ngates> <nwires>'")
    n_gates, n_wires = h1
    if len(h2) != 2 or h2[0] != 1:
        raise CheckError("bristol line 2: expected one input group")
    n = h2[1]
    if h3 != [n] + [1] * n:
        raise CheckError("bristol line 3: expected one size-1 output group per input")
    body = head[4][:-1]
    bad = _BAD_GATE_LINE.search(body)
    if bad:
        raise CheckError(f"bristol: bad gate line {bad.group()!r}")
    lines = body.split("\n") if body else []
    if len(lines) != n_gates:
        raise CheckError(f"bristol: header says {n_gates} gates, body has {len(lines)}")
    if n_wires != n + n_gates:
        raise CheckError("bristol: wire count is not inputs plus one wire per gate")
    defined = bytearray(n_wires + 1)  # the spare last slot is wire -1
    defined[:n] = b"\x01" * n
    defined[-1] = 1
    gates = []
    append = gates.append
    for line in lines:
        p = line.split(" ")
        if p[0] == "2":
            a, b, out, op = int(p[2]), int(p[3]), int(p[4]), p[5]
        else:
            a, b, out, op = int(p[2]), -1, int(p[3]), INV
        if a >= n_wires or b >= n_wires or not (defined[a] and defined[b]):
            raise CheckError(f"bristol: gate {line!r} reads a wire before it is written")
        if not n <= out < n_wires or defined[out]:
            raise CheckError(f"bristol: gate {line!r} writes a wire out of range or twice")
        defined[out] = 1
        append((op, a, b, out))
    return Netlist(n, gates, list(range(n_wires - n, n_wires)), n_wires)


def read_json(text: str) -> tuple[Netlist, dict]:
    """Parse the JSON circuit document; returns the netlist and the header
    fields (arity, construction, and_count). Wide XORs become chains."""
    doc = json.loads(text)
    n = doc["arity"]
    if not isinstance(n, int) or n < 1:
        raise CheckError("json: bad arity")
    wire_of: list[int] = []
    gates = []
    seen_vars = set()
    next_wire = n

    def emit(op, a, b):
        nonlocal next_wire
        gates.append((op, a, b, next_wire))
        next_wire += 1
        return next_wire - 1

    for gid, entry in enumerate(doc["gates"]):
        if entry.get("id") != gid:
            raise CheckError(f"json: gate {gid} has id {entry.get('id')!r}")
        kind = entry["kind"]
        if kind == "INPUT":
            var = entry["var"]
            if not 1 <= var <= n or var in seen_vars:
                raise CheckError(f"json: gate {gid}: bad or repeated input x{var}")
            seen_vars.add(var)
            wire_of.append(var - 1)
            continue
        ops = entry.get("operands", [])
        if any(not 0 <= o < gid for o in ops):
            raise CheckError(f"json: gate {gid}: operand not before gate")
        ins = [wire_of[o] for o in ops]
        if kind == "AND" and len(ins) == 2:
            w = emit(AND, ins[0], ins[1])
        elif kind == "XOR" and len(ins) >= 2:
            w = ins[0]
            for x in ins[1:]:
                w = emit(XOR, w, x)
        elif kind == "NOT" and len(ins) == 1:
            w = emit(INV, ins[0], -1)
        elif kind == "CONST1" and not ins:
            w = emit(ONE, -1, -1)
        else:
            raise CheckError(f"json: gate {gid}: bad kind or operand count: {kind!r}")
        wire_of.append(w)
    outputs = []
    for out in doc["outputs"]:
        gid = out["id"]
        if not 0 <= gid < len(wire_of):
            raise CheckError(f"json: output {out.get('label')!r} names unknown gate {gid}")
        outputs.append(wire_of[gid])
    header = {k: doc[k] for k in ("arity", "construction", "and_count")}
    return Netlist(n, gates, outputs, next_wire), header


class PointSet:
    """Evaluation points for arity n, in this order: all-zeros, all-ones,
    all-ones with x_i cleared for i = 1..n, then seeded random points. Each
    random point is a set of cleared variables: every eighth is uniform,
    the others clear 0..3 variables, where an output can still be 1."""

    def __init__(self, n: int, seed: int, random_points: int = DEFAULT_RANDOM_POINTS):
        rng = random.Random(seed)
        self.n = n
        self.zero_sets: list[frozenset] = []
        for k in range(random_points):
            if k % 8 == 0:
                zeros = {v for v in range(1, n + 1) if rng.getrandbits(1)}
            else:
                zeros = set(rng.sample(range(1, n + 1), min(n, rng.randrange(4))))
            self.zero_sets.append(frozenset(zeros))
        self.size = n + 2 + random_points


class PointBatch:
    """Input and expected-output columns for points lo..hi-1 of a PointSet."""

    def __init__(self, points: PointSet, lo: int, hi: int):
        n = points.n
        self.ones = (1 << (hi - lo)) - 1
        # bits of this batch where every input is 0, and per-variable extras
        self.all_zero = 1 if lo == 0 else 0
        self.extra_zeros: dict[int, int] = {}
        # expected outputs: points where every output is 1, and per-output extras
        self.all_one = 1 << (1 - lo) if lo <= 1 < hi else 0
        self.extra_ones: dict[int, int] = {}
        for p in range(max(lo, 2), min(hi, n + 2)):
            self.extra_zeros[p - 1] = self.extra_ones[p - 1] = 1 << (p - lo)
        for k, zeros in enumerate(points.zero_sets):
            p = n + 2 + k
            if not lo <= p < hi:
                continue
            bit = 1 << (p - lo)
            for var in zeros:
                self.extra_zeros[var] = self.extra_zeros.get(var, 0) | bit
            if not zeros:
                self.all_one |= bit
            elif len(zeros) == 1:
                (var,) = zeros
                self.extra_ones[var] = self.extra_ones.get(var, 0) | bit

    def input_column(self, var: int) -> int:
        return self.ones ^ (self.all_zero | self.extra_zeros.get(var, 0))

    def expected_output(self, index: int) -> int:
        """Closed form for output ``index`` (1-based) over this batch."""
        return self.all_one | self.extra_ones.get(index, 0)


def evaluate(netlist: Netlist, points: PointSet) -> int:
    """Evaluate every output on every point; returns the number of wrong
    (point, output) pairs. Each output is compared when its wire is written
    and every column is dropped after its last use, so a batch holds only
    the live set; batches are as wide as the memory budget allows."""
    n, n_wires = netlist.n_inputs, netlist.n_wires
    live = netlist.reachable()
    gates = [g for g in netlist.gates if live[g[3]]]
    outputs_of: dict[int, list[int]] = {}
    for index, w in enumerate(netlist.outputs, start=1):
        outputs_of.setdefault(w, []).append(index)
    first_use = [-1] * (n_wires + 1)
    last_use = [-1] * (n_wires + 1)
    for k, (_, a, b, _) in enumerate(gates):
        for w in (a, b):
            if first_use[w] < 0:
                first_use[w] = k
            last_use[w] = k
    pre: list[tuple] = [()] * len(gates)
    post: list[tuple] = [()] * len(gates)
    for w in range(n):
        if first_use[w] >= 0:
            pre[first_use[w]] += (w,)
    for w in range(n_wires):
        if last_use[w] >= 0:
            post[last_use[w]] += (w,)
    for k, g in enumerate(gates):
        if last_use[g[3]] < 0:
            post[k] += (g[3],)
    steps = [(op, a, b, out, pre[k], post[k], outputs_of.get(out))
             for k, (op, a, b, out) in enumerate(gates)]
    live_now = peak = 1
    for step in steps:
        live_now += len(step[4]) + 1
        peak = max(peak, live_now)
        live_now -= len(step[5])
    width = max(64, min(points.size, LIVE_BITS_BUDGET // peak))
    wrong = 0
    for lo in range(0, points.size, width):
        batch = PointBatch(points, lo, min(points.size, lo + width))
        for w, indices in outputs_of.items():
            if w < n:
                col = batch.input_column(w + 1)
                wrong += sum((col ^ batch.expected_output(i)).bit_count() for i in indices)
        wrong += _evaluate_batch(steps, n_wires, batch)
    return wrong


def _evaluate_batch(steps: list, n_wires: int, batch: PointBatch) -> int:
    ones = batch.ones
    column = batch.input_column
    expected = batch.expected_output
    vals: list = [None] * n_wires
    wrong = 0
    for op, a, b, out, pre, post, indices in steps:
        for w in pre:
            vals[w] = column(w + 1)
        if op == AND:
            v = vals[a] & vals[b]
        elif op == XOR:
            v = vals[a] ^ vals[b]
        elif op == INV:
            v = vals[a] ^ ones
        else:
            v = ones
        if indices:
            for i in indices:
                wrong += (v ^ expected(i)).bit_count()
        vals[out] = v
        for w in post:
            vals[w] = None
    return wrong


def check_circuit(netlist: Netlist, n: int, seed: int) -> list[str]:
    """Problems with a leave-one-out circuit of arity n; empty means correct."""
    problems = []
    if netlist.n_inputs != n or len(netlist.outputs) != n:
        return [f"expected {n} inputs and outputs, got {netlist.n_inputs} and "
                f"{len(netlist.outputs)}"]
    ands = netlist.and_count()
    if ands != 2 * n - 3:
        problems.append(f"{ands} AND gates, expected 2n-3 = {2 * n - 3}")
    wrong = evaluate(netlist, PointSet(n, seed))
    if wrong:
        problems.append(f"{wrong} wrong output bits on the structured and random points")
    return problems


def check_bristol(text: str, n: int, seed: int) -> list[str]:
    try:
        return check_circuit(read_bristol(text), n, seed)
    except CheckError as exc:
        return [str(exc)]


def check_json(text: str, n: int, seed: int) -> list[str]:
    try:
        netlist, header = read_json(text)
    except (CheckError, AttributeError, KeyError, TypeError, ValueError) as exc:
        return [f"json: {exc!r}"]
    problems = check_circuit(netlist, n, seed)
    if header["and_count"] != netlist.and_count():
        problems.append(f"json and_count field {header['and_count']} disagrees with the gates")
    return problems


def check_report(text: str, n: int, *, inputs: int, ands_expected: int | None,
                 passed: bool = True, seed: int | None = None) -> list[str]:
    """Compare a verify report with its known answer."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    want = {
        "arity": n,
        "passed": passed,
        "mismatch_count": 0,
        "mismatches": [],
        "inputs_checked": inputs,
        "outputs_checked": n,
        "and_count_observed": 2 * n - 3,
        "and_count_expected": ands_expected,
    }
    if seed is not None:
        want["seed"] = seed
    return [f"report {key} = {report.get(key)!r}, expected {value!r}"
            for key, value in want.items() if report.get(key) != value]
