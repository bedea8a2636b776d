"""Naive brute-force oracles used to compute expected test values.

Deliberately independent of the package internals: polynomials are lists of
variable-index tuples, tables are plain lists, and every transform is the
direct definition (subset sums, pairwise expansion), not the fast path. The
two helpers that build a circuit, ``retap`` and ``with_zero_outputs``, use
the public ``Circuit`` constructor. ``reference_optimal`` and
``reference_baseline`` are the two constructions one gate at a time, as
plain ``(kind, a, b)`` tuples appended to a list: they share no code with
the library's builder, so a fault in ``CircuitBuilder.run`` cannot show on
both sides of a comparison. ``reference_bristol`` is the Bristol writer one
line at a time, and ``patch_optimal`` and its two mutants wrap the library's
construction for mutation tests. ``traced`` measures what a call allocates.
"""

import json
import random
import tracemalloc
from functools import partial
from itertools import product

from xagsynth import Circuit, synth


def naive_monomial_value(indices, bits):
    """Product of 1-based variables ``indices`` at assignment ``bits``."""
    return int(all(bits[i - 1] for i in indices))


def mono(*indices):
    """A monomial as an int mask: bit i - 1 is set for each 1-based index i."""
    return sum(1 << (i - 1) for i in set(indices))


def vars_of(mask):
    """The 1-based variable indices of a monomial mask, in ascending order."""
    return tuple(j + 1 for j in range(mask.bit_length()) if (mask >> j) & 1)


def naive_anf_value(terms, bits):
    """XOR of monomials at one assignment; ``terms`` is a list of index tuples."""
    v = 0
    for t in terms:
        v ^= naive_monomial_value(t, bits)
    return v


def naive_table(n, func):
    """Evaluate func on all 2^n assignments, low variable = low input bit."""
    out = []
    for x in range(1 << n):
        bits = [(x >> j) & 1 for j in range(n)]
        out.append(func(bits) & 1)
    return out


def table_int(table):
    """A list table as one int: entry x is bit x."""
    return sum(v << x for x, v in enumerate(table))


def naive_anf_table(n, terms):
    return naive_table(n, lambda bits: naive_anf_value(terms, bits))


def naive_mobius(n, table):
    """ANF coefficients by the direct subset-sum definition, O(4^n)."""
    coeffs = []
    for mask in range(1 << n):
        a = 0
        sub = mask
        while True:
            a ^= table[sub]
            if sub == 0:
                break
            sub = (sub - 1) & mask
        coeffs.append(a)
    return coeffs


def naive_anf_terms(n, table):
    """Set of monomials (as frozensets of 1-based indices) of a table."""
    coeffs = naive_mobius(n, table)
    terms = set()
    for mask, a in enumerate(coeffs):
        if a:
            terms.add(frozenset(j + 1 for j in range(n) if (mask >> j) & 1))
    return terms


def naive_multiply(terms_a, terms_b):
    """Expand all pair products; identical monomials cancel mod 2."""
    parity = {}
    for ta in terms_a:
        for tb in terms_b:
            m = frozenset(ta) | frozenset(tb)
            parity[m] = parity.get(m, 0) ^ 1
    return {m for m, p in parity.items() if p}


def naive_reachable(gates, outputs):
    """Ids of the gates some output depends on, by depth-first search.

    ``gates`` are plain tuples ``(kind, *operand ids)``; an input has none.
    """
    seen = set()
    stack = [gid for _, gid in outputs]
    while stack:
        gid = stack.pop()
        if gid in seen:
            continue
        seen.add(gid)
        stack.extend(gates[gid][1:])
    return seen


def naive_gf2_rank(rows):
    """Rank over GF(2) of rows given as int bitsets, by Gauss-Jordan
    elimination one pivot column at a time."""
    rows = list(rows)
    rank = 0
    for col in range(max(rows, default=0).bit_length()):
        pivot = next((k for k in range(rank, len(rows)) if (rows[k] >> col) & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for k in range(len(rows)):
            if k != rank and (rows[k] >> col) & 1:
                rows[k] ^= rows[rank]
        rank += 1
    return rank


def traced(call):
    """``call()`` under tracemalloc: its result, then the bytes still held
    with the result alive and the peak, both counted from the start."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def retap(circuit, k, gid):
    """``circuit`` with output k re-tapped at gate ``gid``, sharing its gates."""
    outputs = list(circuit.outputs)
    outputs[k] = (outputs[k][0], gid)
    return Circuit(circuit.arity, circuit.gates, tuple(outputs))


def with_zero_outputs(circuit, indices):
    """The circuit with the given outputs tapped at a constant 0, XOR(x1, x1)."""
    gates, outputs = circuit.gates, list(circuit.outputs)  # each view built once
    for k in indices:
        outputs[k] = (outputs[k][0], len(gates))
    return Circuit(circuit.arity, gates + (("XOR", 0, 0),), outputs)


def _gate_list(n):
    """An empty construction over plain tuples: the gate list, as
    ``Circuit.gates`` lists gates, and ``and_``/``xor``, which append one
    two-operand gate to it and return the new gate's id."""
    gates = [("INPUT",)] * n

    def append(kind, a, b):
        gates.append((kind, a, b))
        return len(gates) - 1

    return gates, partial(append, "AND"), partial(append, "XOR")


def _ands(gates, start, stop):
    return [gate[0] for gate in gates[start:stop]].count("AND")


def reference_optimal(n):
    """The optimal construction one gate at a time, in plain tuples: the
    reference for ``synth._build_optimal``, which emits the same gates in
    bulk runs. Returns the gates, the sigma_n id, the stage-2 ids, the
    output ids and the ANDs each stage added."""
    gates, and_, xor = _gate_list(n)
    x = list(range(-1, n))  # x[v] = gate v - 1, one int shared by its readers
    odd = n % 2

    # stage 1: sigma_n with n-2 ANDs; each step reads its two inputs x_{m-2}
    # and x_{m-1} for the last time, and builds every pair that stage 2 reads
    prefix = [None, x[1], xor(x[1], x[2])]  # prefix[k] = x_1 XOR ... XOR x_k
    pair = [None, prefix[2], xor(x[2], x[3])]  # pair[i] = x_i XOR x_{i+1}
    sigma = xor(and_(pair[1], pair[2]), x[2])
    for m in range(5, n + 1 if odd else n, 2):
        # sigma_m = sigma_{m-2} AND (((x_{m-1} XOR x_m) AND (x_1+...+x_{m-1})) XOR x_{m-1})
        prefix.append(xor(prefix[m - 3], x[m - 2]))
        pair.append(xor(x[m - 2], x[m - 1]))
        pair.append(xor(x[m - 1], x[m]))
        prefix.append(xor(prefix[m - 2], x[m - 1]))
        sigma = and_(sigma, xor(and_(pair[m - 1], prefix[m - 1]), x[m - 1]))
    if not odd:
        previous = sigma  # sigma_{n-1}
        prefix.append(xor(prefix[n - 2], x[n - 1]))
        prefix.append(xor(prefix[n - 1], x[n]))
        sigma = and_(previous, prefix[n])
    end1 = len(gates)

    # stage 2: pair products (x_i XOR x_{i+1}) AND sigma_n; for even n the
    # last one is sigma_{n-1} AND prefix[n-1]
    stage2 = [and_(pair[i], sigma) for i in range(1, n if odd else n - 1)]
    if not odd:
        stage2.append(and_(previous, prefix[n - 1]))
    end2 = len(gates)

    # stage 3, XOR only
    f1 = sigma if odd else xor(sigma, stage2[-1])
    for s in stage2[1::2]:
        f1 = xor(f1, s)
    outputs = [f1]
    for s in (stage2 if odd else stage2[:-1]):
        outputs.append(xor(outputs[-1], s))
    if not odd:
        outputs.append(stage2[-1])
    counts = (_ands(gates, n, end1), _ands(gates, end1, end2), _ands(gates, end2, None))
    return gates, sigma, stage2, outputs, counts


def reference_baseline(n):
    """The baseline construction one gate at a time, in plain tuples: the
    reference for ``synth._build_baseline``, which emits the same gates in
    three runs. Returns what ``reference_optimal`` does, with no sigma_n and
    no stage-2 ids."""
    gates, and_, _ = _gate_list(n)
    x = list(range(-1, n))  # x[v] = gate v - 1, one int shared by its readers
    p = [None, x[1]]  # p[i] = x_1...x_i
    for i in range(2, n):
        p.append(and_(p[i - 1], x[i]))
    q = [0] * (n + 2)  # q[i] = x_i...x_n
    q[n] = x[n]
    for i in range(n - 1, 1, -1):
        q[i] = and_(x[i], q[i + 1])
    outputs = [q[2]]
    for i in range(2, n):
        outputs.append(and_(p[i - 1], q[i + 1]))
    outputs.append(p[n - 1])
    return gates, None, [], outputs, (_ands(gates, n, None), 0, 0)


def patch_optimal(monkeypatch, change):
    """Make ``synthesize_plan``'s optimal construction a mutant: ``change``
    maps (builder, sigma id, stage-2 ids, output ids) to the sigma, stage-2
    and output ids it returns instead; the stage AND counts are kept."""
    build = synth._build_optimal

    def mutant(builder, n):
        sigma, stage2, outputs, counts = build(builder, n)
        return (*change(builder, sigma, stage2, outputs), counts)

    monkeypatch.setattr(synth, "_build_optimal", mutant)


def stage2_at_one_and(builder, sigma, stage2, outputs):
    """Every stage-2 id names one new, dead AND(x_1, x_2); the outputs stay right."""
    return sigma, [builder.and_(0, 1)] * len(stage2), outputs


def outputs_at_sigma(builder, sigma, stage2, outputs):
    """Every output is tapped at sigma_n."""
    return sigma, stage2, [sigma] * len(outputs)


def reference_bristol(circuit):
    """The Bristol Fashion document one gate line at a time, over the public
    ``gates`` and ``outputs`` views and ``naive_reachable``: the byte oracle
    for ``write_bristol``, which formats a chunk of gates at once."""
    gates, outputs, n = circuit.gates, circuit.outputs, circuit.arity
    live = naive_reachable(gates, outputs)
    wire_of = {gid: gid for gid in range(n)}  # input x_v is wire v - 1
    zero = n  # the shared zero wire, read by the output copies
    lines = [f"2 1 0 0 {zero} XOR"]
    for gid in range(n, len(gates)):
        if gid not in live:
            continue
        kind, *ops = gates[gid]
        wire_of[gid] = n + len(lines)
        ins = " ".join(str(wire_of[o]) for o in ops)
        lines.append(f"{len(ops)} 1 {ins} {wire_of[gid]} {'INV' if kind == 'NOT' else kind}")
    for _, gid in outputs:
        lines.append(f"2 1 {wire_of[gid]} {zero} {n + len(lines)} XOR")
    header = [f"{len(lines)} {n + len(lines)}", f"1 {n}",
              " ".join([str(len(outputs))] + ["1"] * len(outputs)), ""]
    return "\n".join(header + lines) + "\n"


def json_dumps_circuit(circuit, construction=None):
    """The JSON circuit document as ``json.dumps(doc, indent=2)`` writes it:
    the byte oracle for ``export_json``."""
    gates, outputs, entries = circuit.gates, circuit.outputs, []  # each view built once
    for gid, gate in enumerate(gates):
        entry = {"id": gid, "kind": gate[0]}
        if gate[0] == "INPUT":
            entry["var"] = gid + 1
        else:
            entry["operands"] = list(gate[1:])
        entries.append(entry)
    reach = naive_reachable(gates, outputs)
    doc = {
        "arity": circuit.arity,
        "construction": construction,
        "and_count": sum(1 for gid in reach if gates[gid][0] == "AND"),
        "gates": entries,
        "outputs": [{"label": label, "id": gid} for label, gid in outputs],
    }
    return json.dumps(doc, indent=2) + "\n"


def leave_one_out_reference(n, bits, i):
    """Output i of the target function: product of all inputs except x_i."""
    return int(all(b for j, b in enumerate(bits, start=1) if j != i))


def all_inputs(n):
    for bits in product((0, 1), repeat=n):
        yield list(bits)


def naive_eval(gates, outputs, bits):
    """Output values at one assignment, gate by gate from the definitions.

    ``gates`` are tuples ``(kind, *operand ids)`` whose first ``len(bits)``
    entries are the inputs; ``outputs`` are ``(label, gate id)`` pairs.
    """
    values = list(bits)
    for kind, *ops in gates[len(bits):]:
        if kind == "AND":
            values.append(int(all(values[o] for o in ops)))
        elif kind == "XOR":
            values.append(sum(values[o] for o in ops) % 2)
        else:  # NOT
            values.append(1 - values[ops[0]])
    return [values[gid] for _, gid in outputs]


def sampled_columns(n, count, seed):
    """The sampled check's input columns over its whole width, one int per
    input: ``count`` seeded random points, then all-zeros, all-ones and the
    single-zero input of each x_v, in that order."""
    rng = random.Random(seed)
    columns = []
    for v in range(1, n + 1):
        structured = [0, 1] + [int(u != v) for u in range(1, n + 1)]
        high = sum(bit << s for s, bit in enumerate(structured))
        columns.append(rng.getrandbits(count) | high << count)
    return columns, count + n + 2


def sampled_mismatches(circuit, count, seed, other=None):
    """(mismatch count, first 32 mismatches as report dicts) of ``circuit``
    on the whole-width sample set, in (output, point) order.

    Expected values are ``other``'s outputs when given, else each output's
    leave-one-out product taken directly from the input columns.
    """
    n = circuit.arity
    columns, width = sampled_columns(n, count, seed)
    got = circuit.output_columns(columns, width)
    if other is not None:
        expected = other.output_columns(columns, width)
    else:
        ones = (1 << width) - 1
        expected = []
        for i in range(n):
            col = ones
            for j, c in enumerate(columns):
                if j != i:
                    col &= c
            expected.append(col)
    found = []
    for out_idx, (g, e) in enumerate(zip(got, expected), start=1):
        if g == e:  # no point of this output differs
            continue
        for t in range(width):
            if (g >> t) & 1 != (e >> t) & 1:
                found.append({"input": "".join(str((c >> t) & 1) for c in columns),
                              "output_index": out_idx,
                              "expected": (e >> t) & 1, "got": (g >> t) & 1})
    return len(found), found[:32]
