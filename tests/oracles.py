"""Naive brute-force oracles used to compute expected test values.

Deliberately independent of the package internals: polynomials are lists of
variable-index tuples, tables are plain lists, and every transform is the
direct definition (subset sums, pairwise expansion), not the fast path. The
two helpers that build a circuit, ``retap`` and ``with_zero_outputs``, use
the public ``Circuit`` constructor; ``patch_optimal`` and its two mutants
wrap the optimal construction for mutation tests.
"""

import json
import random
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


def retap(circuit, k, gid):
    """``circuit`` with output k re-tapped at gate ``gid``, sharing its gates."""
    outputs = list(circuit.outputs)
    outputs[k] = (outputs[k][0], gid)
    return Circuit(circuit.arity, circuit.gates, tuple(outputs))


def with_zero_outputs(circuit, indices):
    """The circuit with the given outputs tapped at a constant 0, XOR(x1, x1)."""
    zero = len(circuit.gates)
    c = Circuit(circuit.arity, circuit.gates + (("XOR", 0, 0),), circuit.outputs)
    for k in indices:
        c = retap(c, k, zero)
    return c


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


def json_dumps_circuit(circuit, construction=None):
    """The JSON circuit document as ``json.dumps(doc, indent=2)`` writes it:
    the byte oracle for ``export_json``."""
    gates = []
    for gid, gate in enumerate(circuit.gates):
        entry = {"id": gid, "kind": gate[0]}
        if gate[0] == "INPUT":
            entry["var"] = gid + 1
        else:
            entry["operands"] = list(gate[1:])
        gates.append(entry)
    reach = naive_reachable(circuit.gates, circuit.outputs)
    doc = {
        "arity": circuit.arity,
        "construction": construction,
        "and_count": sum(1 for gid in reach if circuit.gates[gid][0] == "AND"),
        "gates": gates,
        "outputs": [{"label": label, "id": gid} for label, gid in circuit.outputs],
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
