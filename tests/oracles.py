"""Naive brute-force oracles used to compute expected test values.

Deliberately independent of the package internals: polynomials are lists of
variable-index tuples, tables are plain lists, and every transform is the
direct definition (subset sums, pairwise expansion), not the fast path.
"""

from itertools import product


def naive_monomial_value(indices, bits):
    """Product of 1-based variables ``indices`` at assignment ``bits``."""
    return int(all(bits[i - 1] for i in indices))


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

    ``gates`` are plain tuples ``(kind, ...)``; every kind but INPUT lists its
    operand ids after the kind.
    """
    seen = set()
    stack = [gid for _, gid in outputs]
    while stack:
        gid = stack.pop()
        if gid in seen:
            continue
        seen.add(gid)
        if gates[gid][0] != "INPUT":
            stack.extend(gates[gid][1:])
    return seen


def leave_one_out_reference(n, bits, i):
    """Output i of the target function: product of all inputs except x_i."""
    return int(all(b for j, b in enumerate(bits, start=1) if j != i))


def all_inputs(n):
    for bits in product((0, 1), repeat=n):
        yield list(bits)
