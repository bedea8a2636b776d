"""Independent oracles and equivalence checking.

Everything here is deliberately computed without the synthesizer: reference
values come either in closed form (a leave-one-out product is 1 on exactly
two points) or from direct bitwise products of input columns. Checks fill a
:class:`VerificationReport`; sampled checks always include the structured
inputs on which the function is nonzero, because uniform random inputs are
almost surely all-zero outputs at large arity.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass

from .anf import MAX_DENSE_ARITY, Anf, Monomial
from .bitops import full_mask, iter_one_bits
from .circuit import Circuit
from .synth import synthesize_plan

MISMATCH_CAP = 32
STRUCTURED_BLOCK = 4096  # structured sample points evaluated per block

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"


def reference_anf(n: int, i: int) -> Anf:
    """ANF of output i: the single degree-(n-1) monomial missing x_i."""
    if not 1 <= i <= n:
        raise ValueError(f"output index {i} out of range 1..{n}")
    return Anf(n, [Monomial(full_mask(n) ^ (1 << (i - 1)))])


def sigma_anf(n: int) -> Anf:
    """ANF of sigma_n: all n monomials of degree n-1."""
    full = full_mask(n)
    return Anf(n, [Monomial(full ^ (1 << k)) for k in range(n)])


def reference_table_bits(n: int, i: int) -> int:
    """Closed-form truth-table column for output i (1-based).

    The output is 1 on exactly two points: all-ones, and all-ones with x_i
    cleared.
    """
    full_point = full_mask(n)
    return (1 << full_point) | (1 << (full_point ^ (1 << (i - 1))))


@dataclass
class Mismatch:
    input: str  # the point's bits, x_1 first
    output_index: int  # 1-based
    expected: int
    got: int


@dataclass
class VerificationReport:
    """A check's outcome; the fields are in the JSON report's key order."""

    mode: str
    arity: int
    inputs_checked: int
    outputs_checked: int
    mismatch_count: int  # total, may exceed len(mismatches) due to the cap
    mismatches: list[Mismatch]
    and_count_observed: int
    and_count_expected: int | None
    sample_count: int | None
    seed: int | None
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _merge_mismatches(blocks):
    """Diff output columns block by block and count every mismatch.

    ``blocks`` yields ``(first point, got columns, expected columns)`` in
    point order. Only the MISMATCH_CAP smallest ``(output, point, expected,
    got)`` keys are kept, so an output past the current last key is counted
    but never scanned: a later block's points all come after it.
    """
    kept: list[tuple[int, int, int, int]] = []
    total = 0
    for first, got_cols, expected_cols in blocks:
        for out_idx, (got, exp) in enumerate(zip(got_cols, expected_cols), start=1):
            diff = got ^ exp
            if not diff:
                continue
            total += diff.bit_count()
            if len(kept) < MISMATCH_CAP or out_idx < kept[-1][0]:
                kept += [(out_idx, first + t, (exp >> t) & 1, (got >> t) & 1)
                         for t in iter_one_bits(diff, MISMATCH_CAP)]
                kept.sort()
                del kept[MISMATCH_CAP:]
        del got_cols, expected_cols  # free the block before the next is built
    return kept, total


def _report(mode, circuit, inputs_checked, blocks, point_at, expected_and_count,
            sample_count=None, seed=None) -> VerificationReport:
    """Merge the blocks' mismatches, count ANDs and decide pass/fail in one place."""
    kept, total = _merge_mismatches(blocks)
    mismatches = [Mismatch(point_at(t), out_idx, exp, got) for out_idx, t, exp, got in kept]
    observed = circuit.and_count()
    passed = total == 0 and (expected_and_count is None or observed == expected_and_count)
    return VerificationReport(mode, circuit.arity, inputs_checked, circuit.arity, total,
                              mismatches, observed, expected_and_count, sample_count, seed,
                              passed)


def check_exhaustive(circuit: Circuit, expected_and_count: int | None = None) -> VerificationReport:
    """Compare every output against the closed-form reference on all inputs."""
    n = circuit.arity
    if n > MAX_DENSE_ARITY:
        raise ValueError(f"exhaustive check limited to arity {MAX_DENSE_ARITY}")
    if len(circuit.outputs) != n:
        raise ValueError(f"expected {n} outputs, circuit has {len(circuit.outputs)}")
    got = [t.bits for t in circuit.eval_all()]
    expected = [reference_table_bits(n, i) for i in range(1, n + 1)]

    def point(x: int) -> str:
        return format(x, f"0{n}b")[::-1]

    return _report(EXHAUSTIVE, circuit, 1 << n, [(0, got, expected)], point,
                   expected_and_count)


def _structured_columns(n: int, start: int, width: int) -> list[int]:
    """Input columns of x_1..x_n over structured points start..start+width-1.

    Structured point 0 is all-zeros, point 1 all-ones and point v + 1 zero
    at x_v only. Every column without a zero inside the block is one shared
    int, so a block holds at most ``width`` distinct columns.
    """
    base = full_mask(width) ^ (start == 0)  # clear the all-zeros point
    columns = [base] * n
    for s in range(max(start, 2), start + width):
        columns[s - 2] = base ^ (1 << (s - start))
    return columns


def _sample_blocks(n: int, count: int, seed: int):
    """The seeded sample set: the random columns, and a generator of its
    blocks as ``(first point, input columns, width)``.

    Points 0..count-1 are seeded random bits, one block held whole; the
    n + 2 structured points follow in blocks of STRUCTURED_BLOCK points,
    each built in closed form when it is reached.
    """
    if count < 1:
        raise ValueError("sample count must be at least 1")
    rng = random.Random(seed)
    columns = [rng.getrandbits(count) for _ in range(n)]

    def blocks():
        yield 0, columns, count
        for start in range(0, n + 2, STRUCTURED_BLOCK):
            width = min(STRUCTURED_BLOCK, n + 2 - start)
            yield count + start, _structured_columns(n, start, width), width

    return columns, blocks()


def check_sampled(circuit: Circuit, count: int, seed: int,
                  expected_and_count: int | None = None) -> VerificationReport:
    """Seeded sampled equivalence check against the direct reference.

    Deterministic for a fixed seed (Mersenne Twister via random.Random).
    Expected values are leave-one-out products of the raw input columns,
    formed from running prefix/suffix bitwise ANDs, one block of points at
    a time.
    """
    n = circuit.arity
    if len(circuit.outputs) != n:
        raise ValueError(f"expected {n} outputs, circuit has {len(circuit.outputs)}")
    columns, blocks = _sample_blocks(n, count, seed)
    evaluated = ((first, circuit.output_columns(cols, width), leave_one_out_columns(cols, width))
                 for first, cols, width in blocks)

    def point(t: int) -> str:
        if t < count:
            return "".join(str((c >> t) & 1) for c in columns)
        return "".join(map(str, _structured_columns(n, t - count, 1)))

    return _report(SAMPLED, circuit, count + n + 2, evaluated, point, expected_and_count,
                   count, seed)


def leave_one_out_columns(columns: list[int], width: int) -> list[int]:
    """For each i, the bitwise AND of all columns except columns[i]."""
    n = len(columns)
    ones = full_mask(width)
    out = [ones] * n  # out[i] first holds the prefix AND of columns[:i]
    for i in range(1, n):
        out[i] = out[i - 1] & columns[i - 1]
    suffix = ones
    for i in range(n - 1, -1, -1):
        out[i] &= suffix
        suffix &= columns[i]
    return out


def compare_circuits_sampled(a: Circuit, b: Circuit, count: int, seed: int) -> int:
    """Number of differing (input, output) pairs between two circuits on the
    seeded sample set; both must have the same arity and output count."""
    if a.arity != b.arity or len(a.outputs) != len(b.outputs):
        raise ValueError("circuits are not comparable")
    _, blocks = _sample_blocks(a.arity, count, seed)
    evaluated = ((first, a.output_columns(cols, width), b.output_columns(cols, width))
                 for first, cols, width in blocks)
    return _merge_mismatches(evaluated)[1]


# -- symbolic property suite -------------------------------------------------

@dataclass
class LemmaCheck:
    name: str
    n: int
    passed: bool
    detail: str = ""


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


def check_lemma_suite(n_max: int) -> list[LemmaCheck]:
    """Run the symbolic property suite for every arity 3..n_max."""
    if not 3 <= n_max <= 16:
        raise ValueError("n_max must be in 3..16")
    checks: list[LemmaCheck] = []
    add = checks.append

    for n in range(3, n_max + 1):
        sig = sigma_anf(n)

        # stage-1 recursion: the synthesized sigma_n node matches the
        # n-monomial sum, and stage 1 costs exactly n-2 AND gates
        plan = synthesize_plan(n)
        circuit = Circuit(n, plan.circuit.gates, (("sigma", plan.sigma),))
        got_anf = Anf.from_truth_table(circuit.eval_all()[0])
        stage1_ands = plan.stage_and_counts[0]
        ok = got_anf == sig and stage1_ands == n - 2
        add(LemmaCheck("stage1-sigma", n, ok,
                       f"and_gates={stage1_ands} expected={n - 2}"))

        # each pair product (x_i XOR x_{i+1}) * sigma_n keeps exactly the two
        # monomials missing x_i and x_{i+1}
        pairs = [Anf.linear(n, [i, i + 1]) * sig for i in range(1, n)]
        bad = [i for i, product in enumerate(pairs, start=1)
               if product != reference_anf(n, i) + reference_anf(n, i + 1)]
        detail = f"i={bad[0]}: got {pairs[bad[0] - 1]}" if bad else ""
        add(LemmaCheck("pair-product-two-monomials", n, not bad, detail))

        # the n intermediates: sigma_n and the stage-2 nodes, whose last one
        # for even arity is sigma_{n-1} * (x_1 + ... + x_{n-1}); that product
        # collapses to the single monomial x_1...x_{n-1}
        if n % 2:
            intermediates = [sig, *pairs]
        else:
            odd_sig = Anf(n, sigma_anf(n - 1).terms)  # sigma_{n-1} widened to arity n
            product = odd_sig * Anf.linear(n, range(1, n))
            ok = product == Anf.monomial(n, range(1, n))
            add(LemmaCheck("even-last-output", n, ok, str(product)))
            intermediates = [sig, *pairs[:-1], product]

        # stage-3 extraction: the first-output formula and the XOR chain
        # reproduce each single leave-one-out monomial
        if n % 2:
            f = sig
            for i in range(1, (n - 1) // 2 + 1):
                f = f + intermediates[2 * i]
            chain_top = n
        else:
            f = sig + intermediates[-1]
            for i in range(1, (n - 2) // 2 + 1):
                f = f + intermediates[2 * i]
            chain_top = n - 1
        ok = f == reference_anf(n, 1)
        for i in range(2, chain_top + 1):
            f = f + intermediates[i - 1]
            ok = ok and f == reference_anf(n, i)
        if n % 2 == 0:
            ok = ok and intermediates[-1] == reference_anf(n, n)
        add(LemmaCheck("output-extraction", n, ok))

        # the n intermediates are linearly independent in the basis of the n
        # degree-(n-1) monomials, so XOR subsets reach every output
        rows = []
        independent = True
        for a in intermediates:
            row = 0
            for m in a.terms:
                missing = full_mask(n) ^ m.mask
                if m.degree != n - 1 or missing.bit_count() != 1:
                    independent = False
                    break
                row |= missing
            rows.append(row)
        rank = _gf2_rank(rows)
        independent = independent and rank == n
        add(LemmaCheck("linear-independence", n, independent, f"rank={rank}"))

    return checks
