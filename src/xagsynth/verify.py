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
from dataclasses import dataclass, field
from typing import Sequence

from .anf import MAX_DENSE_ARITY, Anf, Monomial
from .bitops import full_mask, iter_one_bits
from .circuit import Circuit, CircuitBuilder
from .synth import build_sigma, build_stage2, build_stage3

MISMATCH_CAP = 32

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"


def reference_f(n: int, bits: Sequence[int]) -> tuple[int, ...]:
    """Direct evaluation: output i is the AND of all inputs except bit i.

    No circuit involved; classifies the input by its zero count.
    """
    if len(bits) != n:
        raise ValueError(f"expected {n} input bits, got {len(bits)}")
    zeros = [i for i, b in enumerate(bits) if not b]
    if len(zeros) == 0:
        return (1,) * n
    if len(zeros) == 1:
        return tuple(1 if i == zeros[0] else 0 for i in range(n))
    return (0,) * n


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
    input_bits: tuple[int, ...]
    output_index: int  # 1-based
    expected: int
    got: int

    def to_dict(self) -> dict:
        return {
            "input": "".join(str(b) for b in self.input_bits),
            "output_index": self.output_index,
            "expected": self.expected,
            "got": self.got,
        }


@dataclass
class VerificationReport:
    mode: str
    arity: int
    inputs_checked: int
    outputs_checked: int
    mismatches: list[Mismatch]
    and_count_observed: int
    and_count_expected: int | None
    passed: bool
    sample_count: int | None = None
    seed: int | None = None
    mismatch_count: int = 0  # total, may exceed len(mismatches) due to the cap

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "arity": self.arity,
            "inputs_checked": self.inputs_checked,
            "outputs_checked": self.outputs_checked,
            "mismatch_count": self.mismatch_count,
            "mismatches": [m.to_dict() for m in self.mismatches],
            "and_count_observed": self.and_count_observed,
            "and_count_expected": self.and_count_expected,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "passed": self.passed,
        }


def _collect_mismatches(got_cols, expected_cols, point_bits_at):
    """Diff output columns; cap stored mismatches, count all of them."""
    mismatches: list[Mismatch] = []
    total = 0
    for out_idx, (got, exp) in enumerate(zip(got_cols, expected_cols), start=1):
        diff = got ^ exp
        total += diff.bit_count()
        if len(mismatches) < MISMATCH_CAP:
            for t in iter_one_bits(diff, MISMATCH_CAP - len(mismatches)):
                mismatches.append(Mismatch(point_bits_at(t), out_idx,
                                           (exp >> t) & 1, (got >> t) & 1))
    return mismatches, total


def _report(mode, circuit, inputs_checked, got_cols, expected_cols, point_bits_at,
            expected_and_count, **extra) -> VerificationReport:
    """Diff the columns, count ANDs and decide pass/fail in one place."""
    mismatches, total = _collect_mismatches(got_cols, expected_cols, point_bits_at)
    observed = circuit.and_count()
    passed = total == 0 and (expected_and_count is None or observed == expected_and_count)
    return VerificationReport(
        mode=mode, arity=circuit.arity, inputs_checked=inputs_checked,
        outputs_checked=circuit.arity, mismatches=mismatches, mismatch_count=total,
        and_count_observed=observed, and_count_expected=expected_and_count,
        passed=passed, **extra,
    )


def check_exhaustive(circuit: Circuit, expected_and_count: int | None = None) -> VerificationReport:
    """Compare every output against the closed-form reference on all inputs."""
    n = circuit.arity
    if n > MAX_DENSE_ARITY:
        raise ValueError(f"exhaustive check limited to arity {MAX_DENSE_ARITY}")
    if len(circuit.outputs) != n:
        raise ValueError(f"expected {n} outputs, circuit has {len(circuit.outputs)}")
    got = [t.bits for t in circuit.eval_all()]
    expected = [reference_table_bits(n, i) for i in range(1, n + 1)]

    def point_bits(x: int) -> tuple[int, ...]:
        return tuple((x >> j) & 1 for j in range(n))

    return _report(EXHAUSTIVE, circuit, 1 << n, got, expected, point_bits, expected_and_count)


def _sample_columns(n: int, count: int, seed: int) -> tuple[list[int], int]:
    """Input columns for x_1..x_n: seeded random bits, then the structured
    block (all-zeros, all-ones, and each single-zero input)."""
    rng = random.Random(seed)
    width = count + n + 2
    # structured block layout, low to high: all-zeros, all-ones, zero-at-1..n
    ones_except = (1 << (n + 2)) - 2
    columns = []
    for v in range(1, n + 1):
        structured = ones_except ^ (1 << (v + 1))
        columns.append(rng.getrandbits(count) | (structured << count))
    return columns, width


def check_sampled(circuit: Circuit, count: int, seed: int,
                  expected_and_count: int | None = None) -> VerificationReport:
    """Seeded sampled equivalence check against the direct reference.

    Deterministic for a fixed seed (Mersenne Twister via random.Random).
    Expected values are leave-one-out products of the raw input columns,
    formed from running prefix/suffix bitwise ANDs.
    """
    if count < 1:
        raise ValueError("sample count must be at least 1")
    n = circuit.arity
    if len(circuit.outputs) != n:
        raise ValueError(f"expected {n} outputs, circuit has {len(circuit.outputs)}")
    columns, width = _sample_columns(n, count, seed)
    got = circuit.output_columns(columns, width)
    expected = leave_one_out_columns(columns, width)

    def point_bits(t: int) -> tuple[int, ...]:
        return tuple((c >> t) & 1 for c in columns)

    return _report(SAMPLED, circuit, width, got, expected, point_bits, expected_and_count,
                   sample_count=count, seed=seed)


def leave_one_out_columns(columns: list[int], width: int) -> list[int]:
    """For each i, the bitwise AND of all columns except columns[i]."""
    n = len(columns)
    ones = full_mask(width)
    prefix = [ones] * (n + 1)
    for i in range(n):
        prefix[i + 1] = prefix[i] & columns[i]
    suffix = ones
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = prefix[i] & suffix
        suffix &= columns[i]
    return out


def compare_circuits_sampled(a: Circuit, b: Circuit, count: int, seed: int) -> int:
    """Number of differing (input, output) pairs between two circuits on the
    seeded sample set; both must have the same arity and output count."""
    if a.arity != b.arity or len(a.outputs) != len(b.outputs):
        raise ValueError("circuits are not comparable")
    columns, width = _sample_columns(a.arity, count, seed)
    ca = a.output_columns(columns, width)
    cb = b.output_columns(columns, width)
    return sum((x ^ y).bit_count() for x, y in zip(ca, cb))


# -- symbolic property suite -------------------------------------------------

@dataclass
class LemmaCheck:
    name: str
    n: int
    passed: bool
    detail: str = ""


@dataclass
class LemmaSuiteResult:
    checks: list[LemmaCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": [
                {"name": c.name, "n": c.n, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


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


def _stage_intermediate_anfs(n: int) -> list[Anf]:
    """Symbolic ANFs of the n intermediates: sigma_n plus the stage-2 nodes."""
    sig = sigma_anf(n)
    hi = n - 1 if n % 2 else n - 2
    nodes = [sig]
    for i in range(1, hi + 1):
        nodes.append(Anf.linear(n, [i, i + 1]) * sig)
    if n % 2 == 0:
        odd_sig = Anf(n, sigma_anf(n - 1).terms)  # sigma_{n-1} widened to arity n
        nodes.append(odd_sig * Anf.linear(n, range(1, n)))
    return nodes


def check_lemma_suite(n_max: int) -> LemmaSuiteResult:
    """Run the symbolic property suite for every arity 3..n_max."""
    if not 3 <= n_max <= 16:
        raise ValueError("n_max must be in 3..16")
    result = LemmaSuiteResult()
    add = result.checks.append

    for n in range(3, n_max + 1):
        sig = sigma_anf(n)

        # stage-1 recursion: circuit node matches the n-monomial sum and
        # costs exactly n-2 AND gates on a fresh builder
        builder = CircuitBuilder(n)
        nodes = build_sigma(builder, n)
        circuit = builder.finish([("sigma", nodes.top)])
        got_anf = Anf.from_truth_table(circuit.eval_all()[0])
        ok = got_anf == sig and builder.and_gates_created == n - 2
        add(LemmaCheck("stage1-sigma", n, ok,
                       f"and_gates={builder.and_gates_created} expected={n - 2}"))

        # each pair product (x_i XOR x_{i+1}) * sigma_n keeps exactly the two
        # monomials missing x_i and x_{i+1}
        ok = True
        detail = ""
        for i in range(1, n):
            product = Anf.linear(n, [i, i + 1]) * sig
            expected = reference_anf(n, i) + reference_anf(n, i + 1)
            if product != expected:
                ok = False
                detail = f"i={i}: got {product}"
                break
        add(LemmaCheck("pair-product-two-monomials", n, ok, detail))

        # even arity: sigma_{n-1} * (x_1 + ... + x_{n-1}) collapses to the
        # single monomial x_1...x_{n-1}
        if n % 2 == 0:
            odd_sig = Anf(n, sigma_anf(n - 1).terms)
            product = odd_sig * Anf.linear(n, range(1, n))
            expected = Anf.monomial(n, range(1, n))
            add(LemmaCheck("even-last-output", n, product == expected, str(product)))

        # stage-3 extraction: the first-output formula and the XOR chain
        # reproduce each single leave-one-out monomial
        intermediates = _stage_intermediate_anfs(n)
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

    return result
