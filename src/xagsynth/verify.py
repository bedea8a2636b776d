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
from functools import cache

from .anf import Anf
from .bitops import full_mask, iter_one_bits
from .circuit import AND, MAX_DENSE_ARITY, XOR, Circuit
from .synth import synthesize_plan

MISMATCH_CAP = 32
STRUCTURED_BLOCK = 4096  # fewest single-zero points per structured block

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"


def reference_anf(n: int, i: int) -> Anf:
    """ANF of output i: the single degree-(n-1) monomial missing x_i."""
    if not 1 <= i <= n:
        raise ValueError(f"output index {i} out of range 1..{n}")
    return Anf(n, [full_mask(n) ^ (1 << (i - 1))])


def sigma_anf(n: int) -> Anf:
    """ANF of sigma_n: all n monomials of degree n-1."""
    full = full_mask(n)
    return Anf(n, [full ^ (1 << k) for k in range(n)])


def reference_table_bits(n: int, i: int) -> int:
    """Closed-form truth-table column for output i (1-based).

    The output is 1 on exactly two points: all-ones, and all-ones with x_i
    cleared.
    """
    full_point = full_mask(n)
    return (1 << full_point) | (1 << (full_point ^ (1 << (i - 1))))


class Mismatch:
    """One (point, output) pair on which the circuit and reference differ."""

    __slots__ = ("input", "output_index", "expected", "got")

    def __init__(self, input: str, output_index: int, expected: int, got: int):
        self.input = input  # the point's bits, x_1 first
        self.output_index = output_index  # 1-based
        self.expected = expected
        self.got = got


class VerificationReport:
    """A check's outcome; the slots are in the JSON report's key order."""

    __slots__ = ("mode", "arity", "inputs_checked", "outputs_checked", "mismatch_count",
                 "mismatches", "and_count_observed", "and_count_expected", "sample_count",
                 "seed", "passed")

    def __init__(self, mode: str, arity: int, inputs_checked: int, outputs_checked: int,
                 mismatch_count: int, mismatches: list[Mismatch], and_count_observed: int,
                 and_count_expected: int | None, sample_count: int | None, seed: int | None,
                 passed: bool):
        self.mode = mode
        self.arity = arity
        self.inputs_checked = inputs_checked
        self.outputs_checked = outputs_checked
        self.mismatch_count = mismatch_count  # total, may exceed len(mismatches) due to the cap
        self.mismatches = mismatches
        self.and_count_observed = and_count_observed
        self.and_count_expected = and_count_expected
        self.sample_count = sample_count
        self.seed = seed
        self.passed = passed

    def to_dict(self) -> dict:
        """The JSON report: one key per slot, each mismatch a dict keyed
        ``input``, ``output_index``, ``expected``, ``got``."""
        d = {name: getattr(self, name) for name in self.__slots__}
        d["mismatches"] = [{name: getattr(m, name) for name in Mismatch.__slots__}
                           for m in self.mismatches]
        return d


def _report(mode, circuit, inputs_checked, blocks, point_at, expected_and_count,
            sample_count=None, seed=None) -> VerificationReport:
    """Diff output columns block by block, count ANDs and decide pass/fail
    in one place.

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
    got = circuit.eval_all()
    expected = (reference_table_bits(n, i) for i in range(1, n + 1))  # one at a time
    return _report(EXHAUSTIVE, circuit, 1 << n, [(0, got, expected)],
                   lambda x: format(x, f"0{n}b")[::-1], expected_and_count)


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


def check_sampled(circuit: Circuit, count: int, seed: int,
                  expected_and_count: int | None = None) -> VerificationReport:
    """Seeded sampled equivalence check against the direct reference.

    Deterministic for a fixed seed (Mersenne Twister via random.Random).
    Points 0..count-1 are seeded random bits, one block; its expected values
    are leave-one-out products of its columns, from running prefix/suffix
    bitwise ANDs, and its pass then holds the only references to them. The
    n + 2 structured points follow in blocks of w single-zero points, w the
    widest power-of-two multiple of STRUCTURED_BLOCK no wider than ``count``
    (at least STRUCTURED_BLOCK), each built in closed form when reached, and
    so are their expected values. The all-zeros and all-ones points add no
    distinct column, so they ride in the first block: 1 + ceil(n / w) passes.
    """
    n = circuit.arity
    if len(circuit.outputs) != n:
        raise ValueError(f"expected {n} outputs, circuit has {len(circuit.outputs)}")
    if count < 1:
        raise ValueError("sample count must be at least 1")

    def draw() -> list[int]:
        rng = random.Random(seed)
        return [rng.getrandbits(count) for _ in range(n)]

    def evaluated():  # (first point, got columns, expected columns), built as reached
        columns = draw()
        expected = leave_one_out_columns(columns, count)
        columns = iter(columns)  # the pass copies them out, then holds the only references
        yield 0, circuit.output_columns(columns, count), expected
        width = STRUCTURED_BLOCK << max(0, (count // STRUCTURED_BLOCK).bit_length() - 1)
        starts = [0, *range(2 + width, n + 2, width)]
        for start, stop in zip(starts, starts[1:] + [n + 2]):
            columns = iter(_structured_columns(n, start, stop - start))
            ones = 2 if start == 0 else 0  # output i is 1 at all-ones, point 1, and at i + 1
            expected = (ones | 1 << s - start if start <= s < stop else ones
                        for s in range(2, n + 2))
            yield count + start, circuit.output_columns(columns, stop - start), expected

    redraw = cache(draw)  # only a failing report names a point, after every pass

    def point(t: int) -> str:
        if t < count:
            return "".join(str((c >> t) & 1) for c in redraw())
        return "".join(map(str, _structured_columns(n, t - count, 1)))

    return _report(SAMPLED, circuit, count + n + 2, evaluated(), point, expected_and_count,
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


# -- symbolic property suite -------------------------------------------------

class LemmaCheck:
    """One named property of the construction at arity n."""

    __slots__ = ("name", "n", "passed", "detail")

    def __init__(self, name: str, n: int, passed: bool, detail: str = ""):
        self.name = name
        self.n = n
        self.passed = passed
        self.detail = detail


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


def gate_anfs(circuit: Circuit) -> list[Anf]:
    """The exact ANF of every gate, in id order, by :class:`Anf` arithmetic.

    An oracle that shares no code with :meth:`Circuit.output_columns`:
    input x_v is the variable itself, AND is a product, XOR the sum of its
    operands and NOT adds the constant 1. Every gate is walked, dead ones
    too, and a polynomial may grow exponentially with the circuit's depth.
    """
    n = circuit.arity
    anfs = [Anf.linear(n, [v]) for v in range(1, n + 1)]
    for kind, *ops in circuit.gates[n:]:
        if kind == AND:
            anfs.append(anfs[ops[0]] * anfs[ops[1]])
        elif kind == XOR:
            anfs.append(sum((anfs[o] for o in ops[1:]), anfs[ops[0]]))
        else:  # NOT
            anfs.append(anfs[ops[0]] + Anf(n, [0]))
    return anfs


def check_lemma_suite(n_max: int) -> list[LemmaCheck]:
    """Run the symbolic property suite for every arity 3..n_max.

    Each check compares the nodes the optimal construction names, as
    :func:`gate_anfs` computes them, with the paper's closed forms.
    """
    if not 3 <= n_max <= 16:
        raise ValueError("n_max must be in 3..16")
    checks: list[LemmaCheck] = []
    add = checks.append

    for n in range(3, n_max + 1):
        plan = synthesize_plan(n)
        anfs = gate_anfs(plan.circuit)

        # stage-1 recursion: the sigma_n node is the n-monomial sum, and
        # stage 1 costs exactly n-2 AND gates
        sig = anfs[plan.sigma]
        stage1_ands = plan.stage_and_counts[0]
        ok = sig == sigma_anf(n) and stage1_ands == n - 2
        add(LemmaCheck("stage1-sigma", n, ok,
                       "" if ok else f"got {sig}; and_gates={stage1_ands} expected={n - 2}"))

        # each pair product (x_i XOR x_{i+1}) * sigma_n keeps exactly the two
        # monomials missing x_i and x_{i+1}; for even n the last stage-2 node
        # is not one of them
        stage2 = [anfs[gid] for gid in plan.stage2_nodes]
        pairs = stage2 if n % 2 else stage2[:-1]
        bad = [i for i, product in enumerate(pairs, start=1)
               if product != reference_anf(n, i) + reference_anf(n, i + 1)]
        detail = f"i={bad[0]}: got {pairs[bad[0] - 1]}" if bad else ""
        add(LemmaCheck("pair-product-two-monomials", n, not bad, detail))

        # for even n the last stage-2 node, sigma_{n-1} * (x_1 + ... + x_{n-1}),
        # collapses to the single monomial x_1...x_{n-1}
        if n % 2 == 0:
            last = stage2[-1]
            add(LemmaCheck("even-last-output", n, last == Anf.monomial(n, range(1, n)),
                           str(last)))

        # stage-3 extraction: output i is the single monomial missing x_i
        outputs = [anfs[gid] for _, gid in plan.circuit.outputs]
        bad = [i for i, f in enumerate(outputs, start=1) if f != reference_anf(n, i)]
        detail = f"i={bad[0]}: got {outputs[bad[0] - 1]}" if bad else ""
        add(LemmaCheck("output-extraction", n, not bad, detail))

        # the n intermediates are linearly independent in the basis of the n
        # degree-(n-1) monomials, so XOR subsets reach every output; such a
        # monomial misses one variable, and a row is the set of missing ones
        missing = [[full_mask(n) ^ m for m in a.terms] for a in [sig, *stage2]]
        in_basis = all(v.bit_count() == 1 for row in missing for v in row)
        rank = _gf2_rank([sum(row) for row in missing])
        add(LemmaCheck("linear-independence", n, in_basis and rank == n, f"rank={rank}"))

    return checks
