"""Circuit constructions for the leave-one-out product family.

The target is the n-output function whose i-th output is the product of all
inputs except x_i. Two constructions are provided:

* OPTIMAL: three stages totalling 2n-3 AND gates, all built by
  :func:`_build_optimal`. Stage 1 computes sigma_n, the XOR of all n
  degree-(n-1) monomials, with n-2 ANDs via the classic odd/even recursion.
  Stage 2 multiplies sigma_n by each (x_i XOR x_{i+1}), one AND apiece; for
  even n the last output is instead produced directly as
  sigma_{n-1} AND (x_1 XOR ... XOR x_{n-1}). Stage 3 is XOR-only: it
  recombines the n linearly independent intermediates into the n outputs.

* BASELINE: running prefix products p_i = x_1...x_i and suffix products
  q_i = x_i...x_n, with f_i = p_{i-1} AND q_{i+1}; 3n-6 ANDs, built by
  :func:`_build_baseline` as three runs, one per product family.
  Structurally unrelated to the optimal construction. The tests compare the
  two constructions with each other at n = 101, and each against the
  closed-form reference at n = 101, 1024 and 4097, arities too large for
  exhaustive checking.

Both read input x_v as gate v - 1 of a fresh builder. The builder is
append-only, so every node a later stage reuses is shared by id: the
cumulative XOR prefixes x_1 XOR ... XOR x_k, and the pair sums
x_i XOR x_{i+1} that stage 1 builds and stage 2 multiplies by sigma_n. XORs
are free for the AND count, but sharing keeps the circuit O(n) nodes. Ids
are arithmetic in n, so each construction emits each regular run, such as
stage 2's XOR/AND/AND period or the baseline's prefix products, with one
``CircuitBuilder.run`` call.
"""

from __future__ import annotations

from .anf import Anf
from .circuit import AND, XOR, Circuit, CircuitBuilder, _Numbered

OPTIMAL = "optimal"
BASELINE = "baseline"


class SynthesisPlan:
    """A synthesized circuit plus its labeled intermediate nodes."""

    __slots__ = ("circuit", "sigma", "stage2_nodes", "stage_and_counts")

    def __init__(self, circuit: Circuit, sigma: int | None, stage2_nodes: list[int],
                 stage_and_counts: tuple[int, int, int]):
        self.circuit = circuit
        self.sigma = sigma  # the sigma_n gate id; None for the baseline
        self.stage2_nodes = stage2_nodes  # the n-1 stage-2 gate ids, in label order
        self.stage_and_counts = stage_and_counts


def _build_optimal(builder: CircuitBuilder, n: int):
    """Build the 2n-3 AND construction on a fresh arity-n builder.

    Returns the sigma_n id, the n-1 stage-2 ids in label order, the output
    ids f_1..f_n, and the ANDs each stage added.
    """
    and_, xor, run, odd = builder.and_, builder.xor, builder.run, n % 2
    reps = (n - 4 + odd) // 2  # repeats of stage 1's step and of stage 2's period

    def lane(first, step):  # one operand per repeat: first, first + step, ...
        return range(first, first + step * reps, step)

    # stage 1: sigma_n with n-2 ANDs. Odd arities grow two at a time from
    # sigma_3 = ((x_1 XOR x_2) AND (x_2 XOR x_3)) XOR x_2; an even arity tops
    # off the odd sigma_{n-1} with one more AND. prefix[k] = x_1 XOR ... XOR x_k is
    # gate n + k - 2 for k = 2..n - odd, XOR(prefix[k-1], x_k); pair[1] = prefix[2]
    xor(0, 1)  # prefix[2], gate n; the run adds prefix[3], prefix[4], ...
    run([XOR], [range(n, 2 * n - 2 - odd)], [range(2, n - odd)], n - 2 - odd)
    pair2 = xor(1, 2)  # pair[i] = x_i XOR x_{i+1}, reused by stage 2
    sigma = xor(and_(n, pair2), 1)  # sigma_3
    # step r (m = 5 + 2r) is gates sigma_3 + 4r + 1..4: pair[m-1] = XOR(x_{m-1}, x_m),
    # t = AND(pair[m-1], prefix[m-1]), u = XOR(t, x_{m-1}), sigma_m = AND(sigma_{m-2}, u)
    pairs = lane(sigma + 1, 4)  # pair[4], pair[6], ...
    run([XOR, AND, XOR, AND], [lane(3, 2), pairs, lane(sigma + 2, 4), lane(sigma, 4)],
        [lane(4, 2), lane(n + 2, 2), lane(3, 2), lane(sigma + 3, 4)], reps)
    sigma += 4 * reps
    if not odd:
        previous = sigma  # sigma_{n-1}, tapped again by stage 2
        sigma = and_(previous, 2 * n - 2)  # AND prefix[n]
    c1 = builder.and_gates_created

    # stage 2: s_i = pair[i] AND sigma_n; for even n the last is the output x_1...x_{n-1}
    # = sigma_{n-1} AND prefix[n-1]. Period r (i = 3 + 2r) is gates s_2 + 3r + 1..3:
    # pair[i] = XOR(x_i, x_{i+1}), s_i = AND(pair[i], sigma_n), s_{i+1} = AND(pair[i+1], sigma_n)
    stage2 = [0] * (2 * reps + 2)
    stage2[:2] = and_(n, sigma), and_(pair2, sigma)
    sigmas = [sigma] * reps
    period = run([XOR, AND, AND], [lane(2, 2), lane(stage2[1] + 1, 3), pairs],
                 [lane(3, 2), sigmas, sigmas], reps)
    stage2[2::2], stage2[3::2] = period[1::3], period[2::3]
    if not odd:
        stage2.append(and_(previous, 2 * n - 3))
    c2 = builder.and_gates_created

    # stage 3, XOR only: f_1 is the XOR chain of sigma_n, the direct last output when
    # n is even, and the even-indexed pair products; f_{k+1} = XOR(f_k, s_k) is gate f_1 + k
    f1 = xor(*([sigma] if odd else [sigma, stage2[-1]]), *stage2[1::2])
    s = stage2 if odd else stage2[:-1]
    outputs = [f1, *run([XOR], [range(f1, f1 + len(s))], [s], len(s)), *stage2[len(s):]]
    return sigma, stage2, outputs, (c1, c2 - c1, builder.and_gates_created - c2)


def _build_baseline(builder: CircuitBuilder, n: int) -> list[int]:
    """Build the 3n-6 AND construction on a fresh arity-n builder as three
    runs; returns the output ids f_1..f_n."""
    # p_i = x_1...x_i is gate n + i - 2 for i = 2..n-1, AND(p_{i-1}, x_i); p_1 = x_1 is gate 0
    p = [0, *range(n, 2 * n - 3)]  # p_1..p_{n-2}
    builder.run([AND], [p], [range(1, n - 1)], n - 2)
    # q_i = x_i...x_n is gate 3n - 3 - i for i = n-1 down to 2, AND(x_i, q_{i+1}); q_n = x_n
    q = [*range(3 * n - 6, 2 * n - 3, -1), n - 1]  # q_3..q_n
    builder.run([AND], [range(n - 2, 0, -1)], [q[::-1]], n - 2)
    # f_i = AND(p_{i-1}, q_{i+1}) for i = 2..n-1; f_1 = q_2 and f_n = p_{n-1}
    return [3 * n - 5, *builder.run([AND], [p], [q], n - 2), 2 * n - 3]


def synthesize_plan(n: int, construction: str = OPTIMAL) -> SynthesisPlan:
    """Build a circuit for all n leave-one-out products, with bookkeeping."""
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    builder = CircuitBuilder(n)
    if construction == OPTIMAL:
        sigma, stage2_nodes, outputs, counts = _build_optimal(builder, n)
    elif construction == BASELINE:
        sigma, stage2_nodes = None, []
        outputs = _build_baseline(builder, n)
        counts = (builder.and_gates_created, 0, 0)
    else:
        raise ValueError(f"unknown construction {construction!r}")
    circuit = builder._finish(_Numbered("f_", len(outputs)), outputs)  # labels f_1..f_n
    return SynthesisPlan(circuit, sigma, stage2_nodes, counts)


def synthesize(n: int, construction: str = OPTIMAL) -> Circuit:
    return synthesize_plan(n, construction).circuit


def degree_lower_bound(a: Anf) -> int:
    """AND gates needed for any circuit computing a: at least degree - 1."""
    return max(a.degree() - 1, 0)
