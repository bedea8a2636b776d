"""Circuit constructions for the leave-one-out product family.

The target is the n-output function whose i-th output is the product of all
inputs except x_i. Two constructions are provided:

* OPTIMAL: three stages totalling 2n-3 AND gates. Stage 1 computes sigma_n,
  the XOR of all n degree-(n-1) monomials, with n-2 ANDs via the classic
  odd/even recursion. Stage 2 multiplies sigma_n by each (x_i XOR x_{i+1}),
  one AND apiece; for even n the last output is instead produced directly as
  sigma_{n-1} AND (x_1 XOR ... XOR x_{n-1}). Stage 3 is XOR-only: it
  recombines the n linearly independent intermediates into the n outputs.

* BASELINE: running prefix products p_i = x_1...x_i and suffix products
  q_i = x_i...x_n, with f_i = p_{i-1} AND q_{i+1}; 3n-6 ANDs. Structurally
  unrelated to the optimal construction, so it doubles as a differential
  oracle at arities too large for exhaustive checking.

The builder is append-only, so every node a later stage reuses is shared by
id here: the cumulative XOR prefixes x_1 XOR ... XOR x_k, and the pair sums
x_i XOR x_{i+1} that stage 1 builds and stage 2 multiplies by sigma_n. XORs
are free for the AND count, but sharing keeps the circuit O(n) nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .anf import Anf
from .circuit import Circuit, CircuitBuilder

OPTIMAL = "optimal"
BASELINE = "baseline"


class SigmaNodes(NamedTuple):
    """Stage-1 result: the sigma_n node and what later stages reuse."""

    top: int  # XOR of all n monomials of degree n-1
    previous: int | None  # sigma_{n-1} node, exposed only for even n
    xor_prefix: list  # xor_prefix[k] = x_1 XOR ... XOR x_k (index 0 unused)
    pair_xor: dict  # i -> gate id of x_i XOR x_{i+1}, for the pairs stage 1 built


@dataclass
class SynthesisPlan:
    """A synthesized circuit plus its labeled intermediate nodes."""

    n: int
    construction: str
    circuit: Circuit
    stage2_nodes: list[int]  # the n-1 stage-2 gate ids, in label order
    stage_and_counts: tuple[int, int, int]


def _check_n(n: int) -> None:
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")


def build_sigma(builder: CircuitBuilder, n: int) -> SigmaNodes:
    """Build sigma_n, the XOR of all n degree-(n-1) monomials, with n-2 ANDs.

    The builder must already contain inputs x_1..x_n. Odd arities grow two at
    a time from sigma_3 = ((x_1 XOR x_2) AND (x_2 XOR x_3)) XOR x_2; an even
    arity tops off the odd sigma_{n-1} with one more AND, and that
    intermediate node is kept because stage 2 taps it.
    """
    _check_n(n)
    x = [0] + [builder.input_id(v) for v in range(1, n + 1)]

    top_prefix = n - 1 if n % 2 else n
    prefix = [0, x[1]]
    for k in range(2, top_prefix + 1):
        prefix.append(builder.xor(prefix[k - 1], x[k]))

    pair_xor = {1: prefix[2], 2: builder.xor(x[2], x[3])}
    sigma = builder.xor(builder.and_(pair_xor[1], pair_xor[2]), x[2])
    odd_top = n if n % 2 else n - 1
    for m in range(5, odd_top + 1, 2):
        # sigma_m = sigma_{m-2} AND (((x_{m-1} XOR x_m) AND (x_1+...+x_{m-1})) XOR x_{m-1})
        pair_xor[m - 1] = builder.xor(x[m - 1], x[m])
        t = builder.xor(builder.and_(pair_xor[m - 1], prefix[m - 1]), x[m - 1])
        sigma = builder.and_(sigma, t)

    if n % 2 == 0:
        previous = sigma
        sigma = builder.and_(previous, prefix[n])
        return SigmaNodes(sigma, previous, prefix, pair_xor)
    return SigmaNodes(sigma, None, prefix, pair_xor)


class Stage2Nodes(NamedTuple):
    pairs: dict[int, int]  # i -> gate id of (x_i XOR x_{i+1}) AND sigma_n
    last_output: int | None  # direct product for the final output, even n only


def build_stage2(builder: CircuitBuilder, n: int, sigma: SigmaNodes) -> Stage2Nodes:
    """Add the n-1 stage-2 products, one AND gate each.

    Odd n: pair products for i = 1..n-1. Even n: pair products for
    i = 1..n-2 plus the final output sigma_{n-1} AND (x_1 XOR .. XOR x_{n-1}),
    whose value is exactly the monomial x_1...x_{n-1}. Pair sums that stage 1
    built are reused; only the missing ones are added.
    """
    _check_n(n)
    hi = n - 1 if n % 2 else n - 2
    pairs: dict[int, int] = {}
    for i in range(1, hi + 1):
        pair = sigma.pair_xor.get(i)
        if pair is None:
            pair = builder.xor(builder.input_id(i), builder.input_id(i + 1))
        pairs[i] = builder.and_(pair, sigma.top)
    if n % 2 == 0:
        if sigma.previous is None:
            raise ValueError("even arity requires the exposed sigma_{n-1} node")
        last = builder.and_(sigma.previous, sigma.xor_prefix[n - 1])
        return Stage2Nodes(pairs, last)
    return Stage2Nodes(pairs, None)


def build_stage3(builder: CircuitBuilder, n: int, sigma: SigmaNodes,
                 stage2: Stage2Nodes) -> list[int]:
    """XOR-only recombination; returns output nodes f_1..f_n in index order.

    f_1 is sigma_n XOR the even-indexed pair products (XOR the direct last
    output when n is even); every later output follows the chain
    f_i = f_{i-1} XOR s_{i-1}.
    """
    _check_n(n)
    if n % 2:
        first_ops = [sigma.top] + [stage2.pairs[2 * i] for i in range(1, (n - 1) // 2 + 1)]
        chain_top = n
    else:
        if stage2.last_output is None:
            raise ValueError("even arity requires the direct last output node")
        first_ops = [sigma.top, stage2.last_output]
        first_ops += [stage2.pairs[2 * i] for i in range(1, (n - 2) // 2 + 1)]
        chain_top = n - 1
    outputs = [builder.xor(*first_ops)]
    for i in range(2, chain_top + 1):
        outputs.append(builder.xor(outputs[-1], stage2.pairs[i - 1]))
    if n % 2 == 0:
        outputs.append(stage2.last_output)
    return outputs


def _build_baseline(builder: CircuitBuilder, n: int) -> list[int]:
    x = [0] + [builder.input_id(v) for v in range(1, n + 1)]
    p = [0, x[1]]
    for i in range(2, n):
        p.append(builder.and_(p[i - 1], x[i]))
    q = [0] * (n + 2)
    q[n] = x[n]
    for i in range(n - 1, 1, -1):
        q[i] = builder.and_(x[i], q[i + 1])
    outputs = [q[2]]
    for i in range(2, n):
        outputs.append(builder.and_(p[i - 1], q[i + 1]))
    outputs.append(p[n - 1])
    return outputs


def synthesize_plan(n: int, construction: str = OPTIMAL) -> SynthesisPlan:
    """Build a circuit for all n leave-one-out products, with bookkeeping."""
    _check_n(n)
    builder = CircuitBuilder(n)
    builder.add_inputs()
    if construction == OPTIMAL:
        sigma = build_sigma(builder, n)
        c1 = builder.and_gates_created
        stage2 = build_stage2(builder, n, sigma)
        c2 = builder.and_gates_created
        outputs = build_stage3(builder, n, sigma, stage2)
        c3 = builder.and_gates_created
        stage2_nodes = [stage2.pairs[i] for i in sorted(stage2.pairs)]
        if stage2.last_output is not None:
            stage2_nodes.append(stage2.last_output)
        counts = (c1, c2 - c1, c3 - c2)
    elif construction == BASELINE:
        outputs = _build_baseline(builder, n)
        stage2_nodes = []
        counts = (builder.and_gates_created, 0, 0)
    else:
        raise ValueError(f"unknown construction {construction!r}")
    circuit = builder.finish([(f"f_{i}", gid) for i, gid in enumerate(outputs, start=1)])
    return SynthesisPlan(n, construction, circuit, stage2_nodes, counts)


def synthesize(n: int, construction: str = OPTIMAL) -> Circuit:
    return synthesize_plan(n, construction).circuit


def degree_lower_bound(a: Anf) -> int:
    """AND gates needed for any circuit computing a: at least degree - 1."""
    return max(a.degree() - 1, 0)
