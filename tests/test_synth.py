import hashlib
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xagsynth import (
    AND,
    BASELINE,
    OPTIMAL,
    XOR,
    Anf,
    degree_lower_bound,
    reference_anf,
    sigma_anf,
    synthesize,
    synthesize_plan,
)
from xagsynth.verify import gate_anfs

from oracles import (all_inputs, leave_one_out_reference, naive_anf_terms, reference_baseline,
                     reference_optimal, traced, vars_of)


def anf_of_node(plan, gid):
    return gate_anfs(plan.circuit)[gid]


class TestSigma:
    @pytest.mark.parametrize("n", range(3, 13))
    def test_anf_and_count_up_to_12(self, n):
        plan = synthesize_plan(n)
        got = anf_of_node(plan, plan.sigma)
        # independent path: naive Moebius of the directly-evaluated table
        table = []
        for bits in all_inputs(n):
            v = 0
            for i in range(1, n + 1):
                v ^= leave_one_out_reference(n, bits, i)
            table.append(v)
        assert {frozenset(vars_of(m)) for m in got.terms} == naive_anf_terms(n, table)
        assert plan.stage_and_counts[0] == n - 2

    def test_even_case_exposes_previous(self):
        # even n tops off sigma_{n-1} with one AND: sigma_n = previous AND prefix
        plan = synthesize_plan(6)
        kind, previous, _ = plan.circuit.gates[plan.sigma]
        assert kind == AND
        assert anf_of_node(plan, previous) == Anf(6, sigma_anf(5).terms)


class TestStage2:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_adds_n_minus_1_ands(self, n):
        plan = synthesize_plan(n)
        assert len(plan.stage2_nodes) == n - 1
        assert plan.stage_and_counts[1] == n - 1


class TestStage3:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_adds_zero_ands_and_single_monomials(self, n):
        plan = synthesize_plan(n)
        assert plan.stage_and_counts[2] == 0
        for i, (_, gid) in enumerate(plan.circuit.outputs, start=1):
            assert anf_of_node(plan, gid) == reference_anf(n, i)


class TestSynthesize:
    @pytest.mark.parametrize("n", [1, 2])
    def test_rejects_small_n(self, n):
        with pytest.raises(ValueError):
            synthesize(n)

    def test_unknown_construction(self):
        with pytest.raises(ValueError):
            synthesize(5, "fancy")

    @pytest.mark.parametrize("n", range(3, 41))
    def test_counts_exact(self, n):
        assert synthesize(n, OPTIMAL).and_count() == 2 * n - 3
        assert synthesize(n, BASELINE).and_count() == 3 * n - 6

    @pytest.mark.parametrize("construction", [OPTIMAL, BASELINE])
    def test_no_structurally_identical_gates(self, construction):
        # the builder shares nothing by itself, so a pair sum that stage 2
        # failed to reuse from stage 1 would show up as a repeated gate; the
        # inputs are all the one ("INPUT",), known by position, so skip them
        for n in range(3, 65):
            gates = synthesize(n, construction).gates[n:]
            assert len(set(gates)) == len(gates), n

    def test_plan_pinned(self):
        # sha256 over every plan's gates, outputs, stage-2 ids, stage AND
        # counts and sigma id, recorded since XORs have two operands; the
        # mutation tests re-tap outputs onto stage-2 ids
        h = hashlib.sha256()
        for n in [*range(3, 65), 1000, 1001]:
            for construction in (OPTIMAL, BASELINE):
                p = synthesize_plan(n, construction)
                h.update(repr((p.circuit.gates, p.circuit.outputs, p.stage2_nodes,
                               p.stage_and_counts, p.sigma)).encode())
        assert h.hexdigest() == "43826f1ab13e0846bf6c6641199e2fadd277900eeb425780d097bbeb4c4fdb29"

    def test_circuit_takes_the_builder_arrays(self):
        # the circuit holds the builder's own arrays, not copies, so the
        # build peaks little above what the plan holds (0.9 MiB here)
        _, held, peak = traced(lambda: synthesize_plan(20000))
        assert peak - held < 1.4 * 2 ** 20, (peak - held) / 2 ** 20

    @pytest.mark.parametrize("n", range(3, 11))
    def test_stage_budget(self, n):
        plan = synthesize_plan(n, OPTIMAL)
        assert plan.stage_and_counts == (n - 2, n - 1, 0)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cumulative_chain_identity(self, n):
        # anf(f_k) == anf(f_{k-1}) + anf((x_{k-1} XOR x_k) * sigma_n) for all k
        sig = sigma_anf(n)
        s = {i: Anf.linear(n, [i, i + 1]) * sig for i in range(1, n)}
        for k in range(2, n + 1):
            assert reference_anf(n, k) == reference_anf(n, k - 1) + s[k - 1]


def assert_matches_reference(n, construction):
    """The bulk construction emits exactly the gates, in the same order, and
    names exactly the nodes that the one-gate-at-a-time reference does. The
    gates are compared on the circuit's arrays (kind bytes 4 XOR, 8 AND): the
    ``gates`` view would cost more than the reference itself."""
    plan = synthesize_plan(n, construction)
    reference = reference_optimal if construction == OPTIMAL else reference_baseline
    gates, sigma, stage2, outputs, counts = reference(n)
    c, (kinds, first, second) = plan.circuit, zip(*gates[n:])
    assert c._kinds == bytes(n) + bytes(map({XOR: 4, AND: 8}.get, kinds))
    assert (c._first[n:], c._second[n:]) == (array("i", first), array("i", second))
    assert (plan.sigma, plan.stage2_nodes, plan.stage_and_counts) == (sigma, stage2, counts)
    assert c._ids == array("i", outputs)


class TestBulkConstruction:
    @given(st.integers(3, 3000), st.sampled_from([OPTIMAL, BASELINE]))
    @settings(max_examples=100, deadline=None)
    def test_matches_one_call_per_gate(self, n, construction):
        assert_matches_reference(n, construction)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 16384, 16385, 50001])
    def test_matches_one_call_per_gate_at_fixed_n(self, n):
        for construction in (OPTIMAL, BASELINE):
            assert_matches_reference(n, construction)


class TestDegreeLowerBound:
    def test_single_output_n8(self):
        assert degree_lower_bound(reference_anf(8, 1)) == 6

    def test_zero_polynomial_clamped(self):
        assert degree_lower_bound(Anf(4)) == 0

    def test_sigma5(self):
        assert degree_lower_bound(sigma_anf(5)) == 3
