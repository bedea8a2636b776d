import hashlib

import pytest

from xagsynth import (
    AND,
    BASELINE,
    OPTIMAL,
    Anf,
    degree_lower_bound,
    reference_anf,
    sigma_anf,
    synthesize,
    synthesize_plan,
)
from xagsynth.verify import gate_anfs

from oracles import all_inputs, leave_one_out_reference, mono, naive_anf_terms, vars_of


def anf_of_node(plan, gid):
    return gate_anfs(plan.circuit)[gid]


class TestSigma:
    @pytest.mark.parametrize("n,terms", [
        (3, [(1, 2), (2, 3), (1, 3)]),
        (4, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]),
    ])
    def test_small_anf(self, n, terms):
        plan = synthesize_plan(n)
        assert anf_of_node(plan, plan.sigma) == Anf(n, [mono(*t) for t in terms])
        assert plan.stage_and_counts[0] == n - 2

    def test_n5_is_all_degree4_monomials(self):
        plan = synthesize_plan(5)
        assert anf_of_node(plan, plan.sigma) == sigma_anf(5)
        assert plan.stage_and_counts[0] == 3

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
    def test_n3_pair_products(self):
        plan = synthesize_plan(3)
        assert anf_of_node(plan, plan.stage2_nodes[0]) == Anf(3, [mono(2, 3), mono(1, 3)])
        assert anf_of_node(plan, plan.stage2_nodes[1]) == Anf(3, [mono(1, 3), mono(1, 2)])

    def test_n4_direct_last_output(self):
        plan = synthesize_plan(4)
        assert anf_of_node(plan, plan.stage2_nodes[-1]) == Anf(4, [mono(1, 2, 3)])

    def test_n5_middle_pair(self):
        plan = synthesize_plan(5)
        expected = Anf(5, [mono(1, 2, 4, 5), mono(1, 2, 3, 5)])
        assert anf_of_node(plan, plan.stage2_nodes[2]) == expected

    @pytest.mark.parametrize("n", range(3, 11))
    def test_adds_n_minus_1_ands(self, n):
        plan = synthesize_plan(n)
        assert len(plan.stage2_nodes) == n - 1
        assert plan.stage_and_counts[1] == n - 1


class TestStage3:
    def test_n3_first_output(self):
        plan = synthesize_plan(3)
        assert anf_of_node(plan, plan.circuit.outputs[0][1]) == Anf(3, [mono(2, 3)])

    def test_n3_chain_step(self):
        plan = synthesize_plan(3)
        assert anf_of_node(plan, plan.circuit.outputs[1][1]) == Anf(3, [mono(1, 3)])

    def test_n4_first_output(self):
        plan = synthesize_plan(4)
        assert anf_of_node(plan, plan.circuit.outputs[0][1]) == Anf(4, [mono(2, 3, 4)])

    @pytest.mark.parametrize("n", range(3, 11))
    def test_adds_zero_ands_and_single_monomials(self, n):
        plan = synthesize_plan(n)
        assert plan.stage_and_counts[2] == 0
        for i, (_, gid) in enumerate(plan.circuit.outputs, start=1):
            assert anf_of_node(plan, gid) == reference_anf(n, i)


class TestSynthesize:
    def test_n5_optimal(self):
        c = synthesize(5, OPTIMAL)
        assert c.and_count() == 7
        for bits in all_inputs(5):
            got = c.output_columns(bits, 1)
            for i in range(1, 6):
                assert got[i - 1] == leave_one_out_reference(5, bits, i)

    def test_n4_baseline_count(self):
        assert synthesize(4, BASELINE).and_count() == 6

    def test_n3_optimal_outputs(self):
        c = synthesize(3, OPTIMAL)
        assert c.and_count() == 3
        anfs = gate_anfs(c)
        assert [anfs[gid] for _, gid in c.outputs] == \
            [Anf(3, [mono(2, 3)]), Anf(3, [mono(1, 3)]), Anf(3, [mono(1, 2)])]

    def test_output_labels_in_index_order(self):
        c = synthesize(6)
        assert [lbl for lbl, _ in c.outputs] == [f"f_{i}" for i in range(1, 7)]

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
        # counts and sigma id, recorded when each stage had its own builder
        # function; the mutation tests re-tap outputs onto stage-2 ids
        h = hashlib.sha256()
        for n in [*range(3, 65), 1000, 1001]:
            for construction in (OPTIMAL, BASELINE):
                p = synthesize_plan(n, construction)
                h.update(repr((p.circuit.gates, p.circuit.outputs, p.stage2_nodes,
                               p.stage_and_counts, p.sigma)).encode())
        assert h.hexdigest() == "ec40d1a7e30d98aa53cb7a26c36715514601fce44f60c70574f5b9a76e66a980"

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


class TestDegreeLowerBound:
    def test_single_output_n8(self):
        assert degree_lower_bound(reference_anf(8, 1)) == 6

    def test_zero_polynomial_clamped(self):
        assert degree_lower_bound(Anf(4)) == 0

    def test_sigma5(self):
        assert degree_lower_bound(sigma_anf(5)) == 3
