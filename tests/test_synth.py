import pytest

from xagsynth import (
    BASELINE,
    OPTIMAL,
    Anf,
    CircuitBuilder,
    Monomial,
    build_sigma,
    build_stage2,
    build_stage3,
    degree_lower_bound,
    reference_anf,
    sigma_anf,
    synthesize,
    synthesize_plan,
)

from oracles import all_inputs, leave_one_out_reference, naive_anf_terms


def anf_of_node(builder, gid):
    circuit = builder.finish([("t", gid)])
    return Anf.from_truth_table(circuit.eval_all()[0])


def fresh_sigma(n):
    b = CircuitBuilder(n)
    return b, build_sigma(b, n)


class TestSigma:
    @pytest.mark.parametrize("n,terms", [
        (3, [(1, 2), (2, 3), (1, 3)]),
        (4, [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]),
    ])
    def test_small_anf(self, n, terms):
        b, nodes = fresh_sigma(n)
        assert anf_of_node(b, nodes.top) == Anf(n, [Monomial.of(*t) for t in terms])
        assert b.and_gates_created == n - 2

    def test_n5_is_all_degree4_monomials(self):
        b, nodes = fresh_sigma(5)
        assert anf_of_node(b, nodes.top) == sigma_anf(5)
        assert b.and_gates_created == 3

    @pytest.mark.parametrize("n", range(3, 13))
    def test_anf_and_count_up_to_12(self, n):
        b, nodes = fresh_sigma(n)
        got = anf_of_node(b, nodes.top)
        # independent path: naive Moebius of the directly-evaluated table
        table = []
        for bits in all_inputs(n):
            v = 0
            for i in range(1, n + 1):
                v ^= leave_one_out_reference(n, bits, i)
            table.append(v)
        assert {frozenset(m.vars) for m in got.terms} == naive_anf_terms(n, table)
        assert b.and_gates_created == n - 2

    def test_even_case_exposes_previous(self):
        b, nodes = fresh_sigma(6)
        assert nodes.previous is not None
        prev = Anf.from_truth_table(
            b.finish([("p", nodes.previous)]).eval_all()[0])
        assert prev == Anf(6, sigma_anf(5).terms)

    def test_odd_case_has_no_previous(self):
        _, nodes = fresh_sigma(5)
        assert nodes.previous is None

    def test_rejects_small_n(self):
        b = CircuitBuilder(2)
        with pytest.raises(ValueError):
            build_sigma(b, 2)

    def test_rejects_builder_with_too_few_inputs(self):
        b = CircuitBuilder(3)
        b.xor(0, 1)
        with pytest.raises(ValueError, match="need 5"):
            build_sigma(b, 5)


class TestStage2:
    def test_n3_pair_products(self):
        b, nodes = fresh_sigma(3)
        stage2 = build_stage2(b, 3, nodes)
        assert anf_of_node(b, stage2.pairs[1]) == Anf(3, [Monomial.of(2, 3), Monomial.of(1, 3)])
        assert anf_of_node(b, stage2.pairs[2]) == Anf(3, [Monomial.of(1, 3), Monomial.of(1, 2)])

    def test_n4_direct_last_output(self):
        b, nodes = fresh_sigma(4)
        stage2 = build_stage2(b, 4, nodes)
        assert anf_of_node(b, stage2.last_output) == Anf(4, [Monomial.of(1, 2, 3)])

    def test_n5_middle_pair(self):
        b, nodes = fresh_sigma(5)
        stage2 = build_stage2(b, 5, nodes)
        expected = Anf(5, [Monomial.of(1, 2, 4, 5), Monomial.of(1, 2, 3, 5)])
        assert anf_of_node(b, stage2.pairs[3]) == expected

    @pytest.mark.parametrize("n", range(3, 11))
    def test_adds_n_minus_1_ands(self, n):
        b, nodes = fresh_sigma(n)
        before = b.and_gates_created
        build_stage2(b, n, nodes)
        assert b.and_gates_created - before == n - 1


class TestStage3:
    def test_n3_first_output(self):
        b, nodes = fresh_sigma(3)
        stage2 = build_stage2(b, 3, nodes)
        outs = build_stage3(b, 3, nodes, stage2)
        assert anf_of_node(b, outs[0]) == Anf(3, [Monomial.of(2, 3)])

    def test_n3_chain_step(self):
        b, nodes = fresh_sigma(3)
        stage2 = build_stage2(b, 3, nodes)
        outs = build_stage3(b, 3, nodes, stage2)
        assert anf_of_node(b, outs[1]) == Anf(3, [Monomial.of(1, 3)])

    def test_n4_first_output(self):
        b, nodes = fresh_sigma(4)
        stage2 = build_stage2(b, 4, nodes)
        outs = build_stage3(b, 4, nodes, stage2)
        assert anf_of_node(b, outs[0]) == Anf(4, [Monomial.of(2, 3, 4)])

    @pytest.mark.parametrize("n", range(3, 11))
    def test_adds_zero_ands_and_single_monomials(self, n):
        b, nodes = fresh_sigma(n)
        stage2 = build_stage2(b, n, nodes)
        before = b.and_gates_created
        outs = build_stage3(b, n, nodes, stage2)
        assert b.and_gates_created == before
        for i, gid in enumerate(outs, start=1):
            bb = CircuitBuilder(n)
            s = build_sigma(bb, n)
            s2 = build_stage2(bb, n, s)
            o = build_stage3(bb, n, s, s2)[i - 1]
            assert anf_of_node(bb, o) == reference_anf(n, i)


class TestSynthesize:
    def test_n5_optimal(self):
        c = synthesize(5, OPTIMAL)
        assert c.and_count() == 7
        for bits in all_inputs(5):
            got = c.eval(bits)
            for i in range(1, 6):
                assert got[i - 1] == leave_one_out_reference(5, bits, i)

    def test_n4_baseline_count(self):
        assert synthesize(4, BASELINE).and_count() == 6

    def test_n3_optimal_outputs(self):
        c = synthesize(3, OPTIMAL)
        assert c.and_count() == 3
        tables = c.eval_all()
        assert Anf.from_truth_table(tables[0]) == Anf(3, [Monomial.of(2, 3)])
        assert Anf.from_truth_table(tables[1]) == Anf(3, [Monomial.of(1, 3)])
        assert Anf.from_truth_table(tables[2]) == Anf(3, [Monomial.of(1, 2)])

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
        # failed to reuse from stage 1 would show up as a repeated gate
        for n in range(3, 65):
            gates = synthesize(n, construction).gates
            assert len(set(gates)) == len(gates), n

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
        assert degree_lower_bound(Anf.zero(4)) == 0

    def test_sigma5(self):
        assert degree_lower_bound(sigma_anf(5)) == 3
