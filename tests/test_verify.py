import pytest

from xagsynth import (
    BASELINE,
    OPTIMAL,
    Anf,
    check_exhaustive,
    check_lemma_suite,
    check_sampled,
    compare_circuits_sampled,
    reference_anf,
    reference_f,
    reference_table_bits,
    synthesize,
    synthesize_plan,
)
from xagsynth.verify import MISMATCH_CAP

from oracles import all_inputs, leave_one_out_reference


class TestReference:
    def test_all_ones(self):
        assert reference_f(5, [1, 1, 1, 1, 1]) == (1, 1, 1, 1, 1)

    def test_single_zero(self):
        assert reference_f(5, [1, 1, 0, 1, 1]) == (0, 0, 1, 0, 0)

    def test_two_zeros(self):
        assert reference_f(5, [1, 0, 0, 1, 1]) == (0, 0, 0, 0, 0)

    def test_length_checked(self):
        with pytest.raises(ValueError):
            reference_f(3, [1, 1])

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_naive(self, n):
        for bits in all_inputs(n):
            got = reference_f(n, bits)
            for i in range(1, n + 1):
                assert got[i - 1] == leave_one_out_reference(n, bits, i)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_column_reference_matches_scalar(self, n):
        # the sampled check's columnar expected values vs reference_f,
        # point by point over the full input space
        from xagsynth.bitops import variable_column
        from xagsynth.verify import leave_one_out_columns

        width = 1 << n
        cols = [variable_column(n, v) for v in range(1, n + 1)]
        expected = leave_one_out_columns(cols, width)
        for x in range(width):
            bits = [(x >> j) & 1 for j in range(n)]
            scalar = reference_f(n, bits)
            for i in range(n):
                assert (expected[i] >> x) & 1 == scalar[i]

    @pytest.mark.parametrize("n", range(3, 13))
    def test_reference_f_agrees_with_tables(self, n):
        for x in range(1 << n):
            bits = [(x >> j) & 1 for j in range(n)]
            out = reference_f(n, bits)
            for i in range(1, n + 1):
                assert out[i - 1] == (reference_table_bits(n, i) >> x) & 1

    @pytest.mark.parametrize("n", range(3, 13))
    def test_tables_agree_with_single_monomial_anfs(self, n):
        # two independent paths to the same table: the closed form with two
        # set bits, and the polynomial-evaluation path
        for i in range(1, n + 1):
            assert reference_table_bits(n, i) == reference_anf(n, i).to_truth_table().bits


class TestExhaustive:
    def test_optimal_n6(self):
        r = check_exhaustive(synthesize(6, OPTIMAL), expected_and_count=9)
        assert r.passed and r.inputs_checked == 64 and r.mismatch_count == 0

    def test_baseline_n6(self):
        assert check_exhaustive(synthesize(6, BASELINE), expected_and_count=12).passed

    @pytest.mark.parametrize("n", range(3, 17))
    @pytest.mark.parametrize("construction", [OPTIMAL, BASELINE])
    def test_all_small_arities(self, n, construction):
        assert check_exhaustive(synthesize(n, construction)).passed

    @pytest.mark.parametrize("n", range(17, 25))
    @pytest.mark.parametrize("construction", [OPTIMAL, BASELINE])
    def test_large_arities_up_to_dense_cap(self, n, construction):
        ands = 2 * n - 3 if construction == OPTIMAL else 3 * n - 6
        r = check_exhaustive(synthesize(n, construction), expected_and_count=ands)
        assert r.passed and r.mismatch_count == 0 and r.inputs_checked == 1 << n

    def test_mutated_circuit_fails(self):
        plan = synthesize_plan(5, OPTIMAL)
        broken = plan.circuit.replace_output(0, plan.stage2_nodes[0])
        r = check_exhaustive(broken)
        assert not r.passed and r.mismatch_count >= 1
        assert r.mismatches[0].output_index == 1

    def test_wrong_and_count_fails(self):
        r = check_exhaustive(synthesize(5, OPTIMAL), expected_and_count=6)
        assert not r.passed and r.mismatch_count == 0

    def test_mismatch_list_is_capped(self):
        # tapping every output at a constant disagrees on nearly every point
        plan = synthesize_plan(6, OPTIMAL)
        c = plan.circuit
        for k in range(6):
            c = c.replace_output(k, 0)  # gate 0 is input x1
        r = check_exhaustive(c)
        assert not r.passed
        assert len(r.mismatches) == MISMATCH_CAP
        assert r.mismatch_count > MISMATCH_CAP

    def test_report_round_trips_to_dict(self):
        d = check_exhaustive(synthesize(4, OPTIMAL), expected_and_count=5).to_dict()
        assert d["passed"] is True and d["mode"] == "exhaustive"
        assert d["and_count_observed"] == 5


class TestSampled:
    def test_large_n_optimal(self):
        r = check_sampled(synthesize(101, OPTIMAL), 2000, seed=42)
        assert r.passed and r.seed == 42 and r.sample_count == 2000

    def test_deterministic_for_fixed_seed(self):
        c = synthesize(20, OPTIMAL)
        r1 = check_sampled(c, 500, seed=7)
        r2 = check_sampled(c, 500, seed=7)
        assert r1.to_dict() == r2.to_dict()

    def test_structured_inputs_included(self):
        # a circuit that is wrong only on the all-ones input must be caught
        plan = synthesize_plan(40, OPTIMAL)
        b = plan.circuit
        broken = b.replace_output(0, plan.stage2_nodes[0])
        r = check_sampled(broken, 10, seed=3)
        assert not r.passed

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            check_sampled(synthesize(5), 0, seed=1)

    def test_differential_constructions_agree(self):
        a = synthesize(101, OPTIMAL)
        b = synthesize(101, BASELINE)
        assert compare_circuits_sampled(a, b, 2000, seed=9) == 0


class TestLemmaSuite:
    def test_all_pass_up_to_8(self):
        result = check_lemma_suite(8)
        assert result.all_passed
        names = {c.name for c in result.checks}
        assert names == {
            "stage1-sigma",
            "pair-product-two-monomials",
            "even-last-output",
            "output-extraction",
            "linear-independence",
        }

    def test_pair_product_n7_i4(self):
        from xagsynth import sigma_anf
        product = Anf.linear(7, [4, 5]) * sigma_anf(7)
        assert product == reference_anf(7, 4) + reference_anf(7, 5)

    def test_even_last_output_n6(self):
        from xagsynth import sigma_anf
        product = Anf(6, sigma_anf(5).terms) * Anf.linear(6, range(1, 6))
        assert product == Anf.monomial(6, range(1, 6))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            check_lemma_suite(2)
        with pytest.raises(ValueError):
            check_lemma_suite(17)

    def test_to_dict(self):
        d = check_lemma_suite(4).to_dict()
        assert d["all_passed"] is True
        assert all(c["passed"] for c in d["checks"])


class TestMutationSensitivity:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_every_single_tap_mutation_detected(self, n):
        plan = synthesize_plan(n, OPTIMAL)
        for k in range(n):
            current = plan.circuit.outputs[k][1]
            for node in plan.stage2_nodes:
                if node == current:
                    continue
                assert not check_exhaustive(plan.circuit.replace_output(k, node)).passed
