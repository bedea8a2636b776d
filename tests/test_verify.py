import hashlib
import json
import tracemalloc

import pytest

import xagsynth.verify
from xagsynth import (
    BASELINE,
    OPTIMAL,
    Circuit,
    check_exhaustive,
    check_lemma_suite,
    check_sampled,
    compare_circuits_sampled,
    reference_anf,
    reference_table_bits,
    synthesize,
    synthesize_plan,
)
from xagsynth.verify import MISMATCH_CAP

from oracles import leave_one_out_reference, sampled_mismatches


class TestReference:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_column_reference_matches_scalar(self, n):
        # the sampled check's columnar expected values vs the scalar oracle,
        # point by point over the full input space
        from xagsynth.bitops import variable_column
        from xagsynth.verify import leave_one_out_columns

        width = 1 << n
        cols = [variable_column(n, v) for v in range(1, n + 1)]
        expected = leave_one_out_columns(cols, width)
        for x in range(width):
            bits = [(x >> j) & 1 for j in range(n)]
            for i in range(n):
                assert (expected[i] >> x) & 1 == leave_one_out_reference(n, bits, i + 1)

    def test_column_reference_holds_one_column_per_output(self):
        # the outputs double as the prefix store, so the call holds about n
        # columns at its peak, not n outputs next to n + 1 prefixes
        from xagsynth.verify import leave_one_out_columns

        n, width = 512, 1 << 16
        ones = (1 << width) - 1
        cols = [ones ^ (1 << i) for i in range(n)]  # every prefix stays full width
        tracemalloc.start()
        try:
            out = leave_one_out_columns(cols, width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out[7] == ones ^ ((1 << n) - 1) ^ (1 << 7)
        assert peak < 1.25 * n * (width // 8)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_reference_f_agrees_with_tables(self, n):
        for x in range(1 << n):
            bits = [(x >> j) & 1 for j in range(n)]
            for i in range(1, n + 1):
                assert leave_one_out_reference(n, bits, i) == (reference_table_bits(n, i) >> x) & 1

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

    def test_failing_report_bytes_pinned(self):
        c = synthesize_plan(6, OPTIMAL).circuit
        for k in range(6):
            c = c.replace_output(k, 0)
        assert _report_sha256(check_exhaustive(c)) == \
            "06c2f7e1ecbee1475fe5df25e73df92b26ddf7a04c174588aa3233392862b4b6"

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

    def test_compare_count_must_be_positive(self):
        # no silent comparison on the structured points alone
        c = synthesize(5)
        with pytest.raises(ValueError, match="at least 1"):
            compare_circuits_sampled(c, c, 0, seed=1)


def _with_zero_outputs(circuit, indices):
    """The circuit with the given outputs tapped at a constant 0, XOR(x1, x1)."""
    zero = len(circuit.gates)
    c = Circuit(circuit.arity, circuit.gates + (("XOR", 0, 0),), circuit.outputs)
    for k in indices:
        c = c.replace_output(k, zero)
    return c


def _report_sha256(report):
    return hashlib.sha256((json.dumps(report.to_dict(), indent=2) + "\n").encode()).hexdigest()


class TestSampledBlocks:
    # report bytes as the whole-width check wrote them, before the sample
    # set was evaluated in blocks of points
    @pytest.mark.parametrize("n, count, seed, mutate, digest", [
        (4097, 10000, 42, None,  # the README example
         "a7aa892f6f1cf67ff2a9533fc4f59365aeeff97ed5308cfd0dccfdae23789060"),
        (16384, 10000, 7, None,
         "df1cb861eb8acf2902671dbae61712e4a0db69ddab7f3a679ebc6004b23932a0"),
        (4100, 37, 5, lambda c: c.replace_output(4098, 0),  # output 4099 reads x1
         "212dba47b68b173a1eb1ad0b24237d618a5e8465a153e01cf0f4d70099c5f38c"),
        (4100, 37, 5, lambda c: _with_zero_outputs(c, [4099]),
         "f6432a5dbbe7d095a00bce7ab3785c02cc02804edc3451d260f4eacf7387842c"),
    ])
    def test_report_bytes_pinned(self, n, count, seed, mutate, digest):
        c = synthesize(n)
        if mutate is not None:
            c = mutate(c)
        assert _report_sha256(check_sampled(c, count, seed)) == digest

    @pytest.mark.parametrize("n", [3, 5, 12, 30])
    @pytest.mark.parametrize("count", [1, 9, 40])
    def test_block_merge_matches_whole_width_oracle(self, monkeypatch, n, count):
        # with 7-point blocks, small n crosses the random/structured boundary
        # and several structured blocks; at n = 30 a mutant's mismatches pass
        # the cap and spread over many outputs
        monkeypatch.setattr(xagsynth.verify, "STRUCTURED_BLOCK", 7)
        good = synthesize(n)
        outs = [gid for _, gid in good.outputs]
        rotated = good
        for k in range(n):
            rotated = rotated.replace_output(k, outs[(k + 1) % n])
        inputs = good
        for k in range(0, n, 3):
            inputs = inputs.replace_output(k, k)
        mutants = [good, rotated, inputs, _with_zero_outputs(good, range(1, n, 2))]
        for seed, c in enumerate(mutants):
            r = check_sampled(c, count, seed)
            total, first = sampled_mismatches(c, count, seed)
            assert (r.mismatch_count, r.to_dict()["mismatches"]) == (total, first)
            assert r.passed == (total == 0) and r.inputs_checked == count + n + 2
            assert compare_circuits_sampled(c, good, count, seed) == \
                sampled_mismatches(c, count, seed, other=good)[0]
        if n == 30:
            r = check_sampled(rotated, count, 1)
            assert r.mismatch_count > MISMATCH_CAP
            assert len({m.output_index for m in r.mismatches}) >= MISMATCH_CAP // 2


class TestLemmaSuite:
    def test_all_pass_up_to_8(self):
        checks = check_lemma_suite(8)
        assert all(c.passed for c in checks)
        names = {c.name for c in checks}
        assert names == {
            "stage1-sigma",
            "pair-product-two-monomials",
            "even-last-output",
            "output-extraction",
            "linear-independence",
        }

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            check_lemma_suite(2)
        with pytest.raises(ValueError):
            check_lemma_suite(17)


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
