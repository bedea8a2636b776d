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
    reference_anf,
    reference_table_bits,
    synthesize,
    synthesize_plan,
)
from xagsynth.verify import MISMATCH_CAP

from oracles import (
    leave_one_out_reference,
    naive_anf_table,
    outputs_at_sigma,
    patch_optimal,
    retap,
    sampled_mismatches,
    stage2_at_one_and,
    table_int,
    vars_of,
    with_zero_outputs,
)


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
        # set bits, and the oracle's evaluation of the polynomial
        for i in range(1, n + 1):
            anf = reference_anf(n, i)
            bits = reference_table_bits(n, i)
            assert bits == table_int(naive_anf_table(n, [vars_of(m) for m in anf.terms]))


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
        broken = retap(plan.circuit, 0, plan.stage2_nodes[0])
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
            c = retap(c, k, 0)  # gate 0 is input x1
        r = check_exhaustive(c)
        assert not r.passed
        assert len(r.mismatches) == MISMATCH_CAP
        assert r.mismatch_count > MISMATCH_CAP

    def test_failing_report_bytes_pinned(self):
        c = synthesize_plan(6, OPTIMAL).circuit
        for k in range(6):
            c = retap(c, k, 0)
        assert _report_sha256(check_exhaustive(c)) == \
            "06c2f7e1ecbee1475fe5df25e73df92b26ddf7a04c174588aa3233392862b4b6"

    def test_failing_report_key_order(self):
        c = retap(synthesize(4, OPTIMAL), 0, 0)
        d = check_exhaustive(c, expected_and_count=5).to_dict()
        assert list(d) == ["mode", "arity", "inputs_checked", "outputs_checked",
                           "mismatch_count", "mismatches", "and_count_observed",
                           "and_count_expected", "sample_count", "seed", "passed"]
        assert d["mismatches"][0] == {"input": "1000", "output_index": 1,
                                      "expected": 0, "got": 1}
        assert all(list(m) == ["input", "output_index", "expected", "got"]
                   for m in d["mismatches"])
        assert (d["sample_count"], d["seed"], d["passed"]) == (None, None, False)

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
        broken = retap(b, 0, plan.stage2_nodes[0])
        r = check_sampled(broken, 10, seed=3)
        assert not r.passed

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            check_sampled(synthesize(5), 0, seed=1)

    def test_differential_constructions_agree(self):
        a = synthesize(101, OPTIMAL)
        b = synthesize(101, BASELINE)
        assert sampled_mismatches(a, 2000, 9, other=b) == (0, [])


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
        (4100, 37, 5, lambda c: retap(c, 4098, 0),  # output 4099 reads x1
         "212dba47b68b173a1eb1ad0b24237d618a5e8465a153e01cf0f4d70099c5f38c"),
        (4100, 37, 5, lambda c: with_zero_outputs(c, [4099]),
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
            rotated = retap(rotated, k, outs[(k + 1) % n])
        inputs = good
        for k in range(0, n, 3):
            inputs = retap(inputs, k, k)
        mutants = [good, rotated, inputs, with_zero_outputs(good, range(1, n, 2))]
        for seed, c in enumerate(mutants):
            r = check_sampled(c, count, seed)
            total, first = sampled_mismatches(c, count, seed)
            assert (r.mismatch_count, r.to_dict()["mismatches"]) == (total, first)
            assert r.passed == (total == 0) and r.inputs_checked == count + n + 2
        if n == 30:
            r = check_sampled(rotated, count, 1)
            assert r.mismatch_count > MISMATCH_CAP
            assert len({m.output_index for m in r.mismatches}) >= MISMATCH_CAP // 2


    def test_one_pass_per_block_of_single_zero_points(self, monkeypatch):
        # all-zeros and all-ones add no distinct column, so they ride in the
        # first structured block: n = 8 in blocks of 4 is 2 structured passes
        # after the random block, not 3
        monkeypatch.setattr(xagsynth.verify, "STRUCTURED_BLOCK", 4)
        calls = []
        output_columns = Circuit.output_columns
        monkeypatch.setattr(Circuit, "output_columns",
                            lambda self, cols, width: calls.append(width)
                            or output_columns(self, cols, width))
        r = check_sampled(synthesize(8), 5, seed=3)
        assert r.passed and r.inputs_checked == 5 + 8 + 2
        assert calls == [5, 6, 4]


    def test_structured_blocks_as_wide_as_the_random_block(self, monkeypatch):
        # 20 samples in blocks of 4 widen the structured block to 16 points:
        # 1 + ceil(40 / 16) passes, not 1 + ceil(40 / 4)
        monkeypatch.setattr(xagsynth.verify, "STRUCTURED_BLOCK", 4)
        calls = []
        output_columns = Circuit.output_columns
        monkeypatch.setattr(Circuit, "output_columns",
                            lambda self, cols, width: calls.append(width)
                            or output_columns(self, cols, width))
        r = check_sampled(synthesize(40), 20, seed=3)
        assert r.passed and r.inputs_checked == 20 + 40 + 2
        assert calls == [20, 18, 16, 8]

    def test_structured_references_are_closed_form(self, monkeypatch):
        # expected values at structured points do not come from the block's
        # own inputs, so a block built at the wrong points is caught: here
        # x1 and x2 trade columns, and outputs 1 and 2 each differ twice
        structured = xagsynth.verify._structured_columns

        def swapped(n, start, width):
            columns = structured(n, start, width)
            columns[0], columns[1] = columns[1], columns[0]
            return columns

        monkeypatch.setattr(xagsynth.verify, "_structured_columns", swapped)
        r = check_sampled(synthesize(12), 5, 1)
        assert not r.passed and r.mismatch_count == 4
        assert {m.output_index for m in r.mismatches} == {1, 2}

    def test_random_block_released_before_structured_passes(self, monkeypatch):
        # the random block (2048 inputs x 16384 samples, 4 MiB) is held only
        # by its own pass, so a structured pass starts without it
        n, count = 2048, 16384
        c = synthesize(n)
        c.output_columns([1] * n, 1)  # the plan is kept, so build it first
        held = []
        output_columns = Circuit.output_columns
        monkeypatch.setattr(Circuit, "output_columns",
                            lambda self, cols, width:
                            held.append(tracemalloc.get_traced_memory()[0])
                            or output_columns(self, cols, width))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            r = check_sampled(c, count, seed=4)
        finally:
            tracemalloc.stop()
        assert r.passed and len(held) == 2
        assert all(h - base < 2 << 20 for h in held[1:]), [h - base for h in held]


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

    @pytest.mark.parametrize("change", [stage2_at_one_and, outputs_at_sigma])
    def test_wrong_construction_fails(self, monkeypatch, change):
        # each check reads the node the plan names, so a mutant whose
        # outputs stay right still fails if a named node is wrong
        patch_optimal(monkeypatch, change)
        assert not all(c.passed for c in check_lemma_suite(12))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            check_lemma_suite(2)
        with pytest.raises(ValueError):
            check_lemma_suite(17)


class TestMutationSensitivity:
    # criterion 11 shows the exhaustive check catches every re-tap of an
    # output at another intermediate; the sampled check must too, from its
    # structured points, even with a single random point
    @pytest.mark.parametrize("n", range(3, 9))
    def test_every_single_tap_mutation_detected(self, n):
        plan = synthesize_plan(n, OPTIMAL)
        for k in range(n):
            current = plan.circuit.outputs[k][1]
            for node in plan.stage2_nodes:
                if node == current:
                    continue
                assert not check_sampled(retap(plan.circuit, k, node), 1, seed=k).passed
