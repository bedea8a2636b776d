"""Acceptance suite: one test per exit criterion, exact tolerances, with a
pass/fail line printed per criterion. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

from xagsynth import (
    BASELINE,
    OPTIMAL,
    Anf,
    Circuit,
    check_exhaustive,
    check_sampled,
    degree_lower_bound,
    export_bristol,
    import_bristol,
    reference_anf,
    sigma_anf,
    synthesize,
    synthesize_plan,
)
from xagsynth.bitops import full_mask
from xagsynth.verify import gate_anfs

from oracles import naive_gf2_rank, retap


def report(num, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{name}]: {status} ({elapsed:.2f}s, budget {budget}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_01_optimal_and_count_exact():
    t0 = time.monotonic()
    ok = all(synthesize(n, OPTIMAL).and_count() == 2 * n - 3
             for n in range(3, 1001))
    report(1, "optimal count 2n-3, n=3..1000", ok, time.monotonic() - t0, 5)


def test_criterion_02_exhaustive_equivalence():
    t0 = time.monotonic()
    ok = True
    for n in range(3, 17):
        for construction in (OPTIMAL, BASELINE):
            r = check_exhaustive(synthesize(n, construction))
            ok = ok and r.passed and r.mismatch_count == 0
    report(2, "exhaustive match n=3..16, both constructions", ok,
           time.monotonic() - t0, 60)


def test_criterion_03_stage1_count_and_tables():
    t0 = time.monotonic()
    ok = True
    for n in range(3, 1001):
        ok = ok and synthesize_plan(n).stage_and_counts[0] == n - 2
    for n in range(3, 15):
        # sigma_n is 1 at each single-zero point, and at all-ones when n is odd
        plan = synthesize_plan(n)
        table = Circuit(n, plan.circuit.gates, (("s", plan.sigma),)).eval_all()[0]
        full = full_mask(n)
        ok = ok and table == sum(1 << (full ^ 1 << k) for k in range(n)) | (n % 2) << full
    report(3, "stage-1: n-2 ANDs and reference tables", ok,
           time.monotonic() - t0, 10)


def test_criterion_04_pair_products_two_monomials():
    t0 = time.monotonic()
    ok = True
    for n in range(3, 13):
        sig = sigma_anf(n)
        for i in range(1, n):
            product = Anf.linear(n, [i, i + 1]) * sig
            expected = reference_anf(n, i) + reference_anf(n, i + 1)
            ok = ok and product == expected and len(product.terms) == 2
    report(4, "pair products keep exactly two monomials", ok,
           time.monotonic() - t0, 10)


def test_criterion_05_even_case_single_monomial():
    t0 = time.monotonic()
    ok = True
    for n in range(4, 13, 2):
        product = Anf(n, sigma_anf(n - 1).terms) * Anf.linear(n, range(1, n))
        ok = ok and product == Anf.monomial(n, range(1, n))
    report(5, "even case collapses to one monomial", ok, time.monotonic() - t0, 5)


def test_criterion_06_linear_independence():
    t0 = time.monotonic()
    ok = True
    for n in range(3, 13):
        # the n intermediates as the circuit computes them: sigma_n and the
        # stage-2 nodes, each its gate's exact ANF
        plan = synthesize_plan(n)
        anfs = gate_anfs(plan.circuit)
        rows = []
        for gid in [plan.sigma, *plan.stage2_nodes]:
            row = 0
            for m in anfs[gid].terms:
                missing = full_mask(n) ^ m
                ok = ok and m.bit_count() == n - 1 and missing.bit_count() == 1
                row |= missing
            rows.append(row)
        ok = ok and len(rows) == n and naive_gf2_rank(rows) == n
        ok = ok and naive_gf2_rank(rows + [rows[0] ^ rows[-1]]) == n  # a sum adds no rank
    report(6, "intermediates have GF(2) rank n", ok, time.monotonic() - t0, 5)


def test_criterion_07_baseline_and_count_exact():
    t0 = time.monotonic()
    ok = all(synthesize(n, BASELINE).and_count() == 3 * n - 6
             for n in range(3, 1001))
    report(7, "baseline count 3n-6, n=3..1000", ok, time.monotonic() - t0, 5)


def test_criterion_08_degree_bound_reporting():
    t0 = time.monotonic()
    ok = True
    for n in (3, 6, 10, 25):
        count = synthesize(n, OPTIMAL).and_count()
        bounds = [degree_lower_bound(reference_anf(n, i)) for i in range(1, n + 1)]
        ok = ok and count == 2 * n - 3
        ok = ok and all(b == n - 2 for b in bounds)
        ok = ok and all(b <= count for b in bounds)
    report(8, "degree bound n-2 <= observed 2n-3", ok, time.monotonic() - t0, 5)


def test_criterion_09_large_n_differential():
    t0 = time.monotonic()
    ok = True
    for n in (101, 1024, 4097):
        optimal = synthesize(n, OPTIMAL)
        baseline = synthesize(n, BASELINE)
        # both pass against the reference on the same seeded points, so the
        # two constructions agree on every one of them
        ok = ok and check_sampled(optimal, 10000, seed=42).passed
        ok = ok and check_sampled(baseline, 10000, seed=42).passed
    t_synth = time.monotonic()
    big = 100000
    ok = ok and synthesize(big, OPTIMAL).and_count() == 2 * big - 3
    ok = ok and synthesize(big, BASELINE).and_count() == 3 * big - 6
    synth_elapsed = time.monotonic() - t_synth
    ok = ok and synth_elapsed < 5
    report(9, "large-n differential + n=1e5 synthesis", ok,
           time.monotonic() - t0, 60)


def test_criterion_10_bristol_round_trip():
    t0 = time.monotonic()
    ok = True
    for n in range(3, 13):
        for construction, expected in ((OPTIMAL, 2 * n - 3), (BASELINE, 3 * n - 6)):
            doc = export_bristol(synthesize(n, construction))
            and_lines = sum(1 for l in doc.splitlines() if l.endswith(" AND"))
            ok = ok and and_lines == expected
            r = check_exhaustive(import_bristol(doc), expected_and_count=expected)
            ok = ok and r.passed
    report(10, "Bristol round-trip preserves semantics and AND lines", ok,
           time.monotonic() - t0, 30)


def test_criterion_11_mutation_sensitivity():
    t0 = time.monotonic()
    mutants = 0
    detected = 0
    for n in range(3, 9):
        plan = synthesize_plan(n, OPTIMAL)
        for k in range(n):
            current = plan.circuit.outputs[k][1]
            for node in plan.stage2_nodes:
                if node == current:
                    continue
                mutants += 1
                if not check_exhaustive(retap(plan.circuit, k, node)).passed:
                    detected += 1
    ok = mutants > 0 and detected == mutants
    report(11, f"mutation detection {detected}/{mutants}", ok,
           time.monotonic() - t0, 30)
