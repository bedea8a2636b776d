import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xagsynth import (AND, BASELINE, NOT, OPTIMAL, XOR, Circuit, CircuitBuilder, export_bristol,
                      reference_anf, synthesize)
from xagsynth.verify import gate_anfs

from oracles import (all_inputs, naive_anf_table, naive_anf_value, naive_eval, naive_reachable,
                     retap, table_int, vars_of, with_zero_outputs)


def sigma3_builder():
    b = CircuitBuilder(3)
    x1, x2, x3 = 0, 1, 2
    s = b.xor(b.and_(b.xor(x1, x2), b.xor(x2, x3)), x2)
    return b, s


def every_branch_circuit():
    """AND(a, a), XOR(a, a), a three-operand XOR, NOT, a dead gate and an
    output that a later gate reads."""
    b = CircuitBuilder(3)
    x1, x2, x3 = 0, 1, 2
    sq = b.and_(x1, x1)
    zero = b.xor(x2, x2)
    wide = b.xor(x1, x2, x3)
    b.and_(wide, x3)  # dead
    inv = b.not_(wide)
    y = b.and_(inv, b.xor(sq, zero, x3))
    return b.finish([("wide", wide), ("y", y), ("z", zero), ("t", b.xor(wide, y))])


class TestBuilder:
    def test_builder_starts_with_inputs(self):
        b = CircuitBuilder(3)
        c = b.finish([("y", 2)])
        assert c.gates == (("INPUT",),) * 3
        assert b.not_(0) == 3

    def test_each_call_appends_next_id(self):
        # append-only: identical calls make distinct gates with dense ids
        b = CircuitBuilder(2)
        x1, x2 = 0, 1
        ids = [b.xor(x1, x2), b.xor(x1, x2), b.and_(x1, x2), b.and_(x1, x2),
               b.not_(x1), b.not_(x1), b.not_(x2), b.not_(x2)]
        assert [x1, x2] + ids == list(range(10))
        assert b.and_gates_created == 2

    def test_and_of_same_operand_is_syntactic(self):
        b = CircuitBuilder(1)
        x1 = 0
        g = b.and_(x1, x1)
        assert g != x1
        c = b.finish([("y", g)])
        assert c.output_columns([0], 1) == [0] and c.output_columns([1], 1) == [1]

    def test_not_is_complement(self):
        b = CircuitBuilder(1)
        x1 = 0
        c = b.finish([("y", b.not_(x1))])
        assert c.output_columns([0], 1) == [1] and c.output_columns([1], 1) == [0]

    def test_unknown_operand_rejected(self):
        b = CircuitBuilder(2)
        with pytest.raises(ValueError):
            b.and_(0, 99)

    def test_xor_needs_two_operands(self):
        b = CircuitBuilder(2)
        x1 = 0
        with pytest.raises(ValueError):
            b.xor(x1)


class TestEval:
    def test_all_ones_input(self):
        from xagsynth import synthesize
        c = synthesize(3)
        assert c.output_columns([1, 1, 1], 1) == [1, 1, 1]

    def test_two_zeros_kill_everything(self):
        from xagsynth import synthesize
        c = synthesize(4)
        assert c.output_columns([1, 0, 0, 1], 1) == [0, 0, 0, 0]

    def test_single_zero_selects_one_output(self):
        from xagsynth import synthesize
        c = synthesize(4)
        assert c.output_columns([1, 0, 1, 1], 1) == [0, 1, 0, 0]

    def test_wrong_input_length(self):
        from xagsynth import synthesize
        with pytest.raises(ValueError):
            synthesize(3).output_columns([1, 1], 1)

    def test_input_passthrough_table(self):
        b = CircuitBuilder(2)
        x1 = 0
        c = b.finish([("y", x1)])
        assert c.eval_all() == [table_int([0, 1, 0, 1])]

    def test_sigma3_table_matches_anf(self):
        b, s = sigma3_builder()
        c = b.finish([("s", s)])
        assert c.eval_all() == [table_int(naive_anf_table(3, [(1, 2), (2, 3), (1, 3)]))]

    def test_eval_all_arity_cap(self):
        b = CircuitBuilder(25)
        g = 0
        c = b.finish([("y", g)])
        with pytest.raises(ValueError):
            c.eval_all()

    def test_outputs_read_later_and_dead_gates(self):
        # an output also read by a later gate, a repeated operand and an
        # unread gate: no column is dropped while something still needs it
        b = CircuitBuilder(2)
        x1, x2 = 0, 1
        a = b.and_(x1, x2)
        b.xor(a, x1)  # unread
        sq = b.and_(a, a)
        c = b.finish([("a", a), ("y", b.xor(sq, x2)), ("n", b.not_(a))])
        expected = [[0, 0, 0, 1], [0, 0, 1, 0], [1, 1, 1, 0]]
        assert c.eval_all() == [table_int(t) for t in expected]

    def test_forward_pass_matches_gate_by_gate_oracle(self):
        # every branch of the pass
        c = every_branch_circuit()
        width = 1 << 3
        columns = [sum(((x >> j) & 1) << x for x in range(width)) for j in range(3)]
        got = c.output_columns(columns, width)
        for x in range(width):
            bits = [(x >> j) & 1 for j in range(3)]
            assert [(col >> x) & 1 for col in got] == naive_eval(c.gates, c.outputs, bits)

    def test_cached_last_uses_serve_every_width(self):
        # one last-use table, filled by the first pass, serves a later pass
        # at another width
        b = CircuitBuilder(4)
        g = b.and_(b.xor(0, 1, 2), b.not_(3))
        c = b.finish([("g", g), ("h", b.xor(g, 0, g))])
        assert c._last is None
        point = [1, 0, 0, 1]
        assert list(c.output_columns(point, 1)) == naive_eval(c.gates, c.outputs, point)
        table = c._last
        rng = random.Random(5)
        columns = [rng.getrandbits(64) for _ in range(4)]
        got = c.output_columns(columns, 64)
        assert c._last is table
        for t in range(64):
            bits = [(col >> t) & 1 for col in columns]
            assert [(col >> t) & 1 for col in got] == naive_eval(c.gates, c.outputs, bits)

    def test_export_leaves_the_last_use_table_unbuilt(self):
        # exporting never evaluates, so it does not pay for the table
        b, s = sigma3_builder()
        c = b.finish([("s", s)])
        export_bristol(c)
        assert c.and_count() == 1 and c._last is None

    def test_drop_plan_costs_bytes_per_gate(self):
        # the first pass builds and keeps a flag byte per gate; an int per
        # gate would cost about 32 B/gate on its own
        from xagsynth import synthesize
        c = synthesize(20000)
        gates = len(c.gates)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = c.output_columns([1] * c.arity, 1)
            peak = tracemalloc.get_traced_memory()[1]
            del out
            plan = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (peak - base) / gates < 24, (peak - base) / gates
        assert (plan - base) / gates < 4, (plan - base) / gates

    def test_plan_walk_fills_the_reachable_flags(self):
        # the plan walk skips dead gates, so its read flags are exactly the
        # reachable flags; a dead gate's operands stay dead unless a live
        # gate reads them, and the pass still matches the oracle
        from xagsynth import synthesize
        b = CircuitBuilder(3)
        x1, x2, x3 = 0, 1, 2
        wide = b.xor(x1, x2, b.not_(x3))  # dead, like the NOT it reads
        b.and_(wide, x1)  # dead
        b.and_(x1, x3)  # dead
        y = b.xor(b.and_(x1, x2), x2)
        hand = b.finish([("y", y), ("x2", x2)])
        c9 = synthesize(9)
        circuits = [hand, retap(c9, 0, 0), retap(c9, 4, len(c9.gates) - 2),
                    with_zero_outputs(c9, [1, 3, 8]), with_zero_outputs(c9, range(9))]
        rng = random.Random(11)
        for c in circuits:
            fresh = Circuit(c.arity, c.gates, c.outputs)
            columns = [rng.getrandbits(64) for _ in range(c.arity)]
            got = c.output_columns(columns, 64)
            assert c._walk == fresh._structure()
            for t in range(64):
                bits = [(col >> t) & 1 for col in columns]
                assert [(col >> t) & 1 for col in got] == naive_eval(c.gates, c.outputs, bits)
        assert hand.reachable() == bytearray([1, 1, 0, 0, 0, 0, 0, 1, 1])

    def test_input_columns_may_be_a_generator(self):
        from xagsynth import synthesize
        c = synthesize(9)
        rng = random.Random(3)
        columns = [rng.getrandbits(100) for _ in range(9)]
        assert c.output_columns((col for col in columns), 100) == c.output_columns(columns, 100)

    def test_dead_columns_are_released(self):
        width = 1 << 20
        b = CircuitBuilder(1)
        g = 0
        for _ in range(64):
            b.not_(g)  # dead: its column is never stored
            g = b.not_(g)
        c = b.finish([("y", g)])
        x = (1 << width) - 1
        tracemalloc.start()
        try:
            (y,) = c.output_columns([x], width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y == x
        assert peak < 8 * (width // 8)  # a few live columns, not one per gate


class TestAndCount:
    def test_sigma3_has_one_and(self):
        b, s = sigma3_builder()
        assert b.finish([("s", s)]).and_count() == 1

    def test_counts_for_n7(self):
        from xagsynth import BASELINE, OPTIMAL, synthesize
        assert synthesize(7, OPTIMAL).and_count() == 11
        assert synthesize(7, BASELINE).and_count() == 15

    def test_unreachable_ands_excluded(self):
        b = CircuitBuilder(2)
        x1, x2 = 0, 1
        b.and_(x1, x2)  # dead
        c = b.finish([("y", b.xor(x1, x2))])
        assert c.and_count() == 0

    def test_not_and_xor_are_free(self):
        b = CircuitBuilder(2)
        x1, x2 = 0, 1
        c = b.finish([("y", b.not_(b.xor(x1, x2, b.not_(b.xor(x1, x1)))))])
        assert c.and_count() == 0

    def test_retapped_circuit_gets_its_own_structural_pass(self):
        from xagsynth import synthesize
        c = synthesize(9)
        assert c.and_count() == 15  # fills the original's cache first
        dead = c
        for k in range(len(c.outputs)):
            dead = retap(dead, k, k % c.arity)
        assert dead.and_count() == 0
        # only the zero wire and the output copies are left to write
        lines = 1 + len(c.outputs)
        assert export_bristol(dead).startswith(f"{lines} {c.arity + lines}\n")
        assert not any(dead.reachable()[c.arity:])
        assert c.and_count() == 15

    def test_mutating_reachable_leaves_the_cache_intact(self):
        b, s = sigma3_builder()
        c = b.finish([("s", s)])
        mark = c.reachable()
        mark[:] = bytes(len(mark))
        assert c.and_count() == 1
        assert c.reachable() == bytearray([1, 1, 1, 1, 1, 1, 1]) != mark


class TestStructure:
    def test_validate_accepts_builder_output(self):
        b, s = sigma3_builder()
        b.finish([("s", s)]).validate()

    def test_validate_rejects_forward_reference(self):
        c = Circuit(1, (("INPUT",), ("AND", 0, 2), ("NOT", 0)), (("y", 1),))
        with pytest.raises(ValueError, match="not before gate"):
            c.validate()

    @pytest.mark.parametrize("gates,match", [
        ((("INPUT",),), "must be the inputs"),  # shorter than the arity
        ((("INPUT", 1), ("INPUT", 2)), "must be the inputs"),  # old ("INPUT", v) format
        ((("INPUT",), ("INPUT",), ("INPUT",)), "cannot follow"),
        ((("INPUT",), ("INPUT",), ("AND", 0)), "operand count 1 for AND"),
        ((("INPUT",), ("INPUT",), ("AND", 0, 1, 1)), "operand count 3 for AND"),
        ((("INPUT",), ("INPUT",), ("XOR", 0)), "operand count 1 for XOR"),
        ((("INPUT",), ("INPUT",), ("OR", 0, 1)), "cannot follow"),
        ((("INPUT",), ("NOT", 0)), "must be the inputs"),  # a non-input in the prefix
        ((("INPUT",), ("INPUT",), ("CONST1", 0)), "cannot follow"),  # not in the basis
        ((("INPUT",), ("INPUT",), ("CONST1",)), "cannot follow"),
        # three-element gates that are not a two-operand AND or XOR over earlier gates
        ((("INPUT",), ("INPUT",), ("NOT", 0, 1)), "operand count 2 for NOT"),
        ((("INPUT",), ("INPUT",), ("AND", -1, 0)), "operand -1 not before gate"),
        ((("INPUT",), ("INPUT",), ("XOR", 2, 0)), "operand 2 not before gate"),
        ((("INPUT",), ("INPUT",), ("AND", 0, 2)), "operand 2 not before gate"),
        ((("INPUT",), ("INPUT",), ("INPUT", 0, 1)), "cannot follow"),
    ])
    def test_validate_rejects_malformed_layout(self, gates, match):
        with pytest.raises(ValueError, match=match):
            Circuit(2, gates, (("y", 0),)).validate()

    def test_output_columns_rejects_wrong_column_count(self):
        from xagsynth import synthesize
        c = synthesize(3)
        for columns in ([1, 1], [1, 1, 1, 1]):
            for given in (columns, (col for col in columns)):
                with pytest.raises(ValueError,
                                   match=f"^expected 3 input columns, got {len(columns)}$"):
                    c.output_columns(given, 1)


@st.composite
def random_circuits(draw):
    arity = draw(st.integers(min_value=1, max_value=6))
    b = CircuitBuilder(arity)
    ids = list(range(arity))
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        kind = draw(st.sampled_from(["and", "xor", "not", "const"]))
        pick = lambda: ids[draw(st.integers(min_value=0, max_value=len(ids) - 1))]
        if kind == "and":
            ids.append(b.and_(pick(), pick()))
        elif kind == "xor":
            ops = [pick() for _ in range(draw(st.integers(min_value=2, max_value=4)))]
            ids.append(b.xor(*ops))
        elif kind == "not":
            ids.append(b.not_(pick()))
        else:  # constant 1
            x = pick()
            ids.append(b.not_(b.xor(x, x)))
    outs = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
    return b.finish([(f"o{k}", g) for k, g in enumerate(outs, start=1)])


class TestEvalAgreement:
    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_eval_matches_eval_all(self, c):
        tables = c.eval_all()
        for bits in all_inputs(c.arity):
            point = sum(b << j for j, b in enumerate(bits))
            got = c.output_columns(bits, 1)
            for k, t in enumerate(tables):
                assert got[k] == (t >> point) & 1

    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_eval_matches_gate_by_gate_oracle(self, c):
        for bits in all_inputs(c.arity):
            assert c.output_columns(bits, 1) == naive_eval(c.gates, c.outputs, bits)

    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_not_elimination_preserves_semantics_and_ands(self, c):
        b = CircuitBuilder(c.arity)
        mapping = {v: v for v in range(c.arity)}
        for gid, gate in enumerate(c.gates[c.arity:], c.arity):
            kind = gate[0]
            if kind == AND:
                mapping[gid] = b.and_(mapping[gate[1]], mapping[gate[2]])
            elif kind == XOR:
                mapping[gid] = b.xor(*(mapping[o] for o in gate[1:]))
            else:  # NOT -> XOR with constant one
                x = mapping[gate[1]]
                mapping[gid] = b.xor(b.not_(b.xor(x, x)), x)
        c2 = b.finish([(lbl, mapping[g]) for lbl, g in c.outputs])
        assert c2.eval_all() == c.eval_all()
        assert c2.and_count() == c.and_count()

    @given(random_circuits())
    @settings(max_examples=25, deadline=None)
    def test_rebuilding_appends_second_copy(self, c):
        # rebuild the same gate list twice over; the builder keeps a second
        # copy of every non-input gate without changing any output table
        b = CircuitBuilder(c.arity)
        mapping = {v: v for v in range(c.arity)}
        for _ in range(2):
            for gid, gate in enumerate(c.gates[c.arity:], c.arity):
                kind = gate[0]
                if kind == NOT:
                    mapping[gid] = b.not_(mapping[gate[1]])
                elif kind == AND:
                    mapping[gid] = b.and_(mapping[gate[1]], mapping[gate[2]])
                else:
                    mapping[gid] = b.xor(*(mapping[o] for o in gate[1:]))
        c2 = b.finish([(lbl, mapping[g]) for lbl, g in c.outputs])
        assert c2.gates[:len(c.gates)] == c.gates
        assert len(c2.gates) == 2 * len(c.gates) - c.arity
        assert c2.eval_all() == c.eval_all()
        assert c2.and_count() == c.and_count()

    @given(random_circuits())
    @settings(max_examples=60, deadline=None)
    def test_reachable_matches_naive_dfs(self, c):
        got = {gid for gid, m in enumerate(c.reachable()) if m}
        assert got == naive_reachable(c.gates, c.outputs)

    @given(random_circuits())
    @settings(max_examples=60, deadline=None)
    def test_bristol_header_counts_its_body(self, c):
        # dead gates, wide XORs and repeated taps: the header's counts are
        # those of the lines written, and line k writes wire n + k
        header, _, _, _, *body = export_bristol(c).splitlines()
        ngates, nwires = map(int, header.split())
        assert ngates == len(body) and nwires == c.arity + ngates
        assert [int(line.split()[-2]) for line in body] == \
            list(range(c.arity, c.arity + ngates))


def assert_gate_anfs_match_naive_eval(c):
    # every gate's polynomial, evaluated term by term at every point,
    # against the gate-by-gate oracle with every gate tapped as an output
    anfs = [[vars_of(m) for m in a.terms] for a in gate_anfs(c)]
    taps = [(str(gid), gid) for gid in range(len(c.gates))]
    for bits in all_inputs(c.arity):
        assert [naive_anf_value(a, bits) for a in anfs] == naive_eval(c.gates, taps, bits)


class TestGateAnfs:
    def test_every_branch_matches_gate_by_gate_oracle(self):
        assert_gate_anfs_match_naive_eval(every_branch_circuit())

    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_random_circuits_match_gate_by_gate_oracle(self, c):
        assert_gate_anfs_match_naive_eval(c)

    @pytest.mark.parametrize("construction", [OPTIMAL, BASELINE])
    def test_outputs_are_single_monomials(self, construction):
        for n in range(3, 9):
            c = synthesize(n, construction)
            anfs = gate_anfs(c)
            assert [anfs[gid] for _, gid in c.outputs] == \
                [reference_anf(n, i) for i in range(1, n + 1)], n
