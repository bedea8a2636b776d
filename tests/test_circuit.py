import hashlib
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xagsynth import (AND, BASELINE, NOT, OPTIMAL, XOR, Circuit, CircuitBuilder, export_bristol,
                      import_bristol, reference_anf, synthesize)
from xagsynth.circuit import variable_column
from xagsynth.verify import gate_anfs

from oracles import (all_inputs, naive_anf_value, naive_eval, naive_reachable, retap, table_int,
                     traced, vars_of, with_zero_outputs)


def sigma3_builder():
    b = CircuitBuilder(3)
    x1, x2, x3 = 0, 1, 2
    s = b.xor(b.and_(b.xor(x1, x2), b.xor(x2, x3)), x2)
    return b, s


def every_branch_circuit():
    """AND(a, a), XOR(a, a), three-operand XOR chains, NOT, a dead gate and
    an output that a later gate reads."""
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
        before = builder_state(b)
        with pytest.raises(ValueError, match="^unknown gate id 99$"):
            b.and_(0, 99)
        with pytest.raises(ValueError, match="^unknown gate id 7$"):  # first operand first
            b.and_(7, 99)
        assert builder_state(b) == before

    def test_xor_needs_two_operands(self):
        b = CircuitBuilder(2)
        x1 = 0
        with pytest.raises(ValueError):
            b.xor(x1)

    def test_xor_of_three_is_a_left_associated_chain(self):
        b = CircuitBuilder(3)
        before = builder_state(b)
        with pytest.raises(ValueError, match="^unknown gate id 9$"):
            b.xor(2, 0, 9)
        assert builder_state(b) == before
        assert b.xor(2, 0, 1) == 4
        assert b.finish([("y", 4)]).gates[3:] == (("XOR", 2, 0), ("XOR", 3, 1))

    @pytest.mark.parametrize("bad", [10_003, -1])
    def test_finish_names_a_bad_output_id_last_of_many(self, bad):
        b = CircuitBuilder(3)
        for _ in range(10_000):
            b.not_(0)
        outputs = [(f"f{i}", i) for i in range(9_999)] + [("last", bad)]
        with pytest.raises(ValueError, match=f"^unknown gate id {bad}$"):
            b.finish(outputs)
        assert len(b.finish(outputs[:-1])) == 10_003

    def test_finish_names_the_first_bad_output_id(self):
        with pytest.raises(ValueError, match="^unknown gate id 7$"):
            CircuitBuilder(2).finish([("a", 1), ("b", 7), ("c", -3)])

    @pytest.mark.parametrize("once", [lambda pairs: (p for p in pairs),
                                      lambda pairs: zip(*zip(*pairs))], ids=["generator", "zip"])
    def test_outputs_read_once(self, once):
        # a one-shot iterable of outputs gives the circuit its tuple gives,
        # through the builder and through the constructor alike
        b, s = sigma3_builder()
        pairs = (("s", s), ("x1", 0), ("s", s))
        want = b.finish(pairs)
        for c in (b.finish(once(pairs)), Circuit(3, want.gates, once(pairs))):
            assert c.outputs == want.outputs == pairs
            assert c.and_count() == want.and_count() == 1
            c.validate()


def builder_state(b):
    return bytes(b._kinds), b._first.tobytes(), b._second.tobytes(), b.and_gates_created


class TestRun:
    """``CircuitBuilder.run``: a repeated AND/XOR pattern in one call."""

    def test_matches_one_call_per_gate(self):
        # the gates written out one by one, not built through the builder
        b = CircuitBuilder(4)
        b.xor(0, 1)
        ids = b.run([XOR, AND, AND], [range(0, 3), [4, 5, 6], range(1, 10, 4)],
                    [array("i", [3, 3, 3]), range(2, 5), [0, 0, 0]], 3)
        assert ids == range(5, 14)
        assert b.finish([]).gates == (("INPUT",),) * 4 + (
            ("XOR", 0, 1),
            ("XOR", 0, 3), ("AND", 4, 2), ("AND", 1, 0),
            ("XOR", 1, 3), ("AND", 5, 3), ("AND", 5, 0),
            ("XOR", 2, 3), ("AND", 6, 4), ("AND", 9, 0))
        assert b.and_gates_created == 6

    def test_and_count_grows_by_the_patterns_ands(self):
        b = CircuitBuilder(2)
        b.run([AND, XOR, AND, AND], [range(0, 5)] * 4, [range(1, 6)] * 4, 5)
        assert b.and_gates_created == 15
        b.run([XOR], [range(0, 7)], [range(1, 8)], 7)
        assert b.and_gates_created == 15

    def test_zero_count_adds_nothing(self):
        b = CircuitBuilder(3)
        before = builder_state(b)
        assert b.run([XOR, AND], [range(0), []], [array("i"), range(5, 5)], 0) == range(3, 3)
        assert b.run([], [], [], 4) == range(3, 3)
        assert builder_state(b) == before

    # against gates 4..7, operand 6 is its own gate's id; the array's max is
    # past the run's first gate but only its third operand is out of order
    @pytest.mark.parametrize("bad", [range(2, 10, 2), array("i", [0, 4, 6, 1])],
                             ids=["range", "array"])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_refuses_an_operand_not_before_its_gate(self, bad, slot):
        b = CircuitBuilder(3)
        b.xor(0, 1)
        before = builder_state(b)
        good = range(0, 4)
        lanes = [[bad], [good]] if slot == 0 else [[good], [bad]]
        with pytest.raises(ValueError, match="^unknown gate id 6$"):
            b.run([AND], *lanes, 4)
        assert builder_state(b) == before

    @pytest.mark.parametrize("make", [range, lambda *a: array("i", range(*a))],
                             ids=["range", "array"])
    def test_refuses_a_negative_operand(self, make):
        b = CircuitBuilder(3)
        before = builder_state(b)
        with pytest.raises(ValueError, match="^unknown gate id -1$"):
            b.run([XOR], [make(2, -2, -1)], [range(0, 4)], 4)
        with pytest.raises(ValueError, match="^unknown gate id -2$"):
            b.run([XOR, AND], [range(2), range(2)], [range(2), make(-2, 0)], 2)
        assert builder_state(b) == before

    def test_names_the_first_bad_operand_in_gate_order(self):
        # gates 2 (XOR) and 3 (AND) in repeat 0, 4 and 5 in repeat 1: the
        # AND's second operand 9 at gate 3 comes before the XOR's 6 at gate 4
        b = CircuitBuilder(2)
        with pytest.raises(ValueError, match="^unknown gate id 9$"):
            b.run([XOR, AND], [[0, 6], [0, 0]], [[1, 1], [9, 1]], 2)

    @pytest.mark.parametrize("pattern,firsts,seconds", [
        ([AND], [range(3)], [range(2)]),  # a lane of 2 operands in a run of 3
        ([AND, XOR], [range(3), range(3)], [range(3)]),  # a lane missing
        ([NOT], [range(3)], [range(3)]),  # NOT has no second operand
    ])
    def test_refuses_a_malformed_run(self, pattern, firsts, seconds):
        b = CircuitBuilder(3)
        before = builder_state(b)
        with pytest.raises(ValueError, match="a run takes AND and XOR kinds"):
            b.run(pattern, firsts, seconds, 3)
        assert builder_state(b) == before


class TestEval:
    @pytest.mark.parametrize("arity", range(1, 19))
    def test_variable_column(self, arity):
        # bit x is bit var - 1 of x, point by point up to arity 12 and as the
        # earlier big-int-division form above it
        full = (1 << (1 << arity)) - 1
        for var in range(1, arity + 1):
            col = variable_column(arity, var)
            if arity <= 12:
                assert col >> (1 << arity) == 0
                for x in range(1 << arity):
                    assert (col >> x) & 1 == (x >> (var - 1)) & 1, (var, x)
            else:
                block = 1 << (var - 1)
                assert col == (full // ((1 << block) + 1)) << block
        for var in (0, arity + 1):
            with pytest.raises(ValueError, match=f"^variable index {var} out of range 1..{arity}$"):
                variable_column(arity, var)

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
        # one plan, built by the first pass, serves a later pass at another
        # width
        b = CircuitBuilder(4)
        g = b.and_(b.xor(0, 1, 2), b.not_(3))
        c = b.finish([("g", g), ("h", b.xor(g, 0, g))])
        assert c._live is None
        point = [1, 0, 0, 1]
        assert list(c.output_columns(point, 1)) == naive_eval(c.gates, c.outputs, point)
        plan = c._live
        rng = random.Random(5)
        columns = [rng.getrandbits(64) for _ in range(4)]
        got = c.output_columns(columns, 64)
        assert plan is not None and c._live is plan and c._plan() is plan
        for t in range(64):
            bits = [(col >> t) & 1 for col in columns]
            assert [(col >> t) & 1 for col in got] == naive_eval(c.gates, c.outputs, bits)

    def test_drop_plan_costs_bytes_per_gate(self):
        # the first pass builds and keeps a plan byte per gate; an int per
        # gate would cost about 32 B/gate on its own
        c = synthesize(20000)
        gates = len(c.gates)
        # the columns are dropped before the held bytes are read: len keeps none
        _, plan, peak = traced(lambda: len(c.output_columns([1] * c.arity, 1)))
        assert peak / gates < 24, peak / gates
        assert plan / gates < 4, plan / gates

    def test_plan_walk_fills_the_reachable_flags(self):
        # the plan walk skips dead gates, so its nonzero bytes are exactly
        # the reachable gates, each past the inputs holding its kind byte; a
        # dead gate's operands stay dead unless a live gate reads them, and
        # the pass still matches the oracle
        b = CircuitBuilder(3)
        x1, x2, x3 = 0, 1, 2
        wide = b.xor(x1, x2, b.not_(x3))  # a dead chain, like the NOT it reads
        b.and_(wide, x1)  # dead
        b.and_(x1, x3)  # dead
        y = b.xor(b.and_(x1, x2), x2)
        hand = b.finish([("y", y), ("x2", x2)])
        c9 = synthesize(9)
        circuits = [hand, retap(c9, 0, 0), retap(c9, 4, len(c9.gates) - 2),
                    with_zero_outputs(c9, [1, 3, 8]), with_zero_outputs(c9, range(9))]
        codes = {"INPUT": 0, XOR: 4, AND: 8, NOT: 16}
        rng = random.Random(11)
        for c in circuits:
            fresh = Circuit(c.arity, c.gates, c.outputs)
            columns = [rng.getrandbits(64) for _ in range(c.arity)]
            got = c.output_columns(columns, 64)
            flags = c.reachable()
            assert flags == fresh.reachable() and flags is not c._live
            live = naive_reachable(c.gates, c.outputs)
            assert [*flags] == [int(g in live) for g in range(len(c))]
            assert [f & 60 for f in c._live] == [
                g in live and (codes[kind] if g >= c.arity else 32)
                for g, (kind, *_) in enumerate(c.gates)]
            for t in range(64):
                bits = [(col >> t) & 1 for col in columns]
                assert [(col >> t) & 1 for col in got] == naive_eval(c.gates, c.outputs, bits)
        assert hand.reachable() == bytearray([1, 1, 0, 0, 0, 0, 0, 0, 1, 1])

    def test_input_columns_may_be_a_generator(self):
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
        (y,), _, peak = traced(lambda: c.output_columns([x], width))
        assert y == x
        assert peak < 8 * (width // 8)  # a few live columns, not one per gate


class TestLayout:
    def test_every_branch_circuit_arrays(self):
        # kind bytes 0 input, 4 XOR, 8 AND, 16 NOT; a NOT's second slot holds
        # 0. Each three-operand xor is a chain: XOR(x1, x2) = 5, XOR(5, x3) = 6
        # and XOR(sq, zero) = 9, XOR(9, x3) = 10
        c = every_branch_circuit()
        assert list(c._kinds) == [0, 0, 0, 8, 4, 4, 4, 8, 16, 4, 4, 8, 4]
        assert list(c._first) == [0, 0, 0, 0, 1, 0, 5, 6, 6, 3, 9, 8, 6]
        assert list(c._second) == [0, 0, 0, 0, 1, 1, 2, 2, 0, 4, 2, 10, 11]
        assert list(c._ids) == [6, 11, 4, 12]
        assert len(c) == len(c.gates) == 13

    def test_packing_round_trips_the_gate_tuples(self):
        for c in (every_branch_circuit(), synthesize(9), synthesize(8, BASELINE)):
            again = Circuit(c.arity, c.gates, c.outputs)
            assert again.gates == c.gates and again.outputs == c.outputs
            assert (again._kinds, again._first, again._second) == (c._kinds, c._first, c._second)

    def test_gates_view_is_built_per_call(self):
        c = synthesize(5)
        assert c.gates == c.gates and c.gates is not c.gates

    def test_outputs_view(self):
        # synthesized circuits label their outputs f_1..f_n from the index
        # (repr sha256 recorded since XORs have two operands), imported ones
        # o1..ok, and constructor-built ones keep their labels, repeated or
        # in need of escaping
        h = hashlib.sha256()
        for n in (3, 4, 1001):
            for construction in (OPTIMAL, BASELINE):
                c = synthesize(n, construction)
                outputs = c.outputs
                assert outputs is not c.outputs and outputs == c.outputs
                assert len(c.outputs) == n
                assert [label for label, _ in outputs] == [f"f_{i}" for i in range(1, n + 1)]
                h.update(repr(outputs).encode())
        assert h.hexdigest() == "7ea099438ee7eaf279c6d98c8b4c5c3a80fdcd072fd5a4bb6e373c04093eacbc"
        # an imported circuit's outputs are its last wires, one per output copy
        doc = export_bristol(synthesize(1001))
        nwires = int(doc.split()[1])
        outputs = import_bristol(doc).outputs
        assert outputs == tuple((f"o{k}", nwires - 1001 + k - 1) for k in range(1, 1002))
        assert hashlib.sha256(repr(outputs).encode()).hexdigest() == \
            "4a9600fe5d4d49d4947c4a84cc9793fc45944a9c97a8aee4750a678f9ef54cf1"
        pairs = (("y", 3), ('q"uote', 4), ("y", 3), ("back\\slash", 0), ("", 4), ("f_1", 2))
        c = Circuit(3, synthesize(3).gates, pairs)
        assert c.outputs == pairs and c.outputs is not c.outputs and len(c.outputs) == 6

    @pytest.mark.parametrize("gate", [("AND", 0, 1 << 31), ("XOR", 0, -(1 << 40)),
                                      ("XOR", 1 << 31, 1), ("NOT", 1 << 63)])
    def test_operand_past_four_bytes_refused(self, gate):
        # an operand that does not fit the 4-byte slots is refused, never wrapped
        with pytest.raises(ValueError, match=f"^gate 2: operand ids past {(1 << 31) - 1} "
                                             "do not fit 4 bytes$"):
            Circuit(2, (("INPUT",), ("INPUT",), gate), (("y", 2),))

    @pytest.mark.parametrize("gid", [1 << 31, -(1 << 40)])
    def test_output_past_four_bytes_refused(self, gid):
        # no gate has such an id: refused, never wrapped, with validate's message
        with pytest.raises(ValueError, match=f"^output 'y' references unknown gate {gid}$"):
            Circuit(2, (("INPUT",), ("INPUT",)), (("x", 1), ("y", gid))).validate()

    def test_memory_per_gate(self):
        # one kind byte and two 4-byte operands per gate and a 4-byte id
        # per output: about 10 B/gate
        c, held, _ = traced(lambda: synthesize(20000))
        gates = len(c.gates)
        assert held / gates < 16, held / gates


class TestAndCount:
    def test_sigma3_has_one_and(self):
        b, s = sigma3_builder()
        assert b.finish([("s", s)]).and_count() == 1

    def test_counts_for_n7(self):
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

    @pytest.mark.parametrize("gates,message", [
        ([("AND", 0, 1), ("XOR", 0, 5), ("AND", 9, 0)], "gate 3: operand 5 not before gate"),
        ([("XOR", 0, 3), ("AND", 0, 7)], "gate 2: operand 3 not before gate"),
        ([("AND", 0, 1), ("XOR", 2, 8)], "gate 3: operand 8 not before gate"),
        ([("AND", 0, 1), ("NOT", -4), ("AND", 0, -1)], "gate 3: operand -4 not before gate"),
        ([("AND", 0, 1), ("XOR", 1, -2)], "gate 3: operand -2 not before gate"),
        ([("AND", 2, 0)], "gate 2: operand 2 not before gate"),
    ])
    def test_validate_names_the_first_fault(self, gates, message):
        c = Circuit(2, [("INPUT",), ("INPUT",), *gates], (("y", 0),))
        with pytest.raises(ValueError, match=f"^{message}$"):
            c.validate()

    @pytest.mark.parametrize("arity,gates,message", [
        (3, [("INPUT",)] * 3 + [("XOR", 0, 1, 2)], "gate 3: wrong operand count 3 for XOR"),
        (0, [], "arity must be at least 1"),  # the builder's message
        (-2, [], "arity must be at least 1"),
    ])
    def test_constructor_refuses(self, arity, gates, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Circuit(arity, gates, ())

    def test_output_columns_rejects_wrong_column_count(self):
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


def copy_gates(c, b, mapping, not_):
    """Append ``c``'s non-input gates to builder ``b``, each NOT as
    ``not_(operand)``; ``mapping`` takes each id of ``c`` to its copy."""
    for gid, (kind, *ops) in enumerate(c.gates[c.arity:], c.arity):
        ops = [mapping[o] for o in ops]
        if kind == NOT:
            mapping[gid] = not_(*ops)
        else:
            mapping[gid] = (b.and_ if kind == AND else b.xor)(*ops)


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
        # NOT -> XOR with constant one
        copy_gates(c, b, mapping, lambda x: b.xor(b.not_(b.xor(x, x)), x))
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
            copy_gates(c, b, mapping, b.not_)
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
        # dead gates, XOR chains and repeated taps: the header's counts are
        # those of the lines written, line k writes wire n + k, and the writer
        # adds only the zero wire and the output copies to the live gates
        header, _, _, _, *body = export_bristol(c).splitlines()
        ngates, nwires = map(int, header.split())
        assert ngates == len(body) and nwires == c.arity + ngates
        assert ngates == 1 + sum(c.reachable()[c.arity:]) + len(c.outputs)
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
