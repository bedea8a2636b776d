import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xagsynth import AND, CONST1, NOT, XOR, Anf, Circuit, CircuitBuilder, Monomial

from oracles import all_inputs


def sigma3_builder():
    b = CircuitBuilder(3)
    x1, x2, x3 = b.add_inputs()
    s = b.xor(b.and_(b.xor(x1, x2), b.xor(x2, x3)), x2)
    return b, s


class TestBuilder:
    def test_first_input_gets_id_zero(self):
        b = CircuitBuilder(3)
        assert b.input(1) == 0

    def test_duplicate_input_rejected(self):
        b = CircuitBuilder(3)
        b.input(1)
        with pytest.raises(ValueError):
            b.input(1)

    def test_input_out_of_range(self):
        b = CircuitBuilder(3)
        with pytest.raises(ValueError):
            b.input(5)

    def test_each_call_appends_next_id(self):
        # append-only: identical calls make distinct gates with dense ids
        b = CircuitBuilder(2)
        x1, x2 = b.add_inputs()
        ids = [b.xor(x1, x2), b.xor(x1, x2), b.and_(x1, x2), b.and_(x1, x2),
               b.not_(x1), b.not_(x1), b.const1(), b.const1()]
        assert [x1, x2] + ids == list(range(10))
        assert b.and_gates_created == 2

    def test_and_of_same_operand_is_syntactic(self):
        b = CircuitBuilder(1)
        (x1,) = b.add_inputs()
        g = b.and_(x1, x1)
        assert g != x1
        c = b.finish([("y", g)])
        assert c.eval([0]) == (0,) and c.eval([1]) == (1,)

    def test_not_is_complement(self):
        b = CircuitBuilder(1)
        (x1,) = b.add_inputs()
        c = b.finish([("y", b.not_(x1))])
        assert c.eval([0]) == (1,) and c.eval([1]) == (0,)

    def test_unknown_operand_rejected(self):
        b = CircuitBuilder(2)
        b.add_inputs()
        with pytest.raises(ValueError):
            b.and_(0, 99)

    def test_xor_needs_two_operands(self):
        b = CircuitBuilder(2)
        x1, _ = b.add_inputs()
        with pytest.raises(ValueError):
            b.xor(x1)


class TestEval:
    def test_all_ones_input(self):
        from xagsynth import synthesize
        c = synthesize(3)
        assert c.eval([1, 1, 1]) == (1, 1, 1)

    def test_two_zeros_kill_everything(self):
        from xagsynth import synthesize
        c = synthesize(4)
        assert c.eval([1, 0, 0, 1]) == (0, 0, 0, 0)

    def test_single_zero_selects_one_output(self):
        from xagsynth import synthesize
        c = synthesize(4)
        assert c.eval([1, 0, 1, 1]) == (0, 1, 0, 0)

    def test_wrong_input_length(self):
        from xagsynth import synthesize
        with pytest.raises(ValueError):
            synthesize(3).eval([1, 1])

    def test_const1_table(self):
        b = CircuitBuilder(2)
        b.add_inputs()
        c = b.finish([("y", b.const1())])
        assert c.eval_all()[0].values() == [1, 1, 1, 1]

    def test_input_passthrough_table(self):
        b = CircuitBuilder(2)
        x1, _ = b.add_inputs()
        c = b.finish([("y", x1)])
        assert c.eval_all()[0].values() == [0, 1, 0, 1]

    def test_sigma3_table_matches_anf(self):
        b, s = sigma3_builder()
        c = b.finish([("s", s)])
        expected = Anf(3, [Monomial.of(1, 2), Monomial.of(2, 3), Monomial.of(1, 3)])
        assert c.eval_all()[0] == expected.to_truth_table()

    def test_eval_all_arity_cap(self):
        b = CircuitBuilder(25)
        g = b.input(1)
        c = b.finish([("y", g)])
        with pytest.raises(ValueError):
            c.eval_all()


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
        x1, x2 = b.add_inputs()
        b.and_(x1, x2)  # dead
        c = b.finish([("y", b.xor(x1, x2))])
        assert c.and_count() == 0

    def test_not_and_xor_are_free(self):
        b = CircuitBuilder(2)
        x1, x2 = b.add_inputs()
        c = b.finish([("y", b.not_(b.xor(x1, x2, b.const1())))])
        assert c.and_count() == 0


class TestStructure:
    def test_validate_accepts_builder_output(self):
        b, s = sigma3_builder()
        b.finish([("s", s)]).validate()

    def test_validate_rejects_forward_reference(self):
        c = Circuit(1, (("AND", 1, 2), ("INPUT", 1)), (("y", 0),))
        with pytest.raises(ValueError):
            c.validate()

    def test_replace_output(self):
        b = CircuitBuilder(2)
        x1, x2 = b.add_inputs()
        c = b.finish([("y", b.and_(x1, x2))])
        c2 = c.replace_output(0, x1)
        assert c2.eval([1, 0]) == (1,)
        assert c.eval([1, 0]) == (0,)  # original untouched


@st.composite
def random_circuits(draw):
    arity = draw(st.integers(min_value=1, max_value=6))
    b = CircuitBuilder(arity)
    ids = b.add_inputs()
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
        else:
            ids.append(b.const1())
    outs = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
    return b.finish([(f"o{k}", g) for k, g in enumerate(outs, start=1)])


class TestEvalAgreement:
    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_eval_matches_eval_all(self, c):
        tables = c.eval_all()
        for bits in all_inputs(c.arity):
            point = sum(b << j for j, b in enumerate(bits))
            got = c.eval(bits)
            for k, t in enumerate(tables):
                assert got[k] == t.value(point)

    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_not_elimination_preserves_semantics_and_ands(self, c):
        b = CircuitBuilder(c.arity)
        mapping = {}
        for gid, gate in enumerate(c.gates):
            kind = gate[0]
            if kind == "INPUT":
                mapping[gid] = b.input(gate[1])
            elif kind == CONST1:
                mapping[gid] = b.const1()
            elif kind == AND:
                mapping[gid] = b.and_(mapping[gate[1]], mapping[gate[2]])
            elif kind == XOR:
                mapping[gid] = b.xor(*(mapping[o] for o in gate[1:]))
            else:  # NOT -> XOR with constant one
                mapping[gid] = b.xor(b.const1(), mapping[gate[1]])
        c2 = b.finish([(lbl, mapping[g]) for lbl, g in c.outputs])
        assert [t.bits for t in c2.eval_all()] == [t.bits for t in c.eval_all()]
        assert c2.and_count() == c.and_count()

    @given(random_circuits())
    @settings(max_examples=25, deadline=None)
    def test_rebuilding_appends_second_copy(self, c):
        # rebuild the same gate list twice over; the builder keeps a second
        # copy of every non-input gate without changing any output table
        b = CircuitBuilder(c.arity)
        mapping = {}
        for _ in range(2):
            for gid, gate in enumerate(c.gates):
                kind = gate[0]
                if kind == "INPUT":
                    if gid not in mapping:
                        mapping[gid] = b.input(gate[1])
                elif kind == CONST1:
                    mapping[gid] = b.const1()
                elif kind == NOT:
                    mapping[gid] = b.not_(mapping[gate[1]])
                elif kind == AND:
                    mapping[gid] = b.and_(mapping[gate[1]], mapping[gate[2]])
                else:
                    mapping[gid] = b.xor(*(mapping[o] for o in gate[1:]))
        c2 = b.finish([(lbl, mapping[g]) for lbl, g in c.outputs])
        inputs = sum(1 for gate in c.gates if gate[0] == "INPUT")
        assert c2.gates[:len(c.gates)] == c.gates
        assert len(c2.gates) == 2 * len(c.gates) - inputs
        assert [t.bits for t in c2.eval_all()] == [t.bits for t in c.eval_all()]
        assert c2.and_count() == c.and_count()
