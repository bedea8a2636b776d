import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xagsynth import Anf, Monomial, TruthTable

from oracles import (
    naive_anf_table,
    naive_anf_terms,
    naive_multiply,
    naive_table,
    table_int,
)


def anf_of(n, *term_tuples):
    return Anf(n, [Monomial.of(*t) for t in term_tuples])


def as_term_set(a):
    return {frozenset(m.vars) for m in a.terms}


class TestMonomial:
    def test_canonical_equality(self):
        assert Monomial.of(1, 2) == Monomial.of(2, 1)
        assert Monomial.of(1, 2) != Monomial.of(1, 3)

    def test_constant_one_is_empty_set(self):
        assert Monomial().degree == 0
        assert str(Monomial()) == "1"

    def test_vars_are_one_based(self):
        assert Monomial.of(3, 1).vars == (1, 3)
        with pytest.raises(ValueError):
            Monomial.of(0)

    def test_arity_enforced_by_anf(self):
        with pytest.raises(ValueError):
            Anf(3, [Monomial.of(4)])


class TestAdd:
    def test_self_cancellation(self):
        a = anf_of(3, (1, 2))
        assert a + a == Anf(3)

    def test_symmetric_difference(self):
        a = anf_of(3, (1, 2), (2, 3))
        b = anf_of(3, (2, 3), (1, 3))
        assert a + b == anf_of(3, (1, 2), (1, 3))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Anf(3) + Anf(4)

    def test_sum_of_first_two_outputs_n3(self):
        # expected value computed with the naive Moebius oracle on the
        # directly-evaluated output tables
        n = 3
        t1 = naive_table(n, lambda bits: bits[1] & bits[2])
        t2 = naive_table(n, lambda bits: bits[0] & bits[2])
        expected = naive_anf_terms(n, t1) ^ naive_anf_terms(n, t2)
        assert expected == {frozenset({2, 3}), frozenset({1, 3})}
        a1 = Anf.from_truth_table(TruthTable(n, table_int(t1)))
        a2 = Anf.from_truth_table(TruthTable(n, table_int(t2)))
        assert as_term_set(a1 + a2) == expected


class TestMultiply:
    def test_pair_times_three_monomials(self):
        a = anf_of(3, (1, 2), (2, 3), (1, 3))
        b = anf_of(3, (1,), (2,))
        assert a * b == anf_of(3, (2, 3), (1, 3))

    def test_zero_annihilates(self):
        a = anf_of(4, (1, 2), (3, 4))
        assert a * Anf(4) == Anf(4)
        assert Anf(4) * a == Anf(4)

    def test_degree3_sum_times_linear_sum(self):
        # brute-force expansion of all 16 pair products: every degree-3
        # monomial survives its three self-hits (odd count) and the four
        # degree-4 contributions cancel, so the product is the original sum
        terms = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        linear = [(1,), (2,), (3,), (4,)]
        expected = naive_multiply(terms, linear)
        assert expected == {frozenset(t) for t in terms}
        a = anf_of(5, *terms)
        b = anf_of(5, *linear)
        assert as_term_set(a * b) == expected

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Anf(3) * Anf(4)


class TestDegree:
    def test_zero_polynomial(self):
        assert Anf(5).degree() == 0

    def test_majority_of_three(self):
        assert anf_of(3, (1, 2), (2, 3), (1, 3)).degree() == 2

    def test_single_monomial_degree(self):
        assert anf_of(6, (2, 3, 4, 5, 6)).degree() == 5


class TestTruthTableConversion:
    def test_all_zeros(self):
        assert Anf.from_truth_table(TruthTable(3, 0)) == Anf(3)
        assert Anf(3).to_truth_table() == TruthTable(3, 0)

    def test_constant_one(self):
        t = Anf(2, [Monomial()]).to_truth_table()
        assert t.bits == table_int([1, 1, 1, 1])

    def test_majority_table(self):
        t = naive_table(3, lambda bits: int(sum(bits) >= 2))
        a = Anf.from_truth_table(TruthTable(3, table_int(t)))
        assert a == anf_of(3, (1, 2), (2, 3), (1, 3))

    def test_second_output_n4(self):
        t = naive_table(4, lambda bits: bits[0] & bits[2] & bits[3])
        a = Anf.from_truth_table(TruthTable(4, table_int(t)))
        assert a == anf_of(4, (1, 3, 4))

    def test_majority_to_table(self):
        t = anf_of(3, (1, 2), (2, 3), (1, 3)).to_truth_table()
        assert t.bits == table_int(naive_table(3, lambda bits: int(sum(bits) >= 2)))

    def test_dense_arity_capped(self):
        with pytest.raises(ValueError):
            TruthTable(25, 0)


monomials = st.integers(min_value=0, max_value=255).map(Monomial)
anfs8 = st.frozensets(monomials, max_size=12).map(lambda ts: Anf(8, ts))


@st.composite
def anf_pairs(draw):
    return draw(anfs8), draw(anfs8)


class TestProperties:
    @given(st.integers(min_value=1, max_value=12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, arity, data):
        masks = data.draw(st.frozensets(
            st.integers(min_value=0, max_value=(1 << arity) - 1), max_size=16))
        a = Anf(arity, (Monomial(m) for m in masks))
        assert Anf.from_truth_table(a.to_truth_table()) == a

    @given(anfs8, anfs8, anfs8)
    @settings(max_examples=40, deadline=None)
    def test_ring_laws(self, a, b, c):
        zero, one = Anf(8), Anf(8, [Monomial()])
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a + zero == a
        assert a + a == zero
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * one == a
        assert a * (b + c) == a * b + a * c
        assert a * a == a

    @given(anfs8, anfs8)
    @settings(max_examples=40, deadline=None)
    def test_degree_bounds(self, a, b):
        assert (a * b).degree() <= a.degree() + b.degree()
        assert (a + b).degree() <= max(a.degree(), b.degree())

    @given(anfs8)
    @settings(max_examples=25, deadline=None)
    def test_multiply_matches_naive(self, a):
        b = anf_of(8, (1, 2), (3,), (5, 6, 7))
        expected = naive_multiply(
            [m.vars for m in a.terms], [m.vars for m in b.terms])
        assert as_term_set(a * b) == expected

    @given(anfs8)
    @settings(max_examples=25, deadline=None)
    def test_table_matches_naive_evaluation(self, a):
        expected = naive_anf_table(8, [m.vars for m in a.terms])
        assert a.to_truth_table().bits == table_int(expected)
