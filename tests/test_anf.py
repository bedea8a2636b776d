import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xagsynth import Anf

from oracles import naive_anf_terms, naive_multiply, naive_table, mono, vars_of


def anf_of(n, *term_tuples):
    return Anf(n, [mono(*t) for t in term_tuples])


def as_term_set(a):
    return {frozenset(vars_of(m)) for m in a.terms}


class TestMonomial:
    # a monomial is an int mask: bit k set means x_{k+1} is a factor
    def test_canonical_equality(self):
        assert mono(1, 2) == mono(2, 1) == 0b11
        assert mono(1, 2) != mono(1, 3)
        assert Anf.monomial(3, [3, 1]).terms == {0b101}

    def test_constant_one_is_empty_set(self):
        assert mono() == 0 and vars_of(0) == ()
        assert Anf.monomial(3, []).terms == {0}
        assert Anf.monomial(3, []).degree() == 0

    def test_vars_are_one_based(self):
        assert vars_of(mono(3, 1)) == (1, 3)
        assert Anf.linear(4, [4, 2]).terms == {0b10, 0b1000}
        with pytest.raises(ValueError, match="variable index 0 must be >= 1"):
            Anf.monomial(3, [0])

    def test_arity_enforced_by_anf(self):
        with pytest.raises(ValueError):
            Anf(3, [mono(4)])
        with pytest.raises(ValueError, match="monomial mask must be non-negative"):
            Anf(3, [-1])


class TestPinnedText:
    # printed forms and messages as the Monomial-based ANF wrote them
    def test_zero_and_constant_one(self):
        assert str(Anf(3)) == "0"
        assert str(Anf.monomial(3, [])) == "1"

    def test_product_terms_sorted_by_mask(self):
        product = Anf.linear(3, [1, 2]) * Anf.linear(3, [2, 3])
        assert str(product) == "x2 + x1x2 + x1x3 + x2x3"
        assert str(Anf.monomial(3, []) + product) == "1 + x2 + x1x2 + x1x3 + x2x3"

    def test_variable_beyond_arity_message(self):
        with pytest.raises(ValueError) as exc:
            Anf.monomial(3, [3, 1, 4])
        assert str(exc.value) == "monomial x1x3x4 uses variables beyond arity 3"
        with pytest.raises(ValueError) as exc:
            Anf.linear(2, [1, 3])
        assert str(exc.value) == "monomial x3 uses variables beyond arity 2"

    def test_equal_anfs_hash_equal_and_collapse_in_a_set(self):
        built = [
            Anf.linear(3, [1, 2]) + Anf.linear(3, [2, 3]),
            Anf.linear(3, [3, 1]),
            Anf.monomial(3, [1]) + Anf.monomial(3, [3]),
        ]
        assert all(a == built[0] for a in built)
        assert len({hash(a) for a in built}) == 1
        assert len(set(built)) == 1
        assert len({Anf(3), Anf(4), Anf.monomial(3, []), *built}) == 4
        assert Anf(3) != Anf(4) and Anf.monomial(3, [1]) != Anf.monomial(3, [2])


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
        # the summands and the expected sum both come from the naive Moebius
        # oracle on the directly-evaluated output tables
        n = 3
        t1 = naive_table(n, lambda bits: bits[1] & bits[2])
        t2 = naive_table(n, lambda bits: bits[0] & bits[2])
        expected = naive_anf_terms(n, t1) ^ naive_anf_terms(n, t2)
        assert expected == {frozenset({2, 3}), frozenset({1, 3})}
        a1 = Anf(n, [mono(*t) for t in naive_anf_terms(n, t1)])
        a2 = Anf(n, [mono(*t) for t in naive_anf_terms(n, t2)])
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


monomials = st.integers(min_value=0, max_value=255)
anfs8 = st.frozensets(monomials, max_size=12).map(lambda ts: Anf(8, ts))


class TestProperties:
    @given(anfs8, anfs8, anfs8)
    @settings(max_examples=40, deadline=None)
    def test_ring_laws(self, a, b, c):
        zero, one = Anf(8), Anf(8, [mono()])
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
            [vars_of(m) for m in a.terms], [vars_of(m) for m in b.terms])
        assert as_term_set(a * b) == expected
