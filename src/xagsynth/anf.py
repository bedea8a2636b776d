"""Multilinear polynomial arithmetic over GF(2).

A Boolean function has a unique representation as an XOR of monomials
(products of distinct variables); this module implements that representation
exactly. A monomial is an int mask: bit k set means x_{k+1} is a factor, and
0 is the constant 1. Variables are 1-based (x_1..x_n) on every external
surface. The empty polynomial is the constant 0.
"""

from __future__ import annotations

from typing import Iterable


def iter_one_bits(x: int):
    """Yield positions of set bits of x, lowest first."""
    while x:
        lsb = x & -x
        yield lsb.bit_length() - 1
        x ^= lsb


def _mask(indices: Iterable[int]) -> int:
    """The monomial mask of 1-based variable indices."""
    mask = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"variable index {i} must be >= 1")
        mask |= 1 << (i - 1)
    return mask


def _term_str(mask: int) -> str:
    """A monomial as printed: ``x1x3``, or ``1`` for the constant."""
    return "".join(f"x{k + 1}" for k in iter_one_bits(mask)) or "1"


class Anf:
    """Algebraic normal form: a set of monomials XORed together.

    ``terms`` is a frozenset of the monomial masks with coefficient 1; every
    variable must lie in 1..arity. All operations are pure; treat values as
    immutable, since equality and the hash read ``arity`` and ``terms``.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Iterable[int] = ()):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        terms = frozenset(terms)
        for m in terms:
            if m < 0:
                raise ValueError("monomial mask must be non-negative")
            if m >> arity:
                raise ValueError(f"monomial {_term_str(m)} uses variables beyond arity {arity}")
        self.arity = arity
        self.terms = terms

    @classmethod
    def _of(cls, arity: int, terms: frozenset[int]) -> "Anf":
        """An Anf of terms already known valid for ``arity``, unchecked."""
        a = cls.__new__(cls)
        a.arity, a.terms = arity, terms
        return a

    def __eq__(self, other):
        if not isinstance(other, Anf):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    def __hash__(self):
        return hash((self.arity, self.terms))

    def __repr__(self) -> str:
        return f"Anf({self.arity}, {sorted(self.terms)})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, arity: int, indices: Iterable[int]) -> "Anf":
        return cls(arity, [_mask(indices)])

    @classmethod
    def linear(cls, arity: int, indices: Iterable[int]) -> "Anf":
        """XOR of single variables x_i for i in indices."""
        return cls(arity, [_mask([i]) for i in indices])

    # -- ring operations ---------------------------------------------------

    def _check_arity(self, other: "Anf") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "Anf") -> "Anf":
        """GF(2) addition: symmetric difference of term sets."""
        self._check_arity(other)
        return Anf._of(self.arity, self.terms ^ other.terms)

    def __mul__(self, other: "Anf") -> "Anf":
        """GF(2) product; identical cross terms cancel in pairs."""
        self._check_arity(other)
        acc: set[int] = set()  # the cross terms met an odd number of times
        for a in self.terms:
            for b in other.terms:
                m = a | b
                if m in acc:
                    acc.remove(m)
                else:
                    acc.add(m)
        return Anf._of(self.arity, frozenset(acc))

    def degree(self) -> int:
        """Largest monomial degree; 0 for the zero polynomial."""
        return max((m.bit_count() for m in self.terms), default=0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(map(_term_str, sorted(self.terms)))
