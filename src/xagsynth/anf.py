"""Multilinear polynomial arithmetic over GF(2).

A Boolean function has a unique representation as an XOR of monomials
(products of distinct variables); this module implements that representation
exactly. Variables are 1-based (x_1..x_n) on every external surface. The
empty monomial is the constant 1, and the empty polynomial is the constant 0.

Conversions between polynomials and dense truth tables use the GF(2)
subset-sum butterfly, which is its own inverse. The dense path is capped at
arity 24 (a 2 MiB table); symbolic arithmetic has no such cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .bitops import full_mask, iter_one_bits, mobius_transform

MAX_DENSE_ARITY = 24


@dataclass(frozen=True, order=True)
class Monomial:
    """A product of distinct variables, stored as an index bitset.

    Bit k of ``mask`` set means variable x_{k+1} is a factor. ``mask == 0``
    is the constant-1 monomial. Equality is equality of variable sets.
    """

    mask: int = 0

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError("monomial mask must be non-negative")

    @classmethod
    def of(cls, *indices: int) -> "Monomial":
        """Build a monomial from 1-based variable indices."""
        mask = 0
        for i in indices:
            if i < 1:
                raise ValueError(f"variable index {i} must be >= 1")
            mask |= 1 << (i - 1)
        return cls(mask)

    @property
    def vars(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in iter_one_bits(self.mask))

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def __str__(self) -> str:
        if self.mask == 0:
            return "1"
        return "".join(f"x{i}" for i in self.vars)


@dataclass(frozen=True)
class TruthTable:
    """Dense single-output function table: bit x of ``bits`` is f(x)."""

    arity: int
    bits: int

    def __post_init__(self):
        if not 0 <= self.arity <= MAX_DENSE_ARITY:
            raise ValueError(f"arity must be in 0..{MAX_DENSE_ARITY}")
        if not 0 <= self.bits <= full_mask(1 << self.arity):
            raise ValueError("table has bits beyond 2^arity entries")


@dataclass(frozen=True)
class Anf:
    """Algebraic normal form: a set of monomials XORed together.

    ``terms`` holds the monomials with coefficient 1; all their indices must
    lie in 1..arity. Values are immutable and all operations are pure.
    """

    arity: int
    terms: frozenset[Monomial]

    def __init__(self, arity: int, terms: Iterable[Monomial] = ()):
        if arity < 0:
            raise ValueError("arity must be non-negative")
        terms = frozenset(terms)
        limit = full_mask(arity)
        for m in terms:
            if m.mask & ~limit:
                raise ValueError(f"monomial {m} uses variables beyond arity {arity}")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def monomial(cls, arity: int, indices: Iterable[int]) -> "Anf":
        return cls(arity, [Monomial.of(*indices)])

    @classmethod
    def linear(cls, arity: int, indices: Iterable[int]) -> "Anf":
        """XOR of single variables x_i for i in indices."""
        return cls(arity, [Monomial.of(i) for i in indices])

    # -- ring operations ---------------------------------------------------

    def _check_arity(self, other: "Anf") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "Anf") -> "Anf":
        """GF(2) addition: symmetric difference of term sets."""
        self._check_arity(other)
        return Anf(self.arity, self.terms ^ other.terms)

    def __mul__(self, other: "Anf") -> "Anf":
        """GF(2) product; identical cross terms cancel in pairs."""
        self._check_arity(other)
        acc: set[int] = set()
        for a in self.terms:
            for b in other.terms:
                acc ^= {a.mask | b.mask}
        return Anf(self.arity, (Monomial(m) for m in acc))

    def degree(self) -> int:
        """Largest monomial degree; 0 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=0)

    # -- truth-table conversion --------------------------------------------

    def to_truth_table(self) -> TruthTable:
        if self.arity > MAX_DENSE_ARITY:
            raise ValueError(f"dense table limited to arity {MAX_DENSE_ARITY}")
        coeffs = 0
        for m in self.terms:
            coeffs |= 1 << m.mask
        return TruthTable(self.arity, mobius_transform(coeffs, self.arity))

    @classmethod
    def from_truth_table(cls, table: TruthTable) -> "Anf":
        coeffs = mobius_transform(table.bits, table.arity)
        return cls(table.arity, (Monomial(m) for m in iter_one_bits(coeffs)))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(m) for m in sorted(self.terms))
