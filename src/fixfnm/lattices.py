"""Exact integer lattice arithmetic in rank two.

Every lattice is a sublattice of Z^2 with its canonical row-style Hermite
basis ((a, b), (0, c)), so equality of lattices is plain tuple equality.
The arithmetic is by gcds in closed form, exact in Python integers: no
n-column elimination is needed in rank two. `solve_power_equation` gives
the lattice of exponent pairs (m, k) with v**m == w**k in a free group.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from ._value import FrozenValue, set_field
from .words import Word, exponent_of_power, root


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _check_two_columns(rows: Sequence[Sequence[int]]) -> None:
    for row in rows:
        if len(row) != 2:
            raise ValueError(f"expected rows of length 2, got {len(row)}")


def _hermite(a: int, b: int, c: int) -> tuple[tuple[int, int], ...]:
    """The canonical rows of the lattice spanned by (a, b) and (0, c), for
    a >= 0 and c >= 0: pivots positive, b reduced into [0, c) when c > 0,
    zero rows dropped."""
    if c:
        return ((a, b % c), (0, c)) if a else ((0, c),)
    return ((a, b),) if a else ()


def hnf_rows(rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical Hermite basis (as rows) of the lattice the rows generate.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    and rows are ordered by pivot column. Zero rows are dropped.

    The running basis is ((a, b), (0, c)). A row (x, y) with x != 0 merges
    into the first row by one extended gcd g = s a + t x: the unimodular
    change (s, t; -x/g, a/g) turns the two rows into (g, s b + t y) and
    (0, (x/g) b - (a/g) y), and the second joins c by a gcd. A row whose
    length is not 2 raises ValueError.
    """
    rows = list(rows)
    _check_two_columns(rows)
    a = b = c = 0
    for x, y in rows:
        if x == 0:
            c = gcd(c, y)
        elif a == 0:
            a, b = x, y
        else:
            g, s, t = _xgcd(a, x)
            a, b, c = g, s * b + t * y, gcd(c, (x // g) * b - (a // g) * y)
    if a < 0:
        a, b = -a, -b
    return _hermite(a, b, c)


def kernel_basis(matrix: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Basis of {v in Z^2 : M v = 0} for an integer matrix M with two columns.

    Three answers: all of Z^2 when M = 0 (or has no rows); nothing when two
    rows are independent; otherwise the primitive line orthogonal to the
    first nonzero row (p, q), spanned by (q, -p) / gcd(p, q). The basis
    is in the canonical form of ``hnf_rows``. A row whose length is not 2
    raises ValueError.
    """
    _check_two_columns(matrix)
    nonzero = [(p, q) for p, q in matrix if p or q]
    if not nonzero:
        return ((1, 0), (0, 1))
    p, q = nonzero[0]
    if any(p * s - q * r for r, s in nonzero[1:]):
        return ()
    g = gcd(p, q)
    x, y = q // g, -p // g
    if x < 0 or (x == 0 and y < 0):
        x, y = -x, -y
    return ((x, y),)


class IntLattice2(FrozenValue):
    """A sublattice of Z^2 with a canonical Hermite basis."""

    __slots__ = ("basis",)

    def __init__(self, basis: tuple[tuple[int, int], ...]):
        set_field(self, "basis", basis)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntLattice2":
        return cls(tuple((r[0], r[1]) for r in hnf_rows(rows)))

    @classmethod
    def zero(cls) -> "IntLattice2":
        return cls(())

    @classmethod
    def full(cls) -> "IntLattice2":
        return cls(((1, 0), (0, 1)))

    @classmethod
    def line(cls, vector: Sequence[int]) -> "IntLattice2":
        return cls.from_rows([vector])

    def is_trivial(self) -> bool:
        return not self.basis

    def contains(self, vector: Sequence[int]) -> bool:
        """(x, y) is in iff a | x (x == 0 when a == 0) and c | y - (x/a) b."""
        (a, b, c), (x, y) = self._abc(), vector
        if a:
            if x % a:
                return False
            y -= x // a * b
        elif x:
            return False
        return y % c == 0 if c else y == 0

    def intersect(self, other: "IntLattice2") -> "IntLattice2":
        """Intersection, read off the two Hermite bases ((a_i, b_i), (0, c_i)).

        The meet's row (0, c) has c = lcm(c1, c2). Its row (t A, y) has
        A = lcm(a1, a2), t the least t > 0 with t (beta1 - beta2) == 0 mod
        gcd(c1, c2) for beta_i = (A/a_i) b_i, and y == t beta_i mod c_i by
        the Chinese remainder theorem. A missing row reads as a zero entry.
        """
        (a1, b1, c1), (a2, b2, c2) = self._abc(), other._abc()
        c = c1 * c2 // gcd(c1, c2) if c1 and c2 else 0
        if not (a1 and a2):
            return IntLattice2(_hermite(0, 0, c))
        big_a = a1 * a2 // gcd(a1, a2)
        beta1, beta2 = big_a // a1 * b1, big_a // a2 * b2
        g = gcd(c1, c2)
        if g == 0:
            return IntLattice2(_hermite(big_a, beta1, 0) if beta1 == beta2 else ())
        t = g // gcd(g, beta1 - beta2)
        if not (c1 and c2):  # one congruence is an equation
            y = t * (beta2 if c1 else beta1)
        else:  # y = t beta1 + c1 s with c1 s == t (beta2 - beta1) mod c2
            m = c2 // g
            y = t * beta1 + c1 * (t * (beta2 - beta1) // g * pow(c1 // g, -1, m) % m)
        return IntLattice2(_hermite(t * big_a, y, c))

    def _abc(self) -> tuple[int, int, int]:
        """The (a, b, c) of this lattice's basis ((a, b), (0, c)), zeros for missing rows."""
        a = b = c = 0
        for x, y in self.basis:
            if x:
                a, b = x, y
            else:
                c = y
        return a, b, c

    def swapped(self) -> "IntLattice2":
        """The image under (a, b) -> (b, a)."""
        return IntLattice2.from_rows([(b, a) for a, b in self.basis])

    def __str__(self) -> str:
        if not self.basis:
            return "<0>"
        return "<" + ", ".join(f"({a}, {b})" for a, b in self.basis) + ">"


def solve_power_equation(v: Word, w: Word) -> IntLattice2:
    """The lattice of all (m, k) in Z^2 with v**m == w**k.

    Nontrivial v and w commute iff they are powers of one primitive root.
    If they are not, only (0, 0) solves. If they are, v = rho^c for the
    root rho of v, w = rho^d with d read by ``exponent_of_power`` (w is
    not rooted), and the solutions form the line spanned by (d/g, c/g),
    g = gcd(c, d).
    """
    if v.is_identity() and w.is_identity():
        return IntLattice2.full()
    if v.is_identity():
        return IntLattice2.line((1, 0))
    if w.is_identity():
        return IntLattice2.line((0, 1))
    rv = root(v)
    c, d = rv.exponent, exponent_of_power(w, rv.base)
    if d is None:
        return IntLattice2.zero()
    g = gcd(c, d)
    return IntLattice2.line((d // g, c // g))
