"""Exact integer lattice arithmetic in rank two.

Sublattices of Z^2 are stored with a canonical row-style Hermite basis, so
equality of lattices is plain tuple equality and every operation is exact
(Python integers, no floating point anywhere). `solve_power_equation`
gives the lattice of exponent pairs (m, k) with v**m == w**k in a free group.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from ._value import FrozenValue, set_field
from .words import Word, root


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


def _pivot(row: Sequence[int]) -> int:
    for j, entry in enumerate(row):
        if entry != 0:
            return j
    return -1


def _insert_row(basis: list[list[int]], row: Sequence[int], ncols: int) -> None:
    # Echelon insertion: combine with existing pivot rows using unimodular
    # 2x2 transformations until the new row is zero or claims a fresh pivot.
    r = list(row)
    while True:
        p = _pivot(r)
        if p < 0:
            return
        holder = None
        for b in basis:
            if _pivot(b) == p:
                holder = b
                break
        if holder is None:
            basis.append(r)
            basis.sort(key=_pivot)
            return
        g, x, y = _xgcd(holder[p], r[p])
        qh, qr = holder[p] // g, r[p] // g
        combined = [x * holder[j] + y * r[j] for j in range(ncols)]
        leftover = [qh * r[j] - qr * holder[j] for j in range(ncols)]
        holder[:] = combined
        r = leftover


def hnf_rows(rows: Iterable[Sequence[int]], ncols: int) -> tuple[tuple[int, ...], ...]:
    """Canonical Hermite basis (as rows) of the lattice the rows generate.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    and rows are ordered by pivot column. Zero rows are dropped.
    """
    basis: list[list[int]] = []
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"expected rows of length {ncols}, got {len(row)}")
        _insert_row(basis, row, ncols)
    for b in basis:
        if b[_pivot(b)] < 0:
            b[:] = [-e for e in b]
    # Reduce entries above each pivot.
    for j in range(len(basis)):
        pj = _pivot(basis[j])
        for i in range(j):
            q = basis[i][pj] // basis[j][pj]
            if q:
                basis[i] = [basis[i][k] - q * basis[j][k] for k in range(ncols)]
    return tuple(tuple(b) for b in basis)


def kernel_basis(matrix: Sequence[Sequence[int]], ncols: int) -> tuple[tuple[int, ...], ...]:
    """Basis of {x in Z^ncols : M x = 0} for an integer matrix M.

    Row-reduces the transposed matrix augmented with an identity block; the
    augmented parts of rows whose matrix part vanished generate the kernel.
    """
    nrows = len(matrix)
    ext = []
    for j in range(ncols):
        row = [matrix[i][j] for i in range(nrows)]
        row.extend(1 if k == j else 0 for k in range(ncols))
        ext.append(row)
    reduced = hnf_rows(ext, nrows + ncols)
    kernel = [row[nrows:] for row in reduced if not any(row[:nrows])]
    return hnf_rows(kernel, ncols)


class IntLattice2(FrozenValue):
    """A sublattice of Z^2 with a canonical Hermite basis."""

    __slots__ = ("basis",)

    def __init__(self, basis: tuple[tuple[int, int], ...]):
        set_field(self, "basis", basis)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntLattice2":
        return cls(tuple((r[0], r[1]) for r in hnf_rows(rows, 2)))

    @classmethod
    def zero(cls) -> "IntLattice2":
        return cls(())

    @classmethod
    def full(cls) -> "IntLattice2":
        return cls(((1, 0), (0, 1)))

    @classmethod
    def line(cls, vector: Sequence[int]) -> "IntLattice2":
        return cls.from_rows([vector])

    @property
    def rank(self) -> int:
        return len(self.basis)

    def is_trivial(self) -> bool:
        return not self.basis

    def contains(self, vector: Sequence[int]) -> bool:
        x = [vector[0], vector[1]]
        for row in self.basis:
            p = 0 if row[0] != 0 else 1
            if x[p] == 0:
                continue
            q, rem = divmod(x[p], row[p])
            if rem:
                return False
            x = [x[0] - q * row[0], x[1] - q * row[1]]
        return x == [0, 0]

    def intersect(self, other: "IntLattice2") -> "IntLattice2":
        """Intersection, via the kernel of the stacked-basis relation map."""
        if self.is_trivial() or other.is_trivial():
            return IntLattice2.zero()
        r1, r2 = self.rank, other.rank
        # Columns of the relation matrix: basis rows of self, then negated
        # basis rows of other; kernel vectors (y, z) satisfy y*B1 = z*B2.
        matrix = [
            [self.basis[t][c] for t in range(r1)] + [-other.basis[s][c] for s in range(r2)]
            for c in range(2)
        ]
        kern = kernel_basis(matrix, r1 + r2)
        gens = []
        for vec in kern:
            y = vec[:r1]
            gens.append(
                (
                    sum(y[t] * self.basis[t][0] for t in range(r1)),
                    sum(y[t] * self.basis[t][1] for t in range(r1)),
                )
            )
        return IntLattice2.from_rows(gens)

    def swapped(self) -> "IntLattice2":
        """The image under (a, b) -> (b, a)."""
        return IntLattice2.from_rows([(b, a) for a, b in self.basis])

    def project(self, coordinate: int) -> int:
        """Nonnegative generator of the projection to one coordinate."""
        g = 0
        for row in self.basis:
            g = gcd(g, row[coordinate])
        return abs(g)

    def __str__(self) -> str:
        if not self.basis:
            return "<0>"
        return "<" + ", ".join(f"({a}, {b})" for a, b in self.basis) + ">"


def solve_power_equation(v: Word, w: Word) -> IntLattice2:
    """The lattice of all (m, k) in Z^2 with v**m == w**k.

    Nontrivial v and w commute iff their primitive roots agree up to
    inversion. If they do not, only (0, 0) solves. If they do, v = rho^c
    and w = rho^d for the root rho of v, and the solutions form the line
    spanned by (d/g, c/g), g = gcd(c, d).
    """
    if v.is_identity() and w.is_identity():
        return IntLattice2.full()
    if v.is_identity():
        return IntLattice2.line((1, 0))
    if w.is_identity():
        return IntLattice2.line((0, 1))
    rv = root(v)
    c, d = rv.exponent, root(w).power_of(rv.base)
    if d is None:
        return IntLattice2.zero()
    g = gcd(c, d)
    return IntLattice2.line((d // g, c // g))
