"""Brute-force reference computations over bounded balls.

Everything here is exponential in the radius and exists to cross-check the
structural machinery on small instances.  BallSpec caps every radius at
MAX_RADIUS, which keeps a typo from turning a test run into an overnight job.
"""

from __future__ import annotations

from typing import Iterator

from ._value import FrozenValue, set_field
from .homs import FreeHom
from .product import ProductElement, ProductEndo
from .words import Alphabet, Word, enumerate_ball


MAX_RADIUS = 8


class BallSpec(FrozenValue):
    """Search bound: total word length up to ``radius``, at most MAX_RADIUS."""

    __slots__ = ("radius",)

    def __init__(self, radius: int):
        if not 0 <= radius <= MAX_RADIUS:
            raise ValueError(f"radius must lie in [0, {MAX_RADIUS}], got {radius}")
        set_field(self, "radius", radius)


def enumerate_product_ball(
    first: Alphabet, second: Alphabet, radius: int
) -> Iterator[ProductElement]:
    """All pairs (x, y) with |x| + |y| <= radius, identity included.

    Ordering is deterministic: length-lexicographic in x, then in y.
    """
    for x in enumerate_ball(first, radius):
        for y in enumerate_ball(second, radius - len(x)):
            yield ProductElement(x, y)


def common_fixed_points(
    phi: ProductEndo, psi: ProductEndo, spec: BallSpec
) -> list[ProductElement]:
    """Nontrivial ball elements fixed by both endomorphisms."""
    if (
        phi.first_alphabet != psi.first_alphabet
        or phi.second_alphabet != psi.second_alphabet
    ):
        raise ValueError("the two endomorphisms act on different products")
    found = []
    for g in enumerate_product_ball(phi.first_alphabet, phi.second_alphabet, spec.radius):
        if g.is_identity():
            continue
        if phi.fixes(g) and psi.fixes(g):
            found.append(g)
    return found


def fixed_points(phi: ProductEndo, spec: BallSpec) -> list[ProductElement]:
    """Nontrivial ball elements fixed by one product endomorphism."""
    return common_fixed_points(phi, phi, spec)


def bounded_equalizer(f: FreeHom, g: FreeHom, spec: BallSpec) -> list[Word]:
    """Nontrivial ball words on which two homomorphisms agree."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("the two homomorphisms must share source and target")
    found = []
    for w in enumerate_ball(f.source, spec.radius):
        if w.is_identity():
            continue
        if f.apply(w) == g.apply(w):
            found.append(w)
    return found


def fixed_words(h: FreeHom, spec: BallSpec) -> list[Word]:
    """Nontrivial ball words fixed by a free-group endomorphism."""
    if h.source != h.target:
        raise ValueError("fixed words only make sense for endomorphisms")
    found = []
    for w in enumerate_ball(h.source, spec.radius):
        if w.is_identity():
            continue
        if h.apply(w) == w:
            found.append(w)
    return found
