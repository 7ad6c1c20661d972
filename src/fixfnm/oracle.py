"""Brute-force reference computations over bounded balls.

Everything here is exponential in the radius and exists to cross-check the
structural machinery on small instances. BallSpec caps every radius at
MAX_RADIUS, which alone does not bound the work: a ball of radius 4 holds
about (2 * rank)^4 words. So each search counts its ball exactly first and
raises ValueError on a ball of more than MAX_BALL_ELEMENTS elements.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterator

from ._value import FrozenValue, set_field
from .homs import FreeHom
from .product import ProductElement, ProductEndo
from .words import Alphabet, Word, ball_size, enumerate_ball


MAX_RADIUS = 8
MAX_BALL_ELEMENTS = 1_000_000  # the most elements, identity included, a search may walk


class BallSpec(FrozenValue):
    """Search bound: total word length up to ``radius``, at most MAX_RADIUS."""

    __slots__ = ("radius",)

    def __init__(self, radius: int):
        if not 0 <= radius <= MAX_RADIUS:
            raise ValueError(f"radius must lie in [0, {MAX_RADIUS}], got {radius}")
        set_field(self, "radius", radius)


def _check_ball_size(elements: int, what: str) -> None:
    if elements > MAX_BALL_ELEMENTS:
        raise ValueError(f"{what} holds {elements} elements, more than {MAX_BALL_ELEMENTS}")


def enumerate_product_ball(
    first: Alphabet, second: Alphabet, radius: int
) -> Iterator[ProductElement]:
    """All pairs (x, y) with |x| + |y| <= radius, identity included.

    Ordering is deterministic: length-lexicographic in x, then in y.
    """
    for x in enumerate_ball(first, radius):
        for y in enumerate_ball(second, radius - len(x)):
            yield ProductElement(x, y)


def common_fixed_points(phi: ProductEndo, psi: ProductEndo, spec: BallSpec) -> list[ProductElement]:
    """Nontrivial ball elements fixed by both endomorphisms."""
    if phi.first_alphabet != psi.first_alphabet or phi.second_alphabet != psi.second_alphabet:
        raise ValueError("the two endomorphisms act on different products")
    n, m, r = phi.first_alphabet.rank, phi.second_alphabet.rank, spec.radius
    # the pairs with |x| = i: the sphere of radius i in F_n times the ball of r - i in F_m
    spheres = [1] + [ball_size(n, i) - ball_size(n, i - 1) for i in range(1, r + 1)]
    pairs = sum(s * ball_size(m, r - i) for i, s in enumerate(spheres))
    _check_ball_size(pairs, f"the product ball of radius {r}")
    ball = islice(enumerate_product_ball(phi.first_alphabet, phi.second_alphabet, r), 1, None)
    return [g for g in ball if phi.fixes(g) and psi.fixes(g)]


def fixed_points(phi: ProductEndo, spec: BallSpec) -> list[ProductElement]:
    """Nontrivial ball elements fixed by one product endomorphism."""
    return common_fixed_points(phi, phi, spec)


def bounded_equalizer(f: FreeHom, g: FreeHom, spec: BallSpec) -> list[Word]:
    """Nontrivial ball words on which two homomorphisms agree."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("the two homomorphisms must share source and target")
    image, other = f.image_letters, g.image_letters
    return _ball_words(f.source, spec, lambda letters: image(letters) == other(letters))


def fixed_words(h: FreeHom, spec: BallSpec) -> list[Word]:
    """Nontrivial ball words fixed by a free-group endomorphism."""
    if h.source != h.target:
        raise ValueError("fixed words only make sense for endomorphisms")
    image = h.image_letters
    return _ball_words(h.source, spec, lambda letters: image(letters) == letters)


def _ball_words(
    alphabet: Alphabet, spec: BallSpec, keep: Callable[[tuple[int, ...]], bool]
) -> list[Word]:
    """The nontrivial ball words whose letters ``keep`` accepts, after the size check."""
    _check_ball_size(ball_size(alphabet.rank, spec.radius), f"the ball of radius {spec.radius}")
    ball = islice(enumerate_ball(alphabet, spec.radius), 1, None)
    return [w for w in ball if keep(w.letters)]
