"""Endomorphisms of a product of two free groups, and their shape types.

An endomorphism of F_n x F_m splits into four blocks: writing images of the
two factors componentwise,

    (x, y) |-> (ff(x) * fs(y), sf(x) * ss(y))

for homs ff: F_n -> F_n, fs: F_m -> F_n, sf: F_n -> F_m, ss: F_m -> F_m.
Such block data defines a homomorphism iff for all generators a_i, b_j the
words ff(a_i), fs(b_j) commute in F_n and sf(a_i), ss(b_j) commute in F_m.

Because centralizers in free groups are cyclic, the commutation constraints
force most block patterns into one of seven shapes, told apart by which
blocks vanish. Types VI and VII are the diagonal and the coordinate-swapping
shapes; in the remaining shapes whole coordinates are powers of a fixed word
with exponents read off abelianized inputs.
"""

from __future__ import annotations

from typing import Sequence, Union

from ._value import FrozenValue, set_field
from .homs import FreeHom, _content_lines, identity_hom, image_lines, trivial_hom
from .lattices import IntLattice2, kernel_basis
from .words import (
    Alphabet,
    CertificateError,
    LetterTally,
    ParseError,
    Word,
    exponent_of_power,
    free_reduce,
    parse_word,
    render_word,
    root,
    sign_normalized,
    weighted_sum,
)


class CommutationViolation(ValueError):
    """Block data that does not define a homomorphism of the product."""

    def __init__(self, a_index: int, b_index: int, component: str):
        self.a_index = a_index
        self.b_index = b_index
        self.component = component
        super().__init__(
            f"images of a{a_index} and b{b_index} have non-commuting "
            f"{component} components"
        )


class UnclassifiableEndo(ValueError):
    """A valid endomorphism that fits none of the seven shapes."""


class ProductElement(FrozenValue):
    __slots__ = ("first", "second")

    def __init__(self, first: Word, second: Word):
        if first.alphabet.letter != "a" or second.alphabet.letter != "b":
            raise ValueError("product elements pair an a-word with a b-word")
        set_field(self, "first", first)
        set_field(self, "second", second)

    def __mul__(self, other: "ProductElement") -> "ProductElement":
        return ProductElement(self.first * other.first, self.second * other.second)

    def inverse(self) -> "ProductElement":
        return ProductElement(self.first.inverse(), self.second.inverse())

    def is_identity(self) -> bool:
        return self.first.is_identity() and self.second.is_identity()

    def __str__(self) -> str:
        return f"({render_word(self.first)}, {render_word(self.second)})"


def check_element(g: ProductElement, first: Alphabet, second: Alphabet) -> None:
    """Raise ValueError unless g lies in F(first) x F(second), the group that
    an endomorphism or a fixed-subgroup descriptor acts on."""
    if g.first.alphabet != first or g.second.alphabet != second:
        raise ValueError("element does not belong to this endomorphism's group")


Family = tuple[Word, tuple[int, ...], tuple[int, ...]]  # base, weights, weights


def _coordinate_family(
    rows: Sequence[Word], columns: Sequence[Word], component: str
) -> Family | None:
    """Check that one coordinate's blocks commute, and read its power family.

    rows and columns are the coordinate's images of a1, a2, ... and of b1,
    b2, .... Centralizers in free groups are cyclic, so nontrivial words
    commute iff they are powers of one primitive root. Only the first
    nontrivial column is rooted; every image is held against that root,
    sign-normalized, by ``exponent_of_power``, one tuple comparison each.

    Raises CommutationViolation at the first (i, j), 1-based and rows
    first, with rows[i] and columns[j] not commuting. Otherwise returns the
    root and the exponents of rows and of columns over it (0 for a trivial
    image), or None when no column is nontrivial, or no row is and the
    columns share no root.
    """
    head = next((j for j, v in enumerate(columns, start=1) if v.letters), None)
    if head is None:
        return None
    rho = sign_normalized(root(columns[head - 1]).base)
    column_exps = tuple(exponent_of_power(v, rho) for v in columns)
    other = next((j for j, k in enumerate(column_exps, start=1) if k is None), None)
    row_exps = []
    for i, u in enumerate(rows, start=1):
        k = exponent_of_power(u, rho)  # 0 for a trivial row, which commutes with all
        if k is None or (u.letters and other is not None):
            raise CommutationViolation(i, head if k is None else other, component)
        row_exps.append(k)
    return None if other is not None else (rho, tuple(row_exps), column_exps)


class ProductEndo(FrozenValue):
    """Endomorphism of F_n x F_m in block form; validated on construction.

    Commutation is tested per coordinate by ``_coordinate_family``, with one
    primitive root per coordinate and one power test per image instead of
    n * m word products. The power family that test reads is kept, for
    ``classify``, in the private slots ``_first_family`` and
    ``_second_family``; they are not fields.
    """

    __slots__ = (
        "first_from_first",
        "first_from_second",
        "second_from_first",
        "second_from_second",
        "_first_family",
        "_second_family",
    )

    def __init__(
        self,
        first_from_first: FreeHom,
        first_from_second: FreeHom,
        second_from_first: FreeHom,
        second_from_second: FreeHom,
    ):
        a = first_from_first.source
        b = second_from_second.source
        if a.letter != "a" or b.letter != "b":
            raise ValueError("expected an 'a' alphabet and a 'b' alphabet")
        if a.rank < 2 or b.rank < 2:
            raise ValueError("both factors must have rank at least 2")
        shapes = (
            (first_from_first, a, a),
            (first_from_second, b, a),
            (second_from_first, a, b),
            (second_from_second, b, b),
        )
        for hom, src, tgt in shapes:
            if hom.source != src or hom.target != tgt:
                raise ValueError(f"block {hom} should map {src} to {tgt}")
        first = _coordinate_family(first_from_first.images, first_from_second.images, "first")
        second = _coordinate_family(second_from_first.images, second_from_second.images, "second")
        set_field(self, "first_from_first", first_from_first)
        set_field(self, "first_from_second", first_from_second)
        set_field(self, "second_from_first", second_from_first)
        set_field(self, "second_from_second", second_from_second)
        set_field(self, "_first_family", first)
        set_field(self, "_second_family", second)

    @property
    def first_alphabet(self) -> Alphabet:
        return self.first_from_first.source

    @property
    def second_alphabet(self) -> Alphabet:
        return self.second_from_second.source

    def apply(self, g: ProductElement) -> ProductElement:
        check_element(g, self.first_alphabet, self.second_alphabet)
        return ProductElement(
            self.first_from_first.apply(g.first) * self.first_from_second.apply(g.second),
            self.second_from_first.apply(g.first) * self.second_from_second.apply(g.second),
        )

    def fixes(self, g: ProductElement) -> bool:
        """Whether g is fixed; its second coordinate is mapped only if the first is."""
        check_element(g, self.first_alphabet, self.second_alphabet)
        x, y = g.first.letters, g.second.letters
        first = self.first_from_first.image_letters(x) + self.first_from_second.image_letters(y)
        if free_reduce(first) != x:
            return False
        second = self.second_from_first.image_letters(x) + self.second_from_second.image_letters(y)
        return free_reduce(second) == y


def identity_endo(n: int, m: int) -> ProductEndo:
    a, b = Alphabet(n, "a"), Alphabet(m, "b")
    return ProductEndo(
        identity_hom(a), trivial_hom(b, a), trivial_hom(a, b), identity_hom(b)
    )


def product_identity(n: int, m: int) -> ProductElement:
    return ProductElement(Word(Alphabet(n, "a")), Word(Alphabet(m, "b")))


# --- the seven shapes ------------------------------------------------------
#
# Payloads follow the block structure. Power blocks are stored as a base
# word plus one integer weight per generator: the block sends x to
# base ** weighted_sum(x, weights).


class TypeI(FrozenValue):
    """Both coordinates are powers of fixed words."""

    __slots__ = (
        "first_base",
        "second_base",
        "first_a_weights",
        "first_b_weights",
        "second_a_weights",
        "second_b_weights",
    )
    label = "I"

    def __init__(
        self,
        first_base: Word,
        second_base: Word,
        first_a_weights: tuple[int, ...],
        first_b_weights: tuple[int, ...],
        second_a_weights: tuple[int, ...],
        second_b_weights: tuple[int, ...],
    ):
        set_field(self, "first_base", first_base)
        set_field(self, "second_base", second_base)
        set_field(self, "first_a_weights", first_a_weights)
        set_field(self, "first_b_weights", first_b_weights)
        set_field(self, "second_a_weights", second_a_weights)
        set_field(self, "second_b_weights", second_b_weights)

    def exponent_matrix(self) -> tuple[tuple[int, int], tuple[int, int]]:
        """Integer matrix whose kernel gives the fixed exponent pairs.

        (first_base**p, second_base**q) is fixed iff this matrix kills
        (p, q).
        """
        self_first = weighted_sum(self.first_base, self.first_a_weights)
        cross_first = weighted_sum(self.second_base, self.first_b_weights)
        cross_second = weighted_sum(self.first_base, self.second_a_weights)
        self_second = weighted_sum(self.second_base, self.second_b_weights)
        return ((self_first - 1, cross_first), (cross_second, self_second - 1))

    def fixed_exponents(self) -> IntLattice2:
        """The pairs (p, q) with (first_base**p, second_base**q) fixed."""
        return IntLattice2(kernel_basis(self.exponent_matrix()))

    def as_endo(self) -> ProductEndo:
        a = self.first_base.alphabet
        b = self.second_base.alphabet
        return ProductEndo(
            FreeHom(a, a, tuple(self.first_base ** w for w in self.first_a_weights)),
            FreeHom(b, a, tuple(self.first_base ** w for w in self.first_b_weights)),
            FreeHom(a, b, tuple(self.second_base ** w for w in self.second_a_weights)),
            FreeHom(b, b, tuple(self.second_base ** w for w in self.second_b_weights)),
        )


class TypeII(FrozenValue):
    """First coordinate from the second factor, second coordinate a power."""

    __slots__ = ("first_from_second", "second_base", "second_a_weights", "second_b_weights")
    label = "II"

    def __init__(
        self,
        first_from_second: FreeHom,
        second_base: Word,
        second_a_weights: tuple[int, ...],
        second_b_weights: tuple[int, ...],
    ):
        set_field(self, "first_from_second", first_from_second)
        set_field(self, "second_base", second_base)
        set_field(self, "second_a_weights", second_a_weights)
        set_field(self, "second_b_weights", second_b_weights)

    def gain(self) -> int:
        """Factor on the exponent k of (first_from_second(v)**k, v**k).

        With v the second base, the endomorphism sends that pair to
        (first_from_second(v)**k, v**(k * gain)); only gain 1 fixes any
        pair beyond the identity.
        """
        mapped = self.first_from_second.apply(self.second_base)
        return weighted_sum(mapped, self.second_a_weights) + weighted_sum(
            self.second_base, self.second_b_weights
        )

    def as_endo(self) -> ProductEndo:
        a = self.first_from_second.target
        b = self.first_from_second.source
        return ProductEndo(
            trivial_hom(a, a),
            self.first_from_second,
            FreeHom(a, b, tuple(self.second_base ** w for w in self.second_a_weights)),
            FreeHom(b, b, tuple(self.second_base ** w for w in self.second_b_weights)),
        )


class TypeIII(FrozenValue):
    """First coordinate a power fed by both factors, second an endo of F_m."""

    __slots__ = ("first_base", "first_a_weights", "first_b_weights", "second_from_second")

    def __init__(
        self,
        first_base: Word,
        first_a_weights: tuple[int, ...],
        first_b_weights: tuple[int, ...],
        second_from_second: FreeHom,
    ):
        set_field(self, "first_base", first_base)
        set_field(self, "first_a_weights", first_a_weights)
        set_field(self, "first_b_weights", first_b_weights)
        set_field(self, "second_from_second", second_from_second)

    def self_weight(self) -> int:
        """Multiplier the first exponent picks up from its own coordinate."""
        return weighted_sum(self.first_base, self.first_a_weights)

    @property
    def label(self) -> str:
        return "III.1" if self.self_weight() != 1 else "III.2"

    def as_endo(self) -> ProductEndo:
        a = self.first_base.alphabet
        b = self.second_from_second.source
        return ProductEndo(
            FreeHom(a, a, tuple(self.first_base ** w for w in self.first_a_weights)),
            FreeHom(b, a, tuple(self.first_base ** w for w in self.first_b_weights)),
            trivial_hom(a, b),
            self.second_from_second,
        )


class TypeIV(FrozenValue):
    """Both coordinates read off the second factor."""

    __slots__ = ("first_from_second", "second_from_second")
    label = "IV"

    def __init__(self, first_from_second: FreeHom, second_from_second: FreeHom):
        set_field(self, "first_from_second", first_from_second)
        set_field(self, "second_from_second", second_from_second)

    def as_endo(self) -> ProductEndo:
        a = self.first_from_second.target
        b = self.first_from_second.source
        return ProductEndo(
            trivial_hom(a, a),
            self.first_from_second,
            trivial_hom(a, b),
            self.second_from_second,
        )


class TypeV(FrozenValue):
    """First coordinate collapses, second is a power fed by both factors."""

    __slots__ = ("second_base", "second_a_weights", "second_b_weights", "first_rank")
    label = "V"

    def __init__(
        self,
        second_base: Word,
        second_a_weights: tuple[int, ...],
        second_b_weights: tuple[int, ...],
        first_rank: int,
    ):
        set_field(self, "second_base", second_base)
        set_field(self, "second_a_weights", second_a_weights)
        set_field(self, "second_b_weights", second_b_weights)
        set_field(self, "first_rank", first_rank)

    def as_endo(self) -> ProductEndo:
        a = Alphabet(self.first_rank, "a")
        b = self.second_base.alphabet
        return ProductEndo(
            trivial_hom(a, a),
            trivial_hom(b, a),
            FreeHom(a, b, tuple(self.second_base ** w for w in self.second_a_weights)),
            FreeHom(b, b, tuple(self.second_base ** w for w in self.second_b_weights)),
        )


class TypeVI(FrozenValue):
    """Coordinatewise pair of endomorphisms."""

    __slots__ = ("first", "second")
    label = "VI"

    def __init__(self, first: FreeHom, second: FreeHom):
        set_field(self, "first", first)
        set_field(self, "second", second)

    def as_endo(self) -> ProductEndo:
        a, b = self.first.source, self.second.source
        return ProductEndo(self.first, trivial_hom(b, a), trivial_hom(a, b), self.second)


class TypeVII(FrozenValue):
    """Coordinate-swapping pair of homs."""

    __slots__ = ("first_from_second", "second_from_first")
    label = "VII"

    def __init__(self, first_from_second: FreeHom, second_from_first: FreeHom):
        set_field(self, "first_from_second", first_from_second)
        set_field(self, "second_from_first", second_from_first)

    def as_endo(self) -> ProductEndo:
        a = self.first_from_second.target
        b = self.first_from_second.source
        return ProductEndo(
            trivial_hom(a, a),
            self.first_from_second,
            self.second_from_first,
            trivial_hom(b, b),
        )


EndoType = Union[TypeI, TypeII, TypeIII, TypeIV, TypeV, TypeVI, TypeVII]


def _forced_family(family: Family | None) -> Family:
    """The power family that commutation forces on a coordinate fed by both factors.

    A valid endomorphism always has one here; its absence is a fault in
    this library, so a plain check raises rather than an assert.
    """
    if family is None:
        raise CertificateError("commutation forces a common root here, but the blocks have none")
    return family


def _own_family(
    kept: Family | None, rows: Sequence[Word], columns: Sequence[Word]
) -> Family | None:
    """A shape I coordinate's power family: the kept one, else its rows'.

    Validation keeps none when every column is trivial. The rows are then
    rooted here, passed as the columns of a coordinate whose rows (the
    trivial columns) cannot clash; None means they share no root.
    """
    if kept is not None:
        return kept
    swapped = _coordinate_family(columns, rows, "")
    return None if swapped is None else (swapped[0], swapped[2], swapped[1])


def classify(e: ProductEndo) -> EndoType:
    """Sort a valid endomorphism into one of the seven shapes.

    The zero blocks pick the shape, each tested only when a branch needs
    it. A coordinate fed by both factors is a power family, as its blocks
    commute; validation (``_coordinate_family``) has already read it, with
    one primitive root for the coordinate and one power test per image,
    and ``classify`` reads the kept family. Only a shape I coordinate whose
    block from the second factor is trivial was rooted by nobody, and is
    rooted here.

    Raises UnclassifiableEndo for the valid block patterns that fit none of
    them: the mirrors of shapes II, III, IV and V under the factor swap,
    where a coordinate that should be a power family is unconstrained
    because the opposite block vanishes. On random valid endomorphisms over
    all 16 zero patterns this refuses about a quarter (154 of 640, all in
    those four patterns); ROADMAP item 1 classifies them through the mirror.
    """
    z2 = e.second_from_first.is_trivial()
    z3 = e.first_from_second.is_trivial()
    if z2 and z3:
        return TypeVI(e.first_from_first, e.second_from_second)
    if e.first_from_first.is_trivial():
        if e.second_from_second.is_trivial():
            return TypeVII(e.first_from_second, e.second_from_first)
        if z2:
            return TypeIV(e.first_from_second, e.second_from_second)
        if z3:
            return TypeV(*_forced_family(e._second_family), e.first_alphabet.rank)
        return TypeII(e.first_from_second, *_forced_family(e._second_family))
    if z2:
        if e.second_from_second.is_trivial():
            raise UnclassifiableEndo(
                "first coordinate is a power family fed by both factors but "
                "the second coordinate collapses; no shape covers this"
            )
        return TypeIII(*_forced_family(e._first_family), e.second_from_second)
    first_fam = _own_family(e._first_family, e.first_from_first.images, e.first_from_second.images)
    if first_fam is None:
        raise UnclassifiableEndo(
            "first-coordinate blocks are not powers of a common word"
        )
    second_fam = _own_family(
        e._second_family, e.second_from_first.images, e.second_from_second.images
    )
    if second_fam is None:
        raise UnclassifiableEndo(
            "second-coordinate blocks are not powers of a common word"
        )
    (first_base, *first_weights), (second_base, *second_weights) = first_fam, second_fam
    return TypeI(first_base, second_base, *first_weights, *second_weights)


# --- endo file format ------------------------------------------------------


def parse_endo_text(text: str) -> ProductEndo:
    """Parse the `endo` file format.

    Header `endo <n> <m>`, then one line per generator of either factor:
    `a<i> -> ( <a-word> , <b-word> )` or `b<j> -> ( <a-word> , <b-word> )`.
    `#` starts a comment; blank lines are skipped. The words of the file,
    left sides included, expand to at most MAX_FILE_LETTERS letters.
    """
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty endo description")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 3 or fields[0] != "endo":
        raise ParseError("header must be `endo <n> <m>`", lineno)
    try:
        n, m = int(fields[1]), int(fields[2])
    except ValueError:
        raise ParseError("ranks must be integers", lineno) from None
    if n < 2 or m < 2:
        raise ParseError("both ranks must be at least 2", lineno)
    a, b = Alphabet(n, "a"), Alphabet(m, "b")
    first_images: dict[tuple[str, int], Word] = {}
    second_images: dict[tuple[str, int], Word] = {}
    tally = LetterTally()
    for key, lineno, rhs, offset in image_lines(lines[1:], (a, b), tally):
        body = rhs.strip()
        if not body.startswith("(") or not body.endswith(")"):
            raise ParseError("image must be parenthesized: ( <a-word> , <b-word> )", lineno)
        inner = body[1:-1]
        if inner.count(",") != 1:
            raise ParseError("image must contain exactly one comma", lineno)
        first_text, second_text = inner.split(",")
        # characters before `inner` on the line: those before the right
        # side, the blanks before `(`, and `(` itself
        start = offset + len(rhs) - len(rhs.lstrip()) + 1
        first_images[key] = parse_word(first_text, a, line=lineno, offset=start, tally=tally)
        second_images[key] = parse_word(
            second_text, b, line=lineno, offset=start + len(first_text) + 1, tally=tally
        )
    return ProductEndo(
        FreeHom(a, a, tuple(first_images[("a", i)] for i in range(1, n + 1))),
        FreeHom(b, a, tuple(first_images[("b", j)] for j in range(1, m + 1))),
        FreeHom(a, b, tuple(second_images[("a", i)] for i in range(1, n + 1))),
        FreeHom(b, b, tuple(second_images[("b", j)] for j in range(1, m + 1))),
    )


def render_endo_text(e: ProductEndo) -> str:
    n, m = e.first_alphabet.rank, e.second_alphabet.rank
    lines = [f"endo {n} {m}"]
    for i in range(n):
        lines.append(
            f"a{i + 1} -> ( {render_word(e.first_from_first.images[i])} , "
            f"{render_word(e.second_from_first.images[i])} )"
        )
    for j in range(m):
        lines.append(
            f"b{j + 1} -> ( {render_word(e.first_from_second.images[j])} , "
            f"{render_word(e.second_from_second.images[j])} )"
        )
    return "\n".join(lines) + "\n"
