"""Worked instances: hardness embeddings and a curated case per branch.

Two constructions connect the decision problem to classical territory:

* the Mihailova-style embedding turns a finite presentation plus a query
  word into a fixed-subgroup-meets-subgroup instance whose nontriviality
  tracks whether a power of the query word dies in the presented group;
* the equalizer reductions translate between pairs of shape-IV
  endomorphisms and plain equalizer problems for free-group maps, in both
  directions.  They are why shape IV in *first* position stays out of
  scope: deciding it would decide equalizer triviality.

curated_cases() returns hand-built instances hitting every branch label
1.1..2.8 at least once, with known verdicts.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import islice
from typing import Optional

from ._value import FrozenValue, set_field
from .fixpoints import AUDIT_RADIUS, DeclaredEndo, FixOracle
from .homs import FreeHom, identity_hom, inner_hom, permutation_hom
from .product import (
    ProductElement,
    ProductEndo,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    TypeV,
    TypeVI,
    TypeVII,
    classify,
)
from .stallings import SubgroupGraph
from .words import (
    Alphabet,
    LetterTally,
    ParseError,
    Word,
    ball_products,
    ball_size,
    generator,
    parse_word,
    render_word,
    root,
)


# --- presentations and the word-problem embedding --------------------------

SEARCH_CAP = 50_000  # the most products MihailovaInstance.search_witness tries


class Presentation(FrozenValue):
    """A finite presentation over the x-alphabet."""

    __slots__ = ("alphabet", "relators")

    def __init__(self, alphabet: Alphabet, relators: tuple[Word, ...]):
        if alphabet.letter != "x":
            raise ValueError("presentations use the letter x")
        for r in relators:
            if r.alphabet != alphabet:
                raise ValueError("relator alphabet mismatch")
        set_field(self, "alphabet", alphabet)
        set_field(self, "relators", relators)

    def __str__(self) -> str:
        gens = " ".join(f"x{i + 1}" for i in range(self.alphabet.rank))
        rels = ", ".join(render_word(r) for r in self.relators)
        return f"{gens} | {rels}"


def parse_presentation_text(text: str) -> Presentation:
    """Parse `x1 x2 | r1, r2` (relators comma-separated, # comments).

    The text may spread over lines, and a relator may run across a line
    break. ParseError positions name the line and the column in the file.
    The relators expand to at most MAX_FILE_LETTERS letters in all.
    """
    # cutting each comment keeps every other character at its line and column
    body = "\n".join(raw.split("#", 1)[0] for raw in text.splitlines())
    breaks = [m.start() for m in re.finditer("\n", body)]

    def where(i: int) -> tuple[int, int]:
        """(line, column) of body[i], both 1-based."""
        k = bisect_left(breaks, i)
        return k + 1, i - (breaks[k - 1] if k else -1)

    if not body.strip():
        raise ParseError("empty presentation")
    left, _, right = body.partition("|")
    start = len(left) + 1  # where ``right`` begins in ``body``
    if "|" in right:
        raise ParseError("more than one `|` in presentation", *where(start + right.index("|")))
    names = list(re.finditer(r"\S+", left))
    if not names:
        raise ParseError("presentation has no generators")
    alphabet = Alphabet(len(names), "x")
    for i, m in enumerate(names, start=1):
        if m.group(0) != f"x{i}":
            raise ParseError(
                f"generators must be x1..x{len(names)} in order, got {m.group(0)!r}",
                *where(m.start()),
            )
    relators = []
    tally = LetterTally()
    for m in re.finditer("[^,]+", right):
        if m.group(0).strip():
            line, column = where(start + m.start())
            relators.append(
                parse_word(m.group(0), alphabet, line=line, offset=column - 1, tally=tally)
            )
    return Presentation(alphabet, tuple(relators))


class MihailovaInstance(FrozenValue):
    """Fixed subgroup vs. Mihailova subgroup, encoding a word problem.

    ``endo`` is diagonal with fixed subgroup 1 x <core>; the subgroup
    generated by ``subgroup_generators`` meets it in the pairs (1, core^k)
    with core^k trivial in the presented group.  Triviality of that
    intersection is therefore as hard as the presented word problem, which
    is why the decision engine handles fixed subgroups on both sides only.
    """

    __slots__ = ("endo", "subgroup_generators", "core", "power")

    def __init__(
        self,
        endo: ProductEndo,
        subgroup_generators: tuple[ProductElement, ...],
        core: Word,
        power: int,
    ):
        set_field(self, "endo", endo)
        set_field(self, "subgroup_generators", subgroup_generators)
        set_field(self, "core", core)
        set_field(self, "power", power)

    def search_witness(self, budget: int) -> Optional[ProductElement]:
        """Bounded hunt for a nontrivial common element.

        Tries products of up to ``budget`` subgroup generators, shortest
        first, and at most SEARCH_CAP of them (``search_is_capped`` says
        whether the cap falls short of the budget); a hit certifies
        nontriviality, a miss proves nothing.
        """
        for candidate in islice(ball_products(self.subgroup_generators, budget), SEARCH_CAP):
            if candidate.is_identity():
                continue
            if self.endo.fixes(candidate):
                return candidate
        return None

    def search_is_capped(self, budget: int) -> bool:
        """Whether SEARCH_CAP stops search_witness before it covers ``budget``."""
        return ball_size(len(self.subgroup_generators), budget) - 1 > SEARCH_CAP


def mihailova_generators(pres: Presentation) -> tuple[ProductElement, ...]:
    """Generators of {(g, h) : g and h agree in the presented group}."""
    k = pres.alphabet.rank
    a, b = Alphabet(k, "a"), Alphabet(k, "b")
    to_b = FreeHom(pres.alphabet, b, b.generators())
    diagonal = tuple(
        ProductElement(generator(a, i), generator(b, i)) for i in range(1, k + 1)
    )
    relator_part = tuple(
        ProductElement(Word(a), to_b.apply(r)) for r in pres.relators
    )
    return diagonal + relator_part


def mihailova_instance(pres: Presentation, query: Word) -> MihailovaInstance:
    """Embed `does a power of query die in the presented group?`.

    The first component gets a fixed-point-free generator shift, the second
    conjugation by the primitive root of the query word, so the fixed
    subgroup is exactly 1 x <root>.
    """
    k = pres.alphabet.rank
    if k < 2:
        raise ValueError("need rank >= 2 for a fixed-point-free shift")
    if query.alphabet != pres.alphabet:
        raise ValueError("query word must live over the presentation alphabet")
    a, b = Alphabet(k, "a"), Alphabet(k, "b")
    to_b = FreeHom(pres.alphabet, b, b.generators())
    transferred = to_b.apply(query)
    if transferred.is_identity():
        raise ValueError("query word must be nontrivial")
    rt = root(transferred)
    shift = permutation_hom(a, tuple(i % k + 1 for i in range(1, k + 1)))
    endo = TypeVI(shift, inner_hom(rt.base)).as_endo()
    return MihailovaInstance(
        endo=endo,
        subgroup_generators=mihailova_generators(pres),
        core=rt.base,
        power=rt.exponent,
    )


# --- shape IV vs. equalizers, both directions -------------------------------


class EqualizerReduction(FrozenValue):
    """Equalizer instance equivalent to a pair of shape-IV intersections.

    Members of the intersection are exactly the pairs (first(e), sub(e))
    where e runs over the equalizer of ``first`` and ``second`` on the
    abstract domain and sub is ``substitute``.
    """

    __slots__ = ("domain", "basis", "first", "second")

    def __init__(
        self, domain: SubgroupGraph, basis: tuple[Word, ...], first: FreeHom, second: FreeHom
    ):
        set_field(self, "domain", domain)
        set_field(self, "basis", basis)
        set_field(self, "first", first)
        set_field(self, "second", second)

    def substitute(self, expression: Word) -> Word:
        """Evaluate an abstract word over the domain basis."""
        return FreeHom(self.first.source, self.domain.alphabet, self.basis).apply(expression)


def reduce_pair_to_equalizer(
    phi: ProductEndo, psi: ProductEndo, oracle: Optional[FixOracle] = None
) -> EqualizerReduction:
    """Turn two shape-IV endomorphisms into an equalizer problem.

    Fix(phi) meet Fix(psi) consists of the pairs (f(y), y) with y in the
    common fixed subgroup K of the two second blocks and f(y) = g(y) for
    the two first blocks; restricting f and g to a basis of K makes that an
    equalizer question over a free group of rank rank(K).
    """
    if oracle is None:
        oracle = FixOracle()
    shape_phi = classify(phi)
    shape_psi = classify(psi)
    if not isinstance(shape_phi, TypeIV) or not isinstance(shape_psi, TypeIV):
        raise ValueError("both endomorphisms must classify as shape IV")
    k = oracle.fix(shape_phi.second_from_second).intersect(
        oracle.fix(shape_psi.second_from_second)
    )
    if k.is_trivial():
        raise ValueError(
            "the common constraint subgroup is trivial, and so is the intersection"
        )
    beta = k.basis_hom()
    return EqualizerReduction(
        domain=k,
        basis=beta.images,
        first=beta.then(shape_phi.first_from_second),
        second=beta.then(shape_psi.first_from_second),
    )


def embed_equalizer(f: FreeHom, g: FreeHom) -> tuple[ProductEndo, ProductEndo]:
    """Turn an equalizer problem into a pair of shape-IV endomorphisms.

    Fix of each output is the graph of the respective map over the whole
    second factor, so the intersection is {(f(y), y) : f(y) = g(y)}: the
    equalizer of f and g, embedded.  Trivial maps are rejected because a
    vanishing block changes the classification.
    """
    if f.source != g.source or f.target != g.target:
        raise ValueError("the two maps must share source and target")
    if f.source.letter != "b" or f.target.letter != "a":
        raise ValueError("expected maps from the b-factor to the a-factor")
    if f.is_trivial() or g.is_trivial():
        raise ValueError("trivial maps embed as a different shape; not supported")
    keep = identity_hom(f.source)
    return TypeIV(f, keep).as_endo(), TypeIV(g, keep).as_endo()


# --- curated instances, one or more per branch label ------------------------


class CuratedCase(FrozenValue):
    __slots__ = ("label", "name", "phi", "psi", "expected_trivial", "declarations")

    def __init__(
        self,
        label: str,
        name: str,
        phi: ProductEndo,
        psi: ProductEndo,
        expected_trivial: bool,
        declarations: tuple[DeclaredEndo, ...] = (),
    ):
        set_field(self, "label", label)
        set_field(self, "name", name)
        set_field(self, "phi", phi)
        set_field(self, "psi", psi)
        set_field(self, "expected_trivial", expected_trivial)
        set_field(self, "declarations", declarations)

    def oracle(self) -> FixOracle:
        return FixOracle(self.declarations)


def curated_cases() -> tuple[CuratedCase, ...]:
    a, b = Alphabet(2, "a"), Alphabet(2, "b")
    a1, a2 = generator(a, 1), generator(a, 2)
    b1, b2 = generator(b, 1), generator(b, 2)
    id_b = identity_hom(b)
    swap_a = permutation_hom(a, (2, 1))
    swap_b = permutation_hom(b, (2, 1))
    inner_a1 = inner_hom(a1)
    inner_b1 = inner_hom(b1)
    relab_ab = FreeHom(a, b, (b1, b2))
    relab_ba = FreeHom(b, a, (a1, a2))
    tweak_ab = FreeHom(a, b, (b1.inverse(), b2))
    tweak_ba = FreeHom(b, a, (a1.inverse(), a2))
    cross_ba = FreeHom(b, a, (a2, a1))
    retract_a = FreeHom(a, a, (a1, Word(a)))

    plain_diag = TypeVI(inner_a1, inner_b1).as_endo()
    plain_swap = TypeVII(relab_ba, relab_ab).as_endo()
    tweak_swap = TypeVII(tweak_ba, tweak_ab).as_endo()

    cases = [
        CuratedCase(
            "1.1",
            "paired powers, both bases fixed, singular matrix",
            plain_diag,
            TypeI(a1, b1, (2, 0), (-1, 0), (1, 0), (0, 0)).as_endo(),
            expected_trivial=False,
        ),
        CuratedCase(
            "1.1",
            "paired powers, first base unfixed",
            plain_diag,
            TypeI(a2, b1, (2, 0), (-1, 0), (1, 0), (0, 0)).as_endo(),
            expected_trivial=True,
        ),
        CuratedCase(
            "1.2",
            "transferred power fixed on both sides",
            plain_diag,
            TypeII(relab_ba, b1, (1, 0), (0, 1)).as_endo(),
            expected_trivial=False,
        ),
        CuratedCase(
            "1.2",
            "base misses the second fixed subgroup",
            plain_diag,
            TypeII(relab_ba, b2, (1, 0), (0, 1)).as_endo(),
            expected_trivial=True,
        ),
        CuratedCase(
            "1.3",
            "fixed base, exponent read off the window",
            plain_diag,
            TypeIII(a1, (2, 0), (1, 0), inner_b1).as_endo(),
            expected_trivial=False,
        ),
        CuratedCase(
            "1.3",
            "unfixed base rescued by a zero-weight direction",
            plain_diag,
            TypeIII(a2, (2, 0), (0, 1), inner_b1).as_endo(),
            expected_trivial=False,
        ),
        CuratedCase(
            "1.3",
            "unfixed base, weights never vanish",
            plain_diag,
            TypeIII(a2, (2, 0), (1, 0), inner_b1).as_endo(),
            expected_trivial=True,
        ),
        CuratedCase(
            "1.4",
            "drifting power with fixed base",
            plain_diag,
            TypeIII(a1, (1, 0), (0, 1), inner_b1).as_endo(),
            expected_trivial=False,
        ),
        CuratedCase(
            "1.4",
            "drifting power, base unfixed and weights nonzero",
            plain_diag,
            TypeIII(a2, (0, 1), (1, 0), inner_b1).as_endo(),
            expected_trivial=True,
        ),
        CuratedCase(
            "1.5",
            "graph meets diagonal, preimage witness",
            plain_diag,
            TypeIV(relab_ba, inner_b1).as_endo(),
            expected_trivial=False,
        ),
        CuratedCase(
            "1.5",
            "injective restriction, image misses the fixed subgroup",
            TypeVI(swap_a, inner_b1).as_endo(),
            TypeIV(relab_ba, inner_b1).as_endo(),
            expected_trivial=True,
        ),
        CuratedCase(
            "1.5",
            "rank drop, exact kernel element",
            TypeVI(swap_a, id_b).as_endo(),
            TypeIV(FreeHom(b, a, (a1, Word(a))), id_b).as_endo(),
            expected_trivial=False,
        ),
        CuratedCase(
            "1.6",
            "second-factor power line, base fixed",
            plain_diag,
            TypeV(b1, (1, 0), (1, 0), 2).as_endo(),
            expected_trivial=False,
        ),
        CuratedCase(
            "1.6",
            "second-factor power line, weight off by one",
            plain_diag,
            TypeV(b2, (1, 0), (1, 0), 2).as_endo(),
            expected_trivial=True,
        ),
        CuratedCase(
            "1.7",
            "two diagonals sharing a first-factor axis",
            TypeVI(inner_a1, swap_b).as_endo(),
            plain_diag,
            expected_trivial=False,
        ),
        CuratedCase(
            "1.7",
            "two diagonals sharing only a second-factor axis",
            TypeVI(swap_a, inner_b1).as_endo(),
            plain_diag,
            expected_trivial=False,
        ),
        CuratedCase(
            "1.7",
            "two diagonals with nothing in common",
            TypeVI(swap_a, swap_b).as_endo(),
            plain_diag,
            expected_trivial=True,
        ),
        CuratedCase(
            "1.7",
            "declared fixed subgroup for a retraction",
            TypeVI(retract_a, id_b).as_endo(),
            plain_diag,
            expected_trivial=False,
            declarations=(DeclaredEndo(retract_a, (a1,), audit_radius=AUDIT_RADIUS),),
        ),
        CuratedCase(
            "1.8",
            "diagonal meets swap along both axes",
            plain_diag,
            plain_swap,
            expected_trivial=False,
        ),
        CuratedCase(
            "1.8",
            "diagonal with trivial fixed subgroup meets swap",
            TypeVI(swap_a, swap_b).as_endo(),
            plain_swap,
            expected_trivial=True,
        ),
        CuratedCase(
            "2.1",
            "sign-tweaked swap matches an inverse power pair",
            tweak_swap,
            TypeI(a1, b1, (2, 0), (1, 0), (2, 0), (3, 0)).as_endo(),
            expected_trivial=False,
        ),
        CuratedCase(
            "2.1",
            "plain swap disagrees with the inverse pair",
            plain_swap,
            TypeI(a1, b1, (2, 0), (1, 0), (2, 0), (3, 0)).as_endo(),
            expected_trivial=True,
        ),
        CuratedCase(
            "2.2",
            "swap agrees with the transfer block",
            plain_swap,
            TypeII(relab_ba, b1, (1, 0), (0, 1)).as_endo(),
            expected_trivial=False,
        ),
        CuratedCase(
            "2.2",
            "sign tweak breaks the agreement",
            tweak_swap,
            TypeII(relab_ba, b1, (1, 0), (0, 1)).as_endo(),
            expected_trivial=True,
        ),
        CuratedCase(
            "2.3",
            "exponent equation solved on the nose",
            plain_swap,
            TypeIII(a1, (3, 0), (-2, 0), inner_b1).as_endo(),
            expected_trivial=False,
        ),
        CuratedCase(
            "2.3",
            "exponent equation off by three",
            plain_swap,
            TypeIII(a1, (3, 0), (1, 0), inner_b1).as_endo(),
            expected_trivial=True,
        ),
        CuratedCase(
            "2.4",
            "drifting exponent, swapped image weightless",
            plain_swap,
            TypeIII(a1, (1, 0), (0, 5), inner_b1).as_endo(),
            expected_trivial=False,
        ),
        CuratedCase(
            "2.4",
            "drifting exponent with weight left over",
            plain_swap,
            TypeIII(a1, (1, 0), (1, 0), inner_b1).as_endo(),
            expected_trivial=True,
        ),
        CuratedCase(
            "2.5",
            "swap meets a graph shape through the round trip",
            plain_swap,
            TypeIV(relab_ba, inner_b1).as_endo(),
            expected_trivial=False,
        ),
        CuratedCase(
            "2.5",
            "graph constraint subgroup dies",
            plain_swap,
            TypeIV(relab_ba, swap_b).as_endo(),
            expected_trivial=True,
        ),
        CuratedCase(
            "2.6",
            "power line cannot survive a swap",
            plain_swap,
            TypeV(b1, (1, 0), (1, 0), 2).as_endo(),
            expected_trivial=True,
        ),
        CuratedCase(
            "2.6",
            "power line with trivial fixed subgroup",
            plain_swap,
            TypeV(b1, (1, 0), (0, 1), 2).as_endo(),
            expected_trivial=True,
        ),
        CuratedCase(
            "2.7",
            "swap meets diagonal along the relabelled axis",
            plain_swap,
            plain_diag,
            expected_trivial=False,
        ),
        CuratedCase(
            "2.7",
            "swap meets a fixed-point-free diagonal",
            plain_swap,
            TypeVI(swap_a, swap_b).as_endo(),
            expected_trivial=True,
        ),
        CuratedCase(
            "2.8",
            "two swaps differing by an inner twist",
            plain_swap,
            TypeVII(relab_ba.then(inner_a1), relab_ab).as_endo(),
            expected_trivial=False,
        ),
        CuratedCase(
            "2.8",
            "two swaps differing by a cross permutation",
            plain_swap,
            TypeVII(cross_ba, relab_ab).as_endo(),
            expected_trivial=True,
        ),
    ]
    return tuple(cases)
