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

from dataclasses import dataclass
from typing import Optional

from .fixpoints import DeclaredEndo, FixDescriptor, FixOracle, fix_product
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
)
from .stallings import SubgroupGraph
from .words import (
    Alphabet,
    ParseError,
    Word,
    enumerate_ball,
    exponent_of_power,
    generator,
    parse_word,
    render_word,
    root,
)


# --- presentations and the word-problem embedding --------------------------


@dataclass(frozen=True)
class Presentation:
    """A finite presentation over the x-alphabet."""

    alphabet: Alphabet
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        if self.alphabet.letter != "x":
            raise ValueError("presentations use the letter x")
        for r in self.relators:
            if r.alphabet != self.alphabet:
                raise ValueError("relator alphabet mismatch")

    def __str__(self) -> str:
        gens = " ".join(f"x{i + 1}" for i in range(self.alphabet.rank))
        rels = ", ".join(render_word(r) for r in self.relators)
        return f"{gens} | {rels}"


def parse_presentation_text(text: str) -> Presentation:
    """Parse `x1 x2 | r1, r2` (relators comma-separated, # comments)."""
    body = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            body.append(stripped)
    joined = " ".join(body)
    if not joined:
        raise ParseError("empty presentation")
    left, _, right = joined.partition("|")
    if "|" in right:
        raise ParseError("more than one `|` in presentation")
    names = left.split()
    if not names:
        raise ParseError("presentation has no generators")
    alphabet = Alphabet(len(names), "x")
    for i, tok in enumerate(names, start=1):
        if tok != f"x{i}":
            raise ParseError(
                f"generators must be x1..x{len(names)} in order, got {tok!r}"
            )
    relators = []
    for chunk in right.split(","):
        chunk = chunk.strip()
        if chunk:
            relators.append(parse_word(chunk, alphabet))
    return Presentation(alphabet, tuple(relators))


@dataclass(frozen=True)
class MihailovaInstance:
    """Fixed subgroup vs. Mihailova subgroup, encoding a word problem.

    ``endo`` is diagonal with fixed subgroup 1 x <core>; the subgroup
    generated by ``subgroup_generators`` meets it in the pairs (1, core^k)
    with core^k trivial in the presented group.  Triviality of that
    intersection is therefore as hard as the presented word problem, which
    is why the decision engine handles fixed subgroups on both sides only.
    """

    endo: ProductEndo
    subgroup_generators: tuple[ProductElement, ...]
    core: Word
    power: int
    fix: FixDescriptor

    def search_witness(self, budget: int) -> Optional[ProductElement]:
        """Bounded hunt for a nontrivial common element.

        Tries products of up to ``budget`` subgroup generators; a hit
        certifies nontriviality, a miss proves nothing.
        """
        gens = self.subgroup_generators
        helper = Alphabet(len(gens), "x")
        for expression in enumerate_ball(helper, budget):
            if expression.is_identity():
                continue
            candidate = None
            for step in expression.letters:
                factor = gens[abs(step) - 1]
                if step < 0:
                    factor = factor.inverse()
                candidate = factor if candidate is None else candidate * factor
            assert candidate is not None
            if candidate.is_identity():
                continue
            if self.fix.contains(candidate):
                return candidate
        return None


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
        fix=fix_product(endo),
    )


# --- shape IV vs. equalizers, both directions -------------------------------


@dataclass(frozen=True)
class EqualizerReduction:
    """Equalizer instance equivalent to a pair of shape-IV intersections.

    Members of the intersection are exactly the pairs (first(e), sub(e))
    where e runs over the equalizer of ``first`` and ``second`` on the
    abstract domain and sub is ``substitute``.
    """

    domain: SubgroupGraph
    basis: tuple[Word, ...]
    first: FreeHom
    second: FreeHom

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
    from .product import classify

    if oracle is None:
        oracle = FixOracle()
    shape_phi = classify(phi)
    shape_psi = classify(psi)
    if not isinstance(shape_phi, TypeIV) or not isinstance(shape_psi, TypeIV):
        raise ValueError("both endomorphisms must classify as shape IV")
    k = oracle.fix(shape_phi.second_from_second).intersect(
        oracle.fix(shape_psi.second_from_second)
    )
    basis = k.basis()
    if not basis:
        raise ValueError(
            "the common constraint subgroup is trivial, and so is the intersection"
        )
    abstract = Alphabet(len(basis), "x")
    target = phi.first_alphabet
    first = FreeHom(
        abstract, target, tuple(shape_phi.first_from_second.apply(g) for g in basis)
    )
    second = FreeHom(
        abstract, target, tuple(shape_psi.first_from_second.apply(g) for g in basis)
    )
    return EqualizerReduction(domain=k, basis=basis, first=first, second=second)


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


@dataclass(frozen=True)
class CuratedCase:
    label: str
    name: str
    phi: ProductEndo
    psi: ProductEndo
    expected_trivial: bool
    declarations: tuple[DeclaredEndo, ...] = ()

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
            declarations=(DeclaredEndo(retract_a, (a1,), audit_radius=4),),
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
