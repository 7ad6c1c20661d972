"""Worked instances: hardness embeddings and a curated case per branch.

Two constructions connect the decision problem to classical territory:

* the Mihailova-style embedding turns a finite presentation plus a query
  word into a fixed-subgroup-meets-subgroup instance whose nontriviality
  tracks whether a power of the query word dies in the presented group;
* the equalizer reductions translate between pairs of shape-IV
  endomorphisms and plain equalizer problems for free-group maps, in both
  directions.  They are why shape IV in *first* position stays out of
  scope: deciding it would decide equalizer triviality.

curated_cases() reads a case or more per branch label 1.1..2.8, with known
verdicts, from the files in ``curated/``; importing this module reads none.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cache
from itertools import islice
from pathlib import Path
from typing import Iterator, Optional

from ._value import FrozenValue, set_field
from .fixpoints import DeclaredEndo, FixOracle, parse_declaration
from .homs import FreeHom, _content_lines, identity_hom, inner_hom, permutation_hom
from .product import ProductElement, ProductEndo, TypeIV, TypeVI, classify, parse_endo_text
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


CURATED = Path(__file__).with_name("curated")  # the manifest `cases` and the files it names


def curated_manifest() -> Iterator[tuple[str, bool, Path, Path, list[tuple[Path, Path]], str]]:
    """Per manifest line: label, expected_trivial, phi, psi, (hom, basis) file pairs, name."""
    for lineno, line in _content_lines((CURATED / "cases").read_text()):
        head, _, name = line.partition("|")
        fields = head.split()
        if len(fields) < 4 or len(fields) % 2 or fields[1] not in ("trivial", "nontrivial"):
            raise ParseError(f"bad curated case {line.strip()!r}", lineno)
        phi, psi, *declared = [CURATED / file for file in fields[2:]]
        pairs = list(zip(declared[::2], declared[1::2]))
        yield fields[0], fields[1] == "trivial", phi, psi, pairs, name.strip()


def curated_cases() -> tuple[CuratedCase, ...]:
    """The cases of the manifest, in its order; each endo file is parsed once."""
    endo = cache(lambda path: parse_endo_text(path.read_text()))
    cases = []
    for label, trivial, phi, psi, pairs, name in curated_manifest():
        declared = tuple(parse_declaration(h.read_text(), b.read_text()) for h, b in pairs)
        cases.append(CuratedCase(label, name, endo(phi), endo(psi), trivial, declared))
    return tuple(cases)
