"""Homomorphisms between finitely generated free groups.

A homomorphism is stored by its generator images; `FreeHom.image_letters` is
the one routine that maps letters through them, for `apply` and for every
fixed-point and equalizer test. Composition is written in application order:
`f.then(g)` maps w to g(f(w)).
"""

from __future__ import annotations

from functools import lru_cache
from operator import neg
from typing import Iterable, Iterator, Sequence

from ._value import FrozenValue, set_field
from .words import (
    Alphabet,
    LetterTally,
    ParseError,
    Word,
    free_reduce,
    generator,
    parse_word,
    render_word,
)


class FreeHom(FrozenValue):
    __slots__ = ("source", "target", "images")

    def __init__(self, source: Alphabet, target: Alphabet, images: tuple[Word, ...]):
        if len(images) != source.rank:
            raise ValueError(f"need {source.rank} generator images, got {len(images)}")
        for img in images:
            if img.alphabet != target:
                raise ValueError(f"image {img} lives in {img.alphabet}, not {target}")
        set_field(self, "source", source)
        set_field(self, "target", target)
        set_field(self, "images", images)

    def image_letters(self, letters: Sequence[int]) -> tuple[int, ...]:
        """The freely reduced image of ``letters``, trusted to be letters of the source."""
        out: list[int] = []
        for x in letters:
            img = self.images[abs(x) - 1].letters
            out.extend(img if x > 0 else map(neg, reversed(img)))
        return free_reduce(out)

    def apply(self, w: Word) -> Word:
        if w.alphabet != self.source:
            raise ValueError(f"{w} is not a word over {self.source}")
        return Word._unchecked(self.target, self.image_letters(w.letters))

    def then(self, other: "FreeHom") -> "FreeHom":
        """Composite mapping w to other(self(w))."""
        if self.target != other.source:
            raise ValueError(f"cannot chain {self.target} into {other.source}")
        return FreeHom(self.source, other.target, tuple(other.apply(i) for i in self.images))

    def is_trivial(self) -> bool:
        return not any(img.letters for img in self.images)

    def as_permutation(self) -> tuple[int, ...] | None:
        """1-based image indices, if this permutes the basis without inverting."""
        if self.source != self.target:
            return None
        hits: list[int] = []
        for img in self.images:
            if len(img.letters) != 1 or img.letters[0] < 0:
                return None
            hits.append(img.letters[0])
        if sorted(hits) != list(range(1, self.source.rank + 1)):
            return None
        return tuple(hits)

    def __str__(self) -> str:
        pairs = ", ".join(
            f"{self.source.letter}{i + 1} -> {render_word(img)}"
            for i, img in enumerate(self.images)
        )
        return f"[{pairs}]"


def identity_hom(alphabet: Alphabet) -> FreeHom:
    return FreeHom(alphabet, alphabet, alphabet.generators())


# each benchmark workload asks for 4 pairs; the bound stops a process that
# meets many ranks from keeping a rank-long tuple for every pair
@lru_cache(maxsize=64)
def trivial_hom(source: Alphabet, target: Alphabet) -> FreeHom:
    """The hom sending every generator to 1, shared per alphabet pair."""
    return FreeHom(source, target, (Word(target),) * source.rank)


def inner_hom(z: Word) -> FreeHom:
    """Conjugation x -> z x z^-1 on z's own group."""
    alph = z.alphabet
    return FreeHom(alph, alph, tuple(g.conjugated_by(z) for g in alph.generators()))


def permutation_hom(alphabet: Alphabet, images: tuple[int, ...]) -> FreeHom:
    if sorted(images) != list(range(1, alphabet.rank + 1)):
        raise ValueError(f"{images} is not a permutation of 1..{alphabet.rank}")
    return FreeHom(alphabet, alphabet, tuple(generator(alphabet, i) for i in images))


def parse_hom_text(text: str) -> FreeHom:
    """Parse the `hom` file format.

    Header: `hom <src-rank> <tgt-rank> <src-letter> <tgt-letter>`, then one
    `<gen> -> <word>` line per source generator, in any order but each
    exactly once. `#` starts a comment; blank lines are skipped. The words
    of the file, left sides included, expand to at most MAX_FILE_LETTERS
    letters.
    """
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty hom description")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 5 or fields[0] != "hom":
        raise ParseError("header must be `hom <src-rank> <tgt-rank> <src-letter> <tgt-letter>`", lineno)
    try:
        src_rank, tgt_rank = int(fields[1]), int(fields[2])
    except ValueError:
        raise ParseError("ranks must be integers", lineno) from None
    try:
        source = Alphabet(src_rank, fields[3])
        target = Alphabet(tgt_rank, fields[4])
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    images: dict[tuple[str, int], Word] = {}
    tally = LetterTally()
    for key, lineno, rhs, offset in image_lines(lines[1:], (source,), tally):
        images[key] = parse_word(rhs, target, line=lineno, offset=offset, tally=tally)
    letter = source.letter
    return FreeHom(source, target, tuple(images[letter, i] for i in range(1, src_rank + 1)))


MISSING_NAMED = 5  # a missing-image error names at most this many generators


def image_lines(
    lines: Iterable[tuple[int, str]], sources: Sequence[Alphabet], tally: LetterTally
) -> Iterator[tuple[tuple[str, int], int, str, int]]:
    """Read `<gen> -> <image>` lines, one per generator of the ``sources``.

    Yields (key, line number, right side, offset) per line: key is the
    (letter, index) of the generator on the left, and offset the number of
    characters before the right side on its line, as parse_word takes it.
    The left side is parsed against the source whose letter it starts with,
    else against the first source, so that a bad token names its column;
    it must be one generator, listed once, or ParseError names the column
    of its first non-blank character. The caller parses the right side
    before it asks for the next line, so ``tally`` counts the words in file
    order. Once the lines run out, ParseError names the first MISSING_NAMED
    generators that got no line and counts the rest, so the work is bounded
    by the lines given, not by the ranks.
    """
    by_letter = {s.letter: s for s in sources}
    given: dict[str, set[int]] = {s.letter: set() for s in sources}
    for lineno, line in lines:
        lhs, arrow, rhs = line.partition("->")
        if not arrow:
            raise ParseError("expected `<gen> -> <image>`", lineno)
        gen_tok = lhs.strip()
        column = len(lhs) - len(lhs.lstrip()) + 1
        source = by_letter.get(gen_tok[:1], sources[0])
        gen_word = parse_word(lhs, source, line=lineno, tally=tally)
        if len(gen_word.letters) != 1 or gen_word.letters[0] < 0:
            raise ParseError(f"left side {gen_tok!r} must be a single generator", lineno, column)
        idx, seen = gen_word.letters[0], given[source.letter]
        if idx in seen:
            raise ParseError(f"generator {gen_tok} listed twice", lineno, column)
        seen.add(idx)
        yield (source.letter, idx), lineno, rhs, len(lhs) + 2
    named: list[str] = []
    missing = 0
    for s in sources:
        seen = given[s.letter]
        missing += s.rank - len(seen)
        i = 1
        while len(named) < MISSING_NAMED and i <= s.rank:
            if i not in seen:
                named.append(f"{s.letter}{i}")
            i += 1
    if missing:
        more = f" and {missing - len(named)} more" if missing > len(named) else ""
        raise ParseError(f"missing image for {', '.join(named)}{more}")


def render_hom_text(h: FreeHom) -> str:
    lines = [f"hom {h.source.rank} {h.target.rank} {h.source.letter} {h.target.letter}"]
    for i, img in enumerate(h.images):
        lines.append(f"{h.source.letter}{i + 1} -> {render_word(img)}")
    return "\n".join(lines) + "\n"


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, line) for each line that is not blank once its comment is cut.

    A `#` starts a comment anywhere on a line. The cut keeps the line's
    start as written, so columns of the tokens before it do not move.
    """
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            out.append((lineno, line))
    return out
