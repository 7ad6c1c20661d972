"""Free group words and exact power arithmetic.

A word is a freely reduced tuple of nonzero signed integers: letter i stands
for the i-th generator, -i for its inverse. Alphabets carry a display letter
('a' and 'b' for the two direct factors, 'x' for presentation alphabets) so
elements of different groups cannot be mixed up silently. `ball_products` is
the one walker of reduced-word balls, behind `enumerate_ball` as well.
`exponent_of_power` is the one power test; it roots neither of its words.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence, TypeVar

from ._value import FrozenValue, set_field

_LETTER_NAMES = ("a", "b", "x")
G = TypeVar("G")  # a group element: anything with `*` and `inverse()`


class ParseError(ValueError):
    """Input text that does not match the expected grammar."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        parts = [f"line {line}"] if line is not None else []
        if column is not None:
            parts.append(f"column {column}")
        where = f" ({', '.join(parts)})" if parts else ""
        super().__init__(message + where)


class CertificateError(RuntimeError):
    """An answer failed its own exact check: a fault in this library.

    Raised by plain checks rather than asserts, so it also fires under
    ``python -O``.
    """


class Alphabet(FrozenValue):
    """A free basis of a given rank with a display letter."""

    __slots__ = ("rank", "letter")

    def __init__(self, rank: int, letter: str = "a"):
        if rank < 1:
            raise ValueError(f"rank must be at least 1, got {rank}")
        if letter not in _LETTER_NAMES:
            raise ValueError(f"display letter must be one of {_LETTER_NAMES}")
        set_field(self, "rank", rank)
        set_field(self, "letter", letter)

    # written out, not inherited, here and in Word: every multiply compares
    # alphabets, and the generic versions take about twice as long
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rank, self.letter) == (other.rank, other.letter)

    def __hash__(self) -> int:
        return hash((self.rank, self.letter))

    def generators(self) -> tuple["Word", ...]:
        return tuple(Word._unchecked(self, (i,)) for i in range(1, self.rank + 1))

    def __str__(self) -> str:
        return f"F[{self.letter}1..{self.letter}{self.rank}]"


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def _inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The letters of w^-1, given the letters of w."""
    return tuple(-x for x in reversed(letters))


class Word(FrozenValue):
    """A freely reduced word. Construct unreduced input via `word(...)`."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: tuple[int, ...] = ()):
        rank = alphabet.rank
        prev = 0
        for x in letters:
            if x == 0 or abs(x) > rank:
                raise ValueError(f"letter {x} outside {alphabet}")
            if x == -prev:
                raise ValueError(f"not freely reduced at ...{prev},{x}...")
            prev = x
        _set_alphabet(self, alphabet)
        _set_letters(self, letters)

    @staticmethod
    def _unchecked(alphabet: Alphabet, letters: tuple[int, ...] = ()) -> "Word":
        """A word from letters known to be valid and freely reduced; no checks."""
        w = _new_object(Word)
        _set_alphabet(w, alphabet)
        _set_letters(w, letters)
        return w

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alphabet, self.letters) == (other.alphabet, other.letters)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        if self.alphabet != other.alphabet:
            raise ValueError(f"cannot multiply {self.alphabet} by {other.alphabet}")
        return Word._unchecked(self.alphabet, free_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word._unchecked(self.alphabet, tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        result = Word._unchecked(self.alphabet)
        chunk = self
        while n:
            if n & 1:
                result = result * chunk
            chunk = chunk * chunk
            n >>= 1
        return result

    def conjugated_by(self, c: "Word") -> "Word":
        """c * self * c^-1."""
        return c * self * c.inverse()

    def __str__(self) -> str:
        return render_word(self)


_new_object = object.__new__
# the slots' own setters: the fastest way past the refusing __setattr__
_set_alphabet = Word.alphabet.__set__
_set_letters = Word.letters.__set__


def word(alphabet: Alphabet, letters: Iterable[int]) -> Word:
    """Build a word from a possibly unreduced letter sequence."""
    return Word(alphabet, free_reduce(letters))


def identity(alphabet: Alphabet) -> Word:
    return Word(alphabet)


def generator(alphabet: Alphabet, i: int) -> Word:
    """The i-th basis element (1-based); negative i gives the inverse."""
    if i == 0 or abs(i) > alphabet.rank:
        raise ValueError(f"no generator {i} in {alphabet}")
    return Word(alphabet, (i,))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split w as conj * core * conj^-1 with core cyclically reduced.

    Returns (core, conj).
    """
    ls = w.letters
    c = _conjugator_length(ls)
    return Word._unchecked(w.alphabet, ls[c : len(ls) - c]), Word._unchecked(w.alphabet, ls[:c])


def _conjugator_length(ls: tuple[int, ...]) -> int:
    """The length of conj in cyclic_reduce, for the letters of a reduced word."""
    i, j = 0, len(ls)
    while j - i >= 2 and ls[i] == -ls[j - 1]:
        i += 1
        j -= 1
    return i


class Root(FrozenValue):
    """w == base ** exponent with base primitive; exponent 0 only for w == 1."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Word, exponent: int):
        set_field(self, "base", base)
        set_field(self, "exponent", exponent)


def root(w: Word) -> Root:
    """Primitive root decomposition. root(1) = (1, 0), else exponent >= 1.

    The primitive root of a nontrivial element is unique (not merely unique
    up to inversion), so this is a canonical form.

    Method: split w = c core c^-1 with core cyclically reduced, of length n.
    A divisor p of n is a period of core iff core[p:] == core[:n-p]; the
    smallest such p gives base c core[:p] c^-1 and exponent n/p. Those
    letters are w's first |c| + p and last |c|, freely reduced because w is
    (core[p-1] == core[n-1]). Cost: one slice comparison, O(n), per divisor
    tried, so O(n d(n)) with d(n) the number of divisors of n, and one tuple
    for the base; no word is built on the way.
    """
    if w.is_identity():
        return Root(w, 0)
    ls = w.letters
    c = _conjugator_length(ls)
    core = ls[c : len(ls) - c]
    n = len(core)
    for p in range(1, n + 1):
        if n % p == 0 and core[p:] == core[: n - p]:
            return Root(Word._unchecked(w.alphabet, ls[: c + p] + ls[c + n :]), n // p)
    raise AssertionError("unreachable: full length always a period")


def exponent_of_power(x: Word, u: Word) -> int | None:
    """The integer k with x == u**k, or None if there is none.

    When u == 1 != x there is no k; when x == 1 the answer is 0 (for u == 1
    as well, by convention the smallest choice).

    Method: with u = c core c^-1 and core cyclically reduced, u**k reduces
    to c core^k c^-1 for k > 0 and to c (core^-1)^-k c^-1 for k < 0. So
    the length of x fixes |k|, its letter after c the sign (core[0] is not
    the first letter of core^-1), and one tuple comparison settles it, in
    O(|x| + |u|) with no root taken.
    """
    xs, us = x.letters, u.letters
    if not xs:
        return 0
    c = _conjugator_length(us)
    p = len(us) - 2 * c
    n = len(xs) - 2 * c
    if p == 0 or n <= 0 or n % p:
        return None
    core = us[c : c + p]
    if xs[c] == core[0]:
        k = n // p
    elif xs[c] == -core[-1]:
        k, core = -(n // p), _inverse(core)
    else:
        return None
    return k if xs == us[:c] + core * abs(k) + us[c + p :] else None


def weighted_sum(w: Word, weights: Sequence[int]) -> int:
    """Sum of per-generator weights along w, signs included.

    This is the image of w under the homomorphism to Z sending the i-th
    generator to weights[i-1]; it only depends on the abelianization.
    """
    if len(weights) != w.alphabet.rank:
        raise ValueError(f"expected {w.alphabet.rank} weights, got {len(weights)}")
    return sum((weights[x - 1] if x > 0 else -weights[-x - 1]) for x in w.letters)


def sign_normalized(w: Word) -> Word:
    """The shortlex-smaller of w and its inverse.

    The first letter where w and w^-1 differ decides, in the order
    a1 < a1^-1 < a2 < a2^-1 < ...; w^-1 is read off w from the back.
    """
    ls = w.letters
    for x, y in zip(ls, reversed(ls)):
        if x != -y:
            return w if (abs(x), x < 0) < (abs(y), y > 0) else w.inverse()
    return w


def enumerate_ball(alphabet: Alphabet, radius: int) -> Iterator[Word]:
    """All reduced words of length <= radius, in length-lexicographic order.

    Letter order within a length: 1 < -1 < 2 < -2 < ...
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    yield Word._unchecked(alphabet)
    yield from ball_products(alphabet.generators(), radius)


def ball_products(gens: Sequence[G], radius: int) -> Iterator[G]:
    """Products of the nonempty reduced words of length <= radius over
    ``gens``, in the order of enumerate_ball.

    Each product extends its prefix's, kept from the layer before, by one
    generator or inverse, so every product costs one multiply. The last
    layer is only yielded, never kept: at most two layers are alive, the
    one being read and the one being built.
    """
    steps = [
        (s * i, g if s > 0 else g.inverse()) for i, g in enumerate(gens, start=1) for s in (1, -1)
    ]
    layer: list[tuple[int, G | None]] = [(0, None)]  # (last letter, product)
    for depth in range(1, radius + 1):
        nxt = []
        for last, prefix in layer:
            for x, step in steps:
                if x == -last:
                    continue
                product = step if prefix is None else prefix * step
                if depth < radius:
                    nxt.append((x, product))
                yield product
        layer = nxt


def ball_size(rank: int, radius: int) -> int:
    """Number of reduced words of length <= radius in rank `rank`."""
    total, layer = 1, 1
    for k in range(1, radius + 1):
        layer = layer * (2 * rank - 1) if k > 1 else 2 * rank
        total += layer
    return total


_TOKEN_RE = re.compile(r"(?P<letter>[abx])(?P<index>[0-9]+)(\^(?P<exp>-?[0-9]+))?$")

MAX_WORD_LETTERS = 100_000  # parse_word refuses words that expand to more
MAX_FILE_LETTERS = 200_000  # and, given a tally, files whose words total more


class LetterTally:
    """The letters that the words of one input file have expanded to so far.

    A file parser hands one tally to parse_word for every word of the file,
    left sides included, and parse_word refuses the token that takes the
    total past MAX_FILE_LETTERS.
    """

    __slots__ = ("letters",)

    def __init__(self) -> None:
        self.letters = 0


def _bounded_int(literal: str, limit: int) -> int:
    """abs(int(literal)), or limit + 1 when its digit count alone exceeds
    limit, so a huge literal is never converted."""
    digits = literal.lstrip("-").lstrip("0")
    return limit + 1 if len(digits) > len(str(limit)) else int(digits or "0")


def parse_word(
    text: str,
    alphabet: Alphabet,
    *,
    line: int | None = None,
    offset: int = 0,
    tally: LetterTally | None = None,
) -> Word:
    """Parse whitespace-separated tokens like `a1 b2^-3`; `1` alone is the identity.

    The letter count is checked before anything is expanded: a word of
    more than MAX_WORD_LETTERS letters raises ParseError at the token that
    crosses the cap; with a ``tally``, so does a word that takes the file's
    total past MAX_FILE_LETTERS, and the tally then counts the word's
    letters. ``line`` is the line ``text`` starts on and ``offset``
    the number of characters before it there, so that ParseError positions
    count from the line's start. ``text`` may run over several lines; the
    positions of tokens on later lines count from those lines' starts.
    """
    tokens = [
        (m.group(0), None if line is None else line + i, m.start() + 1 + (0 if i else offset))
        for i, part in enumerate(text.split("\n"))
        for m in re.finditer(r"\S+", part)
    ]
    if not tokens:
        raise ParseError("empty word (use `1` for the identity)", line)
    if any(tok == "1" for tok, _, _ in tokens):
        if len(tokens) > 1:
            _, ln, col = next(t for t in tokens if t[0] == "1")
            raise ParseError("`1` must stand alone", ln, col)
        return Word(alphabet)
    powers: list[tuple[int, int]] = []
    total = 0
    for tok, ln, col in tokens:
        m = _TOKEN_RE.match(tok)
        if not m:
            raise ParseError(f"bad token {tok!r}", ln, col)
        if m.group("letter") != alphabet.letter:
            raise ParseError(
                f"letter {m.group('letter')!r} does not belong to {alphabet}", ln, col
            )
        index = _bounded_int(m.group("index"), alphabet.rank)
        if not 1 <= index <= alphabet.rank:
            raise ParseError(
                f"index {m.group('index')} out of range 1..{alphabet.rank}", ln, col
            )
        exp = m.group("exp") or "1"
        count = _bounded_int(exp, MAX_WORD_LETTERS)
        total += count
        if total > MAX_WORD_LETTERS:
            raise ParseError(f"word expands to more than {MAX_WORD_LETTERS} letters", ln, col)
        if tally is not None and tally.letters + total > MAX_FILE_LETTERS:
            raise ParseError(f"file expands to more than {MAX_FILE_LETTERS} letters", ln, col)
        powers.append((index if exp[0] != "-" else -index, count))
    if tally is not None:
        tally.letters += total
    letters: list[int] = []
    for letter, count in powers:
        letters.extend([letter] * count)
    return word(alphabet, letters)


def render_word(w: Word) -> str:
    """Inverse of parse_word; runs of a letter are grouped as `a1^3`."""
    if w.is_identity():
        return "1"
    parts: list[str] = []
    i = 0
    ls = w.letters
    while i < len(ls):
        j = i
        while j < len(ls) and ls[j] == ls[i]:
            j += 1
        run = j - i
        name = f"{w.alphabet.letter}{abs(ls[i])}"
        exp = run if ls[i] > 0 else -run
        parts.append(name if exp == 1 else f"{name}^{exp}")
        i = j
    return " ".join(parts)
