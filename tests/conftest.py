"""Shared alphabets, word parsers and randomized-instance builders.

Every random builder takes an explicit random.Random so each test controls its seed;
a failing case can then be replayed by seed alone.
"""

from __future__ import annotations

import random

from fixfnm import (
    Alphabet,
    FreeHom,
    ProductElement,
    ProductEndo,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    TypeV,
    TypeVI,
    TypeVII,
    Word,
    identity_hom,
    inner_hom,
    parse_word,
    permutation_hom,
    weighted_sum,
    word,
)

A = Alphabet(2, "a")
B = Alphabet(2, "b")


def wa(text: str) -> Word:
    return parse_word(text, A)


def wb(text: str) -> Word:
    return parse_word(text, B)


def pe(first: str, second: str) -> ProductElement:
    return ProductElement(wa(first), wb(second))


RELAB_AB = FreeHom(A, B, B.generators())
RELAB_BA = FreeHom(B, A, A.generators())

# sign-normalized primitive words; classification canonicalizes power bases
# to exactly these forms, which keeps round-trip comparisons literal
PRIMITIVES_A = ("a1", "a2", "a1 a2", "a1 a2^-1", "a1^2 a2")
PRIMITIVES_B = ("b1", "b2", "b1 b2", "b1 b2^-1", "b1^2 b2")


def rng_for(name: str) -> random.Random:
    return random.Random(f"fixfnm:{name}")


def random_word(rng: random.Random, alphabet: Alphabet, length: int) -> Word:
    """A uniformly built reduced word of exactly the requested length."""
    letters: list[int] = []
    choices = [i for i in range(1, alphabet.rank + 1)]
    while len(letters) < length:
        pick = rng.choice(choices) * rng.choice((1, -1))
        if letters and pick == -letters[-1]:
            continue
        letters.append(pick)
    return word(alphabet, letters)


def random_hom(
    rng: random.Random,
    source: Alphabet,
    target: Alphabet,
    max_len: int = 3,
    allow_trivial_images: bool = True,
) -> FreeHom:
    images = []
    for _ in range(source.rank):
        low = 0 if allow_trivial_images else 1
        images.append(random_word(rng, target, rng.randint(low, max_len)))
    if not allow_trivial_images or any(not w.is_identity() for w in images):
        return FreeHom(source, target, tuple(images))
    # ensure the hom is nontrivial overall
    images[rng.randrange(source.rank)] = random_word(rng, target, 1)
    return FreeHom(source, target, tuple(images))


def supported_component(rng: random.Random, alphabet: Alphabet) -> FreeHom:
    """An endomorphism the oracle recognizes without declarations."""
    kind = rng.choice(("identity", "inner", "permutation"))
    if kind == "identity":
        return identity_hom(alphabet)
    if kind == "inner":
        return inner_hom(random_word(rng, alphabet, rng.randint(1, 2)))
    indices = list(range(1, alphabet.rank + 1))
    rng.shuffle(indices)
    return permutation_hom(alphabet, tuple(indices))


def _nonzero_weights(rng: random.Random, size: int) -> tuple[int, ...]:
    while True:
        w = tuple(rng.randint(-2, 2) for _ in range(size))
        if any(w):
            return w


def _weights_with_sum(rng: random.Random, base: Word, want: int) -> tuple[int, ...]:
    """Random weights whose weighted sum against ``base`` hits ``want``."""
    for _ in range(10_000):
        w = tuple(rng.randint(-3, 3) for _ in range(base.alphabet.rank))
        if weighted_sum(base, w) == want:
            return w
    raise AssertionError(f"no weight tuple reaches {want} for {base}")


def random_shape_payload(rng: random.Random, tag: str):
    """A random shape payload classifying back to the requested tag.

    Bases are drawn sign-normalized and primitive, so classify returns the
    payload verbatim. Free components come from the recognized family, so
    fix_product and decide work with a bare FixOracle().
    """
    u = wa(rng.choice(PRIMITIVES_A))
    v = wb(rng.choice(PRIMITIVES_B))
    if tag == "I":
        return TypeI(
            u,
            v,
            _nonzero_weights(rng, 2),
            _nonzero_weights(rng, 2),
            _nonzero_weights(rng, 2),
            _nonzero_weights(rng, 2),
        )
    if tag == "II":
        theta = random_hom(rng, B, A, allow_trivial_images=False)
        return TypeII(theta, v, _nonzero_weights(rng, 2), _nonzero_weights(rng, 2))
    if tag == "III.1":
        while True:
            p = _nonzero_weights(rng, 2)
            if weighted_sum(u, p) != 1:
                break
        return TypeIII(u, p, _nonzero_weights(rng, 2), supported_component(rng, B))
    if tag == "III.2":
        p = _weights_with_sum(rng, u, 1)
        return TypeIII(u, p, _nonzero_weights(rng, 2), supported_component(rng, B))
    if tag == "IV":
        theta = random_hom(rng, B, A, allow_trivial_images=False)
        return TypeIV(theta, supported_component(rng, B))
    if tag == "V":
        return TypeV(v, _nonzero_weights(rng, 2), _nonzero_weights(rng, 2), 2)
    if tag == "VI":
        return TypeVI(supported_component(rng, A), supported_component(rng, B))
    if tag == "VII":
        return TypeVII(*swap_blocks(rng, "inner" if rng.random() < 0.5 else "permutation"))
    raise ValueError(f"unknown tag {tag!r}")


def swap_blocks(rng: random.Random, flavour: str) -> tuple[FreeHom, FreeHom]:
    """Blocks (to_first, to_second) of a swap: relabelling, then a conjugation
    ("inner") or a basis permutation ("permutation").

    Composites of blocks of one flavour stay in the recognized families,
    which keeps round trips, and the mixed composites that decide meets
    for two swaps or a swap and a shape IV map, recognizable.
    """
    if flavour == "inner":
        za = random_word(rng, A, rng.randint(0, 2))
        zb = random_word(rng, B, rng.randint(0, 2))
        return RELAB_BA.then(inner_hom(za)), RELAB_AB.then(inner_hom(zb))
    pa = list(range(1, 3))
    pb = list(range(1, 3))
    rng.shuffle(pa)
    rng.shuffle(pb)
    to_first = RELAB_BA.then(permutation_hom(A, tuple(pa)))
    return to_first, RELAB_AB.then(permutation_hom(B, tuple(pb)))


def random_shape_endo(rng: random.Random, tag: str) -> ProductEndo:
    return random_shape_payload(rng, tag).as_endo()


ALL_TAGS = ("I", "II", "III.1", "III.2", "IV", "V", "VI", "VII")
