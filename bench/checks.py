"""Correctness checks that do not trust the code they check.

Words are plain tuples of signed letters (i for the i-th generator, -i for
its inverse). Free reduction, substitution and ball enumeration are done
here from scratch; the only thing read from fixfnm objects is their data
(generator images as letter tuples, verdict fields).

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import re
from typing import Iterable, Iterator, Sequence

Letters = tuple[int, ...]
# images of a1..an and b1..bm, each image a pair (first letters, second letters)
Blocks = tuple[tuple[tuple[Letters, Letters], ...], tuple[tuple[Letters, Letters], ...]]

def reduce(letters: Iterable[int]) -> Letters:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(w: Letters) -> Letters:
    return tuple(-x for x in reversed(w))


def blocks_of(endo) -> Blocks:
    """Generator images of a ProductEndo, read off its four blocks."""
    ff = endo.first_from_first.images
    sf = endo.second_from_first.images
    fs = endo.first_from_second.images
    ss = endo.second_from_second.images
    a_images = tuple((x.letters, y.letters) for x, y in zip(ff, sf))
    b_images = tuple((x.letters, y.letters) for x, y in zip(fs, ss))
    return a_images, b_images


def apply_endo(blocks: Blocks, x: Letters, y: Letters) -> tuple[Letters, Letters]:
    """Image of (x, y): the a-letters of x and then the b-letters of y."""
    a_images, b_images = blocks
    first: list[int] = []
    second: list[int] = []
    for images, w in ((a_images, x), (b_images, y)):
        for letter in w:
            u, v = images[abs(letter) - 1]
            if letter < 0:
                u, v = inverse(u), inverse(v)
            first.extend(u)
            second.extend(v)
    return reduce(first), reduce(second)


def is_fixed(blocks: Blocks, x: Letters, y: Letters) -> bool:
    return apply_endo(blocks, x, y) == (x, y)


def ball(rank: int, radius: int) -> Iterator[Letters]:
    """All reduced words of length <= radius over `rank` generators."""
    layer: list[Letters] = [()]
    yield ()
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    for _ in range(radius):
        nxt = []
        for w in layer:
            for x in letters:
                if not w or w[-1] != -x:
                    nxt.append(w + (x,))
        yield from nxt
        layer = nxt


def product_ball(n: int, m: int, radius: int) -> Iterator[tuple[Letters, Letters]]:
    """Nontrivial pairs (x, y) with |x| + |y| <= radius."""
    for x in ball(n, radius):
        for y in ball(m, radius - len(x)):
            if x or y:
                yield x, y


def common_fixed(phi: Blocks, psi: Blocks, radius: int) -> list[tuple[Letters, Letters]]:
    n, m = len(phi[0]), len(phi[1])
    return [
        (x, y)
        for x, y in product_ball(n, m, radius)
        if is_fixed(phi, x, y) and is_fixed(psi, x, y)
    ]


def replay(gens: Sequence[Letters], expression: Sequence[int]) -> Letters:
    """The reduced product of gens[|i|-1]^sign(i) over the expression."""
    out: list[int] = []
    for i in expression:
        if i == 0 or abs(i) > len(gens):
            raise ValueError(f"index {i} names no generator")
        g = gens[abs(i) - 1]
        out.extend(g if i > 0 else inverse(g))
    return reduce(out)


# --- the checks ---------------------------------------------------------------


def check_verdict(
    phi: Blocks,
    psi: Blocks,
    trivial: bool,
    witness: tuple[Letters, Letters] | None,
    trace: Sequence[str],
    *,
    expected_label: str | None = None,
    expected_trivial: bool | None = None,
    ball_radius: int = 0,
) -> list[str]:
    """Witness, curated answer, trace label, and a small ball for trivial verdicts."""
    problems = []
    if not trace:
        problems.append("empty trace")
    elif expected_label is not None and trace[0] != expected_label:
        problems.append(f"trace starts at {trace[0]}, the pair was built for {expected_label}")
    if expected_trivial is not None and trivial != expected_trivial:
        problems.append(f"verdict trivial={trivial}, the curated answer is {expected_trivial}")
    if trivial:
        if witness is not None:
            problems.append("trivial verdict carries a witness")
        if ball_radius:
            hits = common_fixed(phi, psi, ball_radius)
            if hits:
                problems.append(f"trivial verdict, yet {hits[0]} is fixed by both")
    else:
        if witness is None:
            problems.append("nontrivial verdict without a witness")
        else:
            x, y = witness
            if not x and not y:
                problems.append("witness is the identity")
            elif not (is_fixed(phi, x, y) and is_fixed(psi, x, y)):
                problems.append(f"witness {witness} is not fixed by both")
    return problems


def check_ball_hits(
    phi: Blocks,
    psi: Blocks,
    hits: Sequence[tuple[Letters, Letters]],
    trivial: bool,
    radius: int,
) -> list[str]:
    """Every hit is a nontrivial common fixed point inside the ball, and agrees with the verdict."""
    problems = []
    for x, y in hits:
        if not x and not y:
            problems.append("ball hit is the identity")
        elif len(x) + len(y) > radius:
            problems.append(f"ball hit {(x, y)} lies outside radius {radius}")
        elif not (is_fixed(phi, x, y) and is_fixed(psi, x, y)):
            problems.append(f"ball hit {(x, y)} is not fixed by both")
    if trivial and hits:
        problems.append(f"trivial verdict, yet the ball found {len(hits)} common fixed points")
    return problems


def check_expression(
    gens: Sequence[Letters], target: Letters, expression: Sequence[int] | None, member: bool
) -> list[str]:
    """A planted member is expressed correctly; a planted non-member is rejected."""
    if not member:
        if expression is not None:
            return [f"non-member {target} was expressed as {list(expression)}"]
        return []
    if expression is None:
        return [f"planted member {target} was not found"]
    try:
        got = replay(gens, expression)
    except ValueError as exc:
        return [f"expression {list(expression)}: {exc}"]
    if got != target:
        return [f"expression {list(expression)} replays to {got}, not {target}"]
    return []


def odd_parity(w: Letters) -> bool:
    """Length parity is a homomorphism onto Z/2: a subgroup generated by
    words of even length holds no word of odd length."""
    return len(w) % 2 == 1


def parse_word(text: str, letter: str) -> Letters:
    """Letters of a rendered word such as `a1 a2^-3` (`1` is the identity)
    over the generators named `letter`; any other letter is an error."""
    text = text.strip()
    if text == "1":
        return ()
    out: list[int] = []
    for token in text.split():
        m = re.fullmatch(re.escape(letter) + r"([0-9]+)(?:\^(-?[0-9]+))?", token)
        if m is None:
            raise ValueError(f"bad token {token!r}")
        exponent = int(m.group(2) or 1)
        out.extend([int(m.group(1)) if exponent > 0 else -int(m.group(1))] * abs(exponent))
    return reduce(out)


def check_cli(
    returncode: int, stdout: str, trivial: bool, label: str, phi: Blocks, psi: Blocks
) -> list[str]:
    """Exit code and JSON verdict of `fixfnm intersect --json` against the known answer."""
    want_code = 0 if trivial else 1
    problems = []
    if returncode != want_code:
        problems.append(f"exit code {returncode}, want {want_code}")
    try:
        payload = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return problems + [f"no JSON verdict in {stdout[-200:]!r}"]
    want = "trivial" if trivial else "nontrivial"
    if payload.get("verdict") != want:
        problems.append(f"verdict {payload.get('verdict')!r}, want {want!r}")
    trace = payload.get("trace") or []
    if not trace or trace[0] != label:
        problems.append(f"trace {trace}, want it to start at {label}")
    text = payload.get("witness")
    if not trivial:
        try:
            x_text, y_text = text.strip().removeprefix("(").removesuffix(")").split(",")
            witness = (parse_word(x_text, "a"), parse_word(y_text, "b"))
        except (AttributeError, ValueError):
            return problems + [f"unreadable witness {text!r}"]
        if not any(witness):
            problems.append("witness is the identity")
        elif not (is_fixed(phi, *witness) and is_fixed(psi, *witness)):
            problems.append(f"witness {text} is not fixed by both")
    elif text is not None:
        problems.append("trivial verdict carries a witness")
    return problems
