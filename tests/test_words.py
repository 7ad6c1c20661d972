import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from fixfnm import (
    Alphabet,
    IntLattice2,
    ParseError,
    Word,
    ball_size,
    cyclic_reduce,
    enumerate_ball,
    exponent_of_power,
    generator,
    parse_word,
    render_word,
    root,
    sign_normalized,
    solve_power_equation,
    weighted_sum,
    word,
)
from fixfnm.words import MAX_WORD_LETTERS, ball_products
from conftest import A, wa

a1, a2 = generator(A, 1), generator(A, 2)


letters = st.lists(
    st.integers(-2, 2).filter(lambda x: x != 0), min_size=0, max_size=8
)


def test_reduction_and_identity():
    assert word(A, [1, -1]).is_identity()
    assert word(A, [1, 2, -2, -1]).is_identity()
    assert word(A, [1, 2, -2, 1]).letters == (1, 1)
    assert len(wa("a1 a1 a2")) == 3


def test_invalid_letters_rejected():
    with pytest.raises(ValueError):
        word(A, [3])
    with pytest.raises(ValueError):
        word(A, [0])
    with pytest.raises(ValueError):
        Word(A, (1, -1))  # not freely reduced


@given(letters, letters)
def test_group_laws(xs, ys):
    u, v = word(A, xs), word(A, ys)
    assert (u * v) * v.inverse() == u
    assert u * u.inverse() == Word(A)
    assert (u * v).inverse() == v.inverse() * u.inverse()


@given(letters, st.integers(-4, 4))
def test_power_matches_repeated_product(xs, k):
    u = word(A, xs)
    expected = Word(A)
    step = u if k >= 0 else u.inverse()
    for _ in range(abs(k)):
        expected = expected * step
    assert u**k == expected


def test_cyclic_reduce():
    w = wa("a2 a1 a2 a2^-1")  # conjugate of a1 a2... check directly
    core, conj = cyclic_reduce(w)
    assert conj * core * conj.inverse() == w
    assert core.is_identity() or core.letters[0] != -core.letters[-1]
    assert cyclic_reduce(Word(A))[0].is_identity()


@given(letters)
def test_cyclic_reduce_conjugacy(xs):
    w = word(A, xs)
    core, conj = cyclic_reduce(w)
    assert conj * core * conj.inverse() == w


def test_root_examples():
    from fixfnm import Root

    # powers of a generator
    assert root(a1**6) == Root(a1, 6)
    assert root(Word(A)).exponent == 0
    # conjugates: root((a1 a2 a1^-1)^3) has base a1 a2 a1^-1
    w = wa("a1 a2 a1^-1")
    r = root(w**3)
    assert r.base == w and r.exponent == 3
    # inverse powers keep a positive exponent with an inverted base
    r2 = root(a1**-4)
    assert r2.exponent == 4 and r2.base == a1.inverse()


@given(letters, st.integers(1, 4))
def test_root_reconstructs(xs, k):
    w = word(A, xs)
    r = root(w**k)
    assert r.base ** r.exponent == w**k
    if not w.is_identity():
        # primitive roots are unique, so exponents multiply exactly
        assert r.exponent == k * root(w).exponent


def _reference_root(w):
    """Divisor by divisor: the shortest prefix of the core whose power spells it."""
    from fixfnm import Root

    if w.is_identity():
        return Root(w, 0)
    core, conj = cyclic_reduce(w)
    n = len(core)
    for p in range(1, n + 1):
        seed = core.letters[:p]
        if n % p == 0 and seed * (n // p) == core.letters:
            return Root(Word(w.alphabet, seed).conjugated_by(conj), n // p)


def _is_proper_power(w):
    core = cyclic_reduce(w)[0].letters
    n = len(core)
    return any(n % p == 0 and core[:p] * (n // p) == core for p in range(1, n))


@given(letters, letters, st.integers(1, 5), st.booleans())
def test_root_matches_the_divisor_by_divisor_reference(cs, us, k, invert):
    c, u = word(A, cs), word(A, us)
    w = (u**k).conjugated_by(c)
    if invert:
        w = w.inverse()
    r = root(w)
    assert r == _reference_root(w)
    assert Word(A, r.base.letters) == r.base  # validated: reduced, in range
    assert r.base**r.exponent == w
    if not w.is_identity():
        assert not r.base.is_identity() and not _is_proper_power(r.base)


def test_exponent_of_power():
    u = wa("a1 a2")
    assert exponent_of_power(u**5, u) == 5
    assert exponent_of_power(u**-3, u) == -3
    assert exponent_of_power(Word(A), u) == 0
    assert exponent_of_power(a1, u) is None
    assert exponent_of_power(a1 * a2 * a1, u) is None
    assert exponent_of_power(u, Word(A)) is None


def _power_by_root(x, u):
    """The k with x == u**k read from primitive roots, or None: roots are
    unique, so x is a power of u iff their roots agree up to inversion."""
    if x.is_identity():
        return 0
    if u.is_identity():
        return None
    rx, ru = root(x), root(u)
    if rx.base == ru.base:
        m = rx.exponent
    elif rx.base == ru.base.inverse():
        m = -rx.exponent
    else:
        return None
    return m // ru.exponent if m % ru.exponent == 0 else None


def _near_misses(rng, target):
    """Reduced words that share target's length with its first and last
    letters, its length and first letter only, or its letters but one more."""
    ls = list(target.letters)
    alphabet = target.alphabet
    letters = [x for i in range(1, alphabet.rank + 1) for x in (i, -i)]
    out = []
    for lo, hi in ((1, len(ls) - 1), (len(ls) - 1, len(ls))):
        if lo >= hi:
            continue
        i = rng.randrange(lo, hi)
        neighbours = {ls[i], -ls[i - 1]} | ({-ls[i + 1]} if i + 1 < len(ls) else set())
        changed = ls[:i] + [rng.choice([x for x in letters if x not in neighbours])] + ls[i + 1:]
        out.append(Word(alphabet, tuple(changed)))
    out.append(word(alphabet, ls + [rng.choice(letters)]))
    return out


def test_power_test_matches_root_based_powers():
    u = wa("a2 a1 a2^-1")  # primitive
    assert exponent_of_power(u**4, u) == 4
    assert exponent_of_power(u**-2, u) == -2
    assert exponent_of_power(u**3, u.inverse()) == -3
    assert exponent_of_power(a1 * a2, u) is None
    # w = 1 is u**0 for every u, the identity included
    assert exponent_of_power(Word(A), u) == 0
    assert exponent_of_power(Word(A), Word(A)) == 0

    A3 = Alphabet(3, "a")
    rng = random.Random("fixfnm:power-test")
    seen = {"conjugated": 0, "negative": 0, "near_miss": 0, "identity": 0}

    def rand(n):
        return word(A3, [rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(n)])

    for _ in range(3000):
        u = rand(rng.randint(1, 4)) ** rng.randint(1, 3)
        c = rand(rng.randint(1, 3))
        u = u.conjugated_by(c)
        if u.is_identity():
            continue
        if cyclic_reduce(u)[1].letters:
            seen["conjugated"] += 1
        k = rng.randint(-6, 6)
        for x in (root(u).base ** k, u**k, rand(rng.randint(0, 9))):
            assert exponent_of_power(x, u) == _power_by_root(x, u), (x, u)
            seen["negative"] += (exponent_of_power(x, u) or 0) < 0
            seen["identity"] += x.is_identity()
        if k:
            for x in _near_misses(rng, u**k):
                assert exponent_of_power(x, u) == _power_by_root(x, u), (x, u)
                seen["near_miss"] += _power_by_root(x, u) is None
    assert min(seen.values()) > 100, seen


def _shortlex_key(w):
    """Length first, then a1 < a1^-1 < a2 < a2^-1 < ... letter by letter."""
    return (len(w.letters), tuple((abs(x), 0 if x > 0 else 1) for x in w.letters))


def test_sign_normalized_is_the_shortlex_smaller():
    rng = random.Random("fixfnm:sign-normalized")
    ball = list(enumerate_ball(A, 5))
    longer = [word(A, [rng.choice((1, -1, 2, -2)) for _ in range(20)]) for _ in range(300)]
    for w in ball + longer + [v * v.inverse().conjugated_by(a1) for v in ball[:50]]:
        smaller = min(w, w.inverse(), key=_shortlex_key)
        assert sign_normalized(w) == smaller, w
        assert sign_normalized(w.inverse()) == smaller, w


def test_solve_power_equation_cases():
    u = wa("a1 a2")
    # v = u, w = u^2: v^m = w^k iff m = 2k
    lat = solve_power_equation(u, u**2)
    assert lat.basis == ((2, 1),)
    assert solve_power_equation(Word(A), Word(A)).basis == IntLattice2.full().basis
    assert solve_power_equation(Word(A), a1).basis == ((1, 0),)
    assert solve_power_equation(a1, Word(A)).basis == ((0, 1),)
    assert solve_power_equation(a1, a2).basis == ()
    # inverted roots flip a sign: v = u, w = u^-3: v^m = w^k iff m = -3k
    lat2 = solve_power_equation(u, u**-3)
    assert lat2.contains((3, -1)) and not lat2.contains((3, 1))


@given(letters, st.integers(-3, 3), st.integers(-3, 3))
def test_solve_power_equation_sound(xs, m, k):
    v = word(A, xs)
    w = v**3
    lat = solve_power_equation(v, w)
    assert lat.contains((m, k)) == (v**m == w**k)


@given(letters, letters)
def test_solve_power_equation_is_zero_iff_nontrivial_words_do_not_commute(xs, ys):
    v, w = word(A, xs), word(A, ys)
    zero = solve_power_equation(v, w).basis == ()
    assert zero == (not v.is_identity() and not w.is_identity() and v * w != w * v)

def test_weighted_sum():
    # signed letter count against the weight vector: 2 + 2 - 1
    assert weighted_sum(wa("a1 a1 a2"), (2, -1)) == 3
    assert weighted_sum(wa("a1 a1^-1"), (5, 7)) == 0
    assert weighted_sum(Word(A), (1, 1)) == 0


@given(letters, letters)
def test_weighted_sum_is_homomorphism(xs, ys):
    u, v = word(A, xs), word(A, ys)
    weights = (2, -3)
    assert weighted_sum(u * v, weights) == weighted_sum(u, weights) + weighted_sum(
        v, weights
    )


def test_ball_enumeration_counts():
    # rank 2: 1, then +4, then +12
    assert ball_size(2, 0) == 1
    assert ball_size(2, 1) == 5
    assert ball_size(2, 2) == 17
    seen = list(enumerate_ball(A, 2))
    assert len(seen) == 17
    assert len(set(seen)) == 17
    assert seen[0].is_identity()
    lengths = [len(w) for w in seen]
    assert lengths == sorted(lengths)


def _ball_by_concatenation(rank, radius):
    """Reduced letter tuples of length <= radius, layer by layer, 1 < -1 < 2 < ..."""
    order = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    layer, out = [()], [()]
    for _ in range(radius):
        layer = [w + (x,) for w in layer for x in order if not (w and w[-1] == -x)]
        out += layer
    return out


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_ball_matches_plain_concatenation(rank):
    alphabet = Alphabet(rank, "a")
    for radius in range(6):
        ball = [w.letters for w in enumerate_ball(alphabet, radius)]
        assert ball == _ball_by_concatenation(rank, radius)
        assert len(ball) == ball_size(rank, radius)


def test_ball_walk_keeps_no_last_layer():
    gens = Alphabet(3, "a").generators()
    tracemalloc.start()
    try:
        layer = [w for w in ball_products(gens, 6) if len(w) == 6]  # 6 * 5^5 words
        layer_bytes = tracemalloc.get_traced_memory()[0]
        del layer
        tracemalloc.reset_peak()
        floor = tracemalloc.get_traced_memory()[0]
        for _ in ball_products(gens, 6):
            pass
        peak = tracemalloc.get_traced_memory()[1] - floor
    finally:
        tracemalloc.stop()
    # the walk holds the radius-5 layer, a fifth as many words, not the radius-6 one
    assert peak < layer_bytes / 2, (peak, layer_bytes)


def test_parse_render_round_trip():
    for text in ("a1", "a1^-2 a2", "a2^3", "1"):
        w = parse_word(text, A)
        assert parse_word(render_word(w), A) == w
    assert parse_word("a1 a1 a1", A) == parse_word("a1^3", A)
    assert render_word(wa("a1 a1 a1 a2^-1")) == "a1^3 a2^-1"


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_word("b1", A)
    with pytest.raises(ParseError):
        parse_word("a3", A)
    with pytest.raises(ParseError):
        parse_word("a1 1", A)
    with pytest.raises(ParseError):
        parse_word("", A)
    with pytest.raises(ParseError):
        parse_word("a1^", A)


def test_parse_caps_the_letter_count():
    # refused before expansion, at the token that crosses the cap
    with pytest.raises(ParseError) as exc:
        parse_word("a2 a1^99999999999", A)
    assert exc.value.column == 4
    assert "100000 letters" in str(exc.value)
    with pytest.raises(ParseError) as exc:
        parse_word("a1^-" + "9" * 5000, A, line=3)
    assert (exc.value.line, exc.value.column) == (3, 1)

    # many medium tokens add up; the sum is checked, not each token
    medium = " ".join(["a1^30000 a2^-3000"] * 4)
    with pytest.raises(ParseError) as exc:
        parse_word(medium, A)
    assert exc.value.column == medium.rindex("a1^30000") + 1
    assert len(parse_word(" ".join(["a1^30000 a2^-3000"] * 3), A)) == 99_000
    assert len(parse_word("a1^60000 a2^40000", A)) == MAX_WORD_LETTERS
    # long literals are measured by their digits, never converted whole
    assert parse_word("a" + "0" * 5000 + "1^0003", A) == parse_word("a1^3", A)
    with pytest.raises(ParseError):
        parse_word("a" + "9" * 5000, A)


@given(letters)
def test_parse_inverts_render(xs):
    w = word(A, xs)
    assert parse_word(render_word(w), A) == w
