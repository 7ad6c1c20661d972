import tracemalloc

import pytest
from hypothesis import given, strategies as st

from fixfnm import (
    Alphabet,
    IntLattice2,
    ParseError,
    Word,
    ball_size,
    commute,
    cyclic_reduce,
    enumerate_ball,
    exponent_of_power,
    generator,
    parse_word,
    render_word,
    root,
    solve_power_equation,
    weighted_sum,
    word,
)
from fixfnm.words import MAX_WORD_LETTERS, ball_products

A = Alphabet(2, "a")
a1, a2 = generator(A, 1), generator(A, 2)


def wparse(text):
    return parse_word(text, A)


letters = st.lists(
    st.integers(-2, 2).filter(lambda x: x != 0), min_size=0, max_size=8
)


def test_reduction_and_identity():
    assert word(A, [1, -1]).is_identity()
    assert word(A, [1, 2, -2, -1]).is_identity()
    assert word(A, [1, 2, -2, 1]).letters == (1, 1)
    assert len(wparse("a1 a1 a2")) == 3


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
    w = wparse("a2 a1 a2 a2^-1")  # conjugate of a1 a2... check directly
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
    w = wparse("a1 a2 a1^-1")
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
    u = wparse("a1 a2")
    assert exponent_of_power(u**5, u) == 5
    assert exponent_of_power(u**-3, u) == -3
    assert exponent_of_power(Word(A), u) == 0
    assert exponent_of_power(a1, u) is None
    assert exponent_of_power(a1 * a2 * a1, u) is None
    assert exponent_of_power(u, Word(A)) is None


def test_root_power_of():
    u = wparse("a2 a1 a2^-1")  # primitive
    assert root(u**4).power_of(u) == 4
    assert root(u**-2).power_of(u) == -2
    assert root(u**3).power_of(u.inverse()) == -3
    assert root(a1 * a2).power_of(u) is None

def test_commute_iff_common_root():
    u = wparse("a1 a2")
    assert commute(u**2, u**-3)
    assert not commute(a1, a2)
    assert commute(Word(A), a1)


def test_solve_power_equation_cases():
    u = wparse("a1 a2")
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
    assert zero == (not v.is_identity() and not w.is_identity() and not commute(v, w))

def test_weighted_sum():
    # signed letter count against the weight vector: 2 + 2 - 1
    assert weighted_sum(wparse("a1 a1 a2"), (2, -1)) == 3
    assert weighted_sum(wparse("a1 a1^-1"), (5, 7)) == 0
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
    assert render_word(wparse("a1 a1 a1 a2^-1")) == "a1^3 a2^-1"


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
