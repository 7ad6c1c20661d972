"""Free-group homomorphisms: application, composition, file format."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixfnm import (
    Alphabet,
    FreeHom,
    ParseError,
    Word,
    identity_hom,
    inner_hom,
    parse_hom_text,
    permutation_hom,
    render_hom_text,
    trivial_hom,
    word,
)
from fixfnm.words import MAX_FILE_LETTERS
from conftest import A, B, wa, wb

A3 = Alphabet(3, "a")


def test_constructor_validation():
    with pytest.raises(ValueError):
        FreeHom(A, B, (wb("b1"),))  # one image short
    with pytest.raises(ValueError):
        FreeHom(A, B, (wa("a1"), wa("a2")))  # images in the wrong group


def test_apply_examples():
    h = FreeHom(A, B, (wb("b1 b2"), wb("b2^-1")))
    # frozen by hand: a1 a2 -> b1 b2 b2^-1 = b1
    assert h.apply(wa("a1 a2")) == wb("b1")
    assert h.apply(wa("a2 a1^-1")) == wb("b2^-1 b2^-1 b1^-1")
    assert h.apply(Word(A)) == Word(B)


def test_apply_rejects_foreign_words():
    h = identity_hom(A)
    with pytest.raises(ValueError):
        h.apply(wb("b1"))


letters = st.lists(st.sampled_from([1, 2, -1, -2]), max_size=8)


@given(letters, letters)
def test_apply_is_a_homomorphism(xs, ys):
    h = FreeHom(A, B, (wb("b1 b2"), wb("b2 b1^-1 b2")))
    u, v = word(A, xs), word(A, ys)
    assert h.apply(u * v) == h.apply(u) * h.apply(v)
    assert h.apply(u.inverse()) == h.apply(u).inverse()


def test_then_applies_left_first():
    f = FreeHom(A, B, (wb("b1"), wb("b1 b2")))
    g = FreeHom(B, A, (wa("a2"), wa("a1")))
    fg = f.then(g)
    assert fg.apply(wa("a2")) == g.apply(f.apply(wa("a2"))) == wa("a2 a1")
    with pytest.raises(ValueError):
        g.then(FreeHom(B, B, (wb("b1"), wb("b2"))))  # target A, source B


def test_identity_trivial_inner():
    assert identity_hom(A).as_permutation() == (1, 2)
    assert not identity_hom(A).is_trivial()
    assert trivial_hom(A, B).is_trivial()
    # one shared value per alphabet pair: a FreeHom is immutable
    assert trivial_hom(A, B) is trivial_hom(Alphabet(2, "a"), Alphabet(2, "b"))
    assert trivial_hom(B, A) is not trivial_hom(A, B)
    assert trivial_hom(A, B) == FreeHom(A, B, (Word(B), Word(B)))
    z = wa("a1 a2")
    conj = inner_hom(z)
    # convention: x -> z x z^-1
    assert conj.apply(wa("a1")) == z * wa("a1") * z.inverse()
    assert inner_hom(Word(A)) == identity_hom(A)


@given(letters, letters)
def test_inner_hom_fixes_conjugator_powers(zs, xs):
    z = word(A, zs)
    conj = inner_hom(z)
    assert conj.apply(z**3) == z**3
    w = word(A, xs)
    assert conj.apply(w) == w.conjugated_by(z)


def test_permutation_hom_and_detection():
    swap = permutation_hom(A, (2, 1))
    assert swap.apply(wa("a1 a2^-1")) == wa("a2 a1^-1")
    assert swap.as_permutation() == (2, 1)
    assert identity_hom(A3).as_permutation() == (1, 2, 3)
    with pytest.raises(ValueError):
        permutation_hom(A, (1, 1))
    # a repeated positive letter is not a permutation either
    assert FreeHom(A, A, (wa("a1"), wa("a1"))).as_permutation() is None

    # conjugation and basis inversions are not basis permutations
    assert inner_hom(wa("a1")).as_permutation() is None
    inv = FreeHom(A, A, (wa("a1^-1"), wa("a2")))
    assert inv.as_permutation() is None
    # cross-alphabet maps never qualify
    assert FreeHom(A, B, (wb("b1"), wb("b2"))).as_permutation() is None


def test_parse_render_round_trip():
    h = FreeHom(A, B, (wb("b1 b2^2"), Word(B)))
    assert parse_hom_text(render_hom_text(h)) == h
    text = """
    # comment and blank lines are fine, order is free
    hom 2 2 a b

    a2 -> 1
    a1 -> b1 b2 b2
    """
    assert parse_hom_text(text) == h


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "hom 2 2 a\na1 -> b1\na2 -> b1",  # short header
        "hom x 2 a b\na1 -> b1\na2 -> b1",  # non-integer rank
        "hom 2 2 a b\na1 -> b1",  # missing a2
        "hom 2 2 a b\na1 -> b1\na1 -> b2\na2 -> b1",  # duplicate
        "hom 2 2 a b\na1 a2 -> b1\na2 -> b1",  # lhs not a single generator
        "hom 2 2 a b\na1^-1 -> b1\na2 -> b1",  # inverted lhs
        "hom 2 2 a b\na1 = b1\na2 -> b1",  # no arrow
        "hom 2 2 a b\na1 -> c1\na2 -> b1",  # image over wrong letter
    ],
)
def test_parse_rejects_malformed_input(bad):
    with pytest.raises(ParseError):
        parse_hom_text(bad)


def test_parse_error_columns_count_from_the_line_start():
    # the token starts at column 10 of its line, left side included
    with pytest.raises(ParseError) as exc:
        parse_hom_text("hom 2 2 a a\na1 -> a2 a1^999999\na2 -> a2\n")
    assert (exc.value.line, exc.value.column) == (2, 10)
    assert "more than 100000 letters (line 2, column 10)" in str(exc.value)
    # indentation counts as well, on either side of the arrow
    with pytest.raises(ParseError) as exc:
        parse_hom_text("hom 2 2 a a\n  a3 -> a1\na2 -> a2\n")
    assert (exc.value.line, exc.value.column) == (2, 3)
    with pytest.raises(ParseError) as exc:
        parse_hom_text("hom 2 2 a a\na1 -> a1\n   a2 ->   a2 q\n")
    assert (exc.value.line, exc.value.column) == (3, 15)
    # a left side over the wrong letter, not one generator, or listed twice
    # names the column of its first non-blank character
    with pytest.raises(ParseError, match="letter 'b'") as exc:
        parse_hom_text("hom 2 2 a a\nb1 -> a1\na2 -> a2\n")
    assert (exc.value.line, exc.value.column) == (2, 1)
    for lhs in ("  a1 a2", "  a1^-1", "  1"):
        with pytest.raises(ParseError, match="must be a single generator") as exc:
            parse_hom_text(f"hom 2 2 a a\n{lhs} -> a1\na2 -> a2\n")
        assert (exc.value.line, exc.value.column) == (2, 3), lhs
    with pytest.raises(ParseError) as exc:
        parse_hom_text("hom 2 2 a a\na1 -> a1\n a1 -> a2\na2 -> a2\n")
    assert str(exc.value) == "generator a1 listed twice (line 3, column 2)"


def test_hom_files_are_capped_in_total_letters():
    # each word is under the word cap; with the left sides, the file is not
    text = "hom 2 2 a a\na1 -> a1^100000\na2 -> a2^{}\n"
    assert parse_hom_text(text.format(MAX_FILE_LETTERS - 100_002)).images[1] == wa(
        f"a2^{MAX_FILE_LETTERS - 100_002}"
    )
    with pytest.raises(ParseError) as exc:
        parse_hom_text(text.format(MAX_FILE_LETTERS - 100_001))
    assert (exc.value.line, exc.value.column) == (3, 7)
    assert f"file expands to more than {MAX_FILE_LETTERS} letters" in str(exc.value)


def test_trailing_comments_are_cut_and_keep_columns():
    text = "hom 2 2 b a  # relabel\nb1 -> a1 # relabel\nb2 -> a2 a1#\n"
    assert parse_hom_text(text) == FreeHom(B, A, (wa("a1"), wa("a2 a1")))
    with pytest.raises(ParseError) as exc:
        parse_hom_text("hom 2 2 b a\nb1 -> a1 q # relabel\nb2 -> a2\n")
    assert (exc.value.line, exc.value.column) == (2, 10)


def test_missing_images_name_a_few_and_count_the_rest():
    with pytest.raises(ParseError, match="^missing image for a2, a4$"):
        parse_hom_text("hom 4 2 a a\na3 -> a1\na1 -> a2\n")
    # the header rank is never walked: a billion missing generators cost nothing
    with pytest.raises(ParseError) as exc:
        parse_hom_text("hom 1000000000 2 a a\na2 -> a1\n")
    assert str(exc.value) == "missing image for a1, a3, a4, a5, a6 and 999999994 more"


def test_str_is_readable():
    h = FreeHom(A, B, (wb("b1"), wb("b2^-1")))
    assert str(h) == "[a1 -> b1, a2 -> b2^-1]"
