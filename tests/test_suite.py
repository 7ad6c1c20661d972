"""Presentations, the Mihailova embedding, the equalizer reductions, and the
curated case files."""

from functools import reduce
from itertools import chain, islice
from operator import mul

import pytest

from fixfnm import (
    Alphabet,
    BallSpec,
    FreeHom,
    ParseError,
    Presentation,
    ProductElement,
    Word,
    ball_size,
    bounded_equalizer,
    common_fixed_points,
    curated_cases,
    embed_equalizer,
    enumerate_ball,
    fix_product,
    mihailova_generators,
    mihailova_instance,
    parse_endo_text,
    parse_hom_text,
    parse_presentation_text,
    parse_word,
    reduce_pair_to_equalizer,
    render_endo_text,
    render_hom_text,
    suite,
)
from fixfnm.suite import CURATED, ball_products, curated_manifest
from conftest import A, B, wa, wb

X = Alphabet(2, "x")


def wx(text):
    return parse_word(text, X)


def test_presentation_parsing():
    pres = parse_presentation_text("x1 x2 | x1^2, x1 x2 x1^-1 x2^-1")
    assert pres.alphabet == X
    assert pres.relators == (wx("x1^2"), wx("x1 x2 x1^-1 x2^-1"))
    assert str(pres) == "x1 x2 | x1^2, x1 x2 x1^-1 x2^-1"

    free = parse_presentation_text("x1 x2 |")
    assert free.relators == ()

    commented = parse_presentation_text("# torus\nx1 x2 |\n x1 x2 x1^-1 x2^-1")
    assert len(commented.relators) == 1

    # a relator may run across a line break, and a comment may end a line
    spread = parse_presentation_text("x1 x2 | x1^2, x1 # first half\n  x2 x1^-1 x2^-1\n")
    assert spread.relators == (wx("x1^2"), wx("x1 x2 x1^-1 x2^-1"))


@pytest.mark.parametrize(
    "text, line, column",
    [
        ("x1 x2 |\n  x1^2, x2 q", 2, 12),
        ("# c\nx1 x2 | x1^2, # note\n x2\n x1 , x2 | x1", 4, 10),
        ("x1 x3 |", 1, 4),
        ("x1 x2 | x1 x2\n  x1 1", 2, 6),
        ("x1 x2 | x1, x2\n\n   x1^999999", 3, 4),
    ],
)
def test_presentation_parse_errors_name_line_and_column(text, line, column):
    with pytest.raises(ParseError) as exc:
        parse_presentation_text(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value).endswith(f"(line {line}, column {column})")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "| x1^2",
        "x2 x1 | x1",
        "x1 y2 | x1",
        "x1 x2 | x1 | x2",
        "x1 x2 | x3",
    ],
)
def test_presentation_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_presentation_text(bad)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(A, ())  # wrong letter
    with pytest.raises(ValueError):
        Presentation(X, (wa("a1"),))


def test_mihailova_generators():
    pres = parse_presentation_text("x1 x2 | x1^2")
    gens = mihailova_generators(pres)
    assert gens == (
        ProductElement(wa("a1"), wb("b1")),
        ProductElement(wa("a2"), wb("b2")),
        ProductElement(Word(A), wb("b1^2")),
    )


def test_mihailova_instance_with_torsion():
    # x1 has order 2 in the presented group, so (1, b1^2) is a hit
    pres = parse_presentation_text("x1 x2 | x1^2")
    inst = mihailova_instance(pres, wx("x1"))
    assert inst.core == wb("b1")
    assert inst.power == 1
    fix = fix_product(inst.endo)
    assert fix.contains(ProductElement(Word(A), wb("b1^5")))
    assert not fix.contains(ProductElement(wa("a1"), Word(B)))

    hit = inst.search_witness(budget=4)
    assert hit is not None
    assert hit.first.is_identity()
    assert hit.second == wb("b1^2")
    assert inst.endo.fixes(hit)


def test_mihailova_instance_without_torsion():
    # in the free group nothing dies, so the bounded hunt comes up empty
    pres = parse_presentation_text("x1 x2 |")
    inst = mihailova_instance(pres, wx("x1"))
    assert inst.search_witness(budget=4) is None


def test_ball_products_match_products_from_scratch():
    # each product extends its prefix's by one factor; the order and the
    # values are those of multiplying every expression out on its own
    pres = parse_presentation_text("x1 x2 | x1^2 x2^-1 x1 x2")
    gens = mihailova_generators(pres)
    assert len(gens) == 3
    helper = Alphabet(3, "x")
    expressions = list(islice(enumerate_ball(helper, 8), 1, 2001))
    expected = [
        reduce(mul, (gens[s - 1] if s > 0 else gens[-s - 1].inverse() for s in e.letters))
        for e in expressions
    ]
    assert list(islice(ball_products(gens, 8), 2000)) == expected
    assert len(list(ball_products(gens, 2))) == ball_size(3, 2) - 1
    assert list(ball_products(gens, 0)) == []


def test_mihailova_instance_takes_the_root():
    pres = parse_presentation_text("x1 x2 | x1^2")
    inst = mihailova_instance(pres, wx("x1^4"))
    assert inst.core == wb("b1")
    assert inst.power == 4


def test_mihailova_instance_guards():
    pres = parse_presentation_text("x1 x2 | x1^2")
    with pytest.raises(ValueError):
        mihailova_instance(pres, Word(X))
    with pytest.raises(ValueError):
        mihailova_instance(pres, wa("a1"))
    with pytest.raises(ValueError):
        thin = parse_presentation_text("x1 |")
        mihailova_instance(thin, parse_word("x1", thin.alphabet))


def test_embed_equalizer_round_trip():
    f = FreeHom(B, A, (wa("a1"), wa("a2")))
    g = FreeHom(B, A, (wa("a1"), wa("a2 a1")))
    phi, psi = embed_equalizer(f, g)

    # intersection members are (f(y), y) over the equalizer of f and g
    spec = BallSpec(4)
    common = common_fixed_points(phi, psi, spec)
    eq = bounded_equalizer(f, g, BallSpec(2))
    assert eq  # b1 and its powers agree
    for y in eq:
        assert ProductElement(f.apply(y), y) in common
    for element in common:
        assert f.apply(element.second) == element.first
        assert g.apply(element.second) == element.first

    with pytest.raises(ValueError):
        embed_equalizer(f, FreeHom(B, A, (Word(A), Word(A))))  # trivial map
    with pytest.raises(ValueError):
        embed_equalizer(FreeHom(A, B, (wb("b1"), wb("b2"))), FreeHom(A, B, (wb("b1"), wb("b2"))))


def test_reduce_pair_to_equalizer():
    f = FreeHom(B, A, (wa("a1"), wa("a2")))
    g = FreeHom(B, A, (wa("a1"), wa("a2 a1")))
    phi, psi = embed_equalizer(f, g)
    red = reduce_pair_to_equalizer(phi, psi)
    # constraint blocks are identities, so the domain is the whole b-factor
    assert red.domain.is_whole_group()
    assert red.basis == (wb("b1"), wb("b2"))

    # agreement points of the reduced pair map onto intersection members
    abstract_hits = bounded_equalizer(red.first, red.second, BallSpec(3))
    common = {str(e) for e in common_fixed_points(phi, psi, BallSpec(6))}
    for expression in abstract_hits:
        y = red.substitute(expression)
        element = ProductElement(red.first.apply(expression), y)
        assert phi.fixes(element) and psi.fixes(element)
        if len(element.first.letters) + len(element.second.letters) <= 6:
            assert str(element) in common

    # non-IV inputs are rejected
    from fixfnm import identity_endo

    with pytest.raises(ValueError):
        reduce_pair_to_equalizer(identity_endo(2, 2), psi)


def test_curated_files_are_named_and_canonical():
    named = set()
    for _, _, phi, psi, pairs, _ in curated_manifest():
        named.update((phi, psi, *chain(*pairs)))
    # every name in the manifest resolves, and every file is named
    assert named == set(CURATED.iterdir()) - {CURATED / "cases"}
    formats = {
        ".endo": (parse_endo_text, render_endo_text),
        ".hom": (parse_hom_text, render_hom_text),
    }
    for path in CURATED.iterdir():
        if path.suffix in formats:
            parse, render = formats[path.suffix]
            text = path.read_text()
            kept = [line for line in text.splitlines() if not line.lstrip().startswith("#")]
            assert render(parse(text)).splitlines() == kept, path.name


def test_bad_manifest_line_names_its_line(tmp_path, monkeypatch):
    (tmp_path / "cases").write_text("# a comment\n1.1 maybe diag.endo swap.endo | a name\n")
    monkeypatch.setattr(suite, "CURATED", tmp_path)
    with pytest.raises(ParseError, match=r"bad curated case .*\(line 2\)"):
        curated_cases()
