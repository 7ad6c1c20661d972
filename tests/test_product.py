"""Product endomorphisms: block validation, the seven shapes, file format."""

import pytest

import fixfnm.product as product_module
from fixfnm import (
    Alphabet,
    CertificateError,
    CommutationViolation,
    FreeHom,
    ParseError,
    ProductElement,
    ProductEndo,
    Root,
    TypeI,
    TypeII,
    TypeIII,
    TypeIV,
    TypeV,
    TypeVI,
    TypeVII,
    UnclassifiableEndo,
    Word,
    classify,
    curated_cases,
    enumerate_product_ball,
    exponent_of_power,
    identity_endo,
    identity_hom,
    inner_hom,
    parse_endo_text,
    parse_word,
    permutation_hom,
    render_endo_text,
    root,
    sign_normalized,
    trivial_hom,
)
from fixfnm.words import MAX_FILE_LETTERS
from conftest import (
    A,
    ALL_TAGS,
    B,
    PRIMITIVES_A,
    PRIMITIVES_B,
    RELAB_AB,
    RELAB_BA,
    pe,
    random_hom,
    random_shape_payload,
    random_word,
    rng_for,
    wa,
    wb,
)


def test_product_element_basics():
    g = pe("a1", "b2^-1")
    h = pe("a1^-1 a2", "b2")
    assert g * h == pe("a2", "1")
    assert (g * g.inverse()).is_identity()
    assert str(g) == "(a1, b2^-1)"
    assert str(ProductElement(Word(A), Word(B))) == "(1, 1)"
    with pytest.raises(ValueError):
        ProductElement(wb("b1"), wb("b1"))  # first slot wants an a-word


def test_identity_endo():
    e = identity_endo(2, 2)
    g = pe("a1 a2", "b2^3")
    assert e.apply(g) == g
    assert e.fixes(g)


def test_apply_example():
    # swap-shaped endo: (x, y) -> (relabeled y, relabeled x)
    e = TypeVII(RELAB_BA, RELAB_AB).as_endo()
    assert e.apply(pe("a1 a2", "b2")) == pe("a2", "b1 b2")
    assert not e.fixes(pe("a1", "1"))
    with pytest.raises(ValueError):
        e.apply(ProductElement(parse_word("a1", Alphabet(3, "a")), wb("b1")))


def test_commutation_violation_reported_with_location():
    # identity in the first factor forces first_from_second to centralize
    # every generator, which a nontrivial image cannot do
    with pytest.raises(CommutationViolation) as exc:
        ProductEndo(
            identity_hom(A),
            FreeHom(B, A, (Word(A), wa("a1"))),
            trivial_hom(A, B),
            identity_hom(B),
        )
    assert exc.value.a_index == 2  # a2 vs the image of b2
    assert exc.value.b_index == 2
    assert exc.value.component == "first"

    with pytest.raises(CommutationViolation) as exc:
        ProductEndo(
            trivial_hom(A, A),
            trivial_hom(B, A),
            FreeHom(A, B, (wb("b1"), wb("b1"))),
            identity_hom(B),
        )
    assert exc.value.component == "second"


# primitive roots of distinct commutation classes: conjugates, and a word
# and its cyclic rotation, are different classes
ROOT_CLASSES = ("x1", "x2", "x1 x2", "x2 x1", "x2 x1 x2^-1", "x1 x2^-1 x1 x2 x2")


def _pairwise_clash(coordinates):
    """The reference: multiply every pair, first coordinate, then rows first."""
    for component, rows, columns in coordinates:
        for i, u in enumerate(rows, start=1):
            for j, v in enumerate(columns, start=1):
                if u * v != v * u:
                    return i, j, component
    return None


def test_commutation_test_agrees_with_the_pairwise_scan():
    rng = rng_for("product-commutation-sweep")
    powers = {}  # (alphabet, root class) -> the nonzero powers drawn from

    def images(alphabet, count, classes):
        out = []
        for _ in range(count):
            if rng.random() < 0.3:
                out.append(Word(alphabet))
                continue
            cls = rng.choice(classes)
            if (alphabet, cls) not in powers:
                base = parse_word(cls.replace("x", alphabet.letter), alphabet)
                powers[alphabet, cls] = [base**k for k in (-3, -2, -1, 1, 2, 3)]
            out.append(rng.choice(powers[alphabet, cls]))
        return tuple(out)

    accepted = checked = 0  # endos accepted, block pairs that reach the check
    for _ in range(13_000):
        a = Alphabet(rng.randint(2, 5), "a")
        b = Alphabet(rng.randint(2, 5), "b")
        coordinates = []
        for component, target in (("first", a), ("second", b)):
            # one class per coordinate half of the time, so both verdicts are common
            classes = rng.sample(ROOT_CLASSES, rng.choice((1, 1, 2, 6)))
            rows = images(target, a.rank, classes)
            columns = images(target, b.rank, classes)
            coordinates.append((component, rows, columns))
        (_, ff, fs), (_, sf, ss) = coordinates
        blocks = (FreeHom(a, a, ff), FreeHom(b, a, fs), FreeHom(a, b, sf), FreeHom(b, b, ss))
        expected = _pairwise_clash(coordinates)
        checked += 1 if expected is not None and expected[2] == "first" else 2
        if expected is None:
            ProductEndo(*blocks)
            accepted += 1
            continue
        with pytest.raises(CommutationViolation) as exc:
            ProductEndo(*blocks)
        assert (exc.value.a_index, exc.value.b_index, exc.value.component) == expected
    assert checked >= 20_000
    assert 2_000 < accepted < 11_000


def test_block_shape_validation():
    with pytest.raises(ValueError):
        ProductEndo(
            identity_hom(A),
            trivial_hom(B, A),
            trivial_hom(A, B),
            identity_hom(A),  # wrong factor
        )
    with pytest.raises(ValueError):
        identity_endo(1, 2)  # rank 1 factors are out of scope


def test_type_i_exponent_matrix():
    payload = TypeI(wa("a1"), wb("b1"), (2, 0), (1, 1), (3, 0), (2, 1))
    # row one: self weight 2 gives 2-1=1, cross weight 1;
    # row two: cross weight 3, self weight 2 gives 2-1=1
    assert payload.exponent_matrix() == ((1, 1), (3, 1))

    e = payload.as_endo()
    assert e.first_from_first.apply(wa("a2")) == Word(A)
    assert e.first_from_first.apply(wa("a1")) == wa("a1^2")
    assert e.second_from_first.apply(wa("a1")) == wb("b1^3")


U = parse_word("a2 a1 a2^-1", A)  # primitive, sign-normalized, conjugated
V = parse_word("b1 b2^-1", B)


@pytest.mark.parametrize(
    "payload",
    [
        TypeI(wa("a1 a2"), wb("b1"), (1, 2), (0, 1), (1, 0), (2, 0)),
        # blocks mixing powers of the base and of its inverse with trivial
        # blocks; the first nontrivial block is a negative power
        TypeI(U, V, (-2, 0), (0, 3), (0, -1), (2, 0)),
        TypeI(U, V, (0, 1), (-1, -3), (4, 0), (0, -2)),
        TypeII(FreeHom(B, A, (wa("a1"), wa("a2"))), V, (0, -1), (-3, 2)),
        TypeIII(U, (-1, 0), (0, 2), inner_hom(wb("b1"))),
        TypeV(V, (0, -3), (1, 0), 2),
        TypeII(FreeHom(B, A, (wa("a1"), wa("a2 a1"))), wb("b2"), (1, 1), (0, 2)),
        TypeIII(wa("a2"), (2, 1), (1, 0), inner_hom(wb("b1"))),
        TypeIII(wa("a2"), (1, 2), (1, 0), inner_hom(wb("b1"))),
        TypeIV(FreeHom(B, A, (wa("a1"), wa("a2"))), inner_hom(wb("b2"))),
        TypeV(wb("b1 b2"), (1, 0), (0, 3), 2),
        TypeVI(inner_hom(wa("a1")), permutation_hom(B, (2, 1))),
        TypeVII(RELAB_BA, RELAB_AB),
    ],
)
def test_shape_round_trip(payload):
    back = classify(payload.as_endo())
    assert back == payload
    assert back.label == payload.label


def _negated(weights):
    return tuple(-w for w in weights)


# conjugated primitive bases, each the shortlex-smaller of itself and its inverse
CONJUGATED_A = parse_word("a2 a1 a2 a1^-1 a2^-1", A)
CONJUGATED_B = parse_word("b1^2 b2 b1^-2", B)
SWAP_BLOCK = FreeHom(B, A, (wa("a1"), wa("a2 a1")))


@pytest.mark.parametrize(
    "payload, expected",
    [
        (
            TypeI(U.inverse(), V, (1, -2), (0, 3), (2, 0), (0, -1)),
            TypeI(U, V, (-1, 2), (0, -3), (2, 0), (0, -1)),
        ),
        (
            TypeI(CONJUGATED_A, CONJUGATED_B.inverse(), (0, 2), (1, 0), (0, -3), (2, 1)),
            TypeI(CONJUGATED_A, CONJUGATED_B, (0, 2), (1, 0), (0, 3), (-2, -1)),
        ),
        (
            TypeII(SWAP_BLOCK, CONJUGATED_B.inverse(), (0, -1), (-3, 2)),
            TypeII(SWAP_BLOCK, CONJUGATED_B, (0, 1), (3, -2)),
        ),
        (
            TypeIII(CONJUGATED_A.inverse(), (2, 1), (1, 0), inner_hom(wb("b1"))),
            TypeIII(CONJUGATED_A, (-2, -1), (-1, 0), inner_hom(wb("b1"))),
        ),
        (
            TypeV(V.inverse(), (0, -3), (1, 0), 2),
            TypeV(V, (0, 3), (-1, 0), 2),
        ),
    ],
)
def test_inverted_bases_come_back_sign_normalized(payload, expected):
    for base in (U, V, CONJUGATED_A, CONJUGATED_B):
        assert sign_normalized(base) == base and root(base).exponent == 1
    back = classify(payload.as_endo())
    assert back == expected
    assert back.as_endo() == payload.as_endo()


def test_type_iii_subcase_labels():
    heavy = TypeIII(wa("a2"), (2, 1), (1, 0), identity_hom(B))
    assert heavy.self_weight() == 1  # a2 under weights (2, 1)
    assert heavy.label == "III.2"
    light = TypeIII(wa("a1"), (2, 1), (1, 0), identity_hom(B))
    assert light.self_weight() == 2
    assert light.label == "III.1"


def test_classify_randomized_tags():
    rng = rng_for("product-classify")
    for tag in ALL_TAGS:
        for _ in range(5):
            payload = random_shape_payload(rng, tag)
            back = classify(payload.as_endo())
            assert back.label == tag
            assert back == payload


def test_degenerate_blocks_change_the_tag():
    # zero cross weights make a type I payload read back as a diagonal
    e = TypeI(wa("a1"), wb("b1"), (2, 0), (0, 0), (0, 0), (3, 0)).as_endo()
    assert classify(e).label == "VI"
    # a type II payload with collapsed hom block reads back as type V
    e2 = TypeII(trivial_hom(B, A), wb("b1"), (1, 0), (2, 0)).as_endo()
    assert classify(e2).label == "V"
    # all-trivial blocks: VI wins the tie by the dispatch order
    zero = ProductEndo(
        trivial_hom(A, A), trivial_hom(B, A), trivial_hom(A, B), trivial_hom(B, B)
    )
    assert classify(zero).label == "VI"


def test_unclassifiable_power_first_collapsed_second():
    e = ProductEndo(
        FreeHom(A, A, (wa("a1"), wa("a1"))),
        FreeHom(B, A, (wa("a1"), Word(A))),
        trivial_hom(A, B),
        trivial_hom(B, B),
    )
    with pytest.raises(UnclassifiableEndo, match="^first coordinate is a power family fed"):
        classify(e)


def test_unclassifiable_unconstrained_first_coordinate():
    # fs vanishes, so the first coordinate need not be a power family
    e = ProductEndo(
        identity_hom(A),
        trivial_hom(B, A),
        FreeHom(A, B, (wb("b1"), wb("b1"))),
        trivial_hom(B, B),
    )
    with pytest.raises(
        UnclassifiableEndo, match="^first-coordinate blocks are not powers of a common word$"
    ):
        classify(e)


@pytest.mark.parametrize(
    "payload",
    [
        TypeV(wb("b1 b2"), (1, 0), (0, 3), 2),
        TypeII(FreeHom(B, A, (wa("a1"), wa("a2"))), wb("b2"), (0, -1), (-3, 2)),
        TypeIII(wa("a2"), (2, 1), (1, 0), inner_hom(wb("b1"))),
    ],
)
def test_missing_forced_root_is_a_certificate_error(monkeypatch, payload):
    # commutation forces a common root on these blocks; were it ever missed,
    # a plain check (not an assert, so also under python -O) must say so
    monkeypatch.setattr(product_module, "_coordinate_family", lambda rows, columns, component: None)
    with pytest.raises(CertificateError, match="commutation forces a common root"):
        classify(payload.as_endo())


# --- the power family that validation keeps, against a two-pass reference ---


def _reference_family(rows, columns):
    """A coordinate's power family read from scratch: root the first
    nontrivial image, rows first, and test every image against it."""
    images = tuple(rows) + tuple(columns)
    head = next((w for w in images if w.letters), None)
    if head is None:
        return None
    rho = sign_normalized(root(head).base)
    exps = [exponent_of_power(w, rho) for w in images]
    if None in exps:
        return None
    return rho, tuple(exps[: len(rows)]), tuple(exps[len(rows) :])


def _reference_classify(e):
    """The shape, or the opening of the UnclassifiableEndo message, computed
    in a second pass that shares nothing with validation."""
    ff, fs, sf, ss = e.first_from_first, e.first_from_second, e.second_from_first, e.second_from_second
    first = _reference_family(ff.images, fs.images)
    second = _reference_family(sf.images, ss.images)
    if sf.is_trivial() and fs.is_trivial():
        return TypeVI(ff, ss)
    if ff.is_trivial():
        if ss.is_trivial():
            return TypeVII(fs, sf)
        if sf.is_trivial():
            return TypeIV(fs, ss)
        if fs.is_trivial():
            return TypeV(*second, e.first_alphabet.rank)
        return TypeII(fs, *second)
    if sf.is_trivial():
        if ss.is_trivial():
            return "first coordinate is a power family fed"
        return TypeIII(*first, ss)
    if first is None:
        return "first-coordinate blocks are not powers"
    if second is None:
        return "second-coordinate blocks are not powers"
    return TypeI(first[0], second[0], *first[1:], *second[1:])


def _random_block(rng, source, target, zero, base):
    """The trivial hom, powers of base (at least one nontrivial), or any hom."""
    if zero:
        return trivial_hom(source, target)
    if base is None:
        return random_hom(rng, source, target)
    exps = [rng.choice((-2, -1, 0, 0, 1, 3)) for _ in range(source.rank)]
    if not any(exps):
        exps[rng.randrange(source.rank)] = rng.choice((-1, 2))
    return FreeHom(source, target, tuple(base**k for k in exps))


def _random_coordinate(rng, a, b, target, rows_zero, columns_zero):
    """Blocks (rows from a, columns from b) of one coordinate, valid together:
    powers of one primitive base when both are nontrivial, and half of the
    time when one of them is."""
    base = None
    if not (rows_zero or columns_zero) or rng.random() < 0.5:
        primitives = PRIMITIVES_A if target.letter == "a" else PRIMITIVES_B
        base = parse_word(rng.choice(primitives), target)
        base = base.conjugated_by(random_word(rng, target, rng.randint(0, 2)))
        if rng.random() < 0.5:
            base = base.inverse()
    return (
        _random_block(rng, a, target, rows_zero, base),
        _random_block(rng, b, target, columns_zero, base),
    )


def _endos_over_all_zero_patterns():
    rng = rng_for("product-kept-family")
    for pattern in range(16):
        zff, zfs, zsf, zss = ((pattern >> bit) & 1 == 1 for bit in range(4))
        for _ in range(25):
            a = Alphabet(rng.randint(2, 3), "a")
            b = Alphabet(rng.randint(2, 3), "b")
            ff, fs = _random_coordinate(rng, a, b, a, zff, zfs)
            sf, ss = _random_coordinate(rng, a, b, b, zsf, zss)
            yield pattern, ProductEndo(ff, fs, sf, ss)
    for case in curated_cases():
        for e in (case.phi, case.psi):
            yield None, e


def test_kept_families_match_a_two_pass_classify(monkeypatch):
    roots = []
    real_root = product_module.root
    monkeypatch.setattr(product_module, "root", lambda w: roots.append(w) or real_root(w))
    patterns = set()
    for pattern, e in _endos_over_all_zero_patterns():
        patterns.add(pattern)
        coordinates = (
            (e._first_family, e.first_from_first, e.first_from_second),
            (e._second_family, e.second_from_first, e.second_from_second),
        )
        for kept, rows, columns in coordinates:
            if not (rows.is_trivial() or columns.is_trivial()):
                assert kept is not None  # commutation forces a family here
            if kept is None:
                continue
            rho, row_exps, column_exps = kept
            assert sign_normalized(rho) == rho and real_root(rho) == Root(rho, 1)
            for images, exps in ((rows.images, row_exps), (columns.images, column_exps)):
                assert [rho**k for k in exps] == list(images)
        expected = _reference_classify(e)
        roots.clear()
        if isinstance(expected, str):
            with pytest.raises(UnclassifiableEndo, match=f"^{expected}"):
                classify(e)
            continue
        assert classify(e) == expected
        if expected.label != "I":
            assert not roots, expected.label  # classify read the kept family
    assert patterns == set(range(16)) | {None}


def test_parse_render_round_trip():
    e = TypeVII(RELAB_BA, RELAB_AB).as_endo()
    assert parse_endo_text(render_endo_text(e)) == e
    text = """
    # a diagonal example
    endo 2 2
    a1 -> ( a1 a2 , 1 )
    a2 -> ( a2 , 1 )
    b1 -> ( 1 , b1 )
    b2 -> ( 1 , b2 b1 )
    """
    e2 = parse_endo_text(text)
    assert classify(e2).label == "VI"
    assert parse_endo_text(render_endo_text(e2)) == e2


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "endo 2\na1 -> ( a1 , 1 )",
        "endo 1 2\n",
        "endo x 2\n",
        "endo 2 2\na1 -> ( a1 , 1 )",  # missing images
        "endo 2 2\na1 -> a1\na2 -> ( a2 , 1 )\nb1 -> ( 1 , b1 )\nb2 -> ( 1 , b2 )",
        "endo 2 2\na1 -> ( a1 )\na2 -> ( a2 , 1 )\nb1 -> ( 1 , b1 )\nb2 -> ( 1 , b2 )",
        "endo 2 2\na1 -> ( a1 , 1 )\na1 -> ( a2 , 1 )\nb1 -> ( 1 , b1 )\nb2 -> ( 1 , b2 )",
        "endo 2 2\nc1 -> ( a1 , 1 )",
        "endo 2 2\na3 -> ( a1 , 1 )",
    ],
)
def test_parse_rejects_malformed_input(bad):
    with pytest.raises(ParseError):
        parse_endo_text(bad)


def test_parse_error_columns_count_from_the_line_start():
    # a bad token in the second word of an image, on an indented line
    text = (
        "endo 2 2\n"
        "a1 -> ( a1 , 1 )\n"
        "   a2 ->  ( a2 a1 ,b2 b1 b7 )\n"
        "b1 -> ( 1 , b1 )\n"
        "b2 -> ( 1 , b2 )\n"
    )
    line = text.splitlines()[2]
    with pytest.raises(ParseError) as exc:
        parse_endo_text(text)
    assert (exc.value.line, exc.value.column) == (3, line.index("b7") + 1)
    assert exc.value.column == 26
    # the first word and the left side count from the line start too
    with pytest.raises(ParseError) as exc:
        parse_endo_text(text.replace("a2 a1 ,", "a2 x1 ,"))
    assert exc.value.column == line.index("a1 ,") + 1
    with pytest.raises(ParseError) as exc:
        parse_endo_text(text.replace("   a2 ->", "   a9 ->"))
    assert exc.value.column == 4
    # a left side of neither factor is read as a token of the first
    with pytest.raises(ParseError, match="bad token 'c1'") as exc:
        parse_endo_text(text.replace("   a2 ->", "   c1 ->"))
    assert (exc.value.line, exc.value.column) == (3, 4)
    with pytest.raises(ParseError, match="must be a single generator") as exc:
        parse_endo_text(text.replace("   a2 ->", "   a2 a1 ->"))
    assert (exc.value.line, exc.value.column) == (3, 4)
    with pytest.raises(ParseError) as exc:
        parse_endo_text(text.replace(" b7", "").replace("   a2 ->", "   b1 ->"))
    assert str(exc.value) == "generator b1 listed twice (line 4, column 1)"


def test_trailing_comments_are_cut_and_keep_columns():
    text = (
        "endo 2 2  # two factors of rank 2\n"
        "a1 -> ( 1 , b1 )  # swap\n"
        "a2 -> ( 1 , b2 )#\n"
        "b1 -> ( a1 , 1 ) # ( a2 , b1 ) is not read\n"
        "b2 -> ( a2 , 1 )\n"
    )
    assert parse_endo_text(text) == TypeVII(RELAB_BA, RELAB_AB).as_endo()
    # a bad token before the comment keeps the column it has on the raw line
    bad = text.replace("( 1 , b1 )  # swap", "( 1 , b1 b7 )  # swap")
    with pytest.raises(ParseError) as exc:
        parse_endo_text(bad)
    line = bad.splitlines()[1]
    assert (exc.value.line, exc.value.column) == (2, line.index("b7") + 1)


def test_missing_images_name_a_few_and_count_the_rest():
    with pytest.raises(ParseError, match="^missing image for a2, b1, b3$"):
        parse_endo_text("endo 2 3\na1 -> ( a1 , 1 )\nb2 -> ( 1 , b2 )\n")
    with pytest.raises(ParseError) as exc:
        parse_endo_text("endo 3 1000000000\na1 -> ( a1 , 1 )\nb1 -> ( 1 , b1 )\n")
    assert str(exc.value) == "missing image for a2, a3, b2, b3, b4 and 999999996 more"


def test_endo_files_are_capped_in_total_letters():
    # the images reach the cap on line 3; the left side of line 4 crosses it
    half = MAX_FILE_LETTERS // 2
    text = (
        "endo 2 2\n"
        f"a1 -> ( a1^{half - 1} , 1 )\n"
        f"a2 -> ( a2^{half - 2} , b1 )\n"
        "b1 -> ( 1 , b1 )\n"
        "b2 -> ( 1 , b2 )\n"
    )
    with pytest.raises(ParseError) as exc:
        parse_endo_text(text)
    assert (exc.value.line, exc.value.column) == (4, 1)
    assert f"file expands to more than {MAX_FILE_LETTERS} letters" in str(exc.value)


def test_parse_surfaces_commutation_violations():
    text = (
        "endo 2 2\n"
        "a1 -> ( a1 , 1 )\n"
        "a2 -> ( a2 , 1 )\n"
        "b1 -> ( a1 , b1 )\n"
        "b2 -> ( 1 , b2 )\n"
    )
    with pytest.raises(CommutationViolation):
        parse_endo_text(text)


def test_fixes_matches_apply_on_curated_endos():
    endos = {e for case in curated_cases() for e in (case.phi, case.psi)}
    ball = list(enumerate_product_ball(A, B, 4))
    assert len(ball) == 865
    for e in endos:
        for g in ball:
            assert e.fixes(g) == (e.apply(g) == g), (e, g)
    foreign = ProductElement(Word(A), Word(Alphabet(3, "b")))
    with pytest.raises(ValueError, match="does not belong"):
        identity_endo(2, 2).fixes(foreign)
    with pytest.raises(ValueError, match="does not belong"):
        identity_endo(2, 2).apply(foreign)
