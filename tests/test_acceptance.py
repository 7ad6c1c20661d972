"""Acceptance gate: eight end-to-end checks with one printed line each.

Every check accumulates problems instead of stopping at the first, prints
its PASS/FAIL line straight to the terminal (bypassing capture), and only
then asserts. Randomness is seeded, so failures reproduce.
"""

import time

from fixfnm import (
    Alphabet,
    BallSpec,
    CommutationViolation,
    FreeHom,
    IntLattice2,
    ProductElement,
    ProductEndo,
    TypeIV,
    Word,
    bounded_equalizer,
    classify,
    common_fixed_points,
    congruence_subgroup,
    curated_cases,
    decide,
    enumerate_ball,
    enumerate_product_ball,
    exponent_of_power,
    express_in_generators,
    fix_product,
    from_generators,
    identity_hom,
    inner_hom,
    kernel_basis,
    mihailova_instance,
    parse_presentation_text,
    parse_word,
    reduce_pair_to_equalizer,
    weighted_sum,
    whole_group,
)
from conftest import (
    A,
    ALL_TAGS,
    B,
    RELAB_BA,
    random_hom,
    random_shape_endo,
    random_shape_payload,
    random_word,
    rng_for,
    supported_component,
)

ALL_LABELS = {f"{family}.{branch}" for family in (1, 2) for branch in range(1, 9)}


def _report(capsys, number, name, problems, extra=""):
    status = "PASS" if not problems else f"FAIL ({len(problems)} problems)"
    with capsys.disabled():
        print(f"acceptance {number} [{name}]: {status}{extra}", flush=True)
    assert not problems, problems[:5]


def test_criterion_1_subcase_coverage(capsys):
    """Curated pairs drive all 16 branch labels; verdicts survive a radius-5
    brute-force cross-check; the whole sweep stays under a minute."""
    problems = []
    started = time.perf_counter()
    cases = curated_cases()
    if len(cases) < 16:
        problems.append(f"only {len(cases)} curated cases")
    seen = set()
    spec = BallSpec(5)
    for case in cases:
        verdict = decide(case.phi, case.psi, case.oracle())
        seen.add(verdict.trace[0])
        if verdict.trace[0] != case.label:
            problems.append(f"{case.name}: label {case.label} but trace {verdict.trace}")
        if verdict.trivial != case.expected_trivial:
            problems.append(f"{case.name}: unexpected verdict {verdict.describe()}")
        ball_hits = common_fixed_points(case.phi, case.psi, spec)
        if verdict.trivial:
            if ball_hits:
                problems.append(f"{case.name}: trivial verdict but ball hit {ball_hits[0]}")
        else:
            w = verdict.witness
            if w is None:
                problems.append(f"{case.name}: no witness attached")
            elif w.is_identity() or not (case.phi.fixes(w) and case.psi.fixes(w)):
                problems.append(f"{case.name}: bad witness {w}")
    missing = ALL_LABELS - seen
    if missing:
        problems.append(f"labels never driven: {sorted(missing)}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60:
        problems.append(f"sweep took {elapsed:.1f}s, budget is 60s")
    _report(
        capsys,
        1,
        "subcase coverage",
        problems,
        f" ({len(cases)} cases, 16/16 labels, {elapsed:.1f}s)" if not problems else "",
    )


def test_criterion_2_fix_formula_validation(capsys):
    """Structural fixed-subgroup descriptors agree with direct fixed-point
    checking on the radius-5 ball for 56 randomized endomorphisms."""
    problems = []
    rng = rng_for("acceptance-fix-formulas")
    ball = list(enumerate_product_ball(A, B, 5))
    checked = 0
    for tag in ALL_TAGS:
        for _ in range(7):
            e = random_shape_endo(rng, tag)
            fd = fix_product(e)
            checked += 1
            for g in ball:
                if fd.contains(g) != e.fixes(g):
                    problems.append(f"{tag}: descriptor disagrees at {g}")
                    break
    _report(
        capsys,
        2,
        "fix formula validation",
        problems,
        f" ({checked} endomorphisms x {len(ball)} ball elements)" if not problems else "",
    )


def test_criterion_3_power_fixed_lemma(capsys):
    """A fixed nonzero power forces the base to be fixed: 500 instances,
    enough of them with the premise actually true."""
    problems = []
    rng = rng_for("acceptance-power-lemma")
    premise_true = 0
    for _ in range(500):
        u = random_word(rng, A, rng.randint(1, 3))
        a = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        roll = rng.random()
        if roll < 0.4:
            h = inner_hom(u ** rng.randint(-2, 2))
        elif roll < 0.7:
            h = supported_component(rng, A)
        else:
            h = random_hom(rng, A, A)
        if h.apply(u**a) == u**a:
            premise_true += 1
            if h.apply(u) != u:
                problems.append(f"h = {h}, u = {u}, a = {a}")
    if premise_true < 100:
        problems.append(f"premise held only {premise_true} times out of 500")
    _report(
        capsys,
        3,
        "power-fixed lemma",
        problems,
        f" (500 instances, premise true {premise_true} times)" if not problems else "",
    )


def test_criterion_4_embedded_fixed_subgroup_is_a_power_line(capsys):
    """The word-problem embedding's fixed subgroup is exactly 1 x <root(w)>,
    checked by membership agreement on the radius-5 ball."""
    problems = []
    instances = [
        ("x1 x2 | x1^2", "x1"),
        ("x1 x2 | x1^3", "x1^2"),
        ("x1 x2 |", "x1 x2"),
        ("x1 x2 | x1 x2 x1^-1 x2^-1", "x2"),
        ("x1 x2 | x2^4", "x2^-2"),
        ("x1 x2 | x1^2, x2^2", "x1 x2"),
        ("x1 x2 | x1 x2^2", "x2 x1"),
        ("x1 x2 |", "x1^3"),
        ("x1 x2 | x2 x1 x2^-1 x1^-2", "x1"),
        ("x1 x2 | x1^6", "x1^4"),
    ]
    assert len(instances) == 10
    ball = list(enumerate_product_ball(A, B, 5))
    for pres_text, query_text in instances:
        pres = parse_presentation_text(pres_text)
        inst = mihailova_instance(pres, parse_word(query_text, pres.alphabet))
        for g in ball:
            expected = g.first.is_identity() and (
                exponent_of_power(g.second, inst.core) is not None
            )
            if inst.fix.contains(g) != expected:
                problems.append(f"{pres_text} / {query_text}: descriptor wrong at {g}")
                break
            if inst.endo.fixes(g) != expected:
                problems.append(f"{pres_text} / {query_text}: endo wrong at {g}")
                break
    _report(
        capsys,
        4,
        "embedded fix is a power line",
        problems,
        f" (10 instances x {len(ball)} ball elements)" if not problems else "",
    )


def test_criterion_5_equalizer_reduction(capsys):
    """Bounded witnesses of a type-IV pair biject with bounded equalizer
    points under y -> (theta(y), y), on 20 randomized pairs."""
    problems = []
    rng = rng_for("acceptance-equalizer")
    spec = BallSpec(5)
    b_ball = [y for y in enumerate_ball(B, 5) if not y.is_identity()]

    def type_iv_pair(index):
        if index == 0:
            # deterministic seed pair with a rich equalizer
            f = RELAB_BA
            g = FreeHom(B, A, (parse_word("a1", A), parse_word("a2 a1", A)))
            return TypeIV(f, identity_hom(B)).as_endo(), TypeIV(g, identity_hom(B)).as_endo()
        phi = TypeIV(
            random_hom(rng, B, A, allow_trivial_images=False),
            supported_component(rng, B),
        )
        psi = TypeIV(
            random_hom(rng, B, A, allow_trivial_images=False),
            supported_component(rng, B),
        )
        return phi.as_endo(), psi.as_endo()

    for index in range(20):
        phi, psi = type_iv_pair(index)
        shape_phi, shape_psi = classify(phi), classify(psi)
        theta1, theta2 = shape_phi.first_from_second, shape_psi.first_from_second
        sigma1, sigma2 = shape_phi.second_from_second, shape_psi.second_from_second

        hits = common_fixed_points(phi, psi, spec)
        agreeing = [
            y
            for y in b_ball
            if sigma1.apply(y) == y
            and sigma2.apply(y) == y
            and theta1.apply(y) == theta2.apply(y)
        ]
        mapped = [
            ProductElement(theta1.apply(y), y)
            for y in agreeing
            if len(theta1.apply(y).letters) + len(y.letters) <= spec.radius
        ]
        if [str(g) for g in sorted(hits, key=str)] != [str(g) for g in sorted(mapped, key=str)]:
            problems.append(f"pair {index}: ball hits differ from mapped equalizer")
            continue
        if len({str(g) for g in mapped}) != len(mapped):
            problems.append(f"pair {index}: the map is not injective on the window")
        for g in mapped:
            if not (phi.fixes(g) and psi.fixes(g)):
                problems.append(f"pair {index}: mapped element {g} is not common-fixed")
                break

        # abstract reduction side-check on a smaller ball
        try:
            red = reduce_pair_to_equalizer(phi, psi)
        except ValueError:
            if hits:
                problems.append(f"pair {index}: trivial reduction but ball hits exist")
            continue
        for expression in bounded_equalizer(red.first, red.second, BallSpec(3)):
            y = red.substitute(expression)
            element = ProductElement(red.first.apply(expression), y)
            if not (phi.fixes(element) and psi.fixes(element)):
                problems.append(f"pair {index}: reduced witness {element} fails")
                break
    _report(capsys, 5, "equalizer reduction", problems, "" if problems else " (20 pairs)")


def test_criterion_6_subgroup_graph_engine(capsys):
    """Intersection, membership and rank agree with brute force on 200
    random subgroup pairs; Nielsen-Schreier holds on finite-index instances."""
    problems = []
    rng = rng_for("acceptance-stallings")
    ball = list(enumerate_ball(A, 4))

    def random_generators():
        return [random_word(rng, A, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]

    def check_membership(gens, graph, tag):
        # certificate for every contained ball word
        for w in ball:
            if graph.contains(w):
                if express_in_generators(gens, w) is None:
                    problems.append(f"{tag}: {w} contained but not expressible")
                    return
        # closure under short products of the generators
        helper = Alphabet(len(gens), "x")
        for expression in enumerate_ball(helper, 4):
            product = Word(A)
            for step in expression.letters:
                g = gens[abs(step) - 1]
                product = product * (g if step > 0 else g.inverse())
            if not graph.contains(product):
                problems.append(f"{tag}: product {product} escaped the graph")
                return

    def check_rank_and_index(graph, tag):
        basis = graph.basis()
        if len(basis) != graph.rank:
            problems.append(f"{tag}: rank {graph.rank} vs basis size {len(basis)}")
        if from_generators(basis, A) != graph:
            problems.append(f"{tag}: basis does not regenerate the graph")
        idx = graph.index()
        if idx is not None and graph.rank - 1 != idx * (A.rank - 1):
            problems.append(f"{tag}: Nielsen-Schreier fails: rank {graph.rank}, index {idx}")

    finite_index_seen = 0
    seeded = [
        (whole_group(A), [parse_word("a1", A), parse_word("a2", A)]),
        (
            from_generators(
                [parse_word("a1^2", A), parse_word("a2", A), parse_word("a1 a2 a1^-1", A)]
            ),
            [parse_word("a1^2", A), parse_word("a2", A), parse_word("a1 a2 a1^-1", A)],
        ),
        (congruence_subgroup(A, (1, 1), 2), None),
        (congruence_subgroup(A, (1, 0), 3), None),
    ]
    for i in range(200):
        if i < len(seeded):
            g1, gens1 = seeded[i][0], seeded[i][1] or list(seeded[i][0].basis())
        else:
            gens1 = random_generators()
            g1 = from_generators(gens1, A)
        gens2 = random_generators()
        g2 = from_generators(gens2, A)
        meet = g1.intersect(g2)
        for w in ball:
            if meet.contains(w) != (g1.contains(w) and g2.contains(w)):
                problems.append(f"pair {i}: intersection wrong at {w}")
                break
        check_membership(gens1, g1, f"pair {i} left")
        check_membership(gens2, g2, f"pair {i} right")
        for tag, graph in (("left", g1), ("right", g2), ("meet", meet)):
            check_rank_and_index(graph, f"pair {i} {tag}")
            if graph.index() is not None:
                finite_index_seen += 1
        if len(problems) > 10:
            break
    _report(
        capsys,
        6,
        "subgroup graph engine",
        problems,
        f" (200 pairs, {finite_index_seen} finite-index instances)" if not problems else "",
    )


def test_criterion_7_integer_kernels(capsys):
    """Lattice kernels match exhaustive search in the box |a|, |b| <= 10 on
    100 random matrices; power-pair matrices match a direct recomputation."""
    problems = []
    rng = rng_for("acceptance-lattices")
    for i in range(100):
        rows = tuple(
            (rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))
        )
        lattice = IntLattice2.from_rows(kernel_basis(rows))
        for p in range(-10, 11):
            for q in range(-10, 11):
                solves = all(r[0] * p + r[1] * q == 0 for r in rows)
                if solves != lattice.contains((p, q)):
                    problems.append(f"matrix {rows}: mismatch at {(p, q)}")
                    break
            else:
                continue
            break
    for _ in range(100):
        payload = random_shape_payload(rng, "I")
        u, v = payload.first_base, payload.second_base
        expected = (
            (
                weighted_sum(u, payload.first_a_weights) - 1,
                weighted_sum(v, payload.first_b_weights),
            ),
            (
                weighted_sum(u, payload.second_a_weights),
                weighted_sum(v, payload.second_b_weights) - 1,
            ),
        )
        if payload.exponent_matrix() != expected:
            problems.append(f"exponent matrix mismatch for {payload}")
    _report(
        capsys,
        7,
        "integer kernels",
        problems,
        " (100 matrices, 100 power pairs)" if not problems else "",
    )


def test_criterion_8_classifier_round_trip(capsys):
    """100 randomized payloads classify back to themselves; every
    commutation rejection names images that genuinely fail to commute."""
    problems = []
    rng = rng_for("acceptance-classifier")
    for i in range(100):
        tag = ALL_TAGS[i % len(ALL_TAGS)]
        payload = random_shape_payload(rng, tag)
        back = classify(payload.as_endo())
        if back.label != tag:
            problems.append(f"{tag}: reclassified as {back.label}")
        elif back != payload:
            problems.append(f"{tag}: payload changed in the round trip")

    rejections = 0
    for _ in range(60):
        ff = random_hom(rng, A, A)
        fs = random_hom(rng, B, A)
        sf = random_hom(rng, A, B)
        ss = random_hom(rng, B, B)
        try:
            ProductEndo(ff, fs, sf, ss)
        except CommutationViolation as exc:
            rejections += 1
            if exc.component == "first":
                x = ff.images[exc.a_index - 1]
                y = fs.images[exc.b_index - 1]
            else:
                x = sf.images[exc.a_index - 1]
                y = ss.images[exc.b_index - 1]
            if x * y == y * x:
                problems.append(f"rejection at ({exc.a_index}, {exc.b_index}) but images commute")
    if rejections < 20:
        problems.append(f"only {rejections} commutation rejections in 60 attempts")
    _report(
        capsys,
        8,
        "classifier round trip",
        problems,
        f" (100 payloads, {rejections} verified rejections)" if not problems else "",
    )
