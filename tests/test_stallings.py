"""Subgroup graphs: folding, membership, index, intersection, certificates."""

import time

import pytest

from fixfnm import (
    Alphabet,
    FreeHom,
    Word,
    congruence_subgroup,
    enumerate_ball,
    express_in_generators,
    from_generators,
    image,
    inner_hom,
    parse_word,
    permutation_hom,
    restricted_kernel_trivial,
    trivial_subgroup,
    weighted_sum,
    whole_group,
)
from conftest import random_word, rng_for

A = Alphabet(2, "a")
B = Alphabet(2, "b")


def wa(text):
    return parse_word(text, A)


def test_trivial_and_whole():
    one = trivial_subgroup(A)
    assert one.is_trivial()
    assert one.rank == 0
    assert one.contains(Word(A))
    assert not one.contains(wa("a1"))
    assert one.index() is None  # F2 is infinite

    full = whole_group(A)
    assert full.is_whole_group()
    assert full.rank == 2
    assert full.index() == 1
    for w in enumerate_ball(A, 3):
        assert full.contains(w)


def test_generators_that_cancel_into_nothing():
    g = from_generators([wa("a1 a2"), wa("a2^-1 a1^-1")])
    assert g.rank == 1
    assert from_generators([Word(A)], A).is_trivial()
    with pytest.raises(ValueError):
        from_generators([])  # no alphabet to infer


def test_membership_examples():
    h = from_generators([wa("a1^2"), wa("a2")])
    # frozen by hand on the folded graph
    assert h.contains(wa("a1^2"))
    assert h.contains(wa("a2"))
    assert h.contains(wa("a1^2 a2 a1^-2"))
    assert not h.contains(wa("a1"))
    assert not h.contains(wa("a1 a2 a1^-1"))
    assert h.rank == 2
    assert h.index() is None  # vertex 1 has no a2 edge

    with pytest.raises(ValueError):
        h.contains(parse_word("b1", B))


def test_finite_index_instance():
    h = from_generators([wa("a1^2"), wa("a2"), wa("a1 a2 a1^-1")])
    assert h.index() == 2
    assert h.rank == 3
    # Nielsen-Schreier: rank - 1 == index * (ambient rank - 1)
    assert h.rank - 1 == h.index() * (A.rank - 1)
    assert not h.contains(wa("a1"))
    assert h.contains(wa("a1 a2^3 a1"))


def test_basis_round_trip():
    rng = rng_for("stallings-basis")
    for _ in range(30):
        gens = [random_word(rng, A, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        g = from_generators(gens)
        basis = g.basis()
        assert len(basis) == g.rank
        assert from_generators(basis, A) == g
        for b in basis:
            assert g.contains(b)


def test_congruence_subgroup():
    g = congruence_subgroup(A, (1, 1), 3)
    assert g.index() == 3
    assert g.rank == 4  # 1 + 3 * (2 - 1)
    for w in enumerate_ball(A, 4):
        assert g.contains(w) == (weighted_sum(w, (1, 1)) % 3 == 0)

    # weights generating a proper subgroup of Z/6: index is 3, not 6
    g2 = congruence_subgroup(A, (2, 4), 6)
    assert g2.index() == 3
    for w in enumerate_ball(A, 4):
        assert g2.contains(w) == (weighted_sum(w, (2, 4)) % 6 == 0)

    with pytest.raises(ValueError):
        congruence_subgroup(A, (1, 1), 0)
    with pytest.raises(ValueError):
        congruence_subgroup(A, (1,), 2)


def test_intersection_example():
    # <a1> meets <a1^2, a2> in <a1^2>
    left = from_generators([wa("a1")])
    right = from_generators([wa("a1^2"), wa("a2")])
    meet = left.intersect(right)
    assert meet == from_generators([wa("a1^2")])


def test_intersection_matches_pointwise_and():
    rng = rng_for("stallings-intersect")
    ball = list(enumerate_ball(A, 3))
    for _ in range(40):
        g1 = from_generators(
            [random_word(rng, A, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        )
        g2 = from_generators(
            [random_word(rng, A, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        )
        meet = g1.intersect(g2)
        for w in ball:
            assert meet.contains(w) == (g1.contains(w) and g2.contains(w))


def test_intersection_rejects_mixed_alphabets():
    with pytest.raises(ValueError):
        whole_group(A).intersect(whole_group(B))


def test_image():
    h = from_generators([wa("a1 a2")])
    swap = permutation_hom(A, (2, 1))
    assert image(h, swap) == from_generators([wa("a2 a1")])

    # under an automorphism membership transfers exactly
    conj = inner_hom(wa("a1"))
    base = from_generators([wa("a1^2"), wa("a2")])
    img = image(base, conj)
    for w in enumerate_ball(A, 3):
        assert img.contains(conj.apply(w)) == base.contains(w)

    cross = FreeHom(A, B, (parse_word("b1", B), parse_word("b2 b1", B)))
    assert image(whole_group(A), cross) == from_generators(list(cross.images))
    with pytest.raises(ValueError):
        image(whole_group(B), cross)


def test_restricted_kernel():
    # rank 1, nonzero weight: only the identity has weight 0
    assert restricted_kernel_trivial(from_generators([wa("a1")]), (1, 0)) is None

    # rank 1, generator already in the kernel
    assert restricted_kernel_trivial(from_generators([wa("a1 a2")]), (1, -1)) == wa("a1 a2")

    # rank >= 2 always hits the kernel; the witness must check out
    witness = restricted_kernel_trivial(whole_group(A), (3, 5))
    assert witness is not None
    assert not witness.is_identity()
    assert weighted_sum(witness, (3, 5)) == 0
    assert whole_group(A).contains(witness)

    assert restricted_kernel_trivial(trivial_subgroup(A), (1, 1)) is None


def test_restricted_kernel_random_witnesses():
    rng = rng_for("stallings-rkt")
    for _ in range(50):
        g = from_generators(
            [random_word(rng, A, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        )
        weights = (rng.randint(-3, 3), rng.randint(-3, 3))
        witness = restricted_kernel_trivial(g, weights)
        if witness is None:
            assert g.rank <= 1
        else:
            assert not witness.is_identity()
            assert g.contains(witness)
            assert weighted_sum(witness, weights) == 0


def test_express_in_generators_examples():
    gens = (wa("a1^2"), wa("a1 a2"))
    assert express_in_generators(gens, wa("a1^2") * wa("a1 a2")) == [1, 2]
    assert express_in_generators(gens, wa("a1 a2").inverse() * wa("a1^2")) == [-2, 1]
    assert express_in_generators(gens, wa("a1")) is None
    assert express_in_generators(gens, Word(A)) == []


def _assert_reduced(expr):
    assert all(x != -y for x, y in zip(expr, expr[1:])), expr


def test_express_in_generators_round_trip():
    rng = rng_for("stallings-express")
    families = [
        [random_word(rng, A, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
        for _ in range(40)
    ]
    # generators sharing long prefixes fold a long common stretch together
    for _ in range(20):
        stem = random_word(rng, A, rng.randint(8, 20))
        tails = [random_word(rng, A, rng.randint(0, 3)) for _ in range(rng.randint(2, 4))]
        families.append([stem * t for t in tails])
    for gens in families:
        target = Word(A)
        for _ in range(rng.randint(0, 5)):
            pick = rng.choice(gens)
            target = target * (pick if rng.random() < 0.5 else pick.inverse())
        expr = express_in_generators(gens, target)
        assert expr is not None
        _assert_reduced(expr)
        rebuilt = Word(A)
        for step in expr:
            g = gens[abs(step) - 1]
            rebuilt = rebuilt * (g if step > 0 else g.inverse())
        assert rebuilt == target


def test_express_in_generators_collapsing_wedge():
    # c^24 a2 a1 and c^25 a2 a1 fold their 200 wedge edges down to two
    # vertices; reading a member must not retrace every fold
    c = wa("a2 a1 a2^-1 a1")
    g1, g2 = c**24 * wa("a2 a1"), c**25 * wa("a2 a1")
    started = time.perf_counter()
    expr = express_in_generators([g1, g2], g1 * g2 * g1)
    assert time.perf_counter() - started < 5.0
    assert expr == [1, 2, 1]
