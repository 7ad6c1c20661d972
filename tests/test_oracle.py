"""The bounded brute-force reference search."""

import pytest

import fixfnm.oracle as oracle_module
from fixfnm import (
    BallSpec,
    TypeVI,
    TypeVII,
    ball_size,
    bounded_equalizer,
    common_fixed_points,
    enumerate_product_ball,
    fixed_words,
    identity_endo,
    identity_hom,
    inner_hom,
    permutation_hom,
)
from fixfnm.oracle import MAX_RADIUS
from conftest import A, B, RELAB_AB, RELAB_BA, pe, wa


def test_ball_spec_bounds():
    assert BallSpec(4).radius == 4
    assert BallSpec(0).radius == 0
    assert BallSpec(MAX_RADIUS).radius == MAX_RADIUS == 8
    with pytest.raises(ValueError):
        BallSpec(-1)
    with pytest.raises(ValueError):
        BallSpec(9)
    with pytest.raises(TypeError):
        BallSpec(3, cap=12)


def test_enumerate_product_ball():
    ball1 = list(enumerate_product_ball(A, B, 1))
    assert len(ball1) == 9  # identity, 4 a-letters, 4 b-letters
    assert ball1[0].is_identity()

    ball2 = list(enumerate_product_ball(A, B, 2))
    # sum of s(i) * s(j) over i + j <= 2 with s = (1, 4, 12)
    assert len(ball2) == 49
    assert len(set(map(str, ball2))) == 49
    assert all(len(g.first.letters) + len(g.second.letters) <= 2 for g in ball2)


def test_fixed_words_examples():
    swap = permutation_hom(A, (2, 1))
    assert fixed_words(swap, BallSpec(3)) == []

    conj = inner_hom(wa("a1"))
    hits = fixed_words(conj, BallSpec(3))
    assert set(hits) == {wa("a1") ** k for k in (-3, -2, -1, 1, 2, 3)}

    with pytest.raises(ValueError):
        fixed_words(RELAB_AB, BallSpec(2))


def test_bounded_equalizer_examples():
    hits = bounded_equalizer(identity_hom(A), inner_hom(wa("a1")), BallSpec(3))
    assert set(hits) == {wa("a1") ** k for k in (-3, -2, -1, 1, 2, 3)}
    assert bounded_equalizer(identity_hom(A), identity_hom(A), BallSpec(0)) == []
    with pytest.raises(ValueError):
        bounded_equalizer(RELAB_AB, RELAB_BA, BallSpec(2))


def test_fixed_points_of_swap_endo():
    e = TypeVII(RELAB_BA, RELAB_AB).as_endo()
    hits = common_fixed_points(e, e, BallSpec(2))
    # (x, relabeled x) needs |x| on both sides, so only length-1 cores fit
    assert set(map(str, hits)) == {
        "(a1, b1)",
        "(a1^-1, b1^-1)",
        "(a2, b2)",
        "(a2^-1, b2^-1)",
    }
    for g in hits:
        assert e.fixes(g)


def test_common_fixed_points():
    phi = identity_endo(2, 2)
    psi = TypeVI(inner_hom(wa("a1")), identity_hom(B)).as_endo()
    hits = common_fixed_points(phi, psi, BallSpec(2))
    assert pe("a1", "1") in hits
    assert pe("a1^-2", "1") in hits
    assert pe("a1", "b2^-1") in hits
    assert pe("1", "b1 b2") in hits
    assert pe("a2", "1") not in hits
    assert all(not g.is_identity() for g in hits)
    # identity endo fixes everything, so this is just Fix(psi) on the ball
    assert hits == common_fixed_points(psi, psi, BallSpec(2))

    with pytest.raises(ValueError):
        common_fixed_points(identity_endo(2, 2), identity_endo(2, 3), BallSpec(1))


def test_radius_zero_is_empty():
    e = identity_endo(2, 2)
    assert common_fixed_points(e, e, BallSpec(0)) == []


@pytest.mark.parametrize("ranks, radius", [((2, 2), 3), ((2, 3), 4), ((3, 2), 2)])
def test_ball_cap_counts_the_ball_exactly(monkeypatch, ranks, radius):
    n, m = ranks
    phi = identity_endo(n, m)
    pairs = len(list(enumerate_product_ball(phi.first_alphabet, phi.second_alphabet, radius)))
    words = ball_size(n, radius)
    monkeypatch.setattr(oracle_module, "MAX_BALL_ELEMENTS", words)
    assert len(fixed_words(identity_hom(phi.first_alphabet), BallSpec(radius))) == words - 1
    monkeypatch.setattr(oracle_module, "MAX_BALL_ELEMENTS", pairs)
    assert len(common_fixed_points(phi, phi, BallSpec(radius))) == pairs - 1
    monkeypatch.setattr(oracle_module, "MAX_BALL_ELEMENTS", pairs - 1)
    with pytest.raises(ValueError, match=f"product ball of radius {radius} holds {pairs} elements"):
        common_fixed_points(phi, phi, BallSpec(radius))
    monkeypatch.setattr(oracle_module, "MAX_BALL_ELEMENTS", words - 1)
    with pytest.raises(ValueError, match=f"ball of radius {radius} holds {words} elements"):
        fixed_words(identity_hom(phi.first_alphabet), BallSpec(radius))
