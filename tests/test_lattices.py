import random
from math import gcd

import pytest
from hypothesis import given, strategies as st

from fixfnm import IntLattice2, hnf_rows, kernel_basis


def brute_kernel(matrix, bound=10):
    hits = []
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if all(row[0] * a + row[1] * b == 0 for row in matrix):
                hits.append((a, b))
    return hits


def test_hnf_canonical_forms():
    assert hnf_rows([(2, 0), (0, 3)]) == ((2, 0), (0, 3))
    # generators of the same lattice give the same form
    assert hnf_rows([(2, 3), (0, 3)]) == hnf_rows([(2, 0), (0, 3)])
    assert hnf_rows([(0, 0)]) == ()
    assert hnf_rows([(-1, 0), (0, -1)]) == ((1, 0), (0, 1))
    # above-pivot entries are reduced into [0, pivot)
    assert hnf_rows([(1, 7), (0, 3)]) == ((1, 1), (0, 3))


def test_full_contains_everything():
    full = IntLattice2.full()
    assert full.contains((3, -5))
    assert full.contains((0, 0))


def test_line_multiples_only():
    line = IntLattice2.line((2, 4))
    assert line.contains((2, 4))
    assert line.contains((-4, -8))
    assert not line.contains((2, 5))
    assert not line.contains((1, 2))


def test_kernel_examples():
    # singular matrix used across the curated cases
    m = ((1, -1), (1, -1))
    lat = IntLattice2.from_rows(kernel_basis(m))
    assert lat.basis == ((1, 1),)
    # invertible matrix: trivial kernel
    assert kernel_basis(((1, 0), (0, 1))) == ()
    # zero matrix: everything
    lat0 = IntLattice2.from_rows(kernel_basis(((0, 0), (0, 0))))
    assert lat0.basis == ((1, 0), (0, 1))


def test_kernel_matches_brute_force():
    rng = random.Random("lattice-kernel")
    for _ in range(100):
        m = tuple(
            tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(rng.randint(1, 3))
        )
        lat = IntLattice2.from_rows(kernel_basis(m))
        for v in brute_kernel(m):
            assert lat.contains(v), (m, v)
        for _ in range(20):
            v = (rng.randint(-10, 10), rng.randint(-10, 10))
            assert lat.contains(v) == all(r[0] * v[0] + r[1] * v[1] == 0 for r in m)


def test_intersection_example():
    # <(2,2)> meet <(3,3)> is <(6,6)>
    a = IntLattice2.line((2, 2))
    b = IntLattice2.line((3, 3))
    assert a.intersect(b).basis == ((6, 6),)


@given(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
def test_intersection_is_lower_bound(r1, r2, probe):
    a = IntLattice2.line(r1)
    b = IntLattice2.line(r2)
    both = a.intersect(b)
    if both.contains(probe):
        assert a.contains(probe) and b.contains(probe)
    if a.contains(probe) and b.contains(probe):
        assert both.contains(probe)


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=4))
def test_hnf_membership_stable(rows):
    lat = IntLattice2.from_rows(rows)
    for r in rows:
        assert lat.contains(r)
    # doubling the generating set changes nothing
    assert IntLattice2.from_rows(list(rows) * 2).basis == lat.basis


def test_swapped():
    lat = IntLattice2.from_rows([(2, 3)])
    assert lat.swapped().basis == ((3, 2),)
    assert IntLattice2.full().swapped() == IntLattice2.full()


BOX = range(-12, 13)


def _in_hermite(basis, x, y):
    """Membership in the lattice of a basis ((a, b), (0, c)) in canonical form, by hand."""
    a = b = c = 0
    for p, q in basis:
        if p:
            a, b = p, q
        else:
            c = q
    if a:
        if x % a:
            return False
        y -= x // a * b
    elif x:
        return False
    return y % c == 0 if c else y == 0


def _span_in_box(rows, reach=36):
    """Points of |x|, |y| <= reach that ±rows reach from 0 without leaving
    that box: all of them lie in the lattice the rows generate."""
    steps = [r for r in rows if r != (0, 0)]
    steps += [(-x, -y) for x, y in steps]
    seen, todo = {(0, 0)}, [(0, 0)]
    while todo:
        x, y = todo.pop()
        for dx, dy in steps:
            p = (x + dx, y + dy)
            if p not in seen and abs(p[0]) <= reach and abs(p[1]) <= reach:
                seen.add(p)
                todo.append(p)
    return seen


def _random_rows(rng, count):
    # a third of the rows on the vertical axis, to reach the rank-one cases
    return [
        (0 if rng.random() < 0.3 else rng.randint(-5, 5), rng.randint(-5, 5))
        for _ in range(count)
    ]


def test_hermite_basis_spans_exactly_the_rows_lattice():
    rng = random.Random("fixfnm:hnf-box")
    for _ in range(60):
        rows = _random_rows(rng, rng.randint(0, 3))
        basis = hnf_rows(rows)
        for i, (p, q) in enumerate(basis):
            pivot = p if p else q
            assert pivot > 0 and (p == 0 or i == 0), basis
            assert len(basis) == 1 or 0 <= basis[0][1] < basis[1][1], basis
        reached = _span_in_box(rows)
        for x in BOX:
            for y in BOX:
                assert ((x, y) in reached) == _in_hermite(basis, x, y), (rows, basis, x, y)


def test_kernel_vectors_are_primitive_and_complete():
    rng = random.Random("fixfnm:kernel-box")
    for _ in range(150):
        m = _random_rows(rng, rng.randint(0, 3))
        if rng.random() < 0.3 and m:  # a dependent second row
            k = rng.choice((-2, -1, 2, 3))
            m.append((k * m[0][0], k * m[0][1]))
        kern = kernel_basis(m)
        for v in kern:
            assert all(p * v[0] + q * v[1] == 0 for p, q in m), (m, v)
            assert gcd(*v) == 1, (m, v)
        for x in BOX:
            for y in BOX:
                killed = all(p * x + q * y == 0 for p, q in m)
                assert killed == _in_hermite(kern, x, y), (m, kern, x, y)


def test_intersection_is_exact_on_a_box():
    rng = random.Random("fixfnm:intersect-box")
    for _ in range(150):
        first = IntLattice2.from_rows(_random_rows(rng, rng.randint(0, 2)))
        second = IntLattice2.from_rows(_random_rows(rng, rng.randint(0, 2)))
        both = first.intersect(second)
        assert both == second.intersect(first)
        assert both.basis == hnf_rows(both.basis)  # canonical
        for x in BOX:
            for y in BOX:
                expected = _in_hermite(first.basis, x, y) and _in_hermite(second.basis, x, y)
                assert _in_hermite(both.basis, x, y) == expected, (first, second, both, x, y)


@pytest.mark.parametrize("length", [1, 3])
def test_only_two_columns_are_accepted(length):
    with pytest.raises(ValueError):
        hnf_rows([(1,) * length])
    with pytest.raises(ValueError):
        kernel_basis([(1,) * length])
    with pytest.raises(ValueError):  # one bad row among good ones
        hnf_rows([(1, 2), (1,) * length])
