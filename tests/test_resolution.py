"""Signed monomial chain complexes built from generic exponent sets."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scarf.errors import GenericityError, InputError
from scarf.finite import FinitePointSet, enumerate_complex, is_generic
from scarf.geometry import Point
from scarf.resolution import build_resolution, verify_chain

STAIRCASE = [(2, 0), (1, 1), (0, 2)]


def test_staircase_betti():
    res = build_resolution(STAIRCASE)
    assert res.betti == (3, 2)
    assert res.euler_characteristic() == 1
    assert [len(members) - 1 for fs in res.faces_by_dim for members, _ in fs] == [0, 0, 0, 1, 1]
    # members index the points in canonical order: (0, 2), (1, 1), (2, 0)
    assert res.faces_by_dim[1] == (((0, 1), (1, 2)), ((1, 2), (2, 1)))


def test_staircase_multigraded_betti():
    res = build_resolution(STAIRCASE)
    assert res.multigraded_betti == {
        (0, (0, 2)): 1,
        (0, (1, 1)): 1,
        (0, (2, 0)): 1,
        (1, (1, 2)): 1,
        (1, (2, 1)): 1,
    }


def test_staircase_differential_entries():
    res = build_resolution(STAIRCASE)
    assert res.augmentation == ((0, 2), (1, 1), (2, 0))
    (d1,) = res.differentials
    # vertices are rows 0..2 in lex order; dropping a vertex keeps its complement
    assert d1 == {
        (1, 0): (1, (0, 1)),
        (0, 0): (-1, (1, 0)),
        (2, 1): (1, (0, 1)),
        (1, 1): (-1, (1, 0)),
    }


def test_staircase_chain_verifies():
    res = build_resolution(STAIRCASE)
    check = verify_chain(res)
    assert check.ok and bool(check)
    assert check.failures == ()


def test_single_generator():
    res = build_resolution([(5, 7)])
    assert res.betti == (1,)
    assert res.differentials == ()
    assert res.augmentation == ((5, 7),)
    assert verify_chain(res).ok


def test_sign_flip_detected():
    res = build_resolution(STAIRCASE)
    (r, c), (sign, exp) = next(iter(res.differentials[0].items()))
    res.differentials[0][(r, c)] = (-sign, exp)
    check = verify_chain(res)
    assert not check.ok
    assert any("composite" in f for f in check.failures)


def test_zero_exponent_detected():
    res = build_resolution(STAIRCASE)
    (r, c), (sign, _) = next(iter(res.differentials[0].items()))
    res.differentials[0][(r, c)] = (sign, (0, 0))
    check = verify_chain(res)
    assert not check.ok
    assert any("not minimal" in f for f in check.failures)


def test_non_generic_rejected_with_witness():
    with pytest.raises(GenericityError) as info:
        build_resolution([(2, 1), (1, 2), (2, 2)])
    a, b, coord = info.value.witness
    assert (a, b, coord) == (Point((2, 1)), Point((2, 2)), 1)


def test_dominated_generator_rejected():
    with pytest.raises(InputError) as info:
        build_resolution([(1, 1), (2, 2)])
    assert "non-minimal generator" in str(info.value)


def test_exponent_validation():
    with pytest.raises(InputError):
        build_resolution([(0, 0), (1, 2)])  # unit ideal
    with pytest.raises(InputError):
        build_resolution([(-1, 2)])
    with pytest.raises(InputError):
        build_resolution(FinitePointSet([Point(("1/2", "3/2"))]))


def random_generic_sets(seed, count, dim=3, coord_max=9, card_max=8):
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        card = rng.randint(2, card_max)
        pts = {tuple(rng.randint(0, coord_max) for _ in range(dim)) for _ in range(card)}
        pts = {p for p in pts if any(p)}
        if len(pts) < 2:
            continue
        A = FinitePointSet(sorted(pts))
        try:
            build_resolution(A)
        except (GenericityError, InputError):
            continue
        produced += 1
        yield A


def test_random_generic_resolutions():
    for A in random_generic_sets(420, 40):
        res = build_resolution(A)
        assert verify_chain(res).ok
        assert res.euler_characteristic() == 1
        # generic exponent sets in N^3 never reach dimension 3
        assert len(res.betti) <= 3
        assert is_generic(A, mode="definition").generic
        for d, diff in enumerate(res.differentials):
            rows = res.faces_by_dim[d]
            cols = res.faces_by_dim[d + 1]
            for (r, c), (sign, exp) in diff.items():
                (_, low), (_, high) = rows[r], cols[c]
                assert sign in (1, -1)
                assert any(exp)
                assert all(x >= 0 for x in exp)
                assert tuple(y - x for x, y in zip(low, high)) == exp


def generic_antichain(rng, m):
    """m points of the plane x + y + z = 20m in N^3, distinct on every axis.

    The x values are sampled without repeats, and each y is drawn until
    both y and x + y are new, which keeps the z values distinct too.
    """
    span = 10 * m
    ys, sums, pts = set(), set(), []
    for x in rng.sample(range(1, span), m):
        y = rng.randrange(1, span)
        while y in ys or x + y in sums:
            y = rng.randrange(1, span)
        ys.add(y)
        sums.add(x + y)
        pts.append((x, y, 2 * span - x - y))
    return pts


@st.composite
def generic_antichains(draw):
    """1-12 points of the hyperplane sum(x) = n * 4m in N^n (n = 2-4), distinct on every axis.

    On the hyperplane no point lies below another, and with no coordinate
    shared the set is generic: build_resolution accepts every draw.
    """
    n, m = draw(st.integers(2, 4)), draw(st.integers(1, 12))
    axes = [draw(st.lists(st.integers(1, 4 * m), min_size=m, max_size=m, unique=True))
            for _ in range(n - 1)]
    last = [n * 4 * m - sum(row) for row in zip(*axes)]
    assume(len(set(last)) == m)
    return [(*row, z) for row, z in zip(zip(*axes), last)]


def test_generic_antichain_resolution_at_scale():
    m = 400
    res = build_resolution(generic_antichain(random.Random(400), m))
    assert verify_chain(res).ok
    assert res.betti[0] == m
    # generic in three variables: a planar complex, so no 3-faces and at most 3m - 6 edges
    assert len(res.betti) <= 3
    assert res.betti[1] <= 3 * m - 6
    assert res.euler_characteristic() == 1


@settings(deadline=None)
@given(generic_antichains())
def test_faces_by_dim_are_the_face_records(rows):
    # the nonempty face records, split by size, each rank join read as its values
    A = FinitePointSet(rows)
    values = A.rank_index.values
    by_dim: list = []
    tree = enumerate_complex(A)
    for members, top in list(zip(tree.members(), map(tree.tops.__getitem__, tree.join)))[1:]:
        if len(members) > len(by_dim):
            by_dim.append([])
        by_dim[-1].append((members, tuple(vals[t] for vals, t in zip(values, top))))
    res = build_resolution(A)
    assert res.faces_by_dim == tuple(map(tuple, by_dim))
    assert res.augmentation == tuple(p.coords for p in A.points)
    assert all(type(c) is int for fs in res.faces_by_dim for _, md in fs for c in md)
