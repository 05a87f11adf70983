"""Lattice cosets: membership, box scans, points below, minimal orthant points."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scarf.diophantine import (
    Lattice,
    coset_points,
    minimal_orthant_points,
    points_below,
    points_in_box,
)
from scarf.errors import InputError, PositivityError
from scarf.geometry import Orthant, Point, all_orthants, point_key, zero_point
from test_posets import in_orthant

KER111 = Lattice([(1, -1, 0), (0, 1, -1)])  # kernel of x1 + x2 + x3
KER123 = Lattice([(2, -1, 0), (3, 0, -1)])  # kernel of x1 + 2 x2 + 3 x3
ZERO3 = zero_point(3)


def random_lattice(rng, dim, rank, lo=-3, hi=3):
    while True:
        cols = [tuple(rng.randint(lo, hi) for _ in range(dim)) for _ in range(rank)]
        try:
            return Lattice(cols)
        except InputError:
            continue


# ---------------------------------------------------------------------------
# Lattice construction and membership


def test_lattice_validation():
    with pytest.raises(InputError):
        Lattice([])
    with pytest.raises(InputError):
        Lattice([(1, 0), (1,)])
    with pytest.raises(InputError):
        Lattice([(1, 2), (2, 4)])  # dependent columns
    with pytest.raises(InputError):
        Lattice([(1, 0), (0, 1), (1, 1)])  # rank cannot exceed dimension
    with pytest.raises(InputError):
        Lattice([(True, False)])
    with pytest.raises(InputError):
        Lattice([("a", 1)])
    with pytest.raises(InputError):
        Lattice([(None, 1)])
    with pytest.raises(InputError):
        Lattice([(1, 0), 5])


def test_membership_fixtures():
    assert KER111.member(Point((1, -1, 0)))
    assert KER111.member(Point((5, -2, -3)))
    assert not KER111.member(Point((1, 0, 0)))
    L = Lattice([(2, 0), (0, 3)])
    assert L.member(Point((2, 3)))
    assert not L.member(Point((2, 2)))
    assert not L.member(Point((1, 0)))
    with pytest.raises(InputError):
        KER111.member(Point((1, 0)))
    with pytest.raises(InputError):
        KER111.member(Point((Fraction(1, 2), 0, Fraction(-1, 2))))


def test_diagonal_fixtures():
    assert Lattice([(2, 0), (0, 3)]).diagonal() == (1, 6)
    assert Lattice([(1, 0), (0, 1)]).diagonal() == (1, 1)
    assert KER111.diagonal() == (1, 1)
    assert Lattice([(2, 4)]).diagonal() == (2,)


def test_canonical_rep():
    rng = random.Random(410)
    for L in (KER111, KER123, Lattice([(2, 0), (0, 3)])):
        assert L.canonical_rep(zero_point(L.dim)) == zero_point(L.dim)
        for _ in range(50):
            p = Point(tuple(rng.randint(-6, 6) for _ in range(L.dim)))
            c = L.canonical_rep(p)
            assert L.member(p - c)
            shift = Point(L.columns[rng.randrange(L.rank)])
            assert L.canonical_rep(p + shift) == c
            q = Point(tuple(rng.randint(-6, 6) for _ in range(L.dim)))
            assert (L.canonical_rep(q) == c) == L.member(p - q)
    # exact representatives: output documents print them
    assert KER123.canonical_rep(Point((5, -3, 2))) == Point((5, 0, 0))
    assert Lattice([(2, 0), (0, 3)]).canonical_rep(Point((-7, 8))) == Point((-5, 5))
    assert Lattice([(2, 4)]).canonical_rep(Point((3, -5))) == Point((1, -9))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_class_agrees_with_canonical_rep(data):
    # two vectors share a class, the equality and congruence values of the
    # Smith form, exactly when their canonical representatives agree; the
    # random columns give congruence rows as well as equality rows
    dim = data.draw(st.integers(2, 4))
    rank = data.draw(st.integers(1, dim))
    columns = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * dim),
                                 min_size=rank, max_size=rank))
    try:
        L = Lattice(columns)
    except InputError:
        assume(False)
    p = data.draw(st.tuples(*[st.integers(-6, 6)] * dim))
    coeffs = data.draw(st.tuples(*[st.integers(-2, 2)] * rank))
    nudge = data.draw(st.one_of(st.just((0,) * dim), st.tuples(*[st.integers(-1, 1)] * dim)))
    q = tuple(x + e + sum(c * col[i] for c, col in zip(coeffs, columns))
              for i, (x, e) in enumerate(zip(p, nudge)))
    assert len(L._class(p)) == dim - rank + sum(d >= 2 for d in L.diagonal())
    same = L._canonical(p) == L._canonical(q)
    assert (L._class(p) == L._class(q)) == same == L.member(Point(p) - Point(q))
    assert same or any(nudge)


# ---------------------------------------------------------------------------
# positivity


def test_positivity_fixtures():
    assert KER111.positivity_witness() is None
    assert Lattice([(1, -1)]).positivity_witness() is None
    witness = Lattice([(1, 0)]).positivity_witness()
    assert witness is not None
    assert witness.coords[1] == 0 and witness.coords[0] > 0
    assert Lattice([(2, 0), (0, 3)]).positivity_witness() == Point((2, 0))
    assert Lattice([(1, -2, 3), (2, 1, -1)]).positivity_witness() == Point((5, 0, 1))


def test_check_positive_raises():
    L = Lattice([(1, 0)])
    with pytest.raises(PositivityError) as info:
        L.check_positive()
    w = info.value.witness
    assert w is not None and any(w.coords)
    assert L.member(w)
    assert all(x >= 0 for x in w.coords)
    KER111.check_positive()  # no error


def test_positivity_random():
    rng = random.Random(411)
    for _ in range(80):
        L = random_lattice(rng, rng.randint(2, 3), rng.randint(1, 2))
        witness = L.positivity_witness()
        if witness is None:
            # a violating vector would show up inside a small box
            for vals in itertools.product(range(-2, 3), repeat=L.rank):
                if any(vals):
                    v = [sum(L.columns[j][i] * vals[j] for j in range(L.rank))
                         for i in range(L.dim)]
                    assert not (all(x >= 0 for x in v) and any(v))
        else:
            assert L.member(witness)
            assert all(x >= 0 for x in witness.coords) and any(witness.coords)


# ---------------------------------------------------------------------------
# box scans


def test_points_in_box_fixtures():
    lo, hi = Point((-1, -1, -1)), Point((1, 1, 1))
    pts = points_in_box(KER111, [ZERO3], lo, hi)
    assert len(pts) == 7
    assert ZERO3 in pts
    assert Point((1, -1, 0)) in pts and Point((-1, 0, 1)) in pts
    assert points_in_box(KER111, [ZERO3], hi, lo) == pts

    unit = points_in_box(KER111, [Point((1, 0, 0))], ZERO3, Point((1, 1, 1)))
    assert unit == (Point((0, 0, 1)), Point((0, 1, 0)), Point((1, 0, 0)))
    # corners in mixed order span the same box
    assert points_in_box(KER111, [Point((1, 0, 0))], Point((1, 0, 1)), Point((0, 1, 0))) == unit


def test_points_in_box_degenerate():
    v = Point((1, -1, 0))
    assert points_in_box(KER111, [ZERO3], v, v) == (v,)
    w = Point((1, 0, 0))
    assert points_in_box(KER111, [ZERO3], w, w) == ()


def test_points_in_box_rep_dedup():
    reps = [ZERO3, Point((1, -1, 0)), Point((2, -2, 0))]
    pts = points_in_box(KER111, reps, Point((-1, -1, -1)), Point((1, 1, 1)))
    assert len(pts) == 7


def test_points_in_box_rational_bounds():
    half = Fraction(1, 2)
    lo, hi = Point((-half, -half, -half)), Point((Fraction(3, 2),) * 3)
    pts = points_in_box(KER111, [Point((1, 0, 0))], lo, hi)
    assert pts == (Point((0, 0, 1)), Point((0, 1, 0)), Point((1, 0, 0)))
    assert points_in_box(KER111, [Point((1, 0, 0))], hi, lo) == pts


def test_points_in_box_dim_mismatch():
    with pytest.raises(InputError):
        points_in_box(KER111, [ZERO3], Point((0, 0)), Point((1, 1)))
    with pytest.raises(InputError):
        points_in_box(KER111, [ZERO3], ZERO3, Point((1, 1)))


def scan_box(L, reps, lo, hi):
    ranges = [range(math.ceil(l), math.floor(h) + 1) for l, h in zip(lo, hi)]
    return sorted(
        (Point(v) for v in itertools.product(*ranges)
         if any(L.member(Point(v) - r) for r in reps)),
        key=point_key,
    )


def test_points_in_box_random():
    rng = random.Random(413)
    for _ in range(50):
        dim = rng.randint(2, 3)
        L = random_lattice(rng, dim, rng.randint(1, dim))
        reps = [Point(tuple(rng.randint(-3, 3) for _ in range(dim)))
                for _ in range(rng.randint(1, 2))]
        lo = tuple(rng.randint(-4, 0) for _ in range(dim))
        hi = tuple(l + rng.randint(0, 4) for l in lo)
        got = points_in_box(L, reps, Point(lo), Point(hi))
        assert list(got) == scan_box(L, reps, lo, hi)
    # one Lattice object answers several boxes, some with rational corners,
    # so its elimination plan is reused with different right-hand sides;
    # rank 4 runs three elimination levels
    for _ in range(30):
        dim = rng.randint(2, 4)
        L = random_lattice(rng, dim, rng.randint(max(1, dim - 1), dim))
        reps = [Point(tuple(rng.randint(-3, 3) for _ in range(dim)))
                for _ in range(rng.randint(1, 2))]
        for _ in range(4):
            lo = tuple(Fraction(rng.randint(-8, 0), rng.randint(1, 2)) for _ in range(dim))
            hi = tuple(l + Fraction(rng.randint(0, 8), rng.randint(1, 2)) for l in lo)
            got = points_in_box(L, reps, Point(lo), Point(hi))
            assert list(got) == scan_box(L, reps, lo, hi), (L, reps, lo, hi)


def test_points_in_box_high_rank():
    # rank 5 in Z^6: five elimination levels; the per-query projection
    # without pruning took half a minute here
    L = Lattice([(3, 3, -3, -3, -3, -1), (3, -2, 2, 3, 2, 3), (-1, -1, 1, -2, 1, -3),
                 (1, 2, -2, 0, 2, 0), (3, 2, 3, 1, -1, 1)])
    zero = zero_point(6)
    lo, hi = (-2,) * 6, (2,) * 6
    want = scan_box(L, [zero], lo, hi)
    assert len(want) == 3
    assert list(points_in_box(L, [zero], Point(lo), Point(hi))) == want


@st.composite
def box_queries(draw):
    """A lattice in Z^2 or Z^3, the canonical int representatives of drawn cosets, and a box."""
    dim = draw(st.integers(2, 3))
    vector = st.tuples(*[st.integers(-3, 3)] * dim)
    columns = draw(st.lists(vector, min_size=1, max_size=dim))
    try:
        L = Lattice(columns)
    except InputError:
        assume(False)
    reps = draw(st.lists(vector, min_size=1, max_size=3))
    creps = list(dict.fromkeys(L._canonical(r) for r in reps))
    lo = draw(st.tuples(*[st.integers(-4, 0)] * dim))
    hi = tuple(l + draw(st.integers(0, 4)) for l in lo)
    return L, creps, lo, hi


@given(box_queries(), st.integers(0, 30))
def test_coset_points_limit(query, limit):
    # the points are generated lazily: a caller that stops early sees a prefix
    L, creps, lo, hi = query
    full = list(coset_points(L, creps, lo, hi))
    assert len(set(full)) == len(full)
    assert sorted(full) == [p.as_int_tuple() for p in
                            points_in_box(L, [Point(c) for c in creps], Point(lo), Point(hi))]
    got = list(itertools.islice(coset_points(L, creps, lo, hi), limit))
    assert got == full[:limit]


# ---------------------------------------------------------------------------
# points below a bound


def test_points_below_fixtures():
    # strictly below (2, 2, 2) is weakly below (1, 1, 1)
    below = points_below(KER111, [ZERO3], Point((2, 2, 2)))
    assert len(below) == 10
    assert ZERO3 in below and Point((1, 1, -2)) in below

    assert points_below(KER111, [ZERO3], Point((1, 1, 1))) == (ZERO3,)
    assert points_below(KER111, [ZERO3], ZERO3) == ()


def test_points_below_rational_bound():
    # for integer points, x < 3/2 and x < 2 coincide
    b = Point((Fraction(3, 2),) * 3)
    assert points_below(KER111, [ZERO3], b) == points_below(KER111, [ZERO3], Point((2, 2, 2)))
    assert len(points_below(KER111, [ZERO3], b)) == 10


def test_points_below_requires_positivity():
    with pytest.raises(PositivityError):
        points_below(Lattice([(1, 0)]), [Point((0, 0))], Point((5, 5)))


def scan_below(weights, L, reps, bound):
    # kernel-of-weights cosets have fixed weighted sum, so the region is a box
    pts = set()
    for rep in reps:
        s = sum(w * c for w, c in zip(weights, rep.coords))
        ranges = []
        for i, w in enumerate(weights):
            other = sum(weights[j] * bound.coords[j] for j in range(len(weights)) if j != i)
            ranges.append(range(math.ceil((s - other) / w), math.floor(bound.coords[i]) + 1))
        # the weighted sum fixes the last coordinate
        for head in itertools.product(*ranges[:-1]):
            last, rest = divmod(s - sum(w * x for w, x in zip(weights, head)), weights[-1])
            if rest or last not in ranges[-1]:
                continue
            vals = head + (last,)
            p = Point(vals)
            if not L.member(p - rep):
                continue
            if not all(x < b for x, b in zip(vals, bound.coords)):
                continue
            pts.add(p)
    return sorted(pts, key=point_key)


def test_points_below_random():
    rng = random.Random(414)
    cases = [((1, 1, 1), KER111), ((1, 2, 3), KER123)]
    for _ in range(40):
        weights, L = cases[rng.randrange(2)]
        reps = [Point(tuple(rng.randint(-2, 2) for _ in range(3)))
                for _ in range(rng.randint(1, 2))]
        bound = Point(tuple(rng.randint(-1, 3) for _ in range(3)))
        raised = bound + Point((1, 1, 1))
        if rng.random() >= 0.5:
            # once a weak query at the bound: strictly below the bound plus one
            bound = raised
        got = points_below(L, reps, bound)
        assert list(got) == scan_below(weights, L, reps, bound)
        assert set(got) <= set(points_below(L, reps, raised))
    # rational bounds and rank-3 lattices in Z^4 against the same Lattice
    # objects, so each elimination plan is reused with new right-hand sides
    cases += [((1, 1, 1, 1), Lattice([(1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1)])),
              ((1, 2, 3, 4), Lattice([(2, -1, 0, 0), (3, 0, -1, 0), (4, 0, 0, -1)]))]
    for _ in range(60):
        weights, L = cases[rng.randrange(4)]
        dim = len(weights)
        reps = [Point(tuple(rng.randint(-2, 2) for _ in range(dim)))
                for _ in range(rng.randint(1, 2))]
        bound = Point(tuple(Fraction(rng.randint(-3, 7), rng.randint(1, 2)) for _ in range(dim)))
        if rng.random() >= 0.5:
            bound = bound + Point((1,) * dim)
        got = points_below(L, reps, bound)
        assert list(got) == scan_below(weights, L, reps, bound), (weights, reps, bound)


# ---------------------------------------------------------------------------
# minimal orthant points


def test_minimal_orthant_fixtures():
    plus = Orthant.from_string("+++")
    assert minimal_orthant_points(KER111, [ZERO3], plus) == ()

    units = minimal_orthant_points(KER111, [Point((1, 0, 0))], plus)
    assert units == (Point((0, 0, 1)), Point((0, 1, 0)), Point((1, 0, 0)))

    mixed = minimal_orthant_points(KER111, [ZERO3], Orthant.from_string("+-+"))
    assert mixed == (Point((0, -1, 1)), Point((1, -1, 0)))

    # (1, 2) is not minimal: (0, 1) of the other coset lies below it, and so
    # does the origin, which the nonzero points leave out
    L = Lattice([(1, 2), (-2, 1)])
    got = minimal_orthant_points(L, [Point((1, 2)), Point((-1, -1))], Orthant.from_string("++"))
    assert got == (Point((0, 1)), Point((2, 0)))


def test_minimal_orthant_dim_mismatch():
    with pytest.raises(InputError):
        minimal_orthant_points(KER111, [ZERO3], Orthant.from_string("++"))


def brute_orthant_minimal(L, reps, orthant, radius):
    pts = []
    for vals in itertools.product(range(-radius, radius + 1), repeat=L.dim):
        p = Point(vals)
        if not in_orthant(orthant, p) or not any(vals):
            continue
        if any(L.member(p - r) for r in reps):
            pts.append(p)
    return sorted((p for p in pts
                   if not any(q != p and in_orthant(orthant, p - q) for q in pts)),
                  key=point_key)


def check_minimal_orthant(L, reps, orthant, radius=5):
    got = minimal_orthant_points(L, reps, orthant)

    for i, a in enumerate(got):
        for j, b in enumerate(got):
            if i != j:
                assert not in_orthant(orthant, b - a)

    brute = brute_orthant_minimal(L, reps, orthant, radius)
    got_slice = [p for p in got if all(abs(x) <= radius for x in p.coords)]
    assert got_slice == brute
    for p in brute:
        assert any(in_orthant(orthant, p - m) for m in got)


def test_minimal_orthant_random():
    rng = random.Random(415)
    for _ in range(40):
        dim = rng.randint(2, 3)
        L = random_lattice(rng, dim, rng.randint(1, 2), -2, 2)
        reps = [Point(tuple(rng.randint(-2, 2) for _ in range(dim)))
                for _ in range(rng.randint(1, 2))]
        orthant = Orthant(tuple(rng.choice((1, -1)) for _ in range(dim)))
        rng.random()  # once chose whether to keep the origin; drawn to keep the cases
        check_minimal_orthant(L, reps, orthant)
    # the coset systems behind the search: no rows (the full lattice), one
    # equality, and an equality plus a congruence mod 2, over every orthant
    for L, rep in ((Lattice([(1, 0), (0, 1)]), Point((3, -2))), (KER111, ZERO3),
                   (Lattice([(2, 0)]), Point((1, 5)))):
        for orthant in all_orthants(L.dim):
            check_minimal_orthant(L, [rep], orthant)


@st.composite
def orthant_queries(draw):
    """A lattice in Z^2 or Z^3, one integer coset representative, and an orthant."""
    dim = draw(st.integers(2, 3))
    vector = st.tuples(*[st.integers(-2, 2)] * dim)
    columns = draw(st.lists(vector, min_size=1, max_size=dim))
    try:
        L = Lattice(columns)
    except InputError:
        assume(False)
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * dim))
    return L, draw(vector), Orthant(signs)


@settings(max_examples=60, deadline=None)
@given(orthant_queries())
def test_minimal_orthant_opposite_symmetry(query):
    # x is in c + L and in sigma exactly when -x is in -c + L and in -sigma
    L, c, orthant = query
    got = minimal_orthant_points(L, [Point(c)], orthant)
    opposite = minimal_orthant_points(L, [Point([-x for x in c])],
                                      Orthant(tuple(-s for s in orthant.signs)))
    assert sorted(p.as_int_tuple() for p in got) == \
        sorted(tuple(-x for x in p.as_int_tuple()) for p in opposite)


def test_minimal_orthant_downset_inside_box():
    # a result's box back to 0 holds no other set point: corners in either order
    reps = [Point((1, 1, 1))]
    pts = minimal_orthant_points(KER123, reps, Orthant.from_string("++-"))
    assert pts
    for p in pts:
        assert in_orthant(Orthant.from_string("++-"), p)
        assert points_in_box(KER123, reps, ZERO3, p) == (p,)
        assert points_in_box(KER123, reps, p, ZERO3) == (p,)
