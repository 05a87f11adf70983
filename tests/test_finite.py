"""Face tests, neighbor sets, full enumeration, genericity for finite sets."""

import itertools
import random
from fractions import Fraction
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scarf.complexes import Face
from scarf.errors import InputError
from scarf.finite import (
    FinitePointSet,
    enumerate_complex,
    face_witness,
    is_generic,
    neighbors,
    strict_dominator,
)
from scarf.geometry import Point, join


def collinear(m):
    """The points (0,0), (1,0), ..., (m,0)."""
    return FinitePointSet([(i, 0) for i in range(m + 1)])


def point_faces(A, tree):
    """Each face of A's face tree as its tuple of A's points, in face order, the empty face's first."""
    return [tuple(A.points[i] for i in members) for members in tree.members()]


def join_values(A, tree):
    """Each face's join as the Point of its ranks' values on A's axes, in face order."""
    values = A.rank_index.values
    return [Point(map(getitem, values, tree.tops[t])) for t in tree.join]


def rational_fan(m):
    """a0=(0,0,1) plus a_i=(i, 1/i, (i-1)/i) for i=1..m; faces {a0,ai,ai+1}."""
    pts = [Point(("0", "0", "1"))]
    pts += [Point((i, Fraction(1, i), Fraction(i - 1, i))) for i in range(1, m + 1)]
    return FinitePointSet(pts), {i: p for i, p in enumerate(pts)}


class TestIsFace:
    def test_fan_triple_is_face(self):
        A, a = rational_fan(4)
        assert face_witness(A, [a[0], a[1], a[2]]) is None

    def test_fan_triple_killed_by_own_member(self):
        A, a = rational_fan(4)
        w = face_witness(A, [a[1], a[2], a[3]])
        assert w == a[2]
        assert join([a[1], a[2], a[3]]) == Point((3, 1, "2/3"))

    def test_dominated_point_is_not_vertex(self):
        A = FinitePointSet([(0, 0), (1, 1)])
        assert face_witness(A, [Point((1, 1))]) == Point((0, 0))

    def test_empty_set_is_face(self):
        A = FinitePointSet([(0, 0), (1, 1)])
        assert face_witness(A, []) is None

    def test_non_member_rejected(self):
        A = FinitePointSet([(0, 0)])
        with pytest.raises(InputError):
            face_witness(A, [Point((5, 5))])


class TestNeighbors:
    def test_collinear_all_pairs(self):
        A = collinear(2)
        assert neighbors(A, Point((0, 0))) == {Point((1, 0)), Point((2, 0))}

    def test_fan_center_sees_all(self):
        A, a = rational_fan(4)
        assert neighbors(A, a[0]) == {a[1], a[2], a[3], a[4]}

    def test_singleton(self):
        A = FinitePointSet([(3, 4)])
        assert neighbors(A, Point((3, 4))) == frozenset()

    def test_non_member_rejected(self):
        with pytest.raises(InputError):
            neighbors(collinear(2), Point((9, 9)))

    def test_symmetry(self):
        A, _ = rational_fan(5)
        for p in A.points:
            for q in neighbors(A, p):
                assert p in neighbors(A, q)


class TestEnumerate:
    def test_collinear_full_simplex(self):
        cx = enumerate_complex(collinear(2))
        assert cx.f_vector() == [3, 3, 1]

    def test_fan_truncation_facets(self):
        A, a = rational_fan(3)
        cx = enumerate_complex(A)
        faces = point_faces(A, cx)
        assert Face([a[0], a[1], a[2]]).vertices in faces
        assert Face([a[0], a[2], a[3]]).vertices in faces
        assert Face([a[1], a[3]]).vertices not in faces
        assert len(cx.f_vector()) - 1 == 2

    def test_dominated_point_only_origin_vertex(self):
        A = FinitePointSet([(0, 0), (1, 1)])
        cx = enumerate_complex(A)
        assert cx.f_vector() == [1]
        assert [f for f in point_faces(A, cx) if len(f) == 1] == [(Point((0, 0)),)]

    def test_max_dim_truncation(self):
        A = collinear(4)
        cx = enumerate_complex(A, max_dim=2)
        full = enumerate_complex(A)
        assert len(cx.f_vector()) - 1 == 2
        assert set(point_faces(A, cx)) == {f for f in point_faces(A, full) if len(f) <= 3}

    def test_max_dim_zero(self):
        cx = enumerate_complex(collinear(3), max_dim=0)
        assert cx.f_vector() == [4]

    def test_max_dim_below_minus_one_rejected(self):
        assert enumerate_complex(collinear(3), max_dim=-1).f_vector() == []
        with pytest.raises(InputError):
            enumerate_complex(collinear(3), max_dim=-2)

    def test_downward_closure(self):
        A, _ = rational_fan(5)
        faces = set(point_faces(A, enumerate_complex(A)))
        for f in faces:
            for v in f:
                assert tuple(u for u in f if u != v) in faces

    def test_translation_invariance(self):
        A, _ = rational_fan(4)
        t = Point(("1/3", -2, 5))
        shifted = FinitePointSet([p + t for p in A.points])
        cx, cxt = enumerate_complex(A), enumerate_complex(shifted)
        assert {tuple(v + t for v in f) for f in point_faces(A, cx)} == set(point_faces(shifted, cxt))
        for f, md, mdt in zip(point_faces(A, cx), join_values(A, cx), join_values(shifted, cxt)):
            if f:
                assert mdt == md + t

    def test_monotone_reparametrization_invariance(self):
        rng = random.Random(2)
        pts = {(rng.randint(0, 9), rng.randint(0, 9), rng.randint(0, 9)) for _ in range(6)}
        A = FinitePointSet(pts)
        remap = {v: v * v * 3 + 1 for v in range(10)}  # strictly increasing on 0..9
        B = FinitePointSet([(remap[int(p[0])], int(p[1]), int(p[2])) for p in pts])
        key_a = {tuple(tuple(v.coords) for v in f) for f in point_faces(A, enumerate_complex(A))}

        def unmap(f):
            inv = {remap[v]: v for v in remap}
            return tuple(tuple([Fraction(inv[int(v[0])]), v[1], v[2]]) for v in f)

        key_b = {unmap(f) for f in point_faces(B, enumerate_complex(B))}
        assert key_a == key_b

    def test_dimension_bound_witness(self):
        # every face's weak downset in A has at most dim+1 points
        A, _ = rational_fan(6)
        cx = enumerate_complex(A)
        d = len(cx.f_vector()) - 1
        for f, md in zip(point_faces(A, cx), join_values(A, cx)):
            if not f:
                continue
            below = [a for a in A.points if all(x <= y for x, y in zip(a, md))]
            assert len(below) <= d + 1


@st.composite
def relabelled_sets(draw):
    """Points on a small grid, and a strictly increasing map of each axis.

    Each axis maps to ints or to rationals, written as "p/q" strings when
    they are not integral.
    """
    n = draw(st.integers(2, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), min_size=1, max_size=8,
                         unique=True))
    maps = []
    for k in range(n):
        values = sorted({r[k] for r in rows})
        if draw(st.booleans()):
            step = st.fractions(min_value=Fraction(1, 9), max_value=3, max_denominator=9)
        else:
            step = st.integers(1, 4)
        t = Fraction(draw(st.integers(-5, 5)))
        image = {}
        for v in values:
            t += draw(step)
            image[v] = t.numerator if t.denominator == 1 else f"{t.numerator}/{t.denominator}"
        maps.append(image)
    return rows, maps


class TestOrderInvariance:
    """The complex depends only on the order of values along each axis."""

    @settings(max_examples=60, deadline=None)
    @given(relabelled_sets())
    def test_increasing_axis_maps_carry_faces(self, case):
        rows, maps = case

        def phi(p):
            return Point(maps[k][c] for k, c in enumerate(p))

        A = FinitePointSet(rows)
        B = FinitePointSet([phi(p) for p in A.points])
        cx, cxb = enumerate_complex(A), enumerate_complex(B)
        # the maps keep the lexicographic order, so faces correspond in order
        assert [tuple(map(phi, f)) for f in point_faces(A, cx)] == point_faces(B, cxb)
        for f, md, mdb in zip(point_faces(A, cx), join_values(A, cx), join_values(B, cxb)):
            if f:
                assert mdb == phi(md)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 14).flatmap(lambda m: st.tuples(*[st.permutations(range(m))] * 3)))
    def test_planar_edge_bound_in_three_variables(self, axes):
        # distinct values on every axis make the set generic, and the
        # neighbor complex of a generic set in three variables is planar
        cx = enumerate_complex(FinitePointSet(zip(*axes)))
        fv = cx.f_vector() + [0, 0]
        assert len(cx.f_vector()) - 1 < 3
        if fv[0] >= 3:
            assert fv[1] <= 3 * fv[0] - 6


class TestGenericity:
    def test_generic_staircase(self):
        assert is_generic(FinitePointSet([(2, 0), (1, 1), (0, 2)])).generic

    def test_nongeneric_fixture_with_witness(self):
        r = is_generic(FinitePointSet([(2, 1), (1, 2), (2, 2)]))
        assert not r.generic
        assert r.witness == (Point((2, 1)), Point((2, 2)), 1)

    def test_two_point_generic(self):
        assert is_generic(FinitePointSet([(1, 0), (0, 1)])).generic

    def test_modes_agree_on_fixtures(self):
        for rows in ([(2, 0), (1, 1), (0, 2)], [(2, 1), (1, 2), (2, 2)]):
            r = is_generic(FinitePointSet(rows), mode="both")
            assert r.modes_agree

    def test_bad_mode(self):
        with pytest.raises(InputError):
            is_generic(FinitePointSet([(1, 2)]), mode="sideways")

    def test_modes_agree_randomized(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.choice([2, 3])
            pts = {tuple(rng.randint(0, 5) for _ in range(n))
                   for _ in range(rng.randint(2, 6))}
            A = FinitePointSet(pts)
            r = is_generic(A, mode="both")
            assert r.modes_agree, pts

    def test_generic_implies_low_dimension(self):
        rng = random.Random(13)
        found = 0
        while found < 25:
            pts = {tuple(rng.randint(0, 30) for _ in range(3)) for _ in range(6)}
            A = FinitePointSet(pts)
            if not is_generic(A).generic:
                continue
            found += 1
            assert len(enumerate_complex(A).f_vector()) - 1 < 3


class TestStrictDominator:
    def test_finds_first_in_lex_order(self):
        A = FinitePointSet([(0, 0), (1, 1), (5, 5)])
        assert strict_dominator(A, Point((2, 2))) == Point((0, 0))
        assert strict_dominator(A, Point((0, 0))) is None


def tied_rational_set(rng):
    """Points with many ties per axis, "p/q" values and usually some dominated points."""
    n = rng.randint(2, 4)
    pools = [sorted({Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(4)})
             for _ in range(n)]
    rows = {tuple(rng.choice(pool) for pool in pools) for _ in range(rng.randint(1, 9))}
    return FinitePointSet([[str(c) for c in row] for row in rows])


def brute_below(A, top):
    return [a for a in A.points if all(x < y for x, y in zip(a, top))]


def brute_witness(A, members):
    top = [max(col) for col in zip(*members)]
    below = brute_below(A, top)
    return below[0] if below else None


def brute_faces(A):
    """Nonempty faces in canonical order: by size, then lexicographically."""
    return [c for size in range(1, len(A) + 1) for c in itertools.combinations(A.points, size)
            if brute_witness(A, c) is None]


def query_point(rng, A):
    """A point whose coordinates fall below, on, between or above the set's values."""
    coords = []
    for k in range(A.dim):
        values = sorted({a[k] for a in A.points})
        lo = rng.randrange(len(values))
        hi = min(lo + 1, len(values) - 1)
        coords.append(rng.choice((values[0] - 1, values[lo], Fraction(values[lo] + values[hi], 2),
                                  values[-1] + Fraction(1, 3))))
    return Point(coords)


class TestRankQueriesAgainstBruteForce:
    """Every rank-space query against a direct scan of its definition."""

    def test_strict_dominator_at_any_point(self):
        rng = random.Random(101)
        outside = 0
        for _ in range(150):
            A = tied_rational_set(rng)
            for _ in range(6):
                v = query_point(rng, A)
                outside += v not in A
                below = brute_below(A, v)
                assert strict_dominator(A, v) == (below[0] if below else None), (A.points, v)
            for a in A.points:
                below = brute_below(A, a)
                assert strict_dominator(A, a) == (below[0] if below else None)
        assert outside > 500

    def test_neighbors_of_every_point(self):
        rng = random.Random(102)
        for _ in range(150):
            A = tied_rational_set(rng)
            for a in A.points:
                expect = {b for b in A.points if b != a and brute_witness(A, (a, b)) is None}
                assert neighbors(A, a) == expect

    def test_face_witness_on_random_subsets(self):
        rng = random.Random(103)
        for _ in range(150):
            A = tied_rational_set(rng)
            for _ in range(5):
                members = rng.sample(A.points, rng.randint(1, len(A)))
                assert face_witness(A, members) == brute_witness(A, members)

    def test_complex_matches_brute_faces(self):
        rng = random.Random(104)
        for _ in range(100):
            A = tied_rational_set(rng)
            got = point_faces(A, enumerate_complex(A))[1:]
            assert got == brute_faces(A)

    def test_genericity_modes_against_definitions(self):
        rng = random.Random(105)
        seen = set()
        for _ in range(200):
            A = tied_rational_set(rng)
            pairs = [(a, b, k + 1) for k in range(A.dim)
                     for a, b in itertools.combinations(A.points, 2)
                     if a[k] == b[k] and brute_witness(A, (a, b)) is None]
            facets = []
            faces = brute_faces(A)
            for k in range(A.dim):
                for f in faces:
                    top = [max(col) for col in zip(*f)]
                    hits = [a for a in A.points
                            if all(x <= y for x, y in zip(a, top)) and a[k] == top[k]]
                    if len(hits) >= 2:
                        facets.append((hits[0], hits[1], k + 1))
            pair = is_generic(A, mode="definition")
            assert (pair.generic, pair.witness) == (not pairs, pairs[0] if pairs else None)
            facet = is_generic(A, mode="remark")
            assert (facet.generic, facet.witness) == (not facets, facets[0] if facets else None)
            seen.add(pair.generic)
        assert seen == {True, False}
