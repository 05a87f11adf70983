"""Exact rational points, orders, orthants, boxes."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scarf.errors import InputError
from scarf.geometry import (
    Box,
    Orthant,
    Point,
    all_orthants,
    as_fraction,
    cuboid,
    join,
    join2,
    leq,
    meet,
    point_key,
    zero_point,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=6
)


def pts(n):
    return st.builds(Point, st.lists(rationals, min_size=n, max_size=n))


class TestAsFraction:
    def test_accepts_int_str_fraction(self):
        assert as_fraction(3) == 3
        assert as_fraction("2/5") == Fraction(2, 5)
        assert as_fraction("-7") == -7
        assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)

    def test_rejects_floats(self):
        with pytest.raises(InputError):
            as_fraction(0.5)
        with pytest.raises(InputError):
            Point((1, 2.0))

    def test_rejects_bool_and_junk(self):
        with pytest.raises(InputError):
            as_fraction(True)
        with pytest.raises(InputError):
            as_fraction("one half")
        with pytest.raises(InputError):
            as_fraction("1/0")


class TestPoint:
    def test_construction_and_equality(self):
        p = Point(("1/2", 3, Fraction(-2)))
        assert p.coords == (Fraction(1, 2), Fraction(3), Fraction(-2))
        assert p == Point([Fraction(1, 2), 3, -2])
        assert hash(p) == hash(Point(("1/2", "3", "-2")))
        assert p.dim == 3 and len(p) == 3

    def test_hash_is_the_coordinate_hash_and_cached(self):
        half = [Point(("1/2", 3)), Point(("2/4", 3)), Point((Fraction(1, 2), 3))]
        for p in half:
            assert hash(p) == hash(p.coords)  # before first use
        assert len({hash(p) for p in half}) == 1
        assert len(set(half)) == 1
        for p in half:
            assert hash(p) == hash(p.coords) == hash(Point(p.coords))  # after first use
        assert hash(Point((1, 2))) != hash(Point((2, 1)))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            Point(())

    def test_arithmetic(self):
        a, b = Point((1, 2)), Point((3, "1/2"))
        assert a + b == Point((4, "5/2"))
        assert b - a == Point((2, "-3/2"))
        assert a - a == Point((0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            Point((1, 2)) + Point((1, 2, 3))

    def test_integrality(self):
        assert Point((2, -3)).is_integral()
        assert Point((2, -3)).as_int_tuple() == (2, -3)
        assert not Point((1, "1/2")).is_integral()
        with pytest.raises(InputError):
            Point((1, "1/2")).as_int_tuple()

    def test_as_strings_round_trip(self):
        p = Point(("1/2", -3, "7/4"))
        assert Point(str(c) for c in p) == p

    def test_zero_point(self):
        assert zero_point(3) == Point((0, 0, 0))


class TestOrders:
    def test_join_meet_fixtures(self):
        a, b = Point((1, 4)), Point((3, 2))
        assert join([a, b]) == Point((3, 4))
        assert meet([a, b]) == Point((1, 2))
        assert join2(a, b) == join([a, b])

    def test_join_of_rational_triple(self):
        pts_ = [Point(("0", "0", "1")), Point((1, 1, 0)), Point((2, "1/2", "1/2"))]
        assert join(pts_) == Point((2, 1, 1))

    def test_empty_join_meet_rejected(self):
        with pytest.raises(InputError):
            join([])
        with pytest.raises(InputError):
            meet([])

    def test_leq_strict(self):
        assert leq(Point((1, 1)), Point((1, 2)))

    def test_compare_all_cases(self):
        # equal, weakly below, strictly below, and incomparable pairs
        a = Point((1, 1))
        assert leq(a, Point((1, 1))) and leq(Point((1, 1)), a)
        assert leq(a, Point((1, 2))) and not leq(Point((1, 2)), a)
        assert leq(Point((0, 0)), Point((1, 2)))
        assert leq(Point((1, 2)), Point((3, 3)))
        assert not leq(Point((3, 3)), Point((1, 2)))
        assert not leq(Point((0, 2)), Point((2, 0)))
        assert not leq(Point((2, 0)), Point((0, 2)))

    @given(pts(3), pts(3))
    def test_join_is_least_upper_bound(self, a, b):
        j = join2(a, b)
        assert leq(a, j) and leq(b, j)
        m = meet([a, b])
        assert leq(m, a) and leq(m, b)
        assert leq(m, j)

    @given(pts(2), pts(2), pts(2))
    def test_join_associative_commutative(self, a, b, c):
        assert join([a, b]) == join([b, a])
        assert join([join2(a, b), c]) == join([a, join2(b, c)])

    @given(pts(3), pts(3))
    def test_compare_antisymmetry(self, a, b):
        if leq(a, b) and leq(b, a):
            assert a == b


class TestOrthants:
    def test_string_round_trip(self):
        o = Orthant.from_string("+-+")
        assert o.signs == (1, -1, 1)
        assert str(o) == "+-+"
        assert Orthant.from_string("++").signs == (1, 1)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            Orthant.from_string("+0-")
        with pytest.raises(InputError):
            Orthant((1, 0))
        with pytest.raises(InputError):
            Orthant(())

    def test_all_orthants_count(self):
        orths = list(all_orthants(3))
        assert len(orths) == 8
        assert len({str(o) for o in orths}) == 8

    def test_contains(self):
        o = Orthant((1, -1))
        assert o.contains(Point((2, -3)))
        assert o.contains(Point((0, 0)))
        assert not o.contains(Point((2, 3)))

    @given(pts(3), pts(3), st.sampled_from([(1, 1, 1), (1, -1, 1), (-1, -1, -1), (-1, 1, -1)]))
    def test_reflect_carries_order(self, a, b, signs):
        # flipping the negative axes carries the orthant order onto the componentwise one
        o = Orthant(signs)

        def reflect(p):
            return Point(s * c for s, c in zip(signs, p))

        assert o.contains(b - a) == leq(reflect(a), reflect(b))


class TestBoxes:
    def test_box_validation(self):
        with pytest.raises(InputError):
            Box(Point((1, 0)), Point((0, 1)))
        with pytest.raises(InputError):
            Box(Point((0, 0)), Point((1, 1, 1)))
        b = Box(Point((0, 0)), Point((2, 2)))
        assert (b.lo, b.hi) == (Point((0, 0)), Point((2, 2)))
        assert Box(b.hi, b.hi).lo == b.hi

    def test_cuboid_symmetry(self):
        a, b = Point((1, -2)), Point((-1, 4))
        assert cuboid(a, b) == cuboid(b, a)
        assert cuboid(a, b).lo == Point((-1, -2))
        assert cuboid(a, b).hi == Point((1, 4))

    @given(pts(2), pts(2), pts(2))
    def test_cuboid_contains_matches_box(self, a, b, x):
        box = cuboid(a, b)
        assert (box.lo, box.hi) == (meet([a, b]), join([a, b]))

    @given(pts(3), pts(3))
    def test_cuboid_contains_endpoints(self, a, b):
        box = cuboid(a, b)
        assert all(leq(box.lo, p) and leq(p, box.hi) for p in (a, b))

    def test_point_key_is_lex(self):
        ps = [Point((1, 0)), Point((0, 5)), Point((0, 2))]
        assert sorted(ps, key=point_key) == [Point((0, 2)), Point((0, 5)), Point((1, 0))]
