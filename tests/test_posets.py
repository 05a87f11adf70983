"""Minimal elements, iterated layers, downset filtration."""

import random
from fractions import Fraction

import pytest

from scarf.errors import InputError
from scarf.finite import FinitePointSet
from scarf.geometry import Orthant, Point
from scarf.posets import dickson_layers, filter_by_downset


def P(*rows):
    return FinitePointSet([Point(r) for r in rows])


S4 = ((0, 1), (1, 0), (1, 1), (2, 0))


class TestMinimalElements:
    def test_fixture(self):
        assert dickson_layers(P(*S4), 0).layers[0] == {Point((0, 1)), Point((1, 0))}

    def test_singleton(self):
        assert dickson_layers(P((3, 3)), 0).layers[0] == {Point((3, 3))}

    def test_negative_orthant(self):
        po = P((0, 1), (1, 0), (1, 1))
        assert dickson_layers(po, 0, Orthant((-1, -1))).layers[0] == {Point((1, 1))}


class TestDicksonLayers:
    def test_fixture_k1(self):
        lay = dickson_layers(P(*S4), 1)
        assert [set(l) for l in lay.layers] == [
            {Point((0, 1)), Point((1, 0))},
            {Point((1, 1)), Point((2, 0))},
        ]
        assert lay.residual == frozenset()

    def test_k0_is_minimal(self):
        po = P(*S4)
        lay = dickson_layers(po, 0)
        assert len(lay.layers) == 1
        assert set(lay.layers[0]) == {Point((0, 1)), Point((1, 0))}
        assert lay.residual == {Point((1, 1)), Point((2, 0))}

    def test_chain(self):
        lay = dickson_layers(P((0, 0), (1, 1), (2, 2)), 2)
        assert [set(l) for l in lay.layers] == [
            {Point((0, 0))},
            {Point((1, 1))},
            {Point((2, 2))},
        ]

    def test_stops_when_exhausted(self):
        lay = dickson_layers(P((0, 0)), 9)
        assert len(lay.layers) == 1
        assert lay.residual == frozenset()

    def test_layers_partition_and_peel(self):
        rng = random.Random(5)
        pts = {tuple(rng.randint(0, 8) for _ in range(3)) for _ in range(60)}
        po = P(*pts)
        lay = dickson_layers(po, 4)
        seen: set = set()
        remaining = set(po)
        for layer in lay.layers:
            assert layer, "no empty layers"
            assert not (set(layer) & seen)
            assert set(layer) == dickson_layers(FinitePointSet(remaining), 0).layers[0]
            seen |= set(layer)
            remaining -= set(layer)
        assert lay.residual == frozenset(remaining)


class TestDownset:
    """Downset sizes, as the downset filter sees them."""

    def test_fixture(self):
        # the downset of (1, 1) is {(0, 1), (1, 0), (1, 1)}, so it enters at k = 2
        po = P(*S4)
        assert Point((1, 1)) not in filter_by_downset(po, 1)
        assert Point((1, 1)) in filter_by_downset(po, 2)

    def test_minimal_is_self(self):
        po = P((0, 1), (1, 0), (1, 1))
        assert filter_by_downset(po, 0, Orthant((-1, -1))) == {Point((1, 1))}

    def test_dimension_mismatch(self):
        # the orthant is checked against the set where layering starts
        for query in (dickson_layers, filter_by_downset):
            with pytest.raises(InputError, match="dimension"):
                query(P(*S4), 0, Orthant((1, 1, 1)))


class TestFilterByDownset:
    def test_fixtures(self):
        po = P(*S4)
        assert filter_by_downset(po, 0) == {Point((0, 1)), Point((1, 0))}
        assert filter_by_downset(po, 1) == {Point((0, 1)), Point((1, 0)), Point((2, 0))}
        assert filter_by_downset(po, 2) == set(po)

    def test_k0_equals_minimal(self):
        rng = random.Random(17)
        for _ in range(20):
            pts = {tuple(rng.randint(0, 6) for _ in range(3)) for _ in range(25)}
            po = P(*pts)
            assert filter_by_downset(po, 0) == dickson_layers(po, 0).layers[0]

    def test_contained_in_layers_strictly(self):
        # The filtration sits inside the layer union, and can be smaller.
        po = P((0, 1), (1, 0), (1, 1))
        filt = filter_by_downset(po, 1)
        lay = dickson_layers(po, 1)
        union = set().union(*(set(l) for l in lay.layers))
        assert filt <= union
        assert filt < union  # (1,1) is in layer 1 but has downset size 3

    def test_monotone_in_k(self):
        rng = random.Random(23)
        pts = {tuple(rng.randint(0, 10) for _ in range(4)) for _ in range(80)}
        po = P(*pts)
        prev: frozenset = frozenset()
        for k in range(8):
            cur = filter_by_downset(po, k)
            assert prev <= cur
            prev = cur

    def test_matches_brute_force_with_orthants(self):
        # integer, tied and "p/q" coordinates, against a direct count and peel
        rng = random.Random(31)
        for trial in range(45):
            n = rng.choice((2, 3))
            if trial % 3 == 0:
                pool = range(-5, 6)
            elif trial % 3 == 1:
                pool = (-1, 0, 2)
            else:
                pool = [Fraction(p, q) for p in range(-4, 5) for q in (2, 3)]
            pts = [Point(tuple(str(rng.choice(pool)) for _ in range(n))) for _ in range(30)]
            pts = list(dict.fromkeys(pts))
            orth = Orthant(tuple(rng.choice([1, -1]) for _ in range(n)))
            po = FinitePointSet(pts)
            k = rng.randint(0, 3)
            expect = {
                s for s in pts
                if sum(1 for u in pts if orth.contains(s - u)) <= k + 1
            }
            assert filter_by_downset(po, k, orth) == expect
            remaining, layers = set(pts), []
            while remaining and len(layers) <= k:
                layer = {s for s in remaining
                         if not any(u != s and orth.contains(s - u) for u in remaining)}
                layers.append(layer)
                remaining -= layer
            lay = dickson_layers(po, k, orth)
            assert [set(layer) for layer in lay.layers] == layers
            assert lay.residual == remaining


class TestPosetValidation:
    def test_rejects_mixed_dimensions(self):
        with pytest.raises(InputError):
            FinitePointSet([Point((1, 2)), Point((1, 2, 3))])

    def test_order_is_partial_order_on_samples(self):
        rng = random.Random(9)
        pts = [Point((rng.randint(-4, 4), rng.randint(-4, 4))) for _ in range(12)]
        orth = Orthant((1, -1))
        for a in pts:
            assert orth.contains(a - a)
            for b in pts:
                if orth.contains(b - a) and orth.contains(a - b):
                    assert a == b
                for c in pts:
                    if orth.contains(b - a) and orth.contains(c - b):
                        assert orth.contains(c - a)
