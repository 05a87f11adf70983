"""The brute-force reference paths and their guard rails."""

import itertools
import random

import pytest

from scarf.diophantine import Lattice, minimal_orthant_points
from scarf.errors import InputError, RadiusError
from scarf.finite import FinitePointSet, enumerate_complex
from scarf.geometry import Orthant, Point
from scarf.oracles import (
    _CosetSolver,
    oracle_box_points,
    oracle_finite_nb,
    oracle_lattice_neighbors,
    oracle_minimal_orthant,
    oracle_star_orbit_counts,
)
from scarf.periodic import PeriodicSet

KER111 = Lattice([(1, -1, 0), (0, 1, -1)])


def ker111_set(*extra_reps):
    return PeriodicSet(KER111, [(0, 0, 0), *extra_reps])


# ---------------------------------------------------------------------------
# finite subset oracle


def test_oracle_finite_collinear():
    cx = oracle_finite_nb(FinitePointSet([(0, 0), (1, 0), (2, 0)]))
    assert cx.f_vector() == (3, 3, 1)
    assert len(cx) == 8  # the full simplex, empty face included


def test_oracle_finite_dominated_point():
    cx = oracle_finite_nb(FinitePointSet([(0, 0), (1, 1)]))
    assert cx.f_vector() == (1,)
    assert Point((0, 0)) in [f.vertices[0] for f in cx.faces() if f.dim == 0]


def test_oracle_finite_guard():
    pts = [(i, 17 - i) for i in range(17)]
    with pytest.raises(InputError):
        oracle_finite_nb(FinitePointSet(pts))


def test_oracle_finite_agrees_with_enumeration():
    rng = random.Random(430)
    for _ in range(30):
        n = rng.randint(2, 4)
        card = rng.randint(1, 7)
        pts = {tuple(rng.randint(0, 9) for _ in range(n)) for _ in range(card)}
        A = FinitePointSet(sorted(pts))
        assert oracle_finite_nb(A) == enumerate_complex(A)


# ---------------------------------------------------------------------------
# independent lattice membership


def test_coset_solver_matches_lattice():
    rng = random.Random(431)
    for _ in range(40):
        dim = rng.randint(2, 4)
        rank = rng.randint(1, dim)
        while True:
            cols = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(rank)]
            try:
                L = Lattice(cols)
                break
            except InputError:
                continue
        solver = _CosetSolver(cols)
        for _ in range(25):
            v = tuple(rng.randint(-8, 8) for _ in range(dim))
            assert solver.member(v) == L.member(Point(v))


def test_coset_solver_rejects_dependent_columns():
    with pytest.raises(InputError):
        _CosetSolver([(1, 2), (2, 4)])


# ---------------------------------------------------------------------------
# box scans


def test_oracle_box_points():
    got = oracle_box_points(ker111_set(), (-1, -1, -1), (1, 1, 1))
    assert len(got) == 7
    assert (0, 0, 0) in got and (1, -1, 0) in got


def test_oracle_box_guard():
    with pytest.raises(InputError):
        oracle_box_points(ker111_set(), (-200, -200, -200), (200, 200, 200))


# ---------------------------------------------------------------------------
# lattice neighbors


def test_oracle_neighbor_radii_validation():
    A = ker111_set()
    with pytest.raises(InputError):
        oracle_lattice_neighbors(A, 0, 5)
    with pytest.raises(InputError):
        oracle_lattice_neighbors(A, 3, 3)


def test_oracle_neighbors_fixture():
    got = {p.as_int_tuple() for p in oracle_lattice_neighbors(ker111_set(), 3, 8)}
    expected = set()
    for v in [(1, -1, 0), (2, -1, -1), (-2, 1, 1), (2, -2, 0)]:
        expected |= set(itertools.permutations(v))
    assert got == expected
    assert (3, -2, -1) not in got


def test_oracle_neighbors_refuse_truncation():
    # a far coset point lies strictly below a candidate's top, outside the box
    A = ker111_set((-9, -1, -1))
    with pytest.raises(RadiusError) as info:
        oracle_lattice_neighbors(A, 2, 3)
    assert "witness radius 3 too small" in str(info.value)


# ---------------------------------------------------------------------------
# minimal orthant points


def test_oracle_minimal_orthant_fixtures():
    assert oracle_minimal_orthant(ker111_set(), (1, 1, 1), 5) == []
    units = oracle_minimal_orthant(PeriodicSet(KER111, [(1, 0, 0)]), (1, 1, 1), 5)
    assert units == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    mixed = oracle_minimal_orthant(ker111_set(), (1, -1, 1), 5)
    assert mixed == [(0, -1, 1), (1, -1, 0)]


def test_oracle_minimal_orthant_matches_main_path():
    rng = random.Random(432)
    radius = 5
    for _ in range(15):
        dim = rng.randint(2, 3)
        while True:
            cols = [tuple(rng.randint(-2, 2) for _ in range(dim))
                    for _ in range(rng.randint(1, 2))]
            try:
                L = Lattice(cols)
                L.check_positive()
                break
            except Exception:
                continue
        reps = [tuple(rng.randint(-2, 2) for _ in range(dim))]
        A = PeriodicSet(L, reps)
        signs = tuple(rng.choice((1, -1)) for _ in range(dim))
        rng.random()  # once chose whether to keep the origin; drawn to keep the cases
        got = oracle_minimal_orthant(A, signs, radius)
        main = minimal_orthant_points(L, A.reps, Orthant(signs))
        main_slice = [p.as_int_tuple() for p in main
                      if max(abs(x) for x in p.as_int_tuple()) <= radius]
        assert got == sorted(main_slice)


# ---------------------------------------------------------------------------
# star orbit counts


def test_oracle_orbit_radii_validation():
    with pytest.raises(InputError):
        oracle_star_orbit_counts(ker111_set(), 4, 4)


def test_oracle_orbit_rejects_dominated_origin():
    A = ker111_set((-1, -1, -1))
    with pytest.raises(InputError) as info:
        oracle_star_orbit_counts(A, 1, 2)
    assert "strictly dominated" in str(info.value)


def test_oracle_orbit_counts_small():
    counts = oracle_star_orbit_counts(ker111_set(), 6, 13)
    by_dim: dict = {}
    for (shape, coset), c in counts.items():
        assert coset == 0
        d = len(shape) - 1
        by_dim[d] = by_dim.get(d, 0) + 1
        # each face of a k-class is seen once per vertex
        assert c == len(shape) or d == 0
    assert by_dim[0] == 1 and by_dim[5] == 1
