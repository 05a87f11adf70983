"""Stars, neighbors, and translation quotients of periodic point sets."""

import itertools
import re
from collections import Counter
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scarf.periodic
from scarf.complexes import Face, LabeledComplex
from scarf.diophantine import Lattice, coset_points, minimal_orthant_points, points_in_box
from scarf.errors import CertificationError, InputError, PositivityError
from scarf.geometry import Point, all_orthants, join, point_key, zero_point
from scarf.oracles import oracle_lattice_neighbors, oracle_star_orbit_counts
from scarf.periodic import (
    PeriodicSet,
    _candidate_vertices,
    certified_quotient,
    certified_star,
    exists_strictly_below,
    quotient_complex,
    star_at,
    validate_periodic_set,
)

ZERO3 = zero_point(3)


def ker111():
    return validate_periodic_set([(1, -1, 0), (0, 1, -1)])


def ker123():
    return validate_periodic_set([(2, -1, 0), (3, 0, -1)])


def ker111_e1():
    return validate_periodic_set([(1, -1, 0), (0, 1, -1)], cosets=[(0, 0, 0), (1, 0, 0)])


def ker123_e1():
    return validate_periodic_set([(2, -1, 0), (3, 0, -1)], cosets=[(0, 0, 0), (1, 0, 0)])


def perm_set(*vectors):
    out = set()
    for v in vectors:
        out |= set(itertools.permutations(v))
    return out


# ---------------------------------------------------------------------------
# construction


def test_validate_periodic_set():
    A = validate_periodic_set([(1, -1, 0), (0, 1, -1)])
    assert A.reps == (ZERO3,)
    assert A.dim == 3
    B = validate_periodic_set([(1, -1, 0), (0, 1, -1)], cosets=[(0, 0, 0), (1, 0, 0)])
    assert len(B.reps) == 2
    with pytest.raises(InputError):
        validate_periodic_set([(1, 2), (2, 4)])


def test_periodic_set_rep_canonicalization():
    L = Lattice([(1, -1, 0), (0, 1, -1)])
    # (1,-1,0) is a lattice vector, so it names the zero coset
    A = PeriodicSet(L, [ZERO3, Point((1, -1, 0))])
    assert A.reps == (ZERO3,)
    B = PeriodicSet(L, [Point((1, 0, 0)), Point((0, 1, 0))])
    assert len(B.reps) == 1  # same coset, one representative survives
    with pytest.raises(InputError):
        PeriodicSet(L, [])
    with pytest.raises(InputError):
        PeriodicSet(L, [Point((1, 0))])


def test_periodic_set_requires_positive_lattice():
    with pytest.raises(PositivityError):
        validate_periodic_set([(1, 0)])
    with pytest.raises(PositivityError):
        PeriodicSet(Lattice([(2, 0), (0, 3)]), [(0, 0)])


def test_contains_and_translate():
    A = ker111()
    assert A.contains(ZERO3)
    assert A.contains(Point((4, -1, -3)))
    assert not A.contains(Point((1, 0, 0)))
    B = PeriodicSet(A.lattice, [Point((1, 0, 0))])
    assert B.contains(Point((1, 0, 0)))
    assert not B.contains(ZERO3)
    assert A == ker111() and hash(A) == hash(ker111())


# ---------------------------------------------------------------------------
# strict domination queries


def test_exists_strictly_below():
    A = ker111()
    assert exists_strictly_below(A, Point((1, 1, 1))) == ZERO3
    assert exists_strictly_below(A, Point((2, 2, 2))) == Point((-2, 1, 1))  # lex least
    assert exists_strictly_below(A, ZERO3) is None
    # coordinates of a sum-zero point below (1,1,0) would add up to at most -1
    assert exists_strictly_below(A, Point((1, 1, 0))) is None


# ---------------------------------------------------------------------------
# stars and neighbors at the origin


def test_neighbors_fixture():
    star = star_at(ker111(), ZERO3, 6)
    nbs, report = star.neighbors, star.report
    got = {p.as_int_tuple() for p in nbs}
    assert len(nbs) == 18
    assert got == perm_set((1, -1, 0), (2, -1, -1), (-2, 1, 1), (2, -2, 0))
    assert report.certified
    assert report.observed_star_dimension == 5
    assert report.dmax_used == 6


def test_star_fixture():
    star = star_at(ker111(), ZERO3, 6)
    cx, report = LabeledComplex(star.faces), star.report
    assert cx.f_vector() == (1, 18, 54, 60, 30, 6)
    assert cx.dimension == 5
    five = Face([Point(p) for p in
                 [(0, 0, 0), (1, -1, 0), (1, 0, -1), (2, -2, 0), (2, -1, -1), (2, 0, -2)]])
    assert five in cx
    assert report.certified


def test_candidate_counts_cover_all_orthants():
    report = star_at(ker111(), ZERO3, 6).report
    names = [name for name, _ in report.candidate_counts]
    assert sorted(names) == sorted(str(o) for o in all_orthants(3))
    assert all(count >= 1 for _, count in report.candidate_counts)
    assert dict(report.candidate_counts)["+++"] == 1  # only the origin survives there


def test_every_face_made_of_set_points():
    A = ker111()
    star = star_at(A, ZERO3, 6)
    for f in star.faces:
        assert ZERO3 in f.vertices
        for v in f.vertices:
            assert A.contains(v)


def test_star_faces_are_canonical():
    # star_at and quotient_complex build faces with Face.sorted_with_join,
    # which checks nothing; check here what Face() enforces
    for make in (ker111, ker123, ker111_e1, ker123_e1):
        A = make()
        star = certified_star(A)
        assert list(star.faces) == sorted(star.faces, key=Face.key)
        for f in star.faces:
            keys = [point_key(v) for v in f.vertices]
            assert keys == sorted(set(keys)), f
            assert star.center in f.vertices
            assert f.multidegree == join(f.vertices)
        for orbit in certified_quotient(A).orbits:
            assert orbit.face == Face(orbit.face.vertices)
            assert orbit.face.multidegree == join(orbit.face.vertices)


def test_star_translation_invariance():
    # the star at rep + t is the star at rep moved by t, down to the order of
    # every field, for lattice vectors t.  Neighbor and face counts at each
    # rep were computed by translating the set so that rep sits at the origin.
    expected = {
        ker111: {(0, 0, 0): (18, 169)},
        ker123: {(0, 0, 0): (12, 65)},
        ker111_e1: {(0, 0, 0): (21, 529), (0, 0, 1): (15, 368)},
        ker123_e1: {(0, 0, 0): (19, 713), (1, 0, 0): (19, 668)},
    }
    for make, counts in expected.items():
        A = make()
        cols = A.lattice.columns
        translates = [Point(sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(3))
                      for coeffs in ((1, 0), (0, -1), (-2, 3))]
        for rep in A.reps:
            base = star_at(A, rep, 4)
            where = f"{make.__name__} at {rep!r}"
            assert (len(base.neighbors), len(base.faces)) == counts[rep.as_int_tuple()], where
            assert all(A.contains(v) for v in base.neighbors), where
            for t in translates:
                moved = star_at(A, rep + t, 4)
                where = f"{make.__name__} at {rep!r} + {t!r}"
                assert moved.center == rep + t, where
                assert moved.neighbors == tuple(v + t for v in base.neighbors), where
                assert moved.faces == tuple(f.translated(t) for f in base.faces), where
                assert moved.report == base.report, where


def test_star_and_quotient_permutation_invariance():
    # permuting coordinates of the basis, the cosets and the center permutes
    # the star and leaves every count of the star and the quotient alone
    cases = ((ker111, (1, 2, 0)), (ker123, (1, 0, 2)), (ker111_e1, (2, 0, 1)),
             (ker123_e1, (1, 2, 0)))
    for make, perm in cases:
        def move(p):
            return Point(p[i] for i in perm)

        A = make()
        B = validate_periodic_set([tuple(col[i] for i in perm) for col in A.lattice.columns],
                                  cosets=[move(r).as_int_tuple() for r in A.reps])
        center = A.reps[-1]
        base, star = star_at(A, center, 4), star_at(B, move(center), 4)
        where = f"{make.__name__} under {perm}"
        assert set(star.neighbors) == {move(v) for v in base.neighbors}, where
        assert set(star.faces) == {Face(move(v) for v in f) for f in base.faces}, where
        assert star.dimension == base.dimension, where
        assert star.report.certified == base.report.certified, where
        assert dict(star.report.candidate_counts) == {
            "".join(orth[i] for i in perm): n for orth, n in base.report.candidate_counts
        }, where
        quot, moved = quotient_complex(A, 4), quotient_complex(B, 4)
        assert moved.f_vector == quot.f_vector, where
        assert (sorted(o.incidences for o in moved.orbits)
                == sorted(o.incidences for o in quot.orbits)), where


def test_certification_flag_semantics():
    for dmax in (1, 2, 4, 6, 8):
        report = star_at(ker111(), ZERO3, dmax).report
        assert report.certified == (report.observed_star_dimension < report.dmax_used)
        assert report.dmax_used == dmax


def test_certified_star_doubles_until_certain():
    star = certified_star(ker111())
    assert star.report.certified
    assert star.dimension == 5
    assert star.report.dmax_used == 8  # 2 -> 4 -> 8, first depth above the dimension

    two_coset = PeriodicSet(Lattice([(2, -1, 0), (3, 0, -1)]), [(0, 0, 0), (1, 0, 0)])
    deep = certified_star(two_coset)
    assert deep.report.certified
    assert deep.dimension == 8
    assert deep.report.dmax_used == 16


def test_star_error_paths():
    A = ker111()
    with pytest.raises(InputError):
        star_at(A, ZERO3, 0)
    with pytest.raises(InputError):
        star_at(A, Point((1, 0, 0)), 4)  # not a set point

    shifted = PeriodicSet(A.lattice, [Point((1, 0, 0))])
    with pytest.raises(InputError):
        star_at(shifted, ZERO3, 4)

    # the origin is a set point but (-1,-1,-1) lies strictly below it
    dominated = PeriodicSet(A.lattice, [ZERO3, Point((-1, -1, -1))])
    with pytest.raises(InputError) as info:
        star_at(dominated, ZERO3, 4)
    assert "strictly dominated" in str(info.value)


def test_dominated_vertex_error_names_vertex_and_witness():
    A = PeriodicSet(ker111().lattice, [ZERO3, Point((-1, -1, -1))])
    v = Point((5, -5, 0))
    with pytest.raises(InputError) as info:
        star_at(A, v, 4)
    message = str(info.value)
    assert message.startswith("[5, -5, 0] is strictly dominated by")
    assert "Point(" not in message
    found = re.search(r"dominated by \[([^]]*)\]", message)
    witness = Point(int(x) for x in found.group(1).split(", "))
    assert A.contains(witness)
    assert all(w < c for w, c in zip(witness, v))
    assert witness == exists_strictly_below(A, v)  # the lex-least one


def test_depth_limit_raises_certification_error():
    with pytest.raises(CertificationError) as info:
        certified_star(ker111(), dmax_limit=3)
    report = info.value.report
    assert info.value.exit_code == 6
    assert report.dmax_used == 2 and not report.certified
    assert report == star_at(ker111(), ZERO3, 2).report

    with pytest.raises(CertificationError) as info:
        certified_quotient(ker111(), dmax_limit=3)
    assert info.value.report == quotient_complex(ker111(), 2).report


# ---------------------------------------------------------------------------
# the candidate walk


def reference_candidates(A, creps, center, dmax):
    """Breadth-first walk over minimal coset steps, one down-box query per point.

    An independent statement of what _candidate_vertices computes: a point
    is accepted when box(center, point) holds at most dmax+1 set points, and
    only accepted points step on.
    """
    lattice = A.lattice
    keys = [lattice._coset_key(c) for c in creps]
    center_idx = keys.index(lattice._coset_key(center))

    def in_small_downbox(p):
        lo, hi = list(map(min, center, p)), list(map(max, center, p))
        inside = itertools.islice(coset_points(lattice, creps, lo, hi), dmax + 2)
        return len(list(inside)) <= dmax + 1

    counts = []
    candidates = set()
    for orth in all_orthants(A.dim):
        accepted, rejected = {center}, set()
        frontier = [(center, center_idx)]
        while frontier:
            nxt = []
            for u, l in frontier:
                for k, ck in enumerate(creps):
                    diff = Point([a - b for a, b in zip(ck, creps[l])])
                    for h in minimal_orthant_points(lattice, [diff], orth):
                        s = tuple(map(add, u, h.as_int_tuple()))
                        if s in accepted or s in rejected:
                            continue
                        if in_small_downbox(s):
                            accepted.add(s)
                            nxt.append((s, k))
                        else:
                            rejected.add(s)
            frontier = nxt
        counts.append((str(orth), len(accepted)))
        candidates |= accepted
    candidates.discard(center)
    return sorted(candidates), tuple(counts)


@st.composite
def small_periodic_sets(draw):
    """ker(x) in Z^3 for x a permutation of (1, b, c), with one to three cosets."""
    b, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    x = draw(st.permutations((1, b, c)))
    one = x.index(1)
    columns = []
    for j in range(3):
        if j != one:
            col = [0, 0, 0]
            col[one], col[j] = -x[j], 1
            columns.append(tuple(col))
    reps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=3))
    return PeriodicSet(Lattice(columns), reps)


@settings(max_examples=30, deadline=None)
@given(small_periodic_sets(), st.integers(1, 6))
def test_candidate_walk_matches_reference(A, dmax):
    creps = [rep.as_int_tuple() for rep in A.reps]
    for center in creps:
        got = _candidate_vertices(A, creps, center, dmax)
        assert got == reference_candidates(A, creps, center, dmax)
        for v in got[0]:
            assert len(points_in_box(A.lattice, A.reps, Point(center), Point(v))) <= dmax + 1


def test_step_search_shared_across_opposite_orthants(monkeypatch):
    A = ker123_e1()
    calls = []

    def counting(lattice, reps, orthant):
        calls.append((orthant.signs, lattice.canonical_rep(reps[0]).as_int_tuple()))
        return minimal_orthant_points(lattice, reps, orthant)

    monkeypatch.setattr(scarf.periodic, "minimal_orthant_points", counting)
    star_at(A, ZERO3, 4)
    assert calls
    pairs = Counter(
        frozenset([(signs, diff), (tuple(-s for s in signs),
                                   A.lattice.canonical_rep(Point([-x for x in diff])).as_int_tuple())])
        for signs, diff in calls)
    assert max(pairs.values()) == 1


# ---------------------------------------------------------------------------
# agreement with the brute-force oracle


def test_neighbors_match_oracle():
    for A in (ker111(), ker123()):
        star = star_at(A, ZERO3, 6)
        nbs, report = star.neighbors, star.report
        assert report.certified
        oracle = oracle_lattice_neighbors(A, 3, 8)
        got = {p for p in nbs if max(abs(x) for x in p.as_int_tuple()) <= 3}
        assert got == set(oracle)


def test_two_coset_neighbors_match_oracle():
    A = PeriodicSet(Lattice([(1, -1, 0), (0, 1, -1)]), [(0, 0, 0), (1, 0, 0)])
    star = certified_star(A)
    oracle = oracle_lattice_neighbors(A, 3, 8)
    got = {p for p in star.neighbors if max(abs(x) for x in p.as_int_tuple()) <= 3}
    assert got == set(oracle)


# ---------------------------------------------------------------------------
# quotients by the translation action


def test_quotient_fixture():
    q = quotient_complex(ker111(), 6)
    assert q.f_vector == (1, 9, 18, 15, 6, 1)
    assert q.report.certified
    for orbit in q.orbits:
        # a class with k vertices is met once from each of its vertices
        assert orbit.incidences == orbit.dim + 1
        v0 = orbit.face.vertices[0]
        assert ker111().lattice.canonical_rep(v0) == v0


def test_quotient_matches_oracle_orbit_tally():
    A = ker111()
    q = quotient_complex(A, 6)
    counts = oracle_star_orbit_counts(A, 8, 16)
    tally: dict = {}
    for (shape, _coset), _ in counts.items():
        d = len(shape) - 1
        tally[d] = tally.get(d, 0) + 1
    assert tuple(tally[d] for d in sorted(tally)) == q.f_vector


def test_certified_quotient():
    q = certified_quotient(ker111())
    assert q.report.certified
    assert q.f_vector == (1, 9, 18, 15, 6, 1)
    assert q.report.dmax_used == 8


def test_quotient_two_cosets_splits_vertex_orbits():
    A = PeriodicSet(Lattice([(1, -1, 0), (0, 1, -1)]), [(0, 0, 0), (1, 0, 0)])
    q = certified_quotient(A)
    assert q.report.certified
    assert q.f_vector[0] == 2  # one vertex orbit per coset
    for orbit in q.orbits:
        assert orbit.incidences == orbit.dim + 1
