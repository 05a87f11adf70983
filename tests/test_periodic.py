"""Stars, neighbors, and translation quotients of periodic point sets."""

import gc
import itertools
import re
from bisect import bisect_left
from collections import Counter
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scarf.periodic
from scarf.complexes import Face, LabeledComplex
from scarf.diophantine import (
    Lattice,
    _orthant_steps,
    coset_points,
    minimal_orthant_points,
    points_in_box,
)
from scarf.errors import CertificationError, InputError, PositivityError
from scarf.geometry import Point, all_orthants, join, zero_point
from scarf.oracles import oracle_lattice_neighbors, oracle_star_orbit_counts
from scarf.periodic import (
    CompletenessReport,
    PeriodicSet,
    QuotientResult,
    StarResult,
    _candidate_vertices,
    _fold,
    _grow_star,
    _setup,
    certified_quotient,
    certified_star,
    exists_strictly_below,
    quotient_complex,
    star_at,
    validate_periodic_set,
)
from test_complexes import face_records, reference_grow_faces, with_center

ZERO3 = zero_point(3)


def ker111():
    return validate_periodic_set([(1, -1, 0), (0, 1, -1)])


def ker123():
    return validate_periodic_set([(2, -1, 0), (3, 0, -1)])


def ker111_e1():
    return validate_periodic_set([(1, -1, 0), (0, 1, -1)], cosets=[(0, 0, 0), (1, 0, 0)])


def ker123_e1():
    return validate_periodic_set([(2, -1, 0), (3, 0, -1)], cosets=[(0, 0, 0), (1, 0, 0)])


def faces(result) -> tuple:
    """A star's faces, or a quotient's orbit faces, as Face objects built from its int data.

    Face() sorts its vertices and joins them itself, so comparing what it
    builds with the records checks the order and the joins they carry.
    """
    if isinstance(result, QuotientResult):
        return tuple(Face(map(Point, vs)) for vs, _ in result.orbits)
    points = [Point(v) for v in result.vertices]
    return tuple(Face(points[i] for i in members) for members in result.records.members())


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
    cx, report = LabeledComplex(faces(star)), star.report
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
    for f in faces(star):
        assert ZERO3 in f.vertices
        for v in f.vertices:
            assert A.contains(v)


def test_star_faces_are_canonical():
    # star_at and quotient_complex return records and int tuples, which
    # nothing checks on the way out; check here what Face() would enforce
    for make in (ker111, ker123, ker111_e1, ker123_e1):
        A = make()
        for center in (A.reps[-1], A.reps[0] + Point(A.lattice.columns[0])):
            star = star_at(A, center, 8)
            vertices = star.vertices
            assert list(vertices) == sorted(set(vertices))
            pos = vertices.index(center.coords)
            records = face_records(star.records)
            keys = [(len(members), tuple(vertices[i] for i in members)) for members, _ in records]
            assert keys == sorted(set(keys))
            for (members, top), f in zip(records, faces(star)):
                assert list(members) == sorted(set(members)) and pos in members, members
                assert f.vertices == tuple(Point(vertices[i]) for i in members)
                assert f.multidegree == join(f.vertices) == Point(top)
        q = certified_quotient(A)
        keys = [(len(vs), vs) for vs, _ in q.orbits]
        assert keys == sorted(set(keys))
        for (vs, _), f in zip(q.orbits, faces(q)):
            assert f.vertices == tuple(map(Point, vs))
            assert A.lattice._canonical(vs[0]) == vs[0]


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
            assert (len(base.neighbors), len(base.records.join)) == counts[rep.as_int_tuple()], where
            assert all(A.contains(v) for v in base.neighbors), where
            for t in translates:
                moved = star_at(A, rep + t, 4)
                where = f"{make.__name__} at {rep!r} + {t!r}"
                assert moved.center == rep + t, where
                assert moved.neighbors == tuple(v + t for v in base.neighbors), where
                assert faces(moved) == tuple(f.translated(t) for f in faces(base)), where
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
        assert set(faces(star)) == {Face(move(v) for v in f) for f in faces(base)}, where
        assert star.dimension == base.dimension, where
        assert star.report.certified == base.report.certified, where
        assert dict(star.report.candidate_counts) == {
            "".join(orth[i] for i in perm): n for orth, n in base.report.candidate_counts
        }, where
        quot, moved = quotient_complex(A, 4), quotient_complex(B, 4)
        assert moved.f_vector == quot.f_vector, where
        assert sorted(c for _, c in moved.orbits) == sorted(c for _, c in quot.orbits), where


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

    # no doubling depth lies below 2, nor below a negative limit, whose
    # bit length is that of its absolute value
    for limit in (1, 0, -9, -300):
        for search in (certified_star, certified_quotient):
            with pytest.raises(CertificationError) as info:
                search(ker111(), dmax_limit=limit)
            assert info.value.report is None


def record_rounds(monkeypatch, grow=_grow_star):
    """Log the depth of each advance of a candidate walk and "grow" for each star grown; grow stands in."""
    events = []

    def walk(A, creps, center, steps):
        advance = _candidate_vertices(A, creps, center, steps)

        def logged(dmax):
            events.append(dmax)
            return advance(dmax)
        return logged

    def grow_star(*args):
        events.append("grow")
        return grow(*args)

    monkeypatch.setattr(scarf.periodic, "_candidate_vertices", walk)
    monkeypatch.setattr(scarf.periodic, "_grow_star", grow_star)
    return events


def test_depth_limit_between_frontier_and_dimension(monkeypatch):
    # the frontier holds at depth 4, but the star has dimension 5, so only
    # depth 8 would certify: the limit stops the doubling after faces grew
    A = ker111()
    expected = star_at(A, ZERO3, 4).report
    assert (expected.dmax_used, expected.observed_star_dimension, expected.certified) == (4, 5, False)
    expected_quotient = quotient_complex(A, 4).report
    events = record_rounds(monkeypatch)
    with pytest.raises(CertificationError) as info:
        certified_star(A, dmax_limit=4)
    assert info.value.report == expected
    # walk-only rounds at 2 and 4 and one growth, which the report reads
    assert events == [2, 4, "grow"]

    events.clear()
    with pytest.raises(CertificationError) as info:
        certified_quotient(A, dmax_limit=7)
    assert info.value.report == expected_quotient
    assert events == [2, 4, "grow"]


# ---------------------------------------------------------------------------
# the candidate walk


def in_box(c, v, p):
    """p lies in the box spanned by c and v."""
    return all(min(a, b) <= x <= max(a, b) for a, b, x in zip(c, v, p))


def reference_candidates(A, creps, center, dmax):
    """Breadth-first walk over minimal coset steps, one down-box query per point.

    An independent statement of what _candidate_vertices computes: a point
    is accepted when box(center, point) holds at most dmax+1 set points, and
    only accepted points step on.  Its rejected points are the least of the
    points refused in some orthant: no other refused point of that orthant
    lies in their box.
    """
    lattice = A.lattice
    center_idx = creps.index(lattice._canonical(center))

    def in_small_downbox(p):
        lo, hi = list(map(min, center, p)), list(map(max, center, p))
        inside = itertools.islice(coset_points(lattice, creps, lo, hi), dmax + 2)
        return len(list(inside)) <= dmax + 1

    def minimal_steps(l, k, orth):
        # one search per coset difference and orthant, remembered across points
        if (l, k, orth) not in steps:
            diff = Point([a - b for a, b in zip(creps[k], creps[l])])
            steps[l, k, orth] = minimal_orthant_points(lattice, [diff], orth)
        return steps[l, k, orth]

    counts, steps = [], {}
    candidates, least_rejected = set(), set()
    for orth in all_orthants(A.dim):
        accepted, rejected = {center}, set()
        frontier = [(center, center_idx)]
        while frontier:
            nxt = []
            for u, l in frontier:
                for k in range(len(creps)):
                    for h in minimal_steps(l, k, orth):
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
        least_rejected |= {s for s in rejected
                           if not any(q != s and in_box(center, s, q) for q in rejected)}
    candidates.discard(center)
    return sorted(candidates), tuple(counts), sorted(least_rejected)


def kernel(x):
    """The lattice ker(x) in Z^3, for x with a coordinate 1."""
    one = x.index(1)
    columns = []
    for j in range(3):
        if j != one:
            col = [0, 0, 0]
            col[one], col[j] = -x[j], 1
            columns.append(tuple(col))
    return Lattice(columns)


@st.composite
def small_periodic_sets(draw):
    """ker(x) in Z^3 for x a permutation of (1, b, c), with one to three cosets."""
    b, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    x = draw(st.permutations((1, b, c)))
    reps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=3))
    return PeriodicSet(kernel(x), reps)


@st.composite
def finite_index_periodic_sets(draw):
    """Finite-index sublattices of ker(x), x as in small_periodic_sets, with one to three cosets.

    Shaped like the CLI's index-2 three-coset set: the kernel's two basis
    columns, the second first shifted by a multiple of the first, each
    scaled by 1 or 2 and at least one by 2, so the Smith form has a
    diagonal entry of 2 or more: a congruence row in the class map.
    """
    b, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    first, second = kernel(draw(st.permutations((1, b, c)))).columns
    t = draw(st.integers(-1, 1))
    second = tuple(y + t * x for x, y in zip(first, second))
    scales = draw(st.tuples(st.integers(1, 2), st.integers(1, 2)).filter(lambda m: max(m) > 1))
    lattice = Lattice([tuple(m * x for x in col) for m, col in zip(scales, (first, second))])
    reps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=3))
    return PeriodicSet(lattice, reps)


def check_walk_against_reference(A, dmax):
    creps = [rep.as_int_tuple() for rep in A.reps]
    for center in creps:
        candidates, counts, rejected = _candidate_vertices(A, creps, center, {})(dmax)
        assert (candidates, counts, rejected) == reference_candidates(A, creps, center, dmax)
        for v in candidates:
            assert len(points_in_box(A.lattice, A.reps, Point(center), Point(v))) <= dmax + 1
        for r in rejected:
            assert A.contains(Point(r))
            assert len(points_in_box(A.lattice, A.reps, Point(center), Point(r))) > dmax + 1


def check_resumed_walk(A, depths=range(1, 7)):
    # a walk carried on through the depths is, at each depth, the walk
    # started there: candidates, counts per orthant and rejected frontier.
    # The fresh walks share one step table, which names no center or depth
    creps = [rep.as_int_tuple() for rep in A.reps]
    steps: dict = {}
    for center in creps:
        advance = _candidate_vertices(A, creps, center, {})
        for dmax in depths:
            assert advance(dmax) == _candidate_vertices(A, creps, center, steps)(dmax), \
                (center, dmax)


@settings(max_examples=30, deadline=None)
@given(small_periodic_sets(), st.integers(1, 6))
def test_candidate_walk_matches_reference(A, dmax):
    check_walk_against_reference(A, dmax)


@settings(max_examples=30, deadline=None)
@given(small_periodic_sets())
def test_resumed_walk_matches_fresh_walks(A):
    check_resumed_walk(A)


@settings(max_examples=20, deadline=None)
@given(finite_index_periodic_sets(), st.integers(1, 6))
def test_candidate_walk_matches_reference_on_sublattices(A, dmax):
    check_walk_against_reference(A, dmax)


@settings(max_examples=20, deadline=None)
@given(finite_index_periodic_sets())
def test_resumed_walk_matches_fresh_walks_on_sublattices(A):
    check_resumed_walk(A)


@pytest.mark.parametrize("basis, cosets, dmax", [
    ([(2, -1, 0, 0), (3, 0, -1, 0), (4, 0, 0, -1)], None, 6),
    ([(1, -1, 0, 0), (2, 0, -1, 0), (3, 0, 0, -1)], [(0, 0, 0, 0), (1, 0, 0, 0)], 4),
    # index 2 in ker(1,1,1,1), three cosets
    ([(2, -2, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1)],
     [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0)], 3),
], ids=["ker(1,2,3,4)", "ker(1,1,2,3)+e1", "index2-3cosets"])
def test_candidate_walk_matches_reference_in_4d(basis, cosets, dmax):
    # four prefix rows per walk count the down-boxes as the reference's
    # box queries do, fresh and resumed
    A = validate_periodic_set(basis, cosets)
    check_walk_against_reference(A, dmax)
    check_resumed_walk(A, range(1, dmax + 1))


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_periodic_sets(), finite_index_periodic_sets()), st.data())
def test_face_memo_answers_each_join_as_a_fresh_query(A, data):
    # the memo keys by join, then by class: translating by l in L maps the
    # set points strictly below T onto those strictly below T + l.  The
    # joins of a 3x3x3 box, where several classes share each value of x.T,
    # and their translates by lattice vectors l come in a drawn order, and
    # each answer is a fresh coset_points query's
    lattice = A.lattice
    creps, is_face_join, _ = _setup(A, [])
    corner = data.draw(st.tuples(*[st.integers(-4, 2)] * 3))
    coefficients = st.tuples(*[st.integers(-3, 3)] * lattice.rank)
    tops = []
    for box in itertools.product(*(range(c, c + 3) for c in corner)):
        coeffs = data.draw(coefficients)
        shift = [sum(c * col[i] for c, col in zip(coeffs, lattice.columns)) for i in range(3)]
        tops += [box, tuple(map(add, box, shift))]
    for top in data.draw(st.permutations(tops)):
        fresh = next(coset_points(lattice, creps, [None] * 3, [t - 1 for t in top]), None)
        assert is_face_join(top) == (fresh is None), top


@st.composite
def symmetric_periodic_sets(draw):
    """ker(x) in Z^3 as in small_periodic_sets, with cosets symmetric about a set point c.

    The reps are c, some points r and their mirror images 2c - r, so
    x -> 2c - x maps the set onto itself.  Returns the set and c.
    """
    b, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    x = draw(st.permutations((1, b, c)))
    point = st.tuples(*[st.integers(-2, 2)] * 3)
    center = draw(point)
    others = draw(st.lists(point, max_size=2))
    reps = [center, *others, *(tuple(2 * a - b for a, b in zip(center, r)) for r in others)]
    return PeriodicSet(kernel(x), reps), center


def log_orthant_walks(monkeypatch):
    """Log each orthant walk that _candidate_vertices runs from now on."""
    walked = []
    walk = scarf.periodic._walk_orthant

    def logged(*args):
        walked.append(args)
        return walk(*args)

    monkeypatch.setattr(scarf.periodic, "_walk_orthant", logged)
    return walked


@settings(max_examples=30, deadline=None)
@given(symmetric_periodic_sets(), st.integers(1, 6))
def test_symmetric_center_walks_half_the_orthants(query, dmax):
    # the walk of -sigma is the mirror image of the walk of sigma, so four
    # orthants are walked; the result is still the reference walk's
    A, center = query
    creps = [rep.as_int_tuple() for rep in A.reps]
    with pytest.MonkeyPatch.context() as mp:
        walked = log_orthant_walks(mp)
        got = _candidate_vertices(A, creps, center, {})(dmax)
    assert len(walked) == 4
    assert got == reference_candidates(A, creps, center, dmax)


def test_asymmetric_center_walks_every_orthant(monkeypatch):
    # ker(1,2,3) + {0, e1} is not symmetric about 0: 2*0 - e1 lies in neither coset
    A = ker123_e1()
    walked = log_orthant_walks(monkeypatch)
    _candidate_vertices(A, [rep.as_int_tuple() for rep in A.reps], (0, 0, 0), {})(3)
    assert len(walked) == 8


def test_certified_calls_walk_once_per_center(monkeypatch):
    # one setup per call, one walk and one growth per center, at a fixed
    # depth, over doubling depths, and when the doubling does not certify
    A = ker111_e1()
    reps = sorted(rep.as_int_tuple() for rep in A.reps)
    setups, centers, grown = [], [], []

    def setup(A, vertices):
        setups.append(len(vertices))
        return _setup(A, vertices)

    def walk(A, creps, center, steps):
        centers.append(center)
        return _candidate_vertices(A, creps, center, steps)

    def grow_star(center, candidates, is_face_join):
        grown.append(center)
        return _grow_star(center, candidates, is_face_join)

    monkeypatch.setattr(scarf.periodic, "_setup", setup)
    monkeypatch.setattr(scarf.periodic, "_candidate_vertices", walk)
    monkeypatch.setattr(scarf.periodic, "_grow_star", grow_star)
    calls = [
        (lambda: certified_quotient(A), reps),
        (lambda: certified_star(A, Point((1, 0, 0))), [(1, 0, 0)]),
        (lambda: quotient_complex(A, 4), reps),
        (lambda: star_at(A, Point((1, 0, 0)), 3), [(1, 0, 0)]),
        (lambda: pytest.raises(CertificationError, certified_quotient, A, dmax_limit=4), reps),
        (lambda: pytest.raises(CertificationError, certified_star, A, dmax_limit=2), [(0, 0, 0)]),
    ]
    for call, expected in calls:
        setups.clear(), centers.clear(), grown.clear()
        call()
        assert setups == [len(expected)]
        assert sorted(centers) == sorted(grown) == expected


@st.composite
def vertex_periodic_sets(draw):
    """ker(x) in Z^3 for x a permutation of (1, b, c), b <= c <= 3, with one to three cosets.

    The coset of a point p is the value x.p, and p is strictly dominated
    exactly when some coset's value is at most x.p - (1 + b + c).  So
    values drawn from 0..b+c make every representative a vertex.
    """
    c = draw(st.integers(1, 3))
    b = draw(st.integers(1, c))
    x = draw(st.permutations((1, b, c)))
    values = draw(st.lists(st.integers(0, b + c), min_size=1, max_size=3, unique=True))
    one = x.index(1)
    return PeriodicSet(kernel(x), [tuple(t if i == one else 0 for i in range(3)) for t in values])


@settings(max_examples=60, deadline=None)
@given(vertex_periodic_sets(), st.integers(1, 4), st.sampled_from(("first", "middle", "last")),
       st.data())
def test_star_grows_in_its_own_vertex_indices(A, dmax, place, data):
    # growing from the center's own index gives what growing among the
    # neighbors alone, from the empty face at the center, and then putting
    # the center in its sorted place gives.  The candidates above or below
    # the center alone put it first or last
    vertex = data.draw(st.sampled_from(A.reps))
    creps, is_face_join, (center,) = _setup(A, [vertex])
    candidates = _candidate_vertices(A, creps, center, {})(dmax)[0]
    if place == "first":
        candidates = [v for v in candidates if v > center]
    elif place == "last":
        candidates = [v for v in candidates if v < center]
    neighbors = [v for v in candidates if is_face_join(tuple(map(max, center, v)))]
    pos = bisect_left(neighbors, center)
    assume(place != "middle" or 0 < pos < len(neighbors))
    grown = reference_grow_faces(neighbors, [((), center)], is_face_join)
    vertices, tree, dimension = _grow_star(center, candidates, is_face_join)
    assert (vertices, face_records(tree), dimension) == (
        (*neighbors[:pos], center, *neighbors[pos:]), with_center(grown, pos), len(grown[-1][0]))


def reference_star_at(A, vertex, dmax):
    """The star at vertex from its own setup, one fresh walk to dmax and one growth there."""
    creps, is_face_join, (center,) = _setup(A, [vertex])
    candidates, counts, _ = _candidate_vertices(A, creps, center, {})(dmax)
    vertices, records, observed = _grow_star(center, candidates, is_face_join)
    return StarResult(vertex, vertices, records,
                      CompletenessReport(dmax, observed, observed < dmax, counts))


def reference_quotient(A, dmax):
    return _fold(A, [reference_star_at(A, rep, dmax) for rep in A.reps])


@settings(max_examples=15, deadline=None)
@given(vertex_periodic_sets(), st.integers(1, 5))
def test_fixed_depth_matches_reference(A, dmax):
    # one setup shared by the cosets, and one walk per center, change
    # nothing against a fresh setup and walk per star
    for rep in A.reps:
        assert star_at(A, rep, dmax) == reference_star_at(A, rep, dmax), rep
    assert quotient_complex(A, dmax) == reference_quotient(A, dmax)


@settings(max_examples=15, deadline=None)
@given(vertex_periodic_sets(), st.integers(1, 8))
def test_certified_result_or_reference_report(A, dmax_limit):
    # a certified result is the reference at the first doubling depth that
    # certifies; with none, the error carries the reference's report at the
    # last doubling depth, or None when there is no depth
    depths = [d for d in (2, 4, 8) if d <= dmax_limit]
    vertex = A.reps[-1]
    for run, reference in ((lambda: certified_star(A, vertex, dmax_limit),
                            lambda dmax: reference_star_at(A, vertex, dmax)),
                           (lambda: certified_quotient(A, dmax_limit),
                            lambda dmax: reference_quotient(A, dmax))):
        certified = [d for d in depths if reference(d).report.certified]
        try:
            got = run()
        except CertificationError as error:
            assert not certified
            assert error.report == (reference(depths[-1]).report if depths else None)
            continue
        assert certified and got == reference(certified[0])


@settings(max_examples=8, deadline=None)
@given(vertex_periodic_sets(), st.data())
def test_certified_results_match_doubling_reference(A, data):
    # walk-only rounds with one face growth return what growing every star
    # at 2, 4, 8, ... and keeping the first certified one returns
    stars: dict = {}

    def star(center, dmax):
        if (center, dmax) not in stars:
            stars[center, dmax] = reference_star_at(A, center, dmax)
        return stars[center, dmax]

    def reference(center):
        dmax = 2
        while not star(center, dmax).report.certified:
            dmax *= 2
        return star(center, dmax)

    # each rep, and a lattice translate of one, so the center is not always
    # the least vertex
    coeffs = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    shift = Point(sum(c * col[i] for c, col in zip(coeffs, A.lattice.columns)) for i in range(3))
    for center in (*A.reps, data.draw(st.sampled_from(A.reps)) + shift):
        assert certified_star(A, center) == reference(center), center
    creps = [rep.as_int_tuple() for rep in A.reps]
    for rep in A.reps:
        center = rep.as_int_tuple()
        nbs = set(reference(rep).vertices) - {center}
        for dmax in range(1, 9):
            candidates, _, rejected = _candidate_vertices(A, creps, center, {})(dmax)
            # the frontier lemma in _candidate_vertices: a neighbor that is no
            # candidate lies at or above a rejected point of its orthant
            for v in nbs.difference(candidates):
                assert any(in_box(center, v, r) for r in rejected), (rep, dmax, v)
            # so the old rule, observed < dmax, implies the frontier
            if star(rep, dmax).report.certified:
                assert all(exists_strictly_below(A, Point(map(max, center, r))) is not None
                           for r in rejected), (rep, dmax)
    depth = max(reference(rep).report.dmax_used for rep in A.reps)
    while not all(star(rep, depth).report.certified for rep in A.reps):
        depth *= 2
    assert certified_quotient(A) == _fold(A, [star(rep, depth) for rep in A.reps])


def test_frontier_certifies_4d_neighbors_without_faces(monkeypatch):
    # ker(1,1,1,1) at dmax 4 already has 333 407 faces, so the test stops
    # certified_star where it would grow the first star
    class Grow(Exception):
        pass

    def stop(center, candidates, is_face_join):
        raise Grow(candidates, is_face_join)

    events = record_rounds(monkeypatch, stop)
    A = validate_periodic_set([(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1)])
    with pytest.raises(Grow) as info:
        certified_star(A)
    assert events == [2, 4, 8, 16, "grow"]
    candidates, is_face_join = info.value.args
    nbs = [Point(v) for v in candidates if is_face_join(tuple(map(max, (0,) * 4, v)))]
    assert len(nbs) == 146
    got = {p for p in nbs if max(abs(x) for x in p.as_int_tuple()) <= 3}
    assert got == set(oracle_lattice_neighbors(A, 3, 5))


def test_step_search_shared_across_opposite_orthants(monkeypatch):
    # one search per pair of opposite orthants, each for every coset
    # difference: four per star in Z^3, for two cosets as for three
    calls = []

    def counting(lattice, diffs, signs):
        calls.append((signs, tuple(diffs)))
        return orthant_steps(lattice, diffs, signs)

    orthant_steps = _orthant_steps
    monkeypatch.setattr(scarf.periodic, "_orthant_steps", counting)
    index2 = validate_periodic_set([(2, -2, 0), (4, 0, -1)], [(0, 0, 0), (1, 0, 0), (1, 1, 0)])
    for A in (ker123_e1(), index2):
        creps = [rep.as_int_tuple() for rep in A.reps]
        differences = {A.lattice._canonical([a - b for a, b in zip(ck, cl)])
                       for ck in creps for cl in creps}
        calls.clear()
        star_at(A, ZERO3, 4)
        assert len(calls) == 4
        assert {frozenset([signs, tuple(-s for s in signs)]) for signs, _ in calls} == \
            {frozenset([o.signs, tuple(-s for s in o.signs)]) for o in all_orthants(3)}
        assert all(set(diffs) == differences for _, diffs in calls)


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
    for (_, incidences), f in zip(q.orbits, faces(q)):
        # a class with k vertices is met once from each of its vertices
        assert incidences == f.dim + 1
        v0 = f.vertices[0]
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
    for (_, incidences), f in zip(q.orbits, faces(q)):
        assert incidences == f.dim + 1


@pytest.mark.parametrize("enabled", [True, False])
def test_fold_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    # the fold pauses the cyclic collector, and a fold that raises restores it
    A = validate_periodic_set([(1, -1, 0), (0, 1, -1)], cosets=[(0, 0, 0), (1, 0, 0)])
    seen = []

    def failing(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("fold failed")

    (gc.enable if enabled else gc.disable)()
    try:
        assert quotient_complex(A, 2).f_vector
        assert gc.isenabled() is enabled
        monkeypatch.setattr(scarf.periodic, "_fold_orbits", failing)
        with pytest.raises(RuntimeError, match="fold failed"):
            quotient_complex(A, 2)
        assert seen == [False]
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
