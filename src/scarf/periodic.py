"""Neighbor structure of periodic point sets.

A periodic set is a finite union of cosets of one lattice.  Faces at a
point are computed in two stages.  First, per orthant, a walk over minimal
coset steps collects every point whose down-box toward the center holds at
most dmax+1 set points; these are the only possible star vertices once dmax
reaches the star dimension.  Each set point of such a box is reached by
steps that stay inside the box, and points pop in order of their weight, so
the box's other set points have all been decided when a point pops: its
count is a bit count over the points already accepted, read from one prefix
bitset per axis.  One minimal-solutions search per pair of opposite
orthants gives the steps of every coset difference, since the steps of
coset -d in the opposite orthant are the negated steps of coset d, and at a
center of symmetry of the set only half of the orthants are walked.
Second, faces among the candidates are tested exactly against the full
periodic set, so reported faces are always correct and the report says
whether the vertex list is known to be complete.  A face test asks for a
set point strictly below a join T, and translating by a lattice vector l
maps the set points strictly below T onto those strictly below T + l, so
the answer depends only on T's class modulo the lattice: the memo keys by
class, and one Fourier-Motzkin walk answers every join of a class.  One
engine, _stars, runs both stages for every entry point, at one depth or
over doubling depths: a call shares one face-test memo and one step table
among its centers, each center has one walk, resumed as the depth grows,
and one face growth, and a search that does not certify reports from those
same walks.  Both stages run on int tuples, and so do the results: a star
is a sorted int vertex list with a tree of its faces and a table of their
int joins, and a quotient's orbits are int vertex tuples with their
incidence counts.  A star's faces grow from the center at its own index
among the sorted vertices, through the one face-growing loop of the
complexes module, so its faces come out in the star's vertex indices.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from collections import namedtuple
from heapq import heapify, heappop, heappush
from itertools import zip_longest
from operator import add, mul

from .complexes import grow_faces
from .diophantine import Lattice, _orthant_steps, coset_points, points_below
from .errors import CertificationError, InputError
from .geometry import Point, all_orthants, and_prefixes, zero_point

__all__ = [
    "PeriodicSet",
    "validate_periodic_set",
    "CompletenessReport",
    "StarResult",
    "QuotientResult",
    "exists_strictly_below",
    "star_at",
    "certified_star",
    "quotient_complex",
    "certified_quotient",
]


class PeriodicSet:
    """Union of finitely many cosets of an integer lattice."""

    __slots__ = ("lattice", "reps")

    def __init__(self, lattice: Lattice, reps):
        seen = set()
        for rep in reps:
            if not isinstance(rep, Point):
                rep = Point(rep)
            if rep.dim != lattice.dim:
                raise InputError(
                    f"dimension mismatch: representative {rep} vs lattice of dimension {lattice.dim}"
                )
            seen.add(lattice._canonical(rep.as_int_tuple()))
        if not seen:
            raise InputError("a periodic set needs at least one coset representative")
        lattice.check_positive()
        self.lattice = lattice
        self.reps = tuple(map(Point, sorted(seen)))

    @property
    def dim(self) -> int:
        return self.lattice.dim

    def contains(self, p: Point) -> bool:
        if not p.is_integral():
            return False
        # the reps are stored canonical, so one representative decides
        canon = self.lattice._canonical(self.lattice._int_coords(p))
        return any(rep.coords == canon for rep in self.reps)

    def __eq__(self, other):
        if not isinstance(other, PeriodicSet):
            return NotImplemented
        return self.lattice.columns == other.lattice.columns and self.reps == other.reps

    def __hash__(self):
        return hash((self.lattice.columns, self.reps))

    def __repr__(self):
        return f"PeriodicSet(lattice={self.lattice!r}, reps={self.reps!r})"


def validate_periodic_set(basis_columns, cosets=None) -> PeriodicSet:
    """Build a periodic set from raw basis columns and coset vectors."""
    lattice = Lattice(basis_columns)
    return PeriodicSet(lattice, [zero_point(lattice.dim)] if cosets is None else cosets)


class CompletenessReport(namedtuple(
        "CompletenessReport", "dmax_used observed_star_dimension certified candidate_counts")):
    """What a star computation can promise about itself.

    candidate_counts lists, per orthant, how many set points passed the
    down-box cardinality test (the center included), as (orthant string,
    count) pairs.  certified means the observed star dimension stayed
    strictly under the search depth dmax_used, in which case the candidate
    pool provably contained every star vertex.
    """

    __slots__ = ()


class StarResult(namedtuple("StarResult", "center vertices records report")):
    """All faces through one point, with the completeness report.

    center is a Point.  vertices are the sorted int tuples of the star's
    vertices, the center among them.  records is the FaceTree of the faces,
    over indices into vertices: face 0 is the center, and the faces come by
    size, then by member indices.  records.tops lists the distinct joins as
    int tuples, the center's first, and records.join holds each face's
    index into it.  records.by_size gives each face's increasing indices,
    the center's among them, one size at a time, and records.members() all
    at once.  The tree holds lists, so a StarResult does not hash.  report
    is a CompletenessReport.
    """

    __slots__ = ()

    @property
    def neighbors(self) -> tuple[Point, ...]:
        return tuple(Point(v) for v in self.vertices if v != self.center.coords)

    @property
    def dimension(self) -> int:
        return self.report.observed_star_dimension


class QuotientResult(namedtuple("QuotientResult", "orbits f_vector report")):
    """Faces up to lattice translation, as (vertices, incidences) by size, then vertices.

    An orbit's vertices are the sorted int tuples of its translate whose
    least vertex is a canonical representative.  f_vector counts the orbits
    by size, and report is the CompletenessReport of the stars behind them.
    """

    __slots__ = ()


def exists_strictly_below(A: PeriodicSet, bound: Point):
    """A set point strictly below the bound in every coordinate, or None.

    Deterministic: the lexicographically least such point is returned.
    """
    pts = points_below(A.lattice, A.reps, bound)
    return pts[0] if pts else None


def _setup(A: PeriodicSet, vertices) -> tuple:
    """The int reps, the face test and the int vertices, each checked to be a vertex.

    The face test asks whether no set point lies strictly below a join T.
    Translating by a lattice vector l maps the set onto itself, so it maps
    the set points strictly below T onto those strictly below T + l, and
    the answer depends only on T's class, Lattice._class.  The memo is keyed
    by the join first, then by its class, so one walk answers every join of
    a class; neither key names a center or a depth.
    """
    lattice, creps = A.lattice, [rep.as_int_tuple() for rep in A.reps]
    open_below, by_top, by_class, class_of = [None] * A.dim, {}, {}, lattice._class

    def is_face_join(top: tuple) -> bool:
        # no set point strictly below top; one point found decides
        face = by_top.get(top)
        if face is None:
            key = class_of(top)
            face = by_class.get(key)
            if face is None:
                face = by_class[key] = next(coset_points(
                    lattice, creps, open_below, [t - 1 for t in top]), None) is None
            by_top[top] = face
        return face

    for vertex in vertices:
        if not A.contains(vertex):
            raise InputError(f"point {vertex} is not in the set")
        if not is_face_join(vertex.as_int_tuple()):
            raise InputError(f"{vertex} is strictly dominated by "
                             f"{exists_strictly_below(A, vertex)} and is not a vertex")
    return creps, is_face_join, [vertex.as_int_tuple() for vertex in vertices]


def _walk_orthant(moves: list, accepted: list, rows: list, seen: set, pending: list,
                  dmax: int) -> list:
    """Carry one orthant's walk on at depth dmax; return the offsets it rejects there.

    accepted, rows, seen and pending are the walk's state, updated in
    place: the offsets accepted so far, their prefix rows, every offset
    pushed, and the heap entries (weight, offset, coset) popped but not
    accepted, which pop again here.  rows[i][v] is the bitset, bit j for
    accepted[j], of the accepted offsets whose coordinate i is at most v;
    the rows share one length and grow together, by copies of their last
    bitsets, when an offset with a larger coordinate pops.
    The rejected offsets of this call get rows of their own, bit j for
    the j-th, so "some rejected offset below r" is a nonzero and_prefixes
    and "the accepted offsets below r" its bit count.  moves[l] lists
    (k, steps) for the steps from coset l to coset k.
    """
    heap = pending.copy()
    heapify(heap)
    pending.clear()
    rejected: list = []
    size = len(rows[0])
    refused = [[0] * size for _ in rows]
    while heap:
        entry = heappop(heap)
        w, r, l = entry
        if w:
            top = max(r)
            if top >= size:
                for row in (*rows, *refused):
                    row += [row[-1]] * (top + 1 - size)
                size = top + 1
            if rejected and and_prefixes(refused, r):
                pending.append(entry)
                continue
            if and_prefixes(rows, r).bit_count() > dmax:
                bit = 1 << len(rejected)
                for out, v in zip(refused, r):
                    for i in range(v, size):
                        out[i] |= bit
                rejected.append(r)
                pending.append(entry)
                continue
            bit = 1 << len(accepted)
            for row, v in zip(rows, r):
                for i in range(v, size):
                    row[i] |= bit
            accepted.append(r)
        for k, steps in moves[l]:
            for wh, h in steps:
                t = tuple(map(add, r, h))
                if t not in seen:
                    seen.add(t)
                    heappush(heap, (w + wh, t, k))
    return rejected


def _candidate_vertices(A: PeriodicSet, creps: list, center: tuple, steps: dict):
    """A resumable walk to the set points whose down-box toward center holds at most dmax+1 set points.

    The walk runs in reflected offsets r(s) = (sigma_i (s_i - c_i)) from the
    center c, so each orthant sigma becomes the nonnegative one.  A step from
    coset l to coset k is a minimal nonzero point of the single coset
    (rep_k - rep_l) + L in the orthant, so every step has positive weight
    w(r) = sum(r).  Any set point x of box(c, s) is reached from c by such
    steps along a chain inside box(c, x): the difference to x dominates some
    minimal step, and the weight drops.

    Points pop from a heap by (w, r, coset), in an order that does not
    depend on the order of the steps, and x <= s with x != s gives
    w(x) < w(s).  So when s pops, every point of its box that was pushed
    has popped.  If some rejected offset lies below r(s), s is rejected.
    Otherwise the chain to each other set point of the box was accepted
    throughout: its first point not accepted would lie in box(s), would
    have been pushed and popped, and would have been rejected or skipped
    below a rejected offset, which then lies below r(s).  The accepted offsets
    below r(s), the center's zero included, are exactly the box's other set
    points, and s is accepted when they number at most dmax.  (A rejected
    offset has more than dmax accepted offsets below it, so the count alone
    would decide too; the short rejected list decides faster.)  Only
    accepted points step on, and the accepted region is finite, which
    bounds the walk.

    Both tests are counted on prefix bitsets, as a RankIndex counts: per
    axis i and value v, the bitset of the accepted offsets whose
    coordinate i is at most v, and likewise, with one bit per rejected
    offset, for the rejected ones.  The offsets below r(s) are the AND of
    one bitset per axis, so "some rejected offset below r(s)" is a nonzero
    AND and the count of accepted ones a bit count.

    The rejected points are a frontier: if none is a neighbor of c, every
    neighbor is a candidate, at any dmax.  For a set point v not accepted,
    the chain argument on box(c, v) gives a rejected r <= r(v) in its
    orthant, so max(c, r) <= max(c, v), and a set point strictly below
    max(c, r), if {c, r} is no face, is strictly below max(c, v) too.

    The walk resumes: raising dmax pops the rejected and skipped entries
    again, with the rejected list started afresh, and carries on.  That is
    the walk a fresh start at the new depth makes.  An accepted point's
    count is its box's exact number of other set points, at most the old
    dmax, so it stays accepted, and its steps were pushed.  Every other
    set point of a re-popped point's box has been accepted already or pops
    before it, by weight, so the decision rule holds as above.

    The minimal points of coset -d in orthant -sigma are the negated ones of
    coset d in sigma: the same reflected steps.  One search in sigma, with
    a counter per coset, finds the steps of every difference of creps, so
    a pair of opposite orthants costs one search, kept in steps, which
    names no center or depth.  When x -> 2c - x maps the set onto itself
    (always, for one coset), it maps the walk in -sigma onto the walk in
    sigma, offset for offset, so only the orthants whose first sign is +
    are walked.  In all_orthants' order the opposite of orthant o is
    2^n - 1 - o.

    creps are the set's canonical representatives and center a set point,
    all int tuples.  Returns advance(dmax), for nondecreasing dmax, which
    carries the walk on and returns the sorted candidates, the counts per
    orthant and the sorted rejected points.
    """
    lattice = A.lattice
    center_idx = creps.index(lattice._canonical(center))
    # the single coset a step from coset l to coset k lands in, per (l, k)
    diffs = [[lattice._canonical([a - b for a, b in zip(ck, cl)]) for ck in creps]
             for cl in creps]
    negated = {d: diffs[k][l] for l, row in enumerate(diffs) for k, d in enumerate(row)}
    orthants = list(all_orthants(A.dim))
    last = len(orthants) - 1
    mirrored = set(creps) == {lattice._canonical([2 * a - b for a, b in zip(center, rep)])
                              for rep in creps}
    walked = range(len(orthants) // 2 if mirrored else len(orthants))
    zero = (0,) * A.dim
    walks = []
    for o in walked:
        signs = orthants[o].signs
        if signs not in steps:
            found = _orthant_steps(lattice, sorted(negated), signs)
            by_diff = {d: [(sum(y), y) for y in ys] for d, ys in found.items()}
            steps[signs] = by_diff
            steps[orthants[last - o].signs] = {negated[d]: m for d, m in by_diff.items()}
        by_diff = steps[signs]
        walks.append(([[(k, by_diff[d]) for k, d in enumerate(row)] for row in diffs],
                      [zero], [[1] for _ in zero], {zero}, [(0, zero, center_idx)]))

    def advance(dmax: int):
        counts = [None] * len(orthants)
        candidates: set = set()
        frontier: set = set()
        for o, (moves, accepted, rows, seen, pending) in zip(walked, walks):
            rejected = _walk_orthant(moves, accepted, rows, seen, pending, dmax)
            for t in ((o, last - o) if mirrored else (o,)):
                signs = orthants[t].signs
                counts[t] = (str(orthants[t]), len(accepted))
                candidates.update(tuple(map(add, center, map(mul, signs, r))) for r in accepted)
                frontier.update(tuple(map(add, center, map(mul, signs, r))) for r in rejected)
        candidates.discard(center)
        return sorted(candidates), tuple(counts), sorted(frontier)

    return advance


def _grow_star(center: tuple, candidates: list, is_face_join):
    """The star's sorted vertices, its face tree and its dimension, from the candidates.

    The vertices are the candidates that make a face with the center, and
    the center in its sorted place.  Faces grow from the center at its own
    index there, so the tree comes out in the star's vertex indices, by
    size and then by indices.
    """
    vertices = [v for v in candidates if is_face_join(tuple(map(max, center, v)))]
    pos = bisect_left(vertices, center)
    vertices.insert(pos, center)
    tree = grow_faces(vertices, ((pos,), center), is_face_join)
    return tuple(vertices), tree, len(tree.level_ends()) - 1


def _stars(A: PeriodicSet, vertices, depths: list) -> list:
    """The StarResults at the vertices, all reported at one of the increasing depths.

    One setup, so one face-test memo and one step table, serves every
    center.  Each center's walk resumes from depth to depth and stops at the
    first depth where its frontier holds, tested only before the last depth,
    or at the last; its faces grow once, there.  The reported dmax is the
    first depth above every observed dimension, or the last depth, and
    walks stopped below it go on to it for the counts.

    These are the reports of a walk and growth at dmax alone.  certified
    (observed < dmax) implies complete candidates, which imply the frontier,
    so from the frontier depth on each star stays the same.  The first depth
    above a star's dimension certifies it, since no star on fewer candidates
    is larger, so that depth is at or past its frontier depth.  A frontier
    that fails at the last depth leaves a star that does not certify there,
    so dmax is the last depth, and every star whose frontier held earlier is
    already the star there.
    """
    if depths[-1] < 1:
        raise InputError(f"search depth must be at least 1, got {depths[-1]}")
    creps, is_face_join, centers = _setup(A, vertices)
    steps, grown = {}, []
    for center in centers:
        advance = _candidate_vertices(A, creps, center, steps)
        for depth in depths:
            candidates, counts, rejected = advance(depth)
            if depth == depths[-1] or not any(
                    is_face_join(tuple(map(max, center, r))) for r in rejected):
                break
        grown.append((advance, depth, counts, *_grow_star(center, candidates, is_face_join)))
    dim = max(g[-1] for g in grown)
    dmax = next((d for d in depths if d > dim), depths[-1])
    return [StarResult(vertex, star_vertices, records, CompletenessReport(
                dmax, observed, observed < dmax, counts if depth == dmax else advance(dmax)[1]))
            for vertex, (advance, depth, counts, star_vertices, records, observed)
            in zip(vertices, grown)]


def _certified(result, what: str, dmax_limit: int):
    """The result if it certifies, else CertificationError with its report (None for no result)."""
    if result is None or not result.report.certified:
        raise CertificationError(f"{what} did not certify up to depth {dmax_limit}",
                                 report=result and result.report)
    return result


def _unbounded(A: PeriodicSet, centers, what: str) -> None:
    """CertificationError, with no report, when a center's star has faces of every dimension.

    When coordinate k is 0 in every basis column, it is constant on each
    coset, and no set point lies below the least of those constants there.
    At a set point c that attains it, the join of c, c + u, ..., c + t*u,
    for a lattice vector u, has c's coordinate k, so no set point lies
    strictly below it: they make a face for every t, and no depth
    certifies the star.  The test is sufficient only; a star it passes may
    still have faces of every dimension and reach the depth limit.
    """
    u = list(A.lattice.columns[0])
    for k, row in enumerate(A.lattice._rows):
        if not any(row):
            least = min(rep.coords[k] for rep in A.reps)
            for c in centers:
                # a point outside the set is left to _stars, which refuses it as input
                if A.contains(c) and c.coords[k] == least:
                    raise CertificationError(
                        f"{what} certifies at no depth: the star at c = {c} has faces of every "
                        f"dimension, since axis {k + 1} is 0 in every basis column and no set "
                        f"point lies lower on it than c; with the lattice vector u = {u}, "
                        f"{{c, c + u, ..., c + t*u}} is a face for every t")


def star_at(A: PeriodicSet, vertex: Point, dmax: int) -> StarResult:
    """All faces containing the given set point, up to the search depth."""
    return _stars(A, [vertex], [dmax])[0]


def certified_star(A: PeriodicSet, vertex=None, dmax_limit: int = 256) -> StarResult:
    """star_at at the first of depths 2, 4, 8, ... whose report certifies.

    certified still means observed < dmax, but the rounds only walk: the
    rejected frontier says when the faces can grow, and they grow once.
    A star that _unbounded shows to have faces of every dimension raises
    CertificationError at once, with no report.
    """
    if vertex is None:
        vertex = zero_point(A.dim)
    what = f"star at {vertex}"
    _unbounded(A, [vertex], what)
    depths = [2 << k for k in range(max(dmax_limit, 1).bit_length() - 1)]
    return _certified(_stars(A, [vertex], depths)[0] if depths else None, what, dmax_limit)


def quotient_complex(A: PeriodicSet, dmax: int) -> QuotientResult:
    """Faces of the whole complex up to lattice translation.

    Runs one star per coset and folds each face to the translate whose
    least vertex is a canonical representative.  Every k-vertex class is
    met once per vertex, so its incidence count should equal k; the count
    is reported rather than assumed.
    """
    return _fold(A, _stars(A, A.reps, [dmax]))


def _fold(A: PeriodicSet, stars: list) -> QuotientResult:
    """The quotient of the stars at the coset representatives, all at one depth.

    The fold reads every star's faces one size at a time, through
    FaceTree.by_size.  An orbit's faces all have its size, so a size's
    orbits are counted and sorted alone, and its member tuples go before
    the next size's are built.  It keeps a vertex tuple per orbit until it
    returns, none of them in a reference cycle, so the cyclic collector is
    paused while it runs rather than rescanning them as they pile up.  The
    caller's collector state is restored however the fold ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _fold_orbits(A, stars)
    finally:
        if enabled:
            gc.enable()


def _fold_orbits(A: PeriodicSet, stars: list) -> QuotientResult:
    lattice = A.lattice
    combined: dict[str, int] = {}
    for star in stars:
        for name, cnt in star.report.candidate_counts:
            combined[name] = combined.get(name, 0) + cnt
    moved = [{} for _ in stars]
    walks = [star.records.by_size([(i,) for i in range(len(star.vertices))], ())
             for star in stars]
    orbits, fvec = [], []
    for level in zip_longest(*walks, fillvalue=(None, None, ())):
        orbit_map: dict = {}
        for star, shifts, (_, _, faces) in zip(stars, moved, level):
            vertices = star.vertices
            for members in faces:
                # translating by a lattice vector preserves the vertex order, so
                # moving the least vertex to its canonical representative gives
                # a well-defined orbit key: the translate's sorted vertices
                shifted = shifts.get(members[0])
                if shifted is None:
                    v0 = vertices[members[0]]
                    shift = [a - b for a, b in zip(lattice._canonical(v0), v0)]
                    shifted = shifts[members[0]] = [tuple(map(add, v, shift)) for v in vertices]
                key = tuple(map(shifted.__getitem__, members))
                orbit_map[key] = orbit_map.get(key, 0) + 1
        fvec.append(len(orbit_map))
        orbits += sorted(orbit_map.items())
    report = CompletenessReport(
        stars[0].report.dmax_used, max(star.dimension for star in stars),
        all(star.report.certified for star in stars), tuple(sorted(combined.items())))
    return QuotientResult(orbits=tuple(orbits), f_vector=tuple(fvec), report=report)


def certified_quotient(A: PeriodicSet, dmax_limit: int = 256) -> QuotientResult:
    """quotient_complex at the first of depths 2, 4, 8, ... whose report certifies.

    certified still means observed < dmax in every coset's star.  As in
    certified_star, the rounds only walk and each star's faces grow once.
    When some axis is 0 in every basis column, the star at a coset
    representative has faces of every dimension, by _unbounded, and
    CertificationError is raised at once, with no report.
    """
    _unbounded(A, A.reps, "quotient")
    depths = [2 << k for k in range(max(dmax_limit, 1).bit_length() - 1)]
    return _certified(_fold(A, _stars(A, A.reps, depths)) if depths else None,
                      "quotient", dmax_limit)
