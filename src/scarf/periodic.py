"""Neighbor structure of periodic point sets.

A periodic set is a finite union of cosets of one lattice.  Faces at a
point are computed in two stages.  First, per orthant, a walk over minimal
coset steps collects every point whose down-box toward the center holds at
most dmax+1 set points; these are the only possible star vertices once
dmax reaches the star dimension.  Each set point of such a box is reached
by steps that stay inside the box, and points pop in order of their
weight, so the box's other set points have all been decided when a point
pops: its count is a scan of the points already accepted.  The steps of
coset -d in the opposite orthant are the negated steps of coset d, so
each pair is searched once.  Second, faces among the candidates are tested
exactly against the full periodic set, so reported faces are always
correct and the report says whether the vertex list is known to be
complete.  Both stages run on int tuples; points and faces are built only
for the result.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import add, le, mul

from .complexes import Face, grow_faces
from .diophantine import Lattice, coset_points, minimal_orthant_points, points_below
from .errors import CertificationError, InputError
from .geometry import Point, all_orthants, point_key, zero_point

__all__ = [
    "PeriodicSet",
    "validate_periodic_set",
    "CompletenessReport",
    "StarResult",
    "FaceOrbit",
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
        seen = {}
        for rep in reps:
            if not isinstance(rep, Point):
                rep = Point(rep)
            if rep.dim != lattice.dim:
                raise InputError(
                    f"dimension mismatch: representative {rep} vs lattice of dimension {lattice.dim}"
                )
            canon = lattice.canonical_rep(rep)
            seen.setdefault(canon.coords, canon)
        if not seen:
            raise InputError("a periodic set needs at least one coset representative")
        lattice.check_positive()
        self.lattice = lattice
        self.reps = tuple(sorted(seen.values(), key=point_key))

    @property
    def dim(self) -> int:
        return self.lattice.dim

    def contains(self, p: Point) -> bool:
        if not p.is_integral():
            return False
        key = self.lattice._coset_key(self.lattice._int_coords(p))
        return any(self.lattice._coset_key(rep.as_int_tuple()) == key for rep in self.reps)

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
    if cosets is None:
        reps = [zero_point(lattice.dim)]
    else:
        reps = [Point(c) for c in cosets]
    return PeriodicSet(lattice, reps)


@dataclass(frozen=True)
class CompletenessReport:
    """What a star computation can promise about itself.

    candidate_counts lists, per orthant, how many set points passed the
    down-box cardinality test (the center included).  certified means the
    observed star dimension stayed strictly under the search depth, in which
    case the candidate pool provably contained every star vertex.
    """

    dmax_used: int
    observed_star_dimension: int
    certified: bool
    candidate_counts: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class StarResult:
    """All faces through one point, with the completeness report."""

    center: Point
    neighbors: tuple[Point, ...]
    faces: tuple[Face, ...]
    report: CompletenessReport

    @property
    def dimension(self) -> int:
        return self.report.observed_star_dimension


@dataclass(frozen=True)
class FaceOrbit:
    """A translation class of faces, named by its canonical representative."""

    face: Face
    incidences: int

    @property
    def dim(self) -> int:
        return self.face.dim


@dataclass(frozen=True)
class QuotientResult:
    orbits: tuple[FaceOrbit, ...]
    f_vector: tuple[int, ...]
    report: CompletenessReport


def exists_strictly_below(A: PeriodicSet, bound: Point):
    """A set point strictly below the bound in every coordinate, or None.

    Deterministic: the lexicographically least such point is returned.
    """
    pts = points_below(A.lattice, A.reps, bound)
    return pts[0] if pts else None


def _candidate_vertices(A: PeriodicSet, creps: list, center: tuple, dmax: int):
    """Per orthant, the set points whose down-box toward center has at most dmax+1 set points.

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

    The minimal points of coset -d in orthant -sigma are the negated ones of
    coset d in sigma: the same reflected steps, computed once per pair.
    creps are the set's representatives and center a set point, all int
    tuples; the candidates come back as sorted int tuples.
    """
    lattice = A.lattice
    keys = [lattice._coset_key(c) for c in creps]
    center_idx = keys.index(lattice._coset_key(center))
    # the single coset a step from coset l to coset k lands in, per (l, k)
    diffs = [[lattice._canonical([a - b for a, b in zip(ck, cl)]) for ck in creps]
             for cl in creps]
    steps: dict = {}
    zero = (0,) * A.dim
    counts = []
    candidates: set = set()
    for orth in all_orthants(A.dim):
        signs = orth.signs
        accepted = [zero]
        rejected: list = []
        seen = {zero}
        heap = [(0, zero, center_idx)]
        while heap:
            w, r, l = heappop(heap)
            if w:
                if any(all(map(le, x, r)) for x in rejected):
                    continue
                if sum(all(map(le, x, r)) for x in accepted) > dmax:
                    rejected.append(r)
                    continue
                accepted.append(r)
            for k, diff in enumerate(diffs[l]):
                moves = steps.get((signs, diff))
                if moves is None:
                    found = minimal_orthant_points(lattice, [Point(diff)], orth)
                    reflected = [tuple(map(mul, signs, h.as_int_tuple())) for h in found]
                    moves = [(sum(h), h) for h in reflected]
                    opposite = (tuple(-x for x in signs), lattice._canonical([-x for x in diff]))
                    steps[signs, diff] = steps[opposite] = moves
                for wh, h in moves:
                    t = tuple(map(add, r, h))
                    if t not in seen:
                        seen.add(t)
                        heappush(heap, (w + wh, t, k))
        counts.append((str(orth), len(accepted)))
        candidates.update(tuple(map(add, center, map(mul, signs, r))) for r in accepted)
    candidates.discard(center)
    return sorted(candidates), tuple(counts)


def star_at(A: PeriodicSet, vertex: Point, dmax: int) -> StarResult:
    """All faces containing the given set point, up to the search depth."""
    if not A.contains(vertex):
        raise InputError(f"point {vertex} is not in the set")
    if dmax < 1:
        raise InputError(f"search depth must be at least 1, got {dmax}")
    lattice = A.lattice
    creps = [rep.as_int_tuple() for rep in A.reps]
    center = vertex.as_int_tuple()
    open_below = [None] * A.dim
    empty_below: dict = {}

    def is_face_join(top: tuple) -> bool:
        # no set point strictly below top; one point found decides
        if top not in empty_below:
            empty_below[top] = next(coset_points(
                lattice, creps, open_below, [t - 1 for t in top]), None) is None
        return empty_below[top]

    if not is_face_join(center):
        raise InputError(
            f"{vertex} is strictly dominated by {exists_strictly_below(A, vertex)} "
            "and is not a vertex"
        )
    candidates, counts = _candidate_vertices(A, creps, center, dmax)
    neighbors = [v for v in candidates if is_face_join(tuple(map(max, center, v)))]
    # records come by size, then by member indices; inserting the center
    # keeps that order, which distinct sorted vertices make Face.key order
    records = grow_faces(neighbors, [((), center)], is_face_join)
    pos = bisect_left(neighbors, center)
    points = [Point(v) for v in neighbors]
    vertices = points[:pos] + [vertex] + points[pos:]
    # faces share few distinct joins: one Point each
    joins = {top: Point(top) for top in {top for _, top in records}}
    faces = []
    for members, top in records:
        cut = bisect_left(members, pos)
        idx = members[:cut] + (pos,) + tuple(j + 1 for j in members[cut:])
        faces.append(Face.sorted_with_join(tuple(vertices[i] for i in idx), joins[top]))
    observed = len(records[-1][0])
    report = CompletenessReport(dmax, observed, observed < dmax, counts)
    return StarResult(vertex, tuple(points), tuple(faces), report)


def _double_until_certified(compute, dmax_start: int, dmax_limit: int, what: str):
    """compute(dmax) at dmax_start, 2*dmax_start, ... until its report is certified."""
    dmax = dmax_start
    result = None
    while dmax <= dmax_limit:
        result = compute(dmax)
        if result.report.certified:
            return result
        dmax *= 2
    raise CertificationError(
        f"{what} did not certify up to depth {dmax_limit}",
        report=None if result is None else result.report,
    )


def certified_star(A: PeriodicSet, vertex=None, dmax_start: int = 2,
                   dmax_limit: int = 256) -> StarResult:
    """Double the search depth until the star certifies itself complete."""
    if vertex is None:
        vertex = zero_point(A.dim)
    return _double_until_certified(
        lambda dmax: star_at(A, vertex, dmax), dmax_start, dmax_limit, f"star at {vertex}"
    )


def quotient_complex(A: PeriodicSet, dmax: int) -> QuotientResult:
    """Faces of the whole complex up to lattice translation.

    Runs one star per coset and folds each face to the translate whose
    least vertex is a canonical representative.  Every k-vertex class is
    met once per vertex, so its incidence count should equal k; the count
    is reported rather than assumed.
    """
    lattice = A.lattice
    orbit_map: dict = {}
    observed = -1
    certified = True
    combined: dict[str, int] = {}
    for rep in A.reps:
        star = star_at(A, rep, dmax)
        observed = max(observed, star.report.observed_star_dimension)
        certified = certified and star.report.certified
        for name, cnt in star.report.candidate_counts:
            combined[name] = combined.get(name, 0) + cnt
        ints = {p: p.as_int_tuple() for p in (star.center,) + star.neighbors}
        shifts: dict = {}
        for f in star.faces:
            # translating by a lattice vector preserves the vertex order, so
            # pinning the least vertex to its canonical representative gives
            # a well-defined key: the Face.key of the translated face
            vs = [ints[v] for v in f.vertices]
            v0 = vs[0]
            if v0 not in shifts:
                shifts[v0] = tuple(a - b for a, b in zip(lattice._canonical(v0), v0))
            shift = shifts[v0]
            key = (len(vs), tuple(tuple(map(add, v, shift)) for v in vs))
            orbit_map[key] = orbit_map.get(key, 0) + 1
    made: dict = {}

    def point(v: tuple) -> Point:
        # orbit faces share vertices and joins: one Point each
        if v not in made:
            made[v] = Point(v)
        return made[v]

    # one Face per orbit; map(max, vs[0], *vs) is the join, also of a single vertex
    orbits = tuple(
        FaceOrbit(face=Face.sorted_with_join(tuple(map(point, vs)),
                                             point(tuple(map(max, vs[0], *vs)))),
                  incidences=c)
        for (_, vs), c in sorted(orbit_map.items()))
    top = max((o.dim for o in orbits), default=-1)
    fvec = tuple(sum(1 for o in orbits if o.dim == d) for d in range(top + 1))
    report = CompletenessReport(dmax, observed, certified, tuple(sorted(combined.items())))
    return QuotientResult(orbits=orbits, f_vector=fvec, report=report)


def certified_quotient(A: PeriodicSet, dmax_start: int = 2,
                       dmax_limit: int = 256) -> QuotientResult:
    """Double the search depth until every coset's star certifies itself complete."""
    return _double_until_certified(
        lambda dmax: quotient_complex(A, dmax), dmax_start, dmax_limit, "quotient"
    )
