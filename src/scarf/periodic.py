"""Neighbor structure of periodic point sets.

A periodic set is a finite union of cosets of one lattice.  Faces at a
point are computed in two stages.  First, per orthant, a breadth-first walk
over minimal coset steps collects every point whose down-box holds at most
dmax+1 set points; these are the only possible star vertices once dmax
reaches the star dimension.  Second, faces among the candidates are tested
exactly against the full periodic set, so reported faces are always
correct and the report says whether the vertex list is known to be
complete.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Face, grow_faces
from .diophantine import Lattice, minimal_orthant_points, points_below, points_in_box
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
        return any(self.lattice.member(p - rep) for rep in self.reps)

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
    pts = points_below(A.lattice, A.reps, bound, strict=True)
    return pts[0] if pts else None


def _candidate_vertices(A: PeriodicSet, center: Point, dmax: int):
    """Per orthant, the set points whose down-box toward center has at most dmax+1 set points.

    Walks from the center, stepping from coset l to coset k by the minimal
    nonzero points of the single coset (rep_k - rep_l) + L inside the
    orthant.  Every step lands in the set again, and any qualifying point
    is a maximal qualifying predecessor plus one such minimal step, so the
    walk reaches all of them.  The qualifying region itself is finite, which
    bounds the walk.
    """
    reps = A.reps
    center_idx = next(i for i, r in enumerate(reps) if A.lattice.member(center - r))
    card_memo: dict = {}

    def downbox_card(p: Point) -> int:
        key = p.coords
        if key not in card_memo:
            card_memo[key] = len(points_in_box(A.lattice, A.reps, center, p))
        return card_memo[key]

    # the single coset a step from coset l to coset k lands in, per (l, k)
    diffs = [[A.lattice.canonical_rep(rk - rl) for rk in reps] for rl in reps]
    counts = []
    candidates: set[Point] = set()
    for orth in all_orthants(A.dim):
        move_memo: dict = {}

        def moves(l: int, k: int):
            diff = diffs[l][k]
            if diff.coords not in move_memo:
                move_memo[diff.coords] = minimal_orthant_points(
                    A.lattice, [diff], orth, exclude_zero=True
                )
            return move_memo[diff.coords]

        accepted = {center}
        rejected: set[Point] = set()
        frontier = [(center, center_idx)]
        while frontier:
            nxt = []
            for u, l in frontier:
                for k in range(len(reps)):
                    for h in moves(l, k):
                        s = u + h
                        if s in accepted or s in rejected:
                            continue
                        if downbox_card(s) <= dmax + 1:
                            accepted.add(s)
                            nxt.append((s, k))
                        else:
                            rejected.add(s)
            frontier = nxt
        counts.append((str(orth), len(accepted)))
        candidates |= accepted
    candidates.discard(center)
    return sorted(candidates, key=point_key), tuple(counts)


def star_at(A: PeriodicSet, vertex: Point, dmax: int) -> StarResult:
    """All faces containing the given set point, up to the search depth."""
    if not A.contains(vertex):
        raise InputError(f"point {vertex} is not in the set")
    if dmax < 1:
        raise InputError(f"search depth must be at least 1, got {dmax}")
    witness_memo: dict = {}

    def is_face_join(top: tuple) -> bool:
        if top not in witness_memo:
            witness_memo[top] = exists_strictly_below(A, Point(top))
        return witness_memo[top] is None

    if not is_face_join(vertex.coords):
        raise InputError(
            f"{vertex} is strictly dominated by {witness_memo[vertex.coords]} "
            "and is not a vertex"
        )
    candidates, counts = _candidate_vertices(A, vertex, dmax)
    neighbors = tuple(v for v in candidates
                      if is_face_join(tuple(map(max, vertex.coords, v.coords))))
    records = grow_faces([v.coords for v in neighbors], [((), vertex.coords)], is_face_join)
    faces = [Face((vertex,) + tuple(neighbors[j] for j in members)) for members, _ in records]
    observed = max(f.dim for f in faces)
    report = CompletenessReport(dmax, observed, observed < dmax, counts)
    return StarResult(vertex, neighbors, tuple(sorted(faces, key=Face.key)), report)


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
        for f in star.faces:
            # translating by a lattice vector preserves the vertex order, so
            # pinning the least vertex to its canonical representative gives
            # a well-defined key: the Face.key of the translated face
            v0 = f.vertices[0]
            shift = [a - b for a, b in zip(A.lattice.canonical_rep(v0).coords, v0.coords)]
            key = (len(f.vertices),
                   tuple(tuple(a + b for a, b in zip(v.coords, shift)) for v in f.vertices))
            entry = orbit_map.get(key)
            if entry is None:
                entry = orbit_map[key] = [f.translated(Point(shift)), 0]
            entry[1] += 1
    orbits = tuple(FaceOrbit(face=f, incidences=c) for _, (f, c) in sorted(orbit_map.items()))
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
