"""Neighbor complexes of finite point sets in Q^n.

A subset B of A is a face exactly when no point of A (members of B included)
lies strictly below the coordinatewise join of B in every coordinate.  The
empty face is always a face.  Strictly dominated points of A are not
vertices, but they stay in A and can kill faces as witnesses.

Genericity comes in two equivalent readings: no two neighbors share any
coordinate (pairwise form), or no join of a face is attained in some
coordinate by two distinct points below it (facet form).  Generic sets have
neighbor complexes of dimension below n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .complexes import Face, LabeledComplex, grow_faces
from .errors import InputError
from .geometry import Point, join, join2, leq, point_key, strictly_below


class FinitePointSet:
    """A finite set of pairwise distinct points of one common dimension."""

    __slots__ = ("points", "_index")

    def __init__(self, points: Iterable):
        pts = sorted({p if isinstance(p, Point) else Point(p) for p in points}, key=point_key)
        if not pts:
            raise InputError("a finite point set needs at least one point")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise InputError("mixed point dimensions in one set")
        self.points = tuple(pts)
        self._index = frozenset(pts)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return p in self._index

    def __eq__(self, other):
        return isinstance(other, FinitePointSet) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return "FinitePointSet(%d points in Q^%d)" % (len(self.points), self.dim)


def strict_dominator(A: FinitePointSet, v: Point) -> Optional[Point]:
    """First point of A strictly below v in every coordinate, else None."""
    for a in A.points:
        if strictly_below(a, v):
            return a
    return None


def face_witness(A: FinitePointSet, B: Iterable[Point]) -> Optional[Point]:
    """A point of A strictly below the join of B, or None when B is a face."""
    vs = list(B)
    if not vs:
        return None
    for b in vs:
        if b not in A:
            raise InputError(f"face candidate {b} is not a member of the set")
    return strict_dominator(A, join(vs))


def neighbors(A: FinitePointSet, a: Point) -> frozenset:
    """Points a' != a such that {a, a'} is a face."""
    if a not in A:
        raise InputError(f"{a} is not a member of the set")
    out = []
    for b in A.points:
        if b != a and strict_dominator(A, join2(a, b)) is None:
            out.append(b)
    return frozenset(out)


def enumerate_complex(A: FinitePointSet, max_dim: Optional[int] = None) -> LabeledComplex:
    """Enumerate the neighbor complex of A up to max_dim.

    Faces grow by appending vertices in canonical order; a candidate is
    tested only once its prefix is known to be a face, which is complete
    because the complex is downward closed.
    """
    if max_dim is None:
        max_dim = len(A) - 1
    if max_dim < -1:
        raise InputError(f"max_dim must be >= -1, got {max_dim}")
    verts = [a for a in A.points if strict_dominator(A, a) is None]
    seeds = [((a,), i, a) for i, a in enumerate(verts)] if max_dim >= 0 else []
    faces = [Face(())] + grow_faces(
        verts, seeds, lambda top: strict_dominator(A, top) is None, max_dim + 1
    )
    return LabeledComplex.from_closed(faces)


@dataclass(frozen=True)
class GenericityReport:
    """Outcome of a genericity check, with the witness when it fails.

    Witnesses are (a, a', coordinate) with the coordinate 1-based: in
    pairwise mode two neighbors agreeing there, in facet mode two points
    below some face's join both attaining it there.
    """

    generic: bool
    mode: str
    witness: Optional[tuple]
    pairwise: Optional[bool] = None
    facet: Optional[bool] = None

    @property
    def modes_agree(self) -> Optional[bool]:
        if self.pairwise is None or self.facet is None:
            return None
        return self.pairwise == self.facet


def _generic_pairwise(A: FinitePointSet):
    # Coordinates scan first and are reported 1-based in witnesses.
    pts = A.points
    neighbor_memo: dict = {}

    def are_neighbors(i: int, j: int) -> bool:
        if (i, j) not in neighbor_memo:
            neighbor_memo[(i, j)] = strict_dominator(A, join2(pts[i], pts[j])) is None
        return neighbor_memo[(i, j)]

    for k in range(A.dim):
        for i, a in enumerate(pts):
            for j in range(i + 1, len(pts)):
                b = pts[j]
                if a[k] == b[k] and are_neighbors(i, j):
                    return False, (a, b, k + 1)
    return True, None


def _generic_facet(A: FinitePointSet):
    # Same 1-based coordinate convention as the pairwise form.
    cx = enumerate_complex(A)
    for k in range(A.dim):
        for face in cx.faces():
            if not face.vertices:
                continue
            top = face.multidegree
            hits = [a for a in A.points if leq(a, top) and a[k] == top[k]]
            if len(hits) >= 2:
                return False, (hits[0], hits[1], k + 1)
    return True, None


def is_generic(A: FinitePointSet, mode: str = "definition") -> GenericityReport:
    """Genericity check in pairwise ("definition"), facet ("remark") or "both" mode."""
    if mode not in ("definition", "remark", "both"):
        raise InputError(f"unknown genericity mode {mode!r}")
    pair_ok = pair_wit = facet_ok = facet_wit = None
    if mode in ("definition", "both"):
        pair_ok, pair_wit = _generic_pairwise(A)
    if mode in ("remark", "both"):
        facet_ok, facet_wit = _generic_facet(A)
    if mode == "definition":
        return GenericityReport(pair_ok, mode, pair_wit, pairwise=pair_ok)
    if mode == "remark":
        return GenericityReport(facet_ok, mode, facet_wit, facet=facet_ok)
    witness = pair_wit if pair_wit is not None else facet_wit
    return GenericityReport(pair_ok, mode, witness, pairwise=pair_ok, facet=facet_ok)
