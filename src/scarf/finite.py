"""Neighbor complexes of finite point sets in Q^n.

A subset B of A is a face exactly when no point of A (members of B included)
lies strictly below the coordinatewise join of B in every coordinate.  The
empty face is always a face.  Strictly dominated points of A are not
vertices, but they stay in A and can kill faces as witnesses.

The complex depends only on the order of values along each coordinate, so
every query runs in rank space: a set builds one RankIndex, on first use,
with its points indexed in canonical order.  A join is the max of rank
tuples, "is some point strictly below it?" is an AND of one prefix bitset
per axis, and the lowest set bit is the first witness in canonical order.
Points are looked up again only for labels and output.

Genericity comes in two equivalent readings: no two neighbors share any
coordinate (pairwise form), or no join of a face is attained in some
coordinate by two distinct points below it (facet form).  Generic sets have
neighbor complexes of dimension below n.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .complexes import FaceTree, grow_faces
from .errors import InputError
from .geometry import Point, RankIndex, iter_bits, lowest_bit, point_key


class FinitePointSet:
    """A finite set of pairwise distinct points of one common dimension."""

    __slots__ = ("points", "_position", "_rank_index", "_downsets")

    def __init__(self, points: Iterable):
        pts = sorted({p if isinstance(p, Point) else Point(p) for p in points}, key=point_key)
        if not pts:
            raise InputError("a finite point set needs at least one point")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise InputError("mixed point dimensions in one set")
        self.points = tuple(pts)
        self._position = {p: i for i, p in enumerate(pts)}
        self._rank_index = None
        # posets' downset bitsets by orthant signs, each built once per set
        self._downsets = {}

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @property
    def rank_index(self) -> RankIndex:
        """The rank encoding of the points, in canonical order, built once."""
        if self._rank_index is None:
            self._rank_index = RankIndex([p.coords for p in self.points])
        return self._rank_index

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p):
        return p in self._position

    def __eq__(self, other):
        return isinstance(other, FinitePointSet) and self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return "FinitePointSet(%d points in Q^%d)" % (len(self.points), self.dim)


def _first_point(A: FinitePointSet, bits: int) -> Point | None:
    i = lowest_bit(bits)
    return None if i is None else A.points[i]


def _member_ranks(A: FinitePointSet, p: Point, what: str) -> tuple[int, ...]:
    i = A._position.get(p)
    if i is None:
        raise InputError(f"{what}{p} is not a member of the set")
    return A.rank_index.ranks[i]


def strict_dominator(A: FinitePointSet, v: Point) -> Point | None:
    """First point of A strictly below v in every coordinate, else None."""
    if len(v) != A.dim:
        raise InputError(f"dimension mismatch: {A.dim} vs {len(v)}")
    index = A.rank_index
    return _first_point(A, index.strictly_under(index.strict_ranks(v)))


def face_witness(A: FinitePointSet, B: Iterable[Point]) -> Point | None:
    """A point of A strictly below the join of B, or None when B is a face."""
    tops = [_member_ranks(A, b, "face candidate ") for b in B]
    if not tops:
        return None
    return _first_point(A, A.rank_index.strictly_under(tuple(map(max, zip(*tops)))))


def neighbors(A: FinitePointSet, a: Point) -> frozenset:
    """Points a' != a such that {a, a'} is a face."""
    top = _member_ranks(A, a, "")
    index = A.rank_index
    return frozenset(
        b for b, r in zip(A.points, index.ranks)
        if r != top and not index.strictly_under(tuple(map(max, top, r)))
    )


def enumerate_complex(A: FinitePointSet, max_dim: int | None = None) -> FaceTree:
    """The tree of A's faces up to max_dim, over point indices, with a table of rank joins.

    Faces grow from the empty face, face 0, whose zero ranks lie below
    every point, by appending vertices in canonical order; a candidate is
    tested only once its prefix is known to be a face, which is complete
    because the complex is downward closed.  tops holds the distinct joins
    as ranks, the empty face's first, read through A.rank_index.values.
    """
    if max_dim is not None and max_dim < -1:
        raise InputError(f"max_dim must be >= -1, got {max_dim}")
    index = A.rank_index
    under = index.strictly_under
    return grow_faces(index.ranks, ((), (0,) * A.dim), lambda top: not under(top),
                      None if max_dim is None else max_dim + 1)


class GenericityReport(namedtuple("GenericityReport", "generic mode witness pairwise facet",
                                  defaults=(None, None))):
    """Outcome of a genericity check, with the witness when it fails.

    Witnesses are (a, a', coordinate) with the coordinate 1-based: in
    pairwise mode two neighbors agreeing there, in facet mode two points
    below some face's join both attaining it there.  pairwise and facet
    are the verdicts of the forms that ran, None for a form that did not.
    """

    __slots__ = ()

    @property
    def modes_agree(self) -> bool | None:
        if self.pairwise is None or self.facet is None:
            return None
        return self.pairwise == self.facet


def _generic_pairwise(A: FinitePointSet):
    # Coordinates scan first and are reported 1-based in witnesses; only
    # pairs sharing a rank on the axis are tested.
    index = A.rank_index
    ranks, under = index.ranks, index.strictly_under
    for k, below in enumerate(index.below):
        for i, ri in enumerate(ranks):
            r = ri[k]
            later_ties = (below[r + 1] ^ below[r]) >> (i + 1) << (i + 1)
            for j in iter_bits(later_ties):
                if not under(tuple(map(max, ri, ranks[j]))):
                    return False, (A.points[i], A.points[j], k + 1)
    return True, None


def _generic_facet(A: FinitePointSet, tree: FaceTree):
    # Same 1-based coordinate convention as the pairwise form; faces scan
    # in the order grow_faces emits them, by size and then member indices,
    # and the witnesses are the first two points below the join that attain
    # it on the axis.  Only the join table is read, in order of first use:
    # the witness depends on the join alone.  The seed's zero ranks are
    # left out, even when a vertex has that join: two distinct points
    # cannot both have rank 0 on every axis, so they are never a witness.
    index = A.rank_index
    tops = tree.tops[1:]
    weakly = [index.weakly_under(top) for top in tops]
    for k, below in enumerate(index.below):
        for top, le in zip(tops, weakly):
            hits = le & (below[top[k] + 1] ^ below[top[k]])
            if hits & (hits - 1):
                i = lowest_bit(hits)
                return False, (A.points[i], A.points[lowest_bit(hits ^ (1 << i))], k + 1)
    return True, None


def is_generic(A: FinitePointSet, mode: str = "definition",
               records: FaceTree | None = None) -> GenericityReport:
    """Genericity check in pairwise ("definition"), facet ("remark") or "both" mode.

    The facet form reads the tree's join table; records, when given, is A's
    face tree from enumerate_complex(A), so a caller that grew it already
    does not grow it again.
    """
    if mode not in ("definition", "remark", "both"):
        raise InputError(f"unknown genericity mode {mode!r}")
    pair_ok = pair_wit = facet_ok = facet_wit = None
    if mode in ("definition", "both"):
        pair_ok, pair_wit = _generic_pairwise(A)
    if mode in ("remark", "both"):
        if records is None:
            records = enumerate_complex(A)
        facet_ok, facet_wit = _generic_facet(A, records)
    if mode == "definition":
        return GenericityReport(pair_ok, mode, pair_wit, pairwise=pair_ok)
    if mode == "remark":
        return GenericityReport(facet_ok, mode, facet_wit, facet=facet_ok)
    witness = pair_wit if pair_wit is not None else facet_wit
    return GenericityReport(pair_ok, mode, witness, pairwise=pair_ok, facet=facet_ok)
