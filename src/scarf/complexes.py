"""Finite abstract simplicial complexes whose faces carry join labels.

Every face stores its multidegree, the coordinatewise join of its vertices;
the empty face is always present and carries no multidegree.  grow_faces is
the one face-growing loop, shared by finite complexes and periodic stars.
It works on plain coordinate tuples (rank tuples for a finite set, exact
coordinates for a star) and returns (member indices, join) records, so
callers build each Face once, from vertices they already hold in order.
Faces with the same top share its joins: a join depends only on the top
and the candidate, and accept only on the join, so one call computes and
tests each accepted join once and keeps at most one memo entry per record.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import InputError
from .geometry import Point, join, point_key


class Face:
    """A simplex: canonically sorted distinct vertices plus their join."""

    __slots__ = ("vertices", "multidegree")

    def __init__(self, vertices: Iterable[Point]):
        vs = sorted(set(vertices), key=point_key)
        if vs:
            n = len(vs[0])
            if any(len(v) != n for v in vs):
                raise InputError("mixed vertex dimensions in one face")
        self.vertices = tuple(vs)
        self.multidegree = join(vs) if vs else None

    @classmethod
    def sorted_with_join(cls, vertices: tuple, multidegree: Point) -> "Face":
        """A face from distinct vertices already in canonical order and their known join."""
        face = cls.__new__(cls)
        face.vertices = vertices
        face.multidegree = multidegree
        return face

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.vertices)

    def __eq__(self, other) -> bool:
        return isinstance(other, Face) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return "Face{%s}" % ", ".join(repr(v) for v in self.vertices)

    def key(self):
        return (len(self.vertices), tuple(point_key(v) for v in self.vertices))

    def translated(self, t: Point) -> "Face":
        return Face(v + t for v in self.vertices)


class LabeledComplex:
    """A downward closed set of faces.  The empty face is always a member."""

    __slots__ = ("_faces",)

    def __init__(self, faces: Iterable[Face]):
        table = {f.vertices: f for f in faces}
        table.setdefault((), Face(()))
        self._faces = table

    @classmethod
    def from_closed(cls, faces: Iterable[Face]) -> "LabeledComplex":
        """Wrap an already downward closed family without re-closing it."""
        return cls(faces)

    @property
    def dimension(self) -> int:
        return max(len(vs) for vs in self._faces) - 1

    def faces(self) -> tuple[Face, ...]:
        return tuple(sorted(self._faces.values(), key=Face.key))

    def __len__(self) -> int:
        return len(self._faces)

    def __contains__(self, face) -> bool:
        vs = face.vertices if isinstance(face, Face) else Face(face).vertices
        return vs in self._faces

    def __eq__(self, other) -> bool:
        return isinstance(other, LabeledComplex) and set(self._faces) == set(other._faces)

    def __hash__(self):
        return hash(frozenset(self._faces))

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension 0..dim; the empty face is not counted."""
        d = self.dimension
        if d < 0:
            return ()
        counts = [0] * (d + 1)
        for vs in self._faces:
            if vs:
                counts[len(vs) - 1] += 1
        return tuple(counts)


def grow_faces(coords: Sequence[tuple], seeds, accept: Callable[[tuple], bool],
               max_size: Optional[int] = None) -> list[tuple[tuple[int, ...], tuple]]:
    """The seed faces and every extension of one by later candidates whose join passes accept.

    coords lists the candidate vertices as coordinate tuples, and joins are
    coordinatewise maxima of them.  A seed is (members, top): increasing
    indices into coords and the join of the face it stands for, which may
    hold vertices that are not candidates (the center of a star).  The
    result holds the seeds and the accepted extensions as records of the
    same form; callers build their own faces from them.

    A seed extends by every candidate after its last member.  After that, a
    face extends only by the last member of a later sibling (a face with the
    same members bar the last), tested against the joined top.  That is
    complete whenever the accepted family is downward closed: if F + k is a
    face, so is F - max(F) + k.  Growth stops once faces have max_size members.

    Faces with the same top share their joins: the call keeps, per
    candidate, the accepted join of each top it extended.  That is exact
    because accept must be a pure function of the join.  Only accepted
    joins are kept, at most one per record, and a refused join is tested
    again when another face with its top meets it.  Seeds, whose tops are
    distinct, fill the memo without reading it, since every lookup would miss.
    """
    seeds = list(seeds)
    records = list(seeds)
    if not seeds or len(seeds[0][0]) == max_size:
        return records

    after = [{} for _ in coords]  # after[j][top]: the accepted join of top and coords[j]

    def extend(members, top, candidates, look=True):
        kids = []
        for j in candidates:
            cand_top = after[j].get(top) if look else None
            if cand_top is None:
                cand_top = tuple(map(max, top, coords[j]))
                if not accept(cand_top):
                    continue
                after[j][top] = cand_top
            kids.append((members + (j,), cand_top))
        records.extend(kids)
        return kids

    groups = [extend(members, top, range(members[-1] + 1 if members else 0, len(coords)), False)
              for members, top in seeds]
    size = len(seeds[0][0]) + 1
    while groups and size != max_size:
        grown = []
        for kids in groups:
            lasts = [members[-1] for members, _ in kids]
            grown += [extend(members, top, lasts[pos + 1:])
                      for pos, (members, top) in enumerate(kids)]
        groups = grown
        size += 1
    return records
