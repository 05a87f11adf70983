"""Finite abstract simplicial complexes whose faces carry join labels.

Every face stores its multidegree, the coordinatewise join of its vertices;
the empty face is always present and carries no multidegree.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import InputError
from .geometry import Point, join, join2, point_key


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

    def without(self, v: Point) -> "Face":
        if v not in self.vertices:
            vs = ", ".join(str(u) for u in self.vertices)
            raise InputError(f"{v} is not a vertex of the face [{vs}]")
        return Face(u for u in self.vertices if u != v)


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


def grow_faces(vertices: Sequence[Point], seeds, accept: Callable[[Point], bool],
               max_size: Optional[int] = None) -> list[Face]:
    """The seed faces and every extension of one by later vertices whose join passes accept.

    A seed is (members, last, top): a tuple of points of one common size,
    the index in vertices after which extensions start, and the join of the
    members.  A face grows one vertex at a time in index order, and only
    from an accepted face; that is complete whenever the accepted family is
    downward closed.  Growth stops once faces have max_size members.
    """
    faces = [Face(members) for members, _, _ in seeds]
    level = list(seeds)
    while level and len(level[0][0]) != max_size:
        nxt = []
        for members, last, top in level:
            for j in range(last + 1, len(vertices)):
                cand_top = join2(top, vertices[j])
                if accept(cand_top):
                    cand = members + (vertices[j],)
                    faces.append(Face(cand))
                    nxt.append((cand, j, cand_top))
        level = nxt
    return faces
