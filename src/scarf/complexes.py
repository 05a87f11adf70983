"""Finite abstract simplicial complexes whose faces carry join labels.

Every face stores its multidegree, the coordinatewise join of its vertices;
the empty face is always present and carries no multidegree.  grow_faces is
the one face-growing loop, shared by finite complexes, resolutions and
periodic stars.  It works on plain coordinate tuples (rank tuples for a
finite set, int coordinates for a star) and grows one seed: the empty face
of a finite set, or a star's center at its own index among the star's
sorted vertices.  It returns (member indices, join) records, so callers
build each Face once, from vertices they already hold in order.  Faces
with the same top share its joins: a join depends only on the top and the
candidate, and accept only on the join, so one call computes and tests
each accepted join once and remembers only accepted joins, at most one per
record.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator, Sequence

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


def grow_faces(coords: Sequence[tuple], seed: tuple, accept: Callable[[tuple], bool],
               max_size: int | None = None) -> list[tuple[tuple[int, ...], tuple]]:
    """The seed face and every face it grows into whose join passes accept.

    coords lists the vertices as coordinate tuples, and joins are
    coordinatewise maxima of them.  The seed is (members, top) with at most
    one member, and top is where joins start: a face's join is the max of
    top and its members' coords.  A finite complex grows from the empty
    face with zero ranks, a star from its center, at the center's own index
    among the star's vertices, with the center's coordinates.  The result
    starts with the seed record and holds every face grown from it whose
    join passes accept, as (increasing indices into coords, join), by size
    and then by member indices; callers build their own faces from them.

    The seed extends by every index that is not one of its members.  After
    that, a face extends only by the indices its later siblings added
    (siblings: the faces grown from one parent, in the order of the indices
    they added), each tested against the joined top.  That is complete
    whenever the accepted family is downward closed: if F + j + k is a face
    with j < k, then F + j and F + k are sibling faces.  Growth stops once
    faces have max_size members.

    Added indices increase along the growth of a face, so at most the
    seed's member lies above a new index j: the kid is members + (j,), or
    members[:-1] + (j, members[-1]) when j < members[-1], and the records
    come out in coords' own indices.  Only faces with a later sibling
    extend, so the last kid of a group, and a kid without siblings, cost
    nothing beyond their record.

    Faces with the same top share their joins, which is exact because
    accept must be a pure function of the join.  The first face met with a
    top probes nothing and keeps only where its kids went.  A second face
    with that top turns those kids into the top's row, candidate index ->
    accepted join, and it and every later face with the top look their
    candidates up there first.  Only accepted joins are kept, at most one
    per record, and a refused join is tested again when another face with
    its top meets it.
    """
    members, top = seed
    records = [seed]
    if len(members) == max_size:
        return records
    append = records.append
    added = [j for j in range(len(coords)) if j not in members]  # then each kid's added index
    add = added.append
    rows = {}  # top -> its row, or where its first face's kids went: (records index, added slice)
    level = [(0, 0, len(added))]  # (i, a, b): records[i] extends by added[a:b]
    size = len(members)
    while level and size != max_size:
        size += 1
        grown = []
        for i, a, b in level:
            members, top = records[i]
            hi = members[-1] if members else -1
            start, base = len(records), len(added)
            row = rows.get(top)
            if row is None:
                for j in added[a:b]:
                    t = tuple(map(max, top, coords[j]))
                    if accept(t):
                        append((members + (j,) if j > hi else members[:-1] + (j, hi), t))
                        add(j)
                if len(added) > base:
                    rows[top] = (start, base, len(added))
            else:
                if type(row) is tuple:  # the second face with this top
                    first, q, e = row
                    row = rows[top] = dict(zip(added[q:e], [t for _, t in records[first:first + e - q]]))
                for j in added[a:b]:
                    t = row.get(j)
                    if t is None:
                        t = tuple(map(max, top, coords[j]))
                        if not accept(t):
                            continue
                        row[j] = t
                    append((members + (j,) if j > hi else members[:-1] + (j, hi), t))
                    add(j)
            end = len(added)
            for k in range(base + 1, end):
                grown.append((start, k, end))
                start += 1
        level = grown
    return records


def f_vector_of(faces: Sequence[tuple]) -> list[int]:
    """The number of faces of each size, given faces as (members, ...) listed by size.

    Face records and quotient orbits both come by size, and every size up
    to the largest occurs, so a size's count is the length of its run: one
    bisection per size, whatever the number of faces.
    """
    counts, start, size = [], 0, lambda face: len(face[0])
    while start < len(faces):
        end = bisect_right(faces, size(faces[start]), start, key=size)
        counts.append(end - start)
        start = end
    return counts
