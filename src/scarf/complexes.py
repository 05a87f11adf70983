"""Finite abstract simplicial complexes whose faces carry join labels.

grow_faces is the one face-growing loop, shared by finite complexes, resolutions and
periodic stars.  It works on plain coordinate tuples (rank tuples for a
finite set, int coordinates for a star) and grows one seed: the empty face
of a finite set, or a star's center at its own index among the star's
sorted vertices.  The complexes are downward closed, so every face but the
seed is its parent plus one vertex, and grow_faces returns a FaceTree:
each face's parent, the vertex index it added and its join's id, in three
parallel lists, with no tuple per face, and a table of the distinct joins.
FaceTree.by_size is the one walk that turns it back into faces, one size
at a time: the face writers' vertex texts, and the member tuples that
resolutions, the quotient fold and FaceTree.members read.  Faces with the
same join share its memo: a join depends only on the top and the
candidate, and accept only on the join, so one call computes and tests
each accepted join once and remembers only accepted joins, at most one
per face.

Face and LabeledComplex are the subset oracle's types: a face as its sorted
Points with their join, the multidegree (None for the empty face, which a
LabeledComplex always holds), and a downward closed set of such faces.  No
main path builds them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
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


class FaceTree(namedtuple("FaceTree", "parent vertex join tops")):
    """Faces grown from one seed, each stored as its parent plus one vertex.

    Face i is face parent[i] with vertex index vertex[i] added, and
    tops[join[i]] is its join: tops lists the distinct joins in order of
    first use, the seed's first, so readers work once per join, not once
    per face.  Face 0 is the seed, with parent -1 and, as vertex, its one
    member, or -1 for the empty face.  Faces come by size and then by
    member indices, so a face's parent comes before it and parents never
    decrease.  The faces of a star hold its center, vertex[0]: a face's
    members are its parent's plus its vertex, which goes before the center
    when it is smaller.  No face has a tuple of its own; by_size builds
    them, or any text per face, a size at a time.
    """

    __slots__ = ()

    def level_ends(self) -> list[int]:
        """Where each size's run of faces ends, the seed's first.

        A face of the next size has a parent of this size, so the next run
        ends at the first face whose parent lies beyond this run.
        """
        parent, ends = self.parent, [1]
        while ends[-1] < len(parent):
            ends.append(bisect_left(parent, ends[-1], ends[-1]))
        return ends

    def f_vector(self) -> list[int]:
        """The number of faces of each dimension from 0 on; the empty face is not counted."""
        ends = self.level_ends()
        counts = [end - start for start, end in zip([0] + ends, ends)]
        return counts[1:] if self.vertex[0] < 0 else counts

    def by_size(self, blocks: Sequence, sep: str | tuple):
        """Each face's item, sep.join(blocks[i] for i in members), one size of faces at a time.

        Yields (dim, joins, items) for each size of the tree's faces, the
        empty face left out: the faces' dimension, join ids and items in
        face order.  Blocks and sep are strs, or 1-tuples of member
        indices with sep () for the member tuples themselves.  A face's item
        is its parent's plus one block, and only one size's items are kept
        at a time.  In a star the center's block keeps its sorted place: a
        face that added only vertices below the center keeps the item of
        those, each followed by sep, and puts the center's block after it.
        """
        parent, vertex, joins, _ = self
        ends = self.level_ends()
        glued = [sep + b for b in blocks]
        center = vertex[0]
        if center < 0:  # grown from the empty face, whose kids are single vertices
            if len(ends) > 1:
                items = [blocks[j] for j in vertex[1:ends[1]]]
                yield 0, joins[1:ends[1]], items
            for dim, (lo, start, end) in enumerate(zip(ends, ends[1:], ends[2:]), 1):
                items = [items[p - lo] + glued[j]
                         for p, j in zip(parent[start:end], vertex[start:end])]
                yield dim, joins[start:end], items
            return
        below = [b + sep for b in blocks[:center]]
        mid = blocks[center]
        lows, items = [sep[:0]], [mid]
        yield 0, joins[:1], items
        for dim, (lo, start, end) in enumerate(zip([0] + ends, ends, ends[1:]), 1):
            kids = parent[start:end], vertex[start:end]
            # added indices increase along a face's growth, so a kid below the
            # center has a parent that added only vertices below it
            lows = [lows[p - lo] + below[j] if j < center else None for p, j in zip(*kids)]
            items = [items[p - lo] + glued[j] if low is None else low + mid
                     for low, p, j in zip(lows, *kids)]
            yield dim, joins[start:end], items

    def members(self) -> list[tuple[int, ...]]:
        """Each face's increasing member indices, in face order."""
        blocks = [(i,) for i in range(max(self.vertex) + 1)]
        # by_size leaves out the empty face, which a finite tree starts with
        return [()] * (self.vertex[0] < 0) + [
            members for _, _, items in self.by_size(blocks, ()) for members in items]


def grow_faces(coords: Sequence[tuple], seed: tuple, accept: Callable[[tuple], bool],
               max_size: int | None = None) -> FaceTree:
    """The seed face and every face it grows into whose join passes accept, as a FaceTree.

    coords lists the vertices as coordinate tuples, and joins are
    coordinatewise maxima of them.  The seed is (members, top) with at most
    one member, and top is where joins start: a face's join is the max of
    top and its members' coords.  A finite complex grows from the empty
    face with zero ranks, a star from its center, at the center's own index
    among the star's vertices, with the center's coordinates.  The tree's
    face 0 is the seed, and after it come every face grown from it whose
    join passes accept, by size and then by member indices, in coords' own
    indices.  A join takes the next id when its first face is appended.

    The seed extends by every index that is not one of its members.  After
    that, a face extends only by the indices its later siblings added
    (siblings: the faces grown from one parent, in the order of the indices
    they added), each tested against the joined top.  That is complete
    whenever the accepted family is downward closed: if F + j + k is a face
    with j < k, then F + j and F + k are sibling faces.  Growth stops once
    faces have max_size members.  Only faces with a later sibling extend,
    so the last kid of a group, and a kid without siblings, cost nothing
    beyond their entries in the three face lists.

    Faces with the same join share its memo, candidate index -> accepted
    join id, which is exact because accept must be a pure function of the
    join.  Only accepted joins are kept, at most one per face, and a
    refused join is tested again when another face with its top meets it.
    """
    members, top = seed
    tree = FaceTree([-1], [members[0] if members else -1], [0], [top])
    size = len(members)
    parent, vertex, join, tops = tree
    add_parent, add_vertex, add_join = parent.append, vertex.append, join.append
    ids = {top: 0}
    memos = [{}]  # per join id: candidate index -> the accepted join's id
    # a group (first, last, end) of siblings: face i in range(first, last)
    # extends by src[i + 1:end], the indices its later siblings added.  The
    # seed is a group of its own, and every other index follows its place
    src = [-1, *(j for j in range(len(coords)) if j not in members)]
    groups = [(0, 1, len(src))]
    while groups and size != max_size:
        size += 1
        grown = []
        for first, last, end in groups:
            for i in range(first, last):
                memo = memos[join[i]]
                top = tops[join[i]]
                start = len(vertex)
                for j in src[i + 1:end]:
                    k = memo.get(j)
                    if k is None:
                        t = tuple(map(max, top, coords[j]))
                        if not accept(t):
                            continue
                        k = ids.get(t)
                        if k is None:
                            k = ids[t] = len(tops)
                            tops.append(t)
                            memos.append({})
                        memo[j] = k
                    add_parent(i)
                    add_vertex(j)
                    add_join(k)
                if len(vertex) - start > 1:  # the last kid has no later sibling
                    grown.append((start, len(vertex) - 1, len(vertex)))
        src, groups = vertex, grown
    return tree
