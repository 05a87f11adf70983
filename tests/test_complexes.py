"""Faces with join labels and the labeled complex container."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scarf.complexes import Face, LabeledComplex, grow_faces
from scarf.errors import InputError
from scarf.finite import FinitePointSet, enumerate_complex
from scarf.geometry import Point
from test_finite import point_faces
from test_resolution import generic_antichain


def F(*rows):
    return Face(Point(r) for r in rows)


class TestFace:
    def test_vertices_sorted_and_deduped(self):
        f = Face([Point((1, 0)), Point((0, 1)), Point((1, 0))])
        assert f.vertices == (Point((0, 1)), Point((1, 0)))
        assert f.dim == 1

    def test_multidegree_is_join(self):
        assert F((0, 2), (2, 0)).multidegree == Point((2, 2))
        assert F((1, 5)).multidegree == Point((1, 5))

    def test_empty_face(self):
        e = Face(())
        assert e.dim == -1
        assert e.multidegree is None

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(InputError):
            Face([Point((1, 2)), Point((1, 2, 3))])

    def test_translated(self):
        f = F((0, 0), (1, 2)).translated(Point((1, 1)))
        assert f == F((1, 1), (2, 3))
        assert f.multidegree == Point((2, 3))


class TestLabeledComplex:
    def test_empty_face_always_present(self):
        cx = LabeledComplex([])
        assert Face(()) in cx
        assert len(cx) == 1
        assert cx.dimension == -1
        assert cx.f_vector() == ()

    def test_faces_sorted_by_size_then_lex(self):
        cx = LabeledComplex([F((0, 1), (1, 0)), F((1, 0)), F((0, 1))])
        sizes = [len(f) for f in cx.faces()]
        assert sizes == sorted(sizes)
        assert cx.faces()[1:3] == (F((0, 1)), F((1, 0)))

    def test_f_vector_excludes_empty_face(self):
        cx = LabeledComplex([F((0, 1)), F((1, 0)), F((0, 1), (1, 0))])
        assert cx.f_vector() == (2, 1)
        assert cx.dimension == 1

    def test_membership_by_vertex_set(self):
        cx = LabeledComplex([F((0, 1)), F((1, 0)), F((0, 1), (1, 0))])
        assert F((1, 0), (0, 1)) in cx
        assert F((1, 0), (2, 2)) not in cx


class TestBuildComplex:
    """Downward closure, dimension checks and face merging where complexes are built."""

    def test_downward_closure(self):
        # three pairwise incomparable points: the neighbor complex is the full triangle
        A = FinitePointSet([(0, 0, 1), (1, 1, 0), (2, 0, 0)])
        cx = enumerate_complex(A)
        assert cx.f_vector() == [3, 3, 1]
        assert F((0, 0, 1), (2, 0, 0)).vertices in point_faces(A, cx)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(InputError):
            FinitePointSet([(1, 2), (1, 2, 3)])

    def test_duplicate_faces_merge(self):
        cx = LabeledComplex([F((0, 1)), F((0, 1))])
        assert cx.f_vector() == (1,)
        assert len(cx) == 2


def face_records(tree):
    """The tree's faces as (member indices, join) records, in face order, the seed's first."""
    return list(zip(tree.members(), map(tree.tops.__getitem__, tree.join)))


def in_grow_order(records):
    """Whether records come by size, then by member indices, each face once."""
    keys = [(len(members), members) for members, _ in records]
    return keys == sorted(set(keys))


def random_growths():
    """Random small sets in N^2..N^4, each as (coords, vertex seeds, center index, under).

    A set grows from the empty face, as a finite complex does, and from one
    vertex, its center, as a star does.  The vertex seeds start the
    reference's growth of the complex.
    """
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(2, 4)
        A = FinitePointSet({tuple(rng.randint(0, 4) for _ in range(n))
                            for _ in range(rng.randint(1, 14))})
        ranks, under = A.rank_index.ranks, A.rank_index.strictly_under
        seeds = [((i,), r) for i, r in enumerate(ranks) if not under(r)]
        yield ranks, seeds, rng.choice([i for (i,), _ in seeds]), under


def with_center(records, pos):
    """Records grown among the other vertices, from the empty face at the center, in star indices.

    The center takes index pos, and the indices from pos on move up by one.
    """
    return [(tuple(sorted((pos, *(j + (j >= pos) for j in members)))), top)
            for members, top in records]


def test_grow_faces_records_by_size_then_members():
    # star_at and the facet genericity scan read the records in this order
    # without sorting them
    for ranks, _, pos, under in random_growths():
        records = face_records(grow_faces(ranks, ((), (0,) * len(ranks[0])),
                                          lambda top: not under(top)))
        assert records[0] == ((), (0,) * len(ranks[0])) and in_grow_order(records)
        records = face_records(grow_faces(ranks, ((pos,), ranks[pos]), lambda top: not under(top)))
        assert records[0] == ((pos,), ranks[pos]) and in_grow_order(records)


def reference_grow_faces(coords, seeds, accept, max_size=None):
    """grow_faces without its join memo: every face tried computes its join and calls accept."""
    seeds = list(seeds)
    records = list(seeds)
    if not seeds or len(seeds[0][0]) == max_size:
        return records

    def extend(members, top, candidates):
        kids = []
        for j in candidates:
            cand_top = tuple(map(max, top, coords[j]))
            if accept(cand_top):
                kids.append((members + (j,), cand_top))
        records.extend(kids)
        return kids

    groups = [extend(members, top, range(members[-1] + 1 if members else 0, len(coords)))
              for members, top in seeds]
    size = len(seeds[0][0]) + 1
    while groups and size != max_size:
        groups = [extend(members, top, [sibling[-1] for sibling, _ in kids[pos + 1:]])
                  for kids in groups for pos, (members, top) in enumerate(kids)]
        size += 1
    return records


def test_grow_faces_computes_each_join_once():
    # sharing a join between faces with the same top changes no record
    for ranks, seeds, pos, under in random_growths():
        def accept(top):
            return not under(top)

        others = ranks[:pos] + ranks[pos + 1:]
        for max_size in (None, 1, 2, 3, 4):
            tree = grow_faces(ranks, ((), (0,) * len(ranks[0])), accept, max_size)
            assert face_records(tree)[1:] == reference_grow_faces(ranks, seeds, accept, max_size)
            # the star's max_size counts the center, the reference's does not
            expected = reference_grow_faces(others, [((), ranks[pos])], accept,
                                            max_size and max_size - 1)
            assert (face_records(grow_faces(ranks, ((pos,), ranks[pos]), accept, max_size))
                    == with_center(expected, pos))
    # a full 12-vertex simplex: 4 095 faces over 39 distinct joins, where
    # testing every face tried makes 4 083 accept calls
    index = FinitePointSet([(i, (7 * i) % 12, 5) for i in range(12)]).rank_index
    calls = []

    def counted(top):
        calls.append(top)
        return not index.strictly_under(top)

    tree = grow_faces(index.ranks, ((), (0, 0, 0)), counted)
    assert len(tree.join) == 4096  # the empty seed and 4 095 faces
    assert len(calls) <= len(set(map(tree.tops.__getitem__, tree.join))) * len(index.ranks)
    # the star at the seventh vertex: its 2 048 faces in the same bound
    calls.clear()
    tree = grow_faces(index.ranks, ((6,), index.ranks[6]), counted)
    assert len(tree.join) == 2048
    assert len(calls) <= len(set(map(tree.tops.__getitem__, tree.join))) * len(index.ranks)


def check_join_table(tree, coords, accept, whole=True):
    """The tree's join table: distinct joins, numbered in order of first use along join.

    A whole tree's table is also the closure of accepted joins: start at
    the seed's top, and from each accepted join T step to every
    max(T, coords[j]) that accept passes.
    """
    tops = tree.tops
    assert len(set(tops)) == len(tops)
    assert list(dict.fromkeys(tree.join)) == list(range(len(tops)))
    if whole:
        closure, todo = {tops[0]}, [tops[0]]
        while todo:
            top = todo.pop()
            for c in coords:
                t = tuple(map(max, top, c))
                if t not in closure and accept(t):
                    closure.add(t)
                    todo.append(t)
        assert closure == set(tops)


def test_join_table_is_the_closure_of_accepted_joins():
    # a downward closed family grows every face whose join the closure
    # reaches, so the table holds each accepted join once, and no other
    for ranks, _, pos, under in random_growths():
        def accept(top):
            return not under(top)

        for seed in (((), (0,) * len(ranks[0])), ((pos,), ranks[pos])):
            check_join_table(grow_faces(ranks, seed, accept), ranks, accept)
            for max_size in (1, 2, 3):
                check_join_table(grow_faces(ranks, seed, accept, max_size), ranks, accept,
                                 whole=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.sets(st.tuples(*[st.integers(0, 4)] * n),
                                                   min_size=1, max_size=12)),
       st.sampled_from(("complex", "first", "middle", "last")),
       st.sampled_from((None, 1, 2, 3)), st.sampled_from((" ", ",\n        ")))
def test_face_tree_rebuilds_records_and_vertex_texts(rows, grown, max_size, sep):
    # a finite complex, cut at max_size, or a star at its first, a middle or
    # its last vertex: the tree's rebuilt records are the reference's, and
    # each face's vertex text, written from its parent's, is the join of
    # its members' blocks with the center's in its sorted place
    A = FinitePointSet(rows)
    ranks, under = A.rank_index.ranks, A.rank_index.strictly_under

    def accept(top):
        return not under(top)

    vertices = [i for i, r in enumerate(ranks) if not under(r)]
    if grown == "complex":
        empty = ((), (0,) * len(ranks[0]))
        tree = grow_faces(ranks, empty, accept, max_size)
        expected = [empty, *reference_grow_faces(ranks, [((i,), ranks[i]) for i in vertices],
                                                 accept, max_size)]
    else:
        assume(grown != "middle" or len(vertices) > 2)
        pos = vertices[{"first": 0, "middle": len(vertices) // 2, "last": -1}[grown]]
        tree = grow_faces(ranks, ((pos,), ranks[pos]), accept)
        others = ranks[:pos] + ranks[pos + 1:]
        expected = with_center(reference_grow_faces(others, [((), ranks[pos])], accept), pos)
    assert face_records(tree) == expected
    faces = [(members, top) for members, top in expected if members]
    sizes = [len(members) for members, _ in faces]
    assert tree.f_vector() == [sizes.count(k) for k in range(1, max(sizes, default=0) + 1)]
    blocks = [f"<{i}:{r}>" for i, r in enumerate(ranks)]
    written = [(dim, tree.tops[t], text) for dim, joins, texts in tree.by_size(blocks, sep)
               for t, text in zip(joins, texts)]
    assert written == [(len(m) - 1, top, sep.join(blocks[i] for i in m)) for m, top in faces]


def test_grow_faces_memo_keeps_no_refused_joins():
    # on a sparse set most faces tried are refused; a memo that kept their
    # joins would outgrow the records many times over (7x here, against 1.2x)
    A = FinitePointSet(generic_antichain(random.Random(160), 160))
    ranks, under = A.rank_index.ranks, A.rank_index.strictly_under
    seeds = [((i,), r) for i, r in enumerate(ranks) if not under(r)]

    def peak(grow):
        # a full collection empties the free lists, whose reused tuples
        # tracemalloc would not see, so both runs start from the same state
        gc.collect()
        tracemalloc.start()
        try:
            return grow(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    tree, used = peak(lambda: enumerate_complex(A))
    expected, allowed = peak(lambda: reference_grow_faces(ranks, seeds, lambda top: not under(top)))
    assert face_records(tree)[1:] == expected
    assert used <= 1.5 * allowed


def test_complex_equality_and_membership_on_fixtures():
    # equal faces built from distinct point objects and spellings are the same face
    rows = [(0, 0, 1), (1, 1, 0), (2, 0, 0)]
    A, B = FinitePointSet(rows), FinitePointSet([tuple(str(c) for c in r) for r in rows])
    cx, again = point_faces(A, enumerate_complex(A)), point_faces(B, enumerate_complex(B))
    assert enumerate_complex(A) == enumerate_complex(B)
    assert cx == again and hash(tuple(cx)) == hash(tuple(again))
    assert [F(*r).vertices for r in [(), rows[:1], rows[1:2], rows[2:], rows[:2]]] != cx
    for f in cx:
        assert f in again and tuple(Point(v.coords) for v in f) in cx
    assert F(("2/2", 1, 0), (0, 0, "3/3")).vertices in cx
    assert F((1, 1, 0), (9, 9, 9)).vertices not in cx
    assert len(cx) == 8
