"""Faces with join labels and the labeled complex container."""

import random

import pytest

from scarf.complexes import Face, LabeledComplex, grow_faces
from scarf.errors import InputError
from scarf.finite import FinitePointSet, enumerate_complex
from scarf.geometry import Point


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
        cx = enumerate_complex(FinitePointSet([(0, 0, 1), (1, 1, 0), (2, 0, 0)]))
        assert cx.f_vector() == (3, 3, 1)
        assert F((0, 0, 1), (2, 0, 0)) in cx

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(InputError):
            FinitePointSet([(1, 2), (1, 2, 3)])

    def test_duplicate_faces_merge(self):
        cx = LabeledComplex([F((0, 1)), F((0, 1))])
        assert cx.f_vector() == (1,)
        assert len(cx) == 2


def in_grow_order(records):
    """Whether records come by size, then by member indices, each face once."""
    keys = [(len(members), members) for members, _ in records]
    return keys == sorted(set(keys))


def test_grow_faces_records_by_size_then_members():
    # star_at and the facet genericity scan read the records in this order
    # without sorting them: seeded by vertices, as a finite complex grows,
    # and from the empty face at a center that is not a candidate, as a star
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(2, 4)
        A = FinitePointSet({tuple(rng.randint(0, 4) for _ in range(n))
                            for _ in range(rng.randint(1, 14))})
        ranks, under = A.rank_index.ranks, A.rank_index.strictly_under
        seeds = [((i,), r) for i, r in enumerate(ranks) if not under(r)]
        assert in_grow_order(grow_faces(ranks, seeds, lambda top: not under(top)))
        center = rng.choice([r for _, r in seeds])
        others = [r for r in ranks if r != center]
        records = grow_faces(others, [((), center)], lambda top: not under(top))
        assert records[0] == ((), center) and in_grow_order(records)


def test_complex_equality_and_membership_on_fixtures():
    # equal faces built from distinct point objects and spellings are the same face
    rows = [(0, 0, 1), (1, 1, 0), (2, 0, 0)]
    cx = enumerate_complex(FinitePointSet(rows))
    again = enumerate_complex(FinitePointSet([tuple(str(c) for c in r) for r in rows]))
    assert cx == again and hash(cx) == hash(again)
    assert LabeledComplex(F(*r) for r in [rows[:1], rows[1:2], rows[2:], rows[:2]]) != cx
    for f in cx.faces():
        assert f in again and Face(Point(v.coords) for v in f) in cx
    assert F(("2/2", 1, 0), (0, 0, "3/3")) in cx
    assert F((1, 1, 0), (9, 9, 9)) not in cx
    assert len(cx) == 8
