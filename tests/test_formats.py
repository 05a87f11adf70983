"""Document layer: exact parsing, deterministic rendering, round-trips."""

import inspect
import json
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from scarf import formats
from scarf.errors import CertificationError, GenericityError, InputError
from scarf.finite import FinitePointSet, _face_records, enumerate_complex, is_generic
from scarf.formats import (
    complex_doc,
    error_doc,
    genericity_doc,
    layering_doc,
    neighbors_doc,
    parse_cli_point,
    parse_document,
    parse_lattice_doc,
    parse_points_doc,
    point_json,
    quotient_doc,
    render_document,
    report_doc,
    resolution_doc,
    star_doc,
)
from scarf.geometry import Orthant, Point, join, point_key
from scarf.periodic import (
    CompletenessReport,
    certified_quotient,
    exists_strictly_below,
    quotient_complex,
    star_at,
    validate_periodic_set,
)
from scarf.posets import dickson_layers, filter_by_downset
from scarf.resolution import build_resolution
from test_periodic import small_periodic_sets, vertex_periodic_sets
from test_resolution import generic_antichains


def dumped(doc) -> str:
    """The byte contract of render_document."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_parse_document():
    assert parse_document('{"points": [[1, 2]]}') == {"points": [[1, 2]]}
    with pytest.raises(InputError):
        parse_document("not json {")
    with pytest.raises(InputError):
        parse_document("[1, 2]")


def test_render_round_trip():
    doc = {"b": [3, 1], "a": {"nested": True}, "z": "s"}
    text = render_document(doc)
    assert parse_document(text) == doc
    assert text.endswith("\n")
    # key order in the source dict must not affect the output
    assert text == render_document({"z": "s", "a": {"nested": True}, "b": [3, 1]})


def test_parse_points_doc():
    A = parse_points_doc({"points": [[2, 0], [0, 2], [1, 1]]})
    assert isinstance(A, FinitePointSet)
    assert [p.as_int_tuple() for p in A.points] == [(0, 2), (1, 1), (2, 0)]
    B = parse_points_doc({"points": [["1/2", 0], [0, 1]]})
    assert B.points[0] == Point(("0", "1"))
    for bad in ({}, {"points": []}, {"points": "x"}, {"points": [[]]}):
        with pytest.raises(InputError):
            parse_points_doc(bad)


def test_parse_lattice_doc():
    A = parse_lattice_doc({"basis": [[1, -1, 0], [0, 1, -1]]})
    assert A.reps == (Point((0, 0, 0)),)
    B = parse_lattice_doc(
        {"basis": [[1, -1, 0], [0, 1, -1]], "cosets": [[0, 0, 0], [1, 0, 0]]}
    )
    assert len(B.reps) == 2
    for bad in (
        {},
        {"basis": []},
        {"basis": [[1, 0], [0, "1"]]},
        {"basis": [[1, 0], [0, 1.5]]},
        {"basis": [[1, 0], [0, True]]},
        {"basis": [[1, -1]], "cosets": []},
        {"basis": [[1, -1]], "cosets": [[0, 0.5]]},
    ):
        with pytest.raises(InputError):
            parse_lattice_doc(bad)


def test_parse_cli_point():
    assert parse_cli_point("2,0,-1") == Point((2, 0, -1))
    assert parse_cli_point("1/2, 0") == Point(("1/2", "0"))
    with pytest.raises(InputError):
        parse_cli_point("1,,2")
    with pytest.raises(InputError):
        parse_cli_point("a,b")


def test_point_json():
    assert point_json(Point((2, 0, -1))) == [2, 0, -1]
    assert point_json(Point(("1/2", "3"))) == ["1/2", 3]
    # error messages print points the same way
    for p in (Point((2, 0, -1)), Point(("1/2", "3")), Point(("-7/3",))):
        assert str(p) == json.dumps(point_json(p))
    B = FinitePointSet([("1/3", 2), (5, 0)])
    A = parse_points_doc({"points": [point_json(p) for p in B]})
    assert A.points == B.points


def test_lattice_doc_round_trip():
    A = parse_lattice_doc({"basis": [[1, -1, 0], [0, 1, -1]], "cosets": [[1, 0, 0]]})
    doc = {"basis": [list(col) for col in A.lattice.columns],
           "cosets": [point_json(r) for r in A.reps]}
    assert parse_lattice_doc(doc) == A


def test_complex_doc_shape():
    A = FinitePointSet([(0, 0), (1, 0), (2, 0)])
    doc = json.loads("".join(complex_doc(A, _face_records(A, None), {})))
    assert doc["kind"] == "complex"
    assert doc["f_vector"] == [3, 3, 1]
    assert doc["empty_face"] is True
    assert len(doc["faces"]) == 7  # empty face flagged, not listed
    assert all("multidegree" in f for f in doc["faces"])
    assert json.loads("".join(complex_doc(A, _face_records(A, 0), {}))) == {
        "kind": "complex", "dimension": -1, "f_vector": [], "empty_face": True, "faces": []}


def reference_complex(A, max_dim, extra) -> dict:
    """The complex document built face by face from the library's LabeledComplex."""
    cx = enumerate_complex(A, max_dim)
    return {
        "kind": "complex",
        "dimension": cx.dimension,
        "f_vector": list(cx.f_vector()),
        "empty_face": True,
        "faces": [{"vertices": [point_json(v) for v in f.vertices], "dim": f.dim,
                   "multidegree": point_json(f.multidegree)}
                  for f in cx.faces() if f.vertices],
        **extra,
    }


coordinates = st.integers(-4, 4) | st.builds(
    lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(2, 5))
point_sets = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(coordinates, min_size=n, max_size=n), min_size=1, max_size=7))
extras = st.sampled_from([
    {},
    {"source": "oracle"},
    {"genericity": {"kind": "genericity", "generic": False, "mode": "both",
                    "witness": {"a": [1, "1/2"], "b": [1, 2], "coordinate": 1},
                    "pairwise": False, "facet": False, "modes_agree": True}},
])


@given(point_sets, st.none() | st.integers(0, 3), extras)
def test_complex_doc_is_json_dumps_of_the_reference(rows, max_dim, extra):
    A = FinitePointSet(rows)
    records = _face_records(A, None if max_dim is None else max_dim + 1)
    text = "".join(complex_doc(A, records, extra))
    expected = dumped(reference_complex(A, max_dim, extra))
    # not a plain ==: pytest's diff of two long texts would run at every shrink step
    same = text == expected
    assert same, f"first difference at offset {first_difference(text, expected)}"


@given(point_sets, extras)
def test_neighbors_doc_is_json_dumps_of_the_reference(rows, extra):
    center, *rest = [Point(r) for r in rows]
    nbs = [p.coords for p in rest]
    expected = {"kind": "neighbors", "center": point_json(center),
                "neighbors": [point_json(p) for p in rest], **extra}
    assert "".join(neighbors_doc(center, nbs, extra)) == dumped(expected)


def first_difference(a: str, b: str) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


# Hypothesis without its shrink phase: the writer tests compare whole
# documents, and shrinking a failure through certified stars and quotients
# takes minutes where the first failing example reports in about a second
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def reference_report(report) -> dict:
    return {"dmax_used": report.dmax_used,
            "observed_star_dimension": report.observed_star_dimension,
            "certified": report.certified,
            "candidate_counts": [[orth, n] for orth, n in report.candidate_counts]}


def reference_star(star) -> dict:
    """The star document built face by face from the star's vertices."""
    points = [Point(v) for v in star.vertices]
    return {
        "kind": "star",
        "center": point_json(star.center),
        "neighbors": [point_json(p) for p in points if p != star.center],
        "faces": [{"vertices": [point_json(points[i]) for i in members],
                   "dim": len(members) - 1,
                   "multidegree": point_json(join(points[i] for i in members))}
                  for members in star.records.members()],
        "report": reference_report(star.report),
    }


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(small_periodic_sets(), st.integers(1, 5), st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
def test_star_doc_is_json_dumps_of_the_reference(A, dmax, coeffs):
    # each coset rep, and a lattice translate of it, so the center is not
    # always the least vertex
    shift = Point(sum(c * col[i] for c, col in zip(coeffs, A.lattice.columns))
                  for i in range(A.dim))
    for rep in A.reps:
        if exists_strictly_below(A, rep) is not None:
            continue  # not a vertex
        for center in (rep, rep + shift):
            star = star_at(A, center, dmax)
            text, expected = "".join(star_doc(star)), dumped(reference_star(star))
            # not assert text == expected: pytest's diff of megabyte strings
            # takes minutes, once per shrinking step
            same = text == expected
            assert same, f"first difference at offset {first_difference(text, expected)}"


def reference_quotient(q) -> dict:
    """The quotient document built orbit by orbit, as a dict."""
    return {
        "kind": "quotient",
        "f_vector": list(q.f_vector),
        "orbits": [{"face": [list(v) for v in vs], "dim": len(vs) - 1, "incidences": c}
                   for vs, c in q.orbits],
        "report": reference_report(q.report),
    }


@settings(max_examples=30, deadline=None, phases=NO_SHRINK)
@given(vertex_periodic_sets(), st.none() | st.integers(1, 4))
def test_quotient_doc_is_json_dumps_of_the_reference(A, dmax):
    # dmax None is the certified quotient
    q = certified_quotient(A) if dmax is None else quotient_complex(A, dmax)
    text, expected = "".join(quotient_doc(q)), dumped(reference_quotient(q))
    same = text == expected
    assert same, f"first difference at offset {first_difference(text, expected)}"


def reference_resolution(res) -> dict:
    """The resolution document built as a dict, entry by entry."""
    return {
        "kind": "resolution",
        "betti": list(res.betti),
        "multigraded_betti": [
            {"dim": d, "multidegree": list(md), "count": c}
            for (d, md), c in sorted(res.multigraded_betti.items())
        ],
        "augmentation": [list(p) for p in res.augmentation],
        "faces_by_dim": [[[point_json(res.points.points[i]) for i in members]
                          for members, _ in fs] for fs in res.faces_by_dim],
        "differentials": [[{"row": r, "col": c, "sign": s, "exponent": list(e)}
                           for (r, c), (s, e) in sorted(step.items())]
                          for step in res.differentials],
        "euler_characteristic": res.euler_characteristic(),
    }


@settings(deadline=None, phases=NO_SHRINK)
@given(generic_antichains())
def test_resolution_doc_is_json_dumps_of_the_reference(rows):
    res = build_resolution(rows)
    text, expected = "".join(resolution_doc(res)), dumped(reference_resolution(res))
    same = text == expected
    assert same, f"first difference at offset {first_difference(text, expected)}"


def reference_layering(layering, filtered, k) -> dict:
    """The layering document built as a dict, point by point."""
    def rows(points) -> list:
        return [point_json(p) for p in sorted(points, key=point_key)]

    return {"kind": "layering", "layers": [rows(layer) for layer in layering.layers],
            "residual": rows(layering.residual), "k": k, "filtered": rows(filtered)}


@st.composite
def layering_cases(draw):
    """(layering, filtered, k) of a set of int and "p/q" points, k 0-3, orthant or none."""
    A = FinitePointSet(draw(point_sets))
    signs = draw(st.none() | st.lists(st.sampled_from((1, -1)), min_size=A.dim,
                                      max_size=A.dim))
    orthant = None if signs is None else Orthant(tuple(signs))
    k = draw(st.integers(0, 3))
    return dickson_layers(A, k, orthant), filter_by_downset(A, k, orthant), k


@settings(deadline=None, phases=NO_SHRINK)
@given(layering_cases())
def test_layering_doc_is_json_dumps_of_the_reference(case):
    text, expected = "".join(layering_doc(*case)), dumped(reference_layering(*case))
    same = text == expected
    assert same, f"first difference at offset {first_difference(text, expected)}"


def test_genericity_doc_witness():
    report = is_generic(FinitePointSet([(2, 1), (1, 2), (2, 2)]), mode="definition")
    doc = genericity_doc(report)
    assert doc["generic"] is False
    assert doc["witness"] == {"a": [2, 1], "b": [2, 2], "coordinate": 1}
    clean = genericity_doc(is_generic(FinitePointSet([(0, 1), (1, 0)]), mode="both"))
    assert clean["generic"] is True and clean["witness"] is None
    assert clean["modes_agree"] is True


def test_resolution_doc_shape():
    text = "".join(resolution_doc(build_resolution([(2, 0), (1, 1), (0, 2)])))
    doc = json.loads(text)
    assert doc["betti"] == [3, 2]
    assert doc["euler_characteristic"] == 1
    assert len(doc["differentials"]) == 1
    entries = doc["differentials"][0]
    assert {(e["row"], e["col"]) for e in entries} == {(0, 0), (1, 0), (1, 1), (2, 1)}
    assert all(e["sign"] in (1, -1) for e in entries)
    assert doc["multigraded_betti"][0] == {"dim": 0, "multidegree": [0, 2], "count": 1}
    assert text == dumped(doc)


def test_error_doc():
    doc = error_doc(InputError("nope"), 2)
    assert doc == {"kind": "error", "error": "InputError", "message": "nope", "exit_code": 2}
    from scarf.errors import GenericityError

    exc = GenericityError("w", witness=(Point((2, 1)), Point((2, 2)), 1))
    doc = error_doc(exc, 4)
    assert doc["witness"] == [[2, 1], [2, 2], 1]
    report = CompletenessReport(4, 4, False, (("++", 3), ("--", 1)))
    doc = error_doc(CertificationError("no certificate", report=report), 6)
    assert doc["report"] == {"dmax_used": 4, "observed_star_dimension": 4, "certified": False,
                             "candidate_counts": [["++", 3], ["--", 1]]}
    assert "report" not in error_doc(CertificationError("no depth tried"), 6)


def fixture_docs():
    """One document of every kind the CLI writes, built from small fixtures."""
    dense = FinitePointSet([(i, 0) for i in range(5)] + [("1/2", "7/3")])
    cx = json.loads("".join(complex_doc(
        dense, _face_records(dense, None),
        {"genericity": genericity_doc(is_generic(dense, mode="both"))})))
    ker111_e1 = validate_periodic_set([(1, -1, 0), (0, 1, -1)], cosets=[(0, 0, 0), (1, 0, 0)])
    star = star_at(ker111_e1, Point((0, 0, 0)), 2)
    grid = FinitePointSet([(a, b) for a in range(4) for b in range(3)])
    orthant = Orthant((1, -1))
    witness = (Point((2, 1)), Point((2, 2)), 1)
    return {
        "complex": cx,
        "star": json.loads("".join(star_doc(star))),
        "neighbors": json.loads("".join(neighbors_doc(
            star.center, [v for v in star.vertices if v != star.center.coords],
            {"report": report_doc(star.report)}))),
        "quotient": json.loads("".join(quotient_doc(quotient_complex(ker111_e1, 2)))),
        "resolution": json.loads("".join(resolution_doc(build_resolution(
            [(3, 0, 1), (1, 2, 0), (0, 1, 3)])))),
        "layering": json.loads("".join(layering_doc(dickson_layers(grid, 2, orthant),
                                                    filter_by_downset(grid, 2, orthant), 2))),
        "genericity": genericity_doc(is_generic(FinitePointSet([(2, 1), (1, 2), (2, 2)]))),
        "error": error_doc(GenericityError("not generic: \"x\"\n", witness=witness), 4),
    }


@pytest.mark.parametrize("kind", sorted(fixture_docs()))
def test_render_matches_json_dumps_on_every_document_kind(kind):
    doc = fixture_docs()[kind]
    assert render_document(doc) == dumped(doc)


def test_long_document_writers_are_generator_functions():
    # perfbench/spans.py times a generator function across its next() calls,
    # but a plain function that returns a generator for its call alone
    from scarf import cli

    for writer in (complex_doc, star_doc, quotient_doc, resolution_doc, layering_doc,
                   neighbors_doc, cli.complex_text, cli.neighbors_text, cli.quotient_text,
                   cli.layering_text, cli.resolution_text):
        assert inspect.isgeneratorfunction(writer), writer.__name__


# the lists of a document: of ints, or of lists of ints
doc_lists = st.dictionaries(
    st.sampled_from(["a", "faces", "layers", "z"]),
    st.lists(st.integers(-9, 9), max_size=9)
    | st.lists(st.lists(st.integers(-9, 9), max_size=3), min_size=1, max_size=5))


@given(doc_lists, st.integers(1, 4))
def test_list_doc_is_render_document_at_every_chunk_size(lists, chunk):
    fields = {"kind": "x", "f_vector": [1, 2]}
    items = {key: formats._nested(map(str, inner) for inner in value)
             if value and isinstance(value[0], list) else map(str, value)
             for key, value in lists.items()}
    with mock.patch.object(formats, "_CHUNK", chunk):
        chunks = list(formats._list_doc(fields, **items))
    assert "".join(chunks) == dumped({**fields, **lists})
    assert all(type(c) is str and c for c in chunks)
    # a chunk ends only after a full batch of one list that more items follow,
    # an empty inner list being one item
    counts = [sum(max(len(inner), 1) for inner in value)
              if value and isinstance(value[0], list) else len(value)
              for value in lists.values()]
    assert len(chunks) == 1 + sum(max(0, -(-n // chunk) - 1) for n in counts)


json_scalars = (st.none() | st.booleans() | st.integers(min_value=-2**80, max_value=2**80)
                | st.text(st.characters(max_codepoint=0x2FFF)))
json_data = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(st.characters(max_codepoint=0x2FFF), max_size=4), inner,
                      max_size=4),
    max_leaves=24,
)


@given(st.dictionaries(st.text(max_size=3), json_data, max_size=4))
def test_render_matches_json_dumps_on_generated_data(doc):
    assert render_document(doc) == dumped(doc)


def test_render_escapes_and_mixed_scalars():
    doc = {
        'q"uote': ['a"b', "back\\slash", "ctl\x00\x1f\t\n", "caf\u00e9 \u2603 \U0001d11e"],
        "ints": [2**64 + 1, -2**70, 0, True, 1, False, None, "1/2"],
        "empty": [[], {}, [[]], {"": {}}],
        "float": 0.5,
    }
    assert render_document(doc) == dumped(doc)


def test_render_shared_list_at_two_depths():
    shared = [1, "1/2", -3]
    doc = {"top": shared, "nested": {"deeper": [shared, [shared]]}, "again": shared}
    assert render_document(doc) == dumped(doc)


def test_render_sees_a_list_mutated_between_calls():
    shared = [1, 2]
    doc = {"a": shared, "b": [shared]}
    assert render_document(doc) == dumped(doc)
    shared.append("3/4")
    shared[0] = [5]
    assert render_document(doc) == dumped(doc)
    assert '"3/4"' in render_document(doc)

