"""Document layer: exact parsing, deterministic rendering, round-trips."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scarf.errors import GenericityError, InputError
from scarf.finite import FinitePointSet, enumerate_complex, is_generic
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
    resolution_doc,
    star_doc,
)
from scarf.geometry import Orthant, Point
from scarf.periodic import quotient_complex, star_at, validate_periodic_set
from scarf.posets import dickson_layers, filter_by_downset
from scarf.resolution import build_resolution


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
    cx = enumerate_complex(FinitePointSet([(0, 0), (1, 0), (2, 0)]))
    doc = complex_doc(cx)
    assert doc["kind"] == "complex"
    assert doc["f_vector"] == [3, 3, 1]
    assert doc["empty_face"] is True
    assert len(doc["faces"]) == 7  # empty face flagged, not listed
    assert all("multidegree" in f for f in doc["faces"])
    json.dumps(doc)  # document must be plain JSON data


def test_genericity_doc_witness():
    report = is_generic(FinitePointSet([(2, 1), (1, 2), (2, 2)]), mode="definition")
    doc = genericity_doc(report)
    assert doc["generic"] is False
    assert doc["witness"] == {"a": [2, 1], "b": [2, 2], "coordinate": 1}
    clean = genericity_doc(is_generic(FinitePointSet([(0, 1), (1, 0)]), mode="both"))
    assert clean["generic"] is True and clean["witness"] is None
    assert clean["modes_agree"] is True


def test_resolution_doc_shape():
    doc = resolution_doc(build_resolution([(2, 0), (1, 1), (0, 2)]))
    assert doc["betti"] == [3, 2]
    assert doc["euler_characteristic"] == 1
    assert len(doc["differentials"]) == 1
    entries = doc["differentials"][0]
    assert {(e["row"], e["col"]) for e in entries} == {(0, 0), (1, 0), (1, 1), (2, 1)}
    assert all(e["sign"] in (1, -1) for e in entries)
    assert doc["multigraded_betti"][0] == {"dim": 0, "multidegree": [0, 2], "count": 1}
    json.dumps(doc)


def test_error_doc():
    doc = error_doc(InputError("nope"), 2)
    assert doc == {"kind": "error", "error": "InputError", "message": "nope", "exit_code": 2}
    from scarf.errors import GenericityError

    exc = GenericityError("w", witness=(Point((2, 1)), Point((2, 2)), 1))
    doc = error_doc(exc, 4)
    assert doc["witness"] == [[2, 1], [2, 2], 1]


def fixture_docs():
    """One document of every kind the CLI writes, built from small fixtures."""
    dense = FinitePointSet([(i, 0) for i in range(5)] + [("1/2", "7/3")])
    cx = complex_doc(enumerate_complex(dense))
    cx["genericity"] = genericity_doc(is_generic(dense, mode="both"))
    ker111_e1 = validate_periodic_set([(1, -1, 0), (0, 1, -1)], cosets=[(0, 0, 0), (1, 0, 0)])
    star = star_at(ker111_e1, Point((0, 0, 0)), 2)
    grid = FinitePointSet([(a, b) for a in range(4) for b in range(3)])
    orthant = Orthant((1, -1))
    witness = (Point((2, 1)), Point((2, 2)), 1)
    return {
        "complex": cx,
        "star": star_doc(star),
        "neighbors": neighbors_doc(star),
        "quotient": quotient_doc(quotient_complex(ker111_e1, 2)),
        "resolution": resolution_doc(build_resolution([(3, 0, 1), (1, 2, 0), (0, 1, 3)])),
        "layering": layering_doc(dickson_layers(grid, 2, orthant),
                                 filter_by_downset(grid, 2, orthant), 2),
        "genericity": genericity_doc(is_generic(FinitePointSet([(2, 1), (1, 2), (2, 2)]))),
        "error": error_doc(GenericityError("not generic: \"x\"\n", witness=witness), 4),
    }


@pytest.mark.parametrize("kind", sorted(fixture_docs()))
def test_render_matches_json_dumps_on_every_document_kind(kind):
    doc = fixture_docs()[kind]
    assert render_document(doc) == dumped(doc)


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


def test_point_lists_are_shared_between_faces():
    doc = complex_doc(enumerate_complex(FinitePointSet([(0, 0), (1, 0), (2, 0)])))
    by_vertex = {}
    for face in doc["faces"]:
        for row in face["vertices"]:
            assert by_vertex.setdefault(tuple(row), row) is row
    assert len(by_vertex) == 3
