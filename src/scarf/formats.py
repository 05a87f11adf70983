"""JSON document layer: exact parsing and deterministic rendering.

Input documents hold either "points" (rows of integers or "p/q" strings)
or "basis" plus optional "cosets" (integer columns and integer vectors).
Rendered documents are plain JSON with sorted keys, so parse(render(x))
round-trips at the document level and diffs are stable.  The exact byte
contract: render_document(doc) equals
json.dumps(doc, sort_keys=True, indent=2) + "\n".

Document builders give each point object one shared coordinate list, and
the renderer writes each such list once per call and depth, so a complex
whose faces repeat a few vertices renders each vertex once, not per face.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Optional

from .complexes import Face, LabeledComplex
from .errors import InputError
from .finite import FinitePointSet, GenericityReport
from .geometry import Point
from .periodic import (
    CompletenessReport,
    PeriodicSet,
    QuotientResult,
    StarResult,
    validate_periodic_set,
)
from .posets import Layering
from .resolution import Resolution

__all__ = [
    "load_document",
    "parse_document",
    "render_document",
    "parse_points_doc",
    "parse_lattice_doc",
    "parse_cli_point",
    "point_json",
    "complex_doc",
    "genericity_doc",
    "layering_doc",
    "report_doc",
    "star_doc",
    "neighbors_doc",
    "quotient_doc",
    "resolution_doc",
    "error_doc",
]


def parse_document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError("the top-level JSON value must be an object")
    return doc


# how a flat list renders each item: ints as digits, strings as ASCII JSON
_FLAT = {int: int.__repr__, str: encode_basestring_ascii}
_STR = {str}  # the key types of a dict the writer renders itself


def render_document(doc: dict) -> str:
    """json.dumps(doc, sort_keys=True, indent=2) + "\n", byte for byte.

    Flat lists (ints and strings only) are rendered once per (object,
    depth) within the call; the memo lives only as long as the call, since
    ids are reused after garbage collection.  Values other than str, int,
    bool, None, lists, tuples and str-keyed dicts (subclasses included) are
    left to json.dumps.
    """
    memo: dict = {}

    def write(x, depth: int) -> str:
        kind = type(x)
        if kind is list or kind is tuple:
            if not x:
                return "[]"
            # look up before testing flatness: a repeated point list is the common case
            key = (id(x), depth)
            text = memo.get(key)
            if text is not None:
                return text
            inner = "\n" + "  " * (depth + 1)
            if set(map(type, x)) <= _FLAT.keys():
                body = ("," + inner).join([_FLAT[type(v)](v) for v in x])
                text = memo[key] = f"[{inner}{body}\n{'  ' * depth}]"
                return text
            body = ("," + inner).join([write(v, depth + 1) for v in x])
            return f"[{inner}{body}\n{'  ' * depth}]"
        if kind is str:
            return encode_basestring_ascii(x)
        if kind is int:
            return int.__repr__(x)
        if kind is dict and set(map(type, x)) <= _STR:
            if not x:
                return "{}"
            inner = "\n" + "  " * (depth + 1)
            body = ("," + inner).join([
                f"{encode_basestring_ascii(k)}: {write(v, depth + 1)}"
                for k, v in sorted(x.items())])
            return f"{{{inner}{body}\n{'  ' * depth}}}"
        if x is None:
            return "null"
        if x is True:
            return "true"
        if x is False:
            return "false"
        # JSON strings hold no raw newline, so re-indenting is exact
        return json.dumps(x, sort_keys=True, indent=2).replace("\n", "\n" + "  " * depth)

    return write(doc, 0) + "\n"


def load_document(path: str) -> dict:
    if path == "-":
        import sys

        return parse_document(sys.stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_row(row, where: str) -> Point:
    if not isinstance(row, (list, tuple)) or not row:
        raise InputError(f"{where}: each entry must be a non-empty array of coordinates")
    return Point(row)


def parse_points_doc(doc: dict) -> FinitePointSet:
    """Finite point set from a {"points": [...]} document."""
    if "points" not in doc:
        raise InputError('the document needs a "points" array')
    rows = doc["points"]
    if not isinstance(rows, list) or not rows:
        raise InputError('"points" must be a non-empty array')
    return FinitePointSet(_parse_row(r, "points") for r in rows)


def _int_entry(x, where: str) -> int:
    # bool is an int subtype; reject it along with everything non-integer
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{where}: lattice data must be plain integers, got {x!r}")
    return x


def _int_vector(row, where: str) -> list:
    if not isinstance(row, (list, tuple)) or not row:
        raise InputError(f"{where}: expected a non-empty integer array, got {row!r}")
    return [_int_entry(x, where) for x in row]


def parse_lattice_doc(doc: dict) -> PeriodicSet:
    """Periodic set from a {"basis": [...], "cosets": [...]} document."""
    if "basis" not in doc:
        raise InputError('the document needs a "basis" array of integer columns')
    basis = doc["basis"]
    if not isinstance(basis, list) or not basis:
        raise InputError('"basis" must be a non-empty array of integer columns')
    cols = [_int_vector(col, "basis") for col in basis]
    cosets = doc.get("cosets")
    if cosets is not None:
        if not isinstance(cosets, list) or not cosets:
            raise InputError('"cosets", when present, must be a non-empty array')
        cosets = [_int_vector(row, "cosets") for row in cosets]
    return validate_periodic_set(cols, cosets)


def parse_cli_point(text: str) -> Point:
    """A point from a comma-separated flag value like "2,0,-1" or "1/2,0"."""
    parts = [p.strip() for p in text.split(",")]
    if not all(parts):
        raise InputError(f"malformed point {text!r}")
    return Point(parts)


def point_json(p: Point) -> list:
    return [
        int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        for c in p.coords
    ]


def _shared_point_json():
    """point_json that returns one list per point object, however often it is asked.

    Faces repeat a few vertex objects many times; sharing their lists lets
    render_document write each one once.  Keys are ids, which is sound
    because the result a document is built from holds all its points.
    """
    rows: dict = {}

    def row(p: Point) -> list:
        found = rows.get(id(p))
        if found is None:
            found = rows[id(p)] = point_json(p)
        return found

    return row


def _face_json(f: Face, row) -> dict:
    doc = {"vertices": [row(v) for v in f.vertices], "dim": f.dim}
    if f.multidegree is not None:
        doc["multidegree"] = row(f.multidegree)
    return doc


def complex_doc(cx: LabeledComplex) -> dict:
    """Faces, f-vector and dimension; the empty face is reported as a flag."""
    row = _shared_point_json()
    return {
        "kind": "complex",
        "dimension": cx.dimension,
        "f_vector": list(cx.f_vector()),
        "empty_face": True,
        "faces": [_face_json(f, row) for f in cx.faces() if f.vertices],
    }


def genericity_doc(report: GenericityReport) -> dict:
    doc = {
        "kind": "genericity",
        "generic": report.generic,
        "mode": report.mode,
        "witness": None,
    }
    if report.witness is not None:
        a, b, coord = report.witness
        doc["witness"] = {"a": point_json(a), "b": point_json(b), "coordinate": coord}
    if report.pairwise is not None:
        doc["pairwise"] = report.pairwise
    if report.facet is not None:
        doc["facet"] = report.facet
    if report.modes_agree is not None:
        doc["modes_agree"] = report.modes_agree
    return doc


def layering_doc(layering: Layering, filtered=None, k: Optional[int] = None) -> dict:
    from .geometry import point_key

    def rows(points) -> list:
        return [point_json(p) for p in sorted(points, key=point_key)]

    doc = {
        "kind": "layering",
        "layers": [rows(layer) for layer in layering.layers],
        "residual": rows(layering.residual),
    }
    if k is not None:
        doc["k"] = k
    if filtered is not None:
        doc["filtered"] = rows(filtered)
    return doc


def report_doc(report: CompletenessReport) -> dict:
    return {
        "dmax_used": report.dmax_used,
        "observed_star_dimension": report.observed_star_dimension,
        "certified": report.certified,
        "candidate_counts": [[orth, n] for orth, n in report.candidate_counts],
    }


def star_doc(star: StarResult) -> dict:
    row = _shared_point_json()
    return {
        "kind": "star",
        "center": row(star.center),
        "neighbors": [row(p) for p in star.neighbors],
        "faces": [_face_json(f, row) for f in star.faces],
        "report": report_doc(star.report),
    }


def neighbors_doc(star: StarResult) -> dict:
    return {
        "kind": "neighbors",
        "center": point_json(star.center),
        "neighbors": [point_json(p) for p in star.neighbors],
        "report": report_doc(star.report),
    }


def quotient_doc(q: QuotientResult) -> dict:
    row = _shared_point_json()
    return {
        "kind": "quotient",
        "f_vector": list(q.f_vector),
        "orbits": [
            {
                "face": [row(v) for v in orb.face.vertices],
                "dim": orb.dim,
                "incidences": orb.incidences,
            }
            for orb in q.orbits
        ],
        "report": report_doc(q.report),
    }


def resolution_doc(res: Resolution) -> dict:
    row = _shared_point_json()
    diffs = []
    for step in res.differentials:
        diffs.append(
            [
                {"row": r, "col": c, "sign": s, "exponent": row(e)}
                for (r, c), (s, e) in sorted(step.items())
            ]
        )
    return {
        "kind": "resolution",
        "betti": list(res.betti),
        "multigraded_betti": [
            {"dim": d, "multidegree": row(md), "count": c}
            for (d, md), c in sorted(
                res.multigraded_betti.items(), key=lambda it: (it[0][0], it[0][1].coords)
            )
        ],
        "augmentation": [row(p) for p in res.augmentation],
        "faces_by_dim": [
            [[row(v) for v in f.vertices] for f in fs] for fs in res.faces_by_dim
        ],
        "differentials": diffs,
        "euler_characteristic": res.euler_characteristic(),
    }


def error_doc(exc: Exception, exit_code: int) -> dict:
    doc = {
        "kind": "error",
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": exit_code,
    }
    witness = getattr(exc, "witness", None)
    if isinstance(witness, Point):
        doc["witness"] = point_json(witness)
    elif isinstance(witness, tuple):
        doc["witness"] = [
            point_json(w) if isinstance(w, Point) else w for w in witness
        ]
    return doc

