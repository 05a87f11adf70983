"""JSON document layer: exact parsing and deterministic rendering.

Input documents hold either "points" (rows of integers or "p/q" strings)
or "basis" plus optional "cosets" (integer columns and integer vectors).
A coordinate string is "n" or "p/q" in ASCII digits, with an optional sign
on the numerator and q nonzero; no spaces, underscores, decimals or
exponents.  Integral values parse to ints however they are spelled, so
point_json writes "6/3" back as 2.
Rendered documents are plain JSON with sorted keys, so parse(render(x))
round-trips at the document level and diffs are stable.  The exact byte
contract, json.dumps(doc, sort_keys=True, indent=2) + "\n", is what
render_document is.

Documents with lists are written from results, not built first:
complex_doc and star_doc (from a FaceTree of faces and its join table),
neighbors_doc (from coordinate rows), quotient_doc (from orbits),
resolution_doc (from a Resolution) and layering_doc (from a Layering)
write each list's items as text, and one list writer places them among
the short fields that render_document writes; the text they yield equals
render_document of the document it stands for.  They yield it in chunks,
each holding at most _CHUNK items of any one list (an item of a list of
lists is one item of an inner list), so no writer holds a long document
whole: "".join(chunks) is the document.  complex_doc and star_doc write
each face's vertex text through FaceTree.by_size, as the CLI's text
summary does: its parent's text plus one vertex's block, one size of
faces at a time, and each join's text once, from the tree's join table.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Iterator
from itertools import islice
from operator import getitem

from .complexes import FaceTree
from .errors import CertificationError, InputError
from .finite import FinitePointSet, GenericityReport
from .geometry import Point, point_key
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
    except ValueError as exc:  # JSONDecodeError, or an int beyond the digit limit
        raise InputError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError("the JSON nests too deeply to read") from exc
    if not isinstance(doc, dict):
        raise InputError("the top-level JSON value must be an object")
    return doc


def render_document(doc: dict) -> str:
    """The structured text of a document, which is the byte contract by construction.

    The writers of documents with long lists call it for the short fields
    around their lists and write the lists' items from results.
    """
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def load_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_document(text)


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
    return [c if type(c) is int else f"{c.numerator}/{c.denominator}" for c in p.coords]


def _coord_text(c) -> str:
    # point_json's entry as render_document writes it: digits, or a "p/q" string
    return int.__repr__(c) if type(c) is int else f'"{c.numerator}/{c.denominator}"'


def _block(items: list, depth: int) -> str:
    """A nonempty list as render_document writes it at this depth, given its items' text."""
    inner = "\n" + "  " * (depth + 1)
    return f"[{inner}{(',' + inner).join(items)}\n{'  ' * depth}]"


def _vertex_block(coords, depth: int) -> str:
    # point_json's list of a point's coordinates, at this depth
    return _block([*map(_coord_text, coords)], depth)


def _faces(tree: FaceTree, blocks: list, values: list):
    """The text of each face of the tree but the empty one, in order, at its place in a document.

    Each face is {"dim", "multidegree", "vertices"}: blocks[i] is the text
    of vertex i's coordinate list and values[k][top[k]] that of the join's
    k-th coordinate.  Each face is one string around those texts, without a
    dict per face, and each join's text, from tree.tops, is written once.
    Yields the faces one by one.
    """
    sep = ",\n        "
    degree = [sep.join(map(getitem, values, top)) for top in tree.tops]
    for dim, joins, texts in tree.by_size(blocks, sep):
        head = f'{{\n      "dim": {dim},\n      "multidegree": [\n        '
        for t, vs in zip(joins, texts):
            yield (f'{head}{degree[t]}\n      ],\n      "vertices": [\n        {vs}\n      ]\n'
                   f'    }}')


# items of one list in one chunk of a long document.  A chunk's items are
# alive together: 256 faces of 16 collinear points are 120 KB of text, and
# 4 096 a chunk left the finite benchmark's peak RSS about 4 MB higher
# (x86, Python 3.11)
_CHUNK = 256


def _list_doc(fields: dict, **lists):
    """render_document of {**fields, **lists} in chunks, given the text of each item of each list.

    Each list is an iterable of its items' text, written at depth 2, as
    render_document writes a list under a top-level key.  render_document
    writes the fields, with each list empty, and each nonempty list is
    placed where its [] stands.  A chunk ends after a full batch of _CHUNK
    items of a list, if more follow, or at the end, so a chunk holds at
    most _CHUNK items of any one list and a short document is one chunk.
    """
    text = render_document({**fields, **dict.fromkeys(lists, [])})
    sep = ",\n    "
    # the items not yet yielded, the text around each list riding on its
    # first and last item, so each item is copied only into its chunk
    parts = [""]
    for key, items in sorted(lists.items()):
        items = iter(items)
        batch = list(islice(items, _CHUNK))
        if not batch:
            continue
        head, text = text.split(f'\n  "{key}": []')
        batch[0] = f'{parts.pop()}{head}\n  "{key}": [\n    {batch[0]}'
        parts += batch
        while batch := list(islice(items, _CHUNK)):
            yield sep.join(parts)
            batch[0] = sep + batch[0]
            parts = batch
        parts[-1] += "\n  ]"
    parts[-1] += text
    yield sep.join(parts)


def _nested(lists):
    """A list of lists as the items _list_doc writes, given each inner list's items' text.

    Each item of an inner list, written at depth 3, is one item of the
    outer list: _list_doc's separator and two more spaces are the inner
    separator, the inner list's brackets ride on its first and last item,
    and an empty inner list is the item "[]".  So _list_doc chunks a list
    of lists by its inner items.
    """
    for items in lists:
        items = iter(items)
        item = next(items, None)
        if item is None:
            yield "[]"
            continue
        item = "[\n      " + item
        for nxt in items:
            yield item
            item = "  " + nxt
        yield item + "\n    ]"


def complex_doc(A: FinitePointSet, tree: FaceTree, extra: dict) -> Iterator[str]:
    """The text of the complex document of A's faces, given as a tree of rank joins.

    Yields, in chunks, render_document of {"kind": "complex", "dimension",
    "f_vector", "empty_face": true, "faces", **extra}, byte for byte, where
    each face is {"dim", "multidegree", "vertices"} and the empty face is
    only flagged.
    The tree is what finite's face growth returns: the empty face, then the
    others by size, then by member indices.  A indexes its points in
    canonical order, so that is the canonical face order, and nothing is
    sorted.
    """
    f_vector = tree.f_vector()
    fields = {
        "kind": "complex",
        "dimension": len(f_vector) - 1,
        "f_vector": f_vector,
        "empty_face": True,
        **extra,
    }
    yield from _list_doc(fields, faces=_faces(
        tree, [_vertex_block(p.coords, 4) for p in A.points],
        [[_coord_text(v) for v in axis] for axis in A.rank_index.values]))


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


def layering_doc(layering: Layering, filtered, k: int) -> Iterator[str]:
    """The text of the layering document, written from the Layering.

    Yields, in chunks, render_document of {"kind": "layering", "layers",
    "residual", "k", "filtered"}, byte for byte, each set of points listed
    in canonical order.
    """
    def rows(points, depth: int):
        return (_vertex_block(p.coords, depth) for p in sorted(points, key=point_key))

    yield from _list_doc({"kind": "layering", "k": k},
                         layers=_nested(rows(layer, 3) for layer in layering.layers),
                         residual=rows(layering.residual, 2), filtered=rows(filtered, 2))


def report_doc(report: CompletenessReport) -> dict:
    return {
        "dmax_used": report.dmax_used,
        "observed_star_dimension": report.observed_star_dimension,
        "certified": report.certified,
        "candidate_counts": [[orth, n] for orth, n in report.candidate_counts],
    }


def star_doc(star: StarResult) -> Iterator[str]:
    """The text of the star document, written from the star's face tree.

    Yields, in chunks, render_document of {"kind": "star", "center",
    "neighbors", "faces", "report"}, byte for byte, each face as in
    complex_doc and the neighbors as in neighbors_doc.
    """
    center = star.center.coords
    # a join's coordinate on an axis is one of its vertices' coordinates there
    values = [{c: _coord_text(c) for c in axis} for axis in zip(*star.vertices)]
    yield from _list_doc(
        {"kind": "star", "center": point_json(star.center), "report": report_doc(star.report)},
        faces=_faces(star.records, [_vertex_block(v, 4) for v in star.vertices], values),
        neighbors=(_vertex_block(v, 2) for v in star.vertices if v != center))


def neighbors_doc(center: Point, rows, fields: dict) -> Iterator[str]:
    """The text of the neighbors document of center, given its neighbors' coordinates.

    Yields, in chunks, render_document of {"kind": "neighbors", "center",
    "neighbors", **fields}, byte for byte, with the neighbors in the order
    of rows.
    """
    yield from _list_doc({"kind": "neighbors", "center": point_json(center), **fields},
                         neighbors=(_vertex_block(v, 2) for v in rows))


def quotient_doc(q: QuotientResult) -> Iterator[str]:
    """The text of the quotient document, written from the orbits.

    Yields, in chunks, render_document of {"kind": "quotient", "f_vector",
    "orbits", "report"}, byte for byte, where each orbit is {"dim", "face",
    "incidences"} and "face" lists its vertices' coordinates.  Each
    distinct vertex's coordinate list is written once.
    """
    blocks = dict.fromkeys(v for vs, _ in q.orbits for v in vs)
    for v in blocks:
        blocks[v] = _vertex_block(v, 4)
    sep, block = ",\n        ", blocks.__getitem__
    orbits = (
        f'{{\n      "dim": {len(vs) - 1},\n      "face": [\n        '
        f'{sep.join(map(block, vs))}\n      ],\n      "incidences": {c}\n    }}'
        for vs, c in q.orbits
    )
    yield from _list_doc({"kind": "quotient", "f_vector": list(q.f_vector),
                          "report": report_doc(q.report)}, orbits=orbits)


def resolution_doc(res: Resolution) -> Iterator[str]:
    """The text of the resolution document, written from the Resolution.

    Yields, in chunks, render_document of {"kind": "resolution", "betti",
    "multigraded_betti", "augmentation", "faces_by_dim", "differentials",
    "euler_characteristic"}, byte for byte: a face lists its vertices'
    exponents, a differential entry is {"row", "col", "sign", "exponent"},
    and entries come in (row, column) order.  Each vertex's exponent list
    is written once for all the faces that hold it.
    """
    block = [_vertex_block(p.coords, 4) for p in res.points.points].__getitem__
    differentials = ((
        f'{{\n        "col": {c},\n        "exponent": {_vertex_block(e, 4)},\n'
        f'        "row": {r},\n        "sign": {s}\n      }}'
        for (r, c), (s, e) in sorted(step.items())) for step in res.differentials)
    multigraded = (
        f'{{\n      "count": {n},\n      "dim": {d},\n'
        f'      "multidegree": {_vertex_block(md, 3)}\n    }}'
        for (d, md), n in res.multigraded_betti.items())
    yield from _list_doc(
        {"kind": "resolution", "betti": list(res.betti),
         "euler_characteristic": res.euler_characteristic()},
        augmentation=(_vertex_block(p, 2) for p in res.augmentation),
        differentials=_nested(differentials),
        faces_by_dim=_nested((_block([*map(block, members)], 3) for members, _ in fs)
                             for fs in res.faces_by_dim),
        multigraded_betti=multigraded)


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
    if isinstance(exc, CertificationError) and exc.report is not None:
        doc["report"] = report_doc(exc.report)
    return doc

