"""Command-line front end.

One job per invocation: a subcommand, one JSON input document, flags, and a
single output document on stdout (JSON with --format structured, a readable
summary otherwise).  Every job computes its whole result first and then
returns its output as chunks of text, written in either format straight
from that result (face trees, neighbor rows, orbits, reports, a Layering
or a Resolution), with no document between; main writes the chunks one at
a time, so a long document is never held whole.  A chunk holds at most
formats._CHUNK items of a list, or lines of a summary, and a short output
is one chunk.  Failures print an error document to stderr and exit with a
class-specific code: 2 malformed input, 3 positivity violation, 4
genericity required but absent, 5 internal invariant failure, 6 no
certificate within the depth limit of --auto-dmax.  A writer that raises
after its first chunk is a bug: main then writes the error document to
stderr and exits 5, and stdout holds the chunks written before it, a
truncated document.

Flags that would be ignored are refused instead (exit 2): finite-nb takes
--max-dim or --vertex, not both, and the periodic subcommands take --dmax or
--auto-dmax, not both.  oracle --selftest takes no input document and no
radii, --seed needs --selftest, and --r-candidate/--r-witness need a lattice
document.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Iterable, Iterator
from itertools import chain, islice
from operator import getitem

from . import formats
from .complexes import FaceTree
from .errors import InputError, InternalError, ScarfError
from .finite import FinitePointSet, GenericityReport, _face_records, is_generic, neighbors
from .geometry import Orthant, Point, point_key, zero_point
from .periodic import (CompletenessReport, QuotientResult, certified_quotient, certified_star,
                       quotient_complex, star_at)
from .posets import Layering, dickson_layers, filter_by_downset
from .resolution import Resolution, build_resolution, verify_chain

__all__ = ["run", "main"]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scarf",
        description="Exact neighbor complexes of finite and lattice-periodic point sets.",
    )

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=help_)
        sub.add_argument(
            "--format",
            dest="fmt",
            choices=("structured", "text"),
            default="text",
            help="output style (default: text)",
        )
        return sub

    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = add("finite-nb", "neighbor complex of a finite point set")
    p.add_argument("input", help="JSON file with a points array, or - for stdin")
    p.add_argument("--max-dim", type=int, default=None, help="truncate faces above this dimension")
    p.add_argument("--vertex", default=None,
                   help='report the neighbors of this point instead of the full complex')
    p.add_argument("--generic-mode", choices=("definition", "remark", "both"), default=None,
                   help="attach a genericity report in this mode")

    p = add("generic-check", "test genericity of a finite point set")
    p.add_argument("input")
    p.add_argument(
        "--generic-mode",
        choices=("definition", "remark", "both"),
        default="both",
        help="which characterization to evaluate (default: both)",
    )

    p = add("layers", "iterated minimal-element strata and downset filtration")
    p.add_argument("input")
    p.add_argument("--k", type=int, default=1, help="layer depth (default 1)")
    p.add_argument("--orthant", default=None, help='sign string such as "++-" (default all +)')

    p = add("scarf-resolve", "labeled chain complex of a generic exponent set")
    p.add_argument("input")

    for name, help_ in (("lattice-neighbors", "neighbors of a point of a periodic set"),
                        ("lattice-star", "all faces through a point of a periodic set"),
                        ("quotient", "translation classes of faces of a periodic set")):
        p = add(name, help_)
        p.add_argument("input", help="JSON file with basis columns and optional cosets")
        p.add_argument("--dmax", type=int, default=None, help="fixed search depth")
        p.add_argument("--auto-dmax", action="store_true", help="double the depth until certified")
        if name != "quotient":
            p.add_argument("--vertex", default=None,
                           help='center point such as "1,0,-1" (default origin)')

    p = add("oracle", "brute-force cross-check paths")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--r-candidate", type=int, default=None, help="candidate box radius")
    p.add_argument("--r-witness", type=int, default=None, help="witness box radius")
    p.add_argument("--selftest", type=int, default=None, metavar="TRIALS",
                   help="random cross-check of the main paths against the oracle")
    p.add_argument("--seed", type=int, default=None, help="seed for --selftest generation")

    return parser


def _resolve_dmax(job: argparse.Namespace) -> int | None:
    if job.dmax is not None and job.auto_dmax:
        raise InputError("--dmax and --auto-dmax are mutually exclusive")
    if job.dmax is not None and job.dmax < 1:
        raise InputError(f"--dmax must be at least 1, got {job.dmax}")
    return job.dmax


def _parse_vertex(job: argparse.Namespace, dim: int) -> Point:
    if job.vertex is None:
        return zero_point(dim)
    v = formats.parse_cli_point(job.vertex)
    if v.dim != dim:
        raise InputError(f"--vertex has dimension {v.dim}, the set has dimension {dim}")
    return v


def _oracle_tree(A: FinitePointSet) -> FaceTree:
    """The subset oracle's faces of A as the tree _face_records(A, None) returns.

    faces() comes by size, then in canonical vertex order, as A indexes its
    points, so each face's parent is the face without its last vertex.
    """
    # the oracles load with the one subcommand that runs them, not with the CLI
    from .oracles import oracle_finite_nb

    position, index = {p: i for i, p in enumerate(A.points)}, A.rank_index
    tree, face = FaceTree([-1], [-1], [(0,) * A.dim]), {(): 0}
    for f in oracle_finite_nb(A).faces()[1:]:
        members = tuple(position[v] for v in f.vertices)
        face[members] = len(tree.parent)
        tree.parent.append(face[members[:-1]])
        tree.vertex.append(members[-1])
        tree.join.append(index.strict_ranks(f.multidegree))
    return tree


def _run_oracle(job: argparse.Namespace) -> Iterable[str]:
    text, radii = job.fmt == "text", job.r_candidate is not None or job.r_witness is not None
    if job.selftest is not None:
        if job.input is not None or radii:
            raise InputError("--selftest takes no input document, --r-candidate or --r-witness")
        return _selftest(job.selftest, 0 if job.seed is None else job.seed, text)
    if job.seed is not None:
        raise InputError("--seed applies to --selftest only")
    if job.input is None:
        raise InputError("the oracle needs an input document (or --selftest)")
    doc = formats.load_document(job.input)
    if "points" in doc:
        if radii:
            raise InputError("--r-candidate and --r-witness apply to lattice documents only")
        A = formats.parse_points_doc(doc)
        write, extra = (complex_text, []) if text else (formats.complex_doc, {"source": "oracle"})
        return write(A, _oracle_tree(A), extra)
    A = formats.parse_lattice_doc(doc)
    if job.r_candidate is None or job.r_witness is None:
        raise InputError("lattice oracle needs --r-candidate and --r-witness")
    from .oracles import oracle_lattice_neighbors

    rows = [p.coords for p in oracle_lattice_neighbors(A, job.r_candidate, job.r_witness)]
    if text:
        return neighbors_text(zero_point(A.dim), rows, [
            f"candidate radius {job.r_candidate}, witness radius {job.r_witness}"])
    return formats.neighbors_doc(zero_point(A.dim), rows, {
        "r_candidate": job.r_candidate, "r_witness": job.r_witness, "source": "oracle"})


def _selftest(trials: int, seed: int, text: bool) -> list:
    import random

    if trials < 1:
        raise InputError(f"--selftest needs at least 1 trial, got {trials}")
    rng = random.Random(seed)
    for t in range(trials):
        n = rng.randint(2, 4)
        m = rng.randint(1, 7)
        pts = set()
        while len(pts) < m:
            pts.add(tuple(rng.randint(0, 9) for _ in range(n)))
        A = FinitePointSet(pts)
        # the face trees: faces, their order and their joins
        if _face_records(A, None) != _oracle_tree(A):
            raise InternalError(
                f"selftest trial {t} (seed {seed}): enumerator and oracle disagree on "
                f"{[list(p) for p in sorted(pts)]}"
            )
    if text:
        return [f"selftest: {trials} trials with seed {seed}: all agreed\n"]
    return [formats.render_document({"kind": "selftest", "trials": trials, "seed": seed,
                                     "agreed": True})]


def run(job: argparse.Namespace) -> Iterable[str]:
    """Execute one job, given as the parsed command line, and return its output text in chunks.

    The text is the structured document or the readable summary, as --format
    asks, written in either format from the job's result: face trees,
    neighbor rows, orbits, reports, a Layering or a Resolution.  The result
    is computed before run returns; the chunks are written from it as they
    are iterated, and "".join(run(job)) is the whole output.
    """
    text = job.fmt == "text"
    if job.subcommand == "finite-nb":
        A = formats.parse_points_doc(formats.load_document(job.input))
        if job.max_dim is not None and job.vertex is not None:
            raise InputError("--max-dim and --vertex are mutually exclusive")
        if job.max_dim is not None and job.max_dim < 0:
            raise InputError(f"--max-dim must be nonnegative, got {job.max_dim}")
        v = None if job.vertex is None else _parse_vertex(job, A.dim)
        max_size = None if job.max_dim is None else job.max_dim + 1
        tree = None
        # what the writer adds after the faces or neighbors: lines, or fields
        extra = [] if text else {}
        if job.generic_mode is not None:
            if v is None and job.generic_mode != "definition":
                # the facet check reads every face: grow them once for both
                tree = _face_records(A, None)
            report = is_generic(A, mode=job.generic_mode, records=tree)
            extra = _genericity_lines(report) if text else {
                "genericity": formats.genericity_doc(report)}
        if v is None:
            if tree is None:
                tree = _face_records(A, max_size)
            elif max_size is not None:
                # faces come by size, from the empty face: those up to max_size are a prefix
                ends = tree.level_ends()
                end = ends[min(max_size, len(ends) - 1)]
                tree = FaceTree(*(column[:end] for column in tree))
            return (complex_text if text else formats.complex_doc)(A, tree, extra)
        rows = [p.coords for p in sorted(neighbors(A, v), key=point_key)]
        return (neighbors_text if text else formats.neighbors_doc)(v, rows, extra)

    if job.subcommand == "generic-check":
        A = formats.parse_points_doc(formats.load_document(job.input))
        report = is_generic(A, mode=job.generic_mode)
        if text:
            return ["\n".join(_genericity_lines(report)) + "\n"]
        return [formats.render_document(formats.genericity_doc(report))]

    if job.subcommand == "layers":
        A = formats.parse_points_doc(formats.load_document(job.input))
        if job.k < 0:
            raise InputError(f"--k must be a natural number, got {job.k}")
        orthant = None if job.orthant is None else Orthant.from_string(job.orthant)
        layering = dickson_layers(A, job.k, orthant)
        filtered = filter_by_downset(A, job.k, orthant)
        write = layering_text if text else formats.layering_doc
        return write(layering, filtered, job.k)

    if job.subcommand == "scarf-resolve":
        A = formats.parse_points_doc(formats.load_document(job.input))
        res = build_resolution(A)
        check = verify_chain(res)
        if not check:
            raise InternalError("; ".join(check.failures))
        return resolution_text(res) if text else formats.resolution_doc(res)

    if job.subcommand in ("lattice-neighbors", "lattice-star"):
        A = formats.parse_lattice_doc(formats.load_document(job.input))
        dmax = _resolve_dmax(job)
        vertex = _parse_vertex(job, A.dim)
        star = certified_star(A, vertex) if dmax is None else star_at(A, vertex, dmax)
        if job.subcommand == "lattice-star" and not text:
            return formats.star_doc(star)
        rows = [v for v in star.vertices if v != star.center.coords]
        if not text:
            return formats.neighbors_doc(star.center, rows,
                                         {"report": formats.report_doc(star.report)})
        lines = _report_lines(star.report)
        if job.subcommand == "lattice-star":
            # the summary counts faces by dimension, so it never writes them
            lines.insert(0, "faces by dimension: " + ", ".join(
                f"{d}:{n}" for d, n in enumerate(star.records.f_vector())))
        return neighbors_text(star.center, rows, lines)

    if job.subcommand == "quotient":
        A = formats.parse_lattice_doc(formats.load_document(job.input))
        dmax = _resolve_dmax(job)
        q = certified_quotient(A) if dmax is None else quotient_complex(A, dmax)
        return quotient_text(q) if text else formats.quotient_doc(q)

    if job.subcommand == "oracle":
        return _run_oracle(job)

    raise InputError(f"unknown subcommand {job.subcommand!r}")


def _point_str(coords: list) -> str:
    return "(" + ", ".join(str(c) for c in coords) + ")"


def monomial(exponents: list) -> str:
    """Monomial string for an exponent row, 1-based variables: "x1^2*x3"."""
    parts = []
    for i, c in enumerate(exponents, start=1):
        if isinstance(c, bool) or not isinstance(c, int) or c < 0:
            raise InputError(f"monomial exponents must be natural numbers, got {c}")
        if c:
            parts.append(f"x{i}" if c == 1 else f"x{i}^{c}")
    return "*".join(parts) if parts else "1"


def _report_lines(report: CompletenessReport) -> list:
    status = "certified complete" if report.certified else "NOT certified"
    return [
        f"search depth {report.dmax_used}, observed star dimension "
        f"{report.observed_star_dimension}, {status}",
        "candidates per orthant: "
        + ", ".join(f"{orth}:{n}" for orth, n in report.candidate_counts),
    ]


def _genericity_lines(report: GenericityReport) -> list:
    lines = [f"{'generic' if report.generic else 'not generic'} (mode: {report.mode})"]
    if report.witness is not None:
        a, b, coordinate = report.witness
        lines.append(f"  witness: {_point_str(a.coords)} and {_point_str(b.coords)} "
                     f"share coordinate {coordinate}")
    if report.modes_agree is not None:
        lines.append(f"  modes agree: {report.modes_agree}")
    return lines


def _lines(lines: Iterable[str]) -> Iterator[str]:
    """The text of the lines, each ending in a newline, in chunks of formats._CHUNK lines."""
    lines = iter(lines)
    while batch := list(islice(lines, formats._CHUNK)):
        batch.append("")
        yield "\n".join(batch)


def complex_text(A: FinitePointSet, tree: FaceTree, tail: list) -> Iterator[str]:
    """The text form of formats.complex_doc(A, tree, extra), from the tree, in chunks.

    A line per face, then tail, the lines of what extra holds.  Each
    vertex's text and each distinct join's text is written once.
    """
    f_vector = tree.f_vector()
    values = [[str(v) for v in axis] for axis in A.rank_index.values]
    joins = {top: "(" + ", ".join(map(getitem, values, top)) + ")"
             for top in dict.fromkeys(tree.join)}
    blocks = [_point_str(p.coords) for p in A.points]
    faces = (f"  dim {dim}: {vs}  join {joins[t]}"
             for dim, tops, texts in formats.face_texts(tree, blocks, " ")
             for t, vs in zip(tops, texts))
    yield from _lines(chain(
        [f"complex of dimension {len(f_vector) - 1}, f-vector {_point_str(f_vector)}"],
        faces, tail))


def neighbors_text(center: Point, rows: list, tail: list) -> Iterator[str]:
    """The text form of formats.neighbors_doc(center, rows, fields), from the rows, in chunks.

    The center and the neighbor count, a line per neighbor, then tail, the
    lines of what fields holds.
    """
    yield from _lines(chain([f"center {_point_str(center.coords)}: {len(rows)} neighbors"],
                            ("  " + _point_str(v) for v in rows), tail))


def quotient_text(q: QuotientResult) -> Iterator[str]:
    """The text form of formats.quotient_doc(q), each vertex's text written once, in chunks."""
    vertices = dict.fromkeys(v for vs, _ in q.orbits for v in vs)
    block = {v: _point_str(v) for v in vertices}.__getitem__
    yield from _lines(chain(
        [f"orbit f-vector: {_point_str(q.f_vector)}"],
        (f"  dim {len(vs) - 1} x{c}: {' '.join(map(block, vs))}" for vs, c in q.orbits),
        _report_lines(q.report)))


def layering_text(layering: Layering, filtered, k: int) -> Iterator[str]:
    """The text form of formats.layering_doc(layering, filtered, k), from its sets, in chunks."""
    def row(points) -> str:
        return " ".join([_point_str(p.coords) for p in sorted(points, key=point_key)])

    lines = [f"layer {i}: {row(layer)}" for i, layer in enumerate(layering.layers)]
    lines.append(f"residual: {row(layering.residual) or '(empty)'}")
    lines.append(f"downset filter (k={k}): {row(filtered)}")
    yield from _lines(lines)


def resolution_text(res: Resolution) -> Iterator[str]:
    """The text form of formats.resolution_doc(res), from the Resolution, in chunks."""
    head = [
        f"betti numbers: {_point_str(res.betti)}",
        "multigraded: " + "; ".join([f"dim {d} at {_point_str(md)} x{n}"
                                     for (d, md), n in res.multigraded_betti.items()]),
        "augmentation: " + "  ".join([monomial(p) for p in res.augmentation]),
    ]

    def differentials():
        for i, step in enumerate(res.differentials, start=1):
            yield f"differential {i}:"
            yield from (f"  [{r},{c}] {'+' if s > 0 else '-'}{monomial(e)}"
                        for (r, c), (s, e) in sorted(step.items()))

    yield from _lines(chain(head, differentials(),
                            [f"euler characteristic: {res.euler_characteristic()}"]))


def _fail(job: argparse.Namespace, exc: Exception, written: bool) -> int:
    """Write the error document of exc to stderr and return the exit code.

    Anything but a ScarfError is an internal failure, and so is any error
    once output has started: a writer that raises after its first chunk.
    """
    code = exc.exit_code if isinstance(exc, ScarfError) and not written else 5
    doc = formats.error_doc(exc, code)
    if job.fmt == "structured":
        text = formats.render_document(doc)
    else:
        # the witness as the structured error lists it, then any last report
        lines = [f"error [{doc['error']}]: {doc['message']}"]
        lines += [f"  witness: {doc['witness']}"] if "witness" in doc else []
        lines += _report_lines(exc.report) if "report" in doc else []
        text = "\n".join(lines) + "\n"
    sys.stderr.write(text)
    return code


def main(argv=None) -> int:
    job = _build_parser().parse_args(argv)
    chunks, written = None, False
    while True:
        # only run and the writers are guarded: a failing write to stdout is not a job's error
        try:
            if chunks is None:
                chunks = iter(run(job))
            chunk = next(chunks)
        except StopIteration:
            return 0
        except Exception as exc:  # noqa: BLE001 - anything but a ScarfError is an internal failure
            return _fail(job, exc, written)
        sys.stdout.write(chunk)
        written = True


if __name__ == "__main__":
    sys.exit(main())
