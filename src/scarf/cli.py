"""Command-line front end.

One job per invocation: a subcommand, one JSON input document, flags, and a
single output document on stdout (JSON with --format structured, a readable
summary otherwise).  Failures print an error document to stderr and exit
with a class-specific code: 2 malformed input, 3 positivity violation, 4
genericity required but absent, 5 internal invariant failure, 6 no
certificate within the depth limit of --auto-dmax.

Flags that would be ignored are refused instead (exit 2): finite-nb takes
--max-dim or --vertex, not both, and the periodic subcommands take --dmax or
--auto-dmax, not both.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Optional

from . import formats
from .errors import InputError, InternalError, ScarfError
from .finite import FinitePointSet, enumerate_complex, is_generic, neighbors
from .geometry import Orthant, Point, point_key, zero_point
from .oracles import oracle_finite_nb, oracle_lattice_neighbors
from .periodic import certified_quotient, certified_star, quotient_complex, star_at
from .posets import dickson_layers, filter_by_downset
from .resolution import build_resolution, verify_chain

__all__ = ["run", "main"]

SUBCOMMANDS = (
    "finite-nb",
    "generic-check",
    "layers",
    "scarf-resolve",
    "lattice-neighbors",
    "lattice-star",
    "quotient",
    "oracle",
)


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

    p = add("lattice-neighbors", "neighbors of a point of a periodic set")
    p.add_argument("input", help="JSON file with basis columns and optional cosets")
    p.add_argument("--dmax", type=int, default=None, help="fixed search depth")
    p.add_argument("--auto-dmax", action="store_true", help="double the depth until certified")
    p.add_argument("--vertex", default=None, help='center point such as "1,0,-1" (default origin)')

    p = add("lattice-star", "all faces through a point of a periodic set")
    p.add_argument("input")
    p.add_argument("--dmax", type=int, default=None)
    p.add_argument("--auto-dmax", action="store_true")
    p.add_argument("--vertex", default=None)

    p = add("quotient", "translation classes of faces of a periodic set")
    p.add_argument("input")
    p.add_argument("--dmax", type=int, default=None)
    p.add_argument("--auto-dmax", action="store_true")

    p = add("oracle", "brute-force cross-check paths")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--r-candidate", type=int, default=None, help="candidate box radius")
    p.add_argument("--r-witness", type=int, default=None, help="witness box radius")
    p.add_argument("--selftest", type=int, default=None, metavar="TRIALS",
                   help="random cross-check of the main paths against the oracle")
    p.add_argument("--seed", type=int, default=0, help="seed for --selftest generation")

    return parser


def _resolve_dmax(job: argparse.Namespace) -> Optional[int]:
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


def _run_oracle(job: argparse.Namespace) -> dict:
    if job.selftest is not None:
        return _selftest(job.selftest, job.seed)
    if job.input is None:
        raise InputError("the oracle needs an input document (or --selftest)")
    doc = formats.load_document(job.input)
    if "points" in doc:
        cx = oracle_finite_nb(formats.parse_points_doc(doc))
        out = formats.complex_doc(cx)
        out["source"] = "oracle"
        return out
    A = formats.parse_lattice_doc(doc)
    if job.r_candidate is None or job.r_witness is None:
        raise InputError("lattice oracle needs --r-candidate and --r-witness")
    nbs = oracle_lattice_neighbors(A, job.r_candidate, job.r_witness)
    return {
        "kind": "neighbors",
        "center": formats.point_json(zero_point(A.dim)),
        "neighbors": [formats.point_json(p) for p in nbs],
        "r_candidate": job.r_candidate,
        "r_witness": job.r_witness,
        "source": "oracle",
    }


def _selftest(trials: int, seed: int) -> dict:
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
        if enumerate_complex(A) != oracle_finite_nb(A):
            raise InternalError(
                f"selftest trial {t} (seed {seed}): enumerator and oracle disagree on "
                f"{[list(p) for p in sorted(pts)]}"
            )
    return {"kind": "selftest", "trials": trials, "seed": seed, "agreed": True}


def run(job: argparse.Namespace) -> dict:
    """Execute one job, given as the parsed command line, and return its output document."""
    if job.subcommand == "finite-nb":
        A = formats.parse_points_doc(formats.load_document(job.input))
        if job.max_dim is not None and job.vertex is not None:
            raise InputError("--max-dim and --vertex are mutually exclusive")
        if job.max_dim is not None and job.max_dim < 0:
            raise InputError(f"--max-dim must be nonnegative, got {job.max_dim}")
        if job.vertex is not None:
            v = _parse_vertex(job, A.dim)
            doc = {
                "kind": "neighbors",
                "center": formats.point_json(v),
                "neighbors": [
                    formats.point_json(p) for p in sorted(neighbors(A, v), key=point_key)
                ],
            }
        else:
            doc = formats.complex_doc(enumerate_complex(A, max_dim=job.max_dim))
        if job.generic_mode is not None:
            doc["genericity"] = formats.genericity_doc(is_generic(A, mode=job.generic_mode))
        return doc

    if job.subcommand == "generic-check":
        A = formats.parse_points_doc(formats.load_document(job.input))
        return formats.genericity_doc(is_generic(A, mode=job.generic_mode))

    if job.subcommand == "layers":
        A = formats.parse_points_doc(formats.load_document(job.input))
        if job.k < 0:
            raise InputError(f"--k must be a natural number, got {job.k}")
        orthant = Orthant.from_string(job.orthant) if job.orthant else None
        layering = dickson_layers(A, job.k, orthant)
        filtered = filter_by_downset(A, job.k, orthant)
        return formats.layering_doc(layering, filtered, job.k)

    if job.subcommand == "scarf-resolve":
        A = formats.parse_points_doc(formats.load_document(job.input))
        res = build_resolution(A)
        check = verify_chain(res)
        if not check:
            raise InternalError("; ".join(check.failures))
        return formats.resolution_doc(res)

    if job.subcommand in ("lattice-neighbors", "lattice-star"):
        A = formats.parse_lattice_doc(formats.load_document(job.input))
        dmax = _resolve_dmax(job)
        vertex = _parse_vertex(job, A.dim)
        if dmax is None:
            star = certified_star(A, vertex)
        else:
            star = star_at(A, vertex, dmax)
        if job.subcommand == "lattice-star":
            return formats.star_doc(star)
        return formats.neighbors_doc(star)

    if job.subcommand == "quotient":
        A = formats.parse_lattice_doc(formats.load_document(job.input))
        dmax = _resolve_dmax(job)
        q = certified_quotient(A) if dmax is None else quotient_complex(A, dmax)
        return formats.quotient_doc(q)

    if job.subcommand == "oracle":
        return _run_oracle(job)

    raise InputError(f"unknown subcommand {job.subcommand!r}")


def _point_str(coords: list) -> str:
    return "(" + ", ".join(str(c) for c in coords) + ")"


def monomial(exponents: list) -> str:
    """Monomial string for a JSON exponent row, 1-based variables: "x1^2*x3"."""
    parts = []
    for i, c in enumerate(exponents, start=1):
        if isinstance(c, bool) or not isinstance(c, int) or c < 0:
            raise InputError(f"monomial exponents must be natural numbers, got {c}")
        if c:
            parts.append(f"x{i}" if c == 1 else f"x{i}^{c}")
    return "*".join(parts) if parts else "1"


def _report_lines(rep: dict) -> list:
    status = "certified complete" if rep["certified"] else "NOT certified"
    lines = [
        f"search depth {rep['dmax_used']}, observed star dimension "
        f"{rep['observed_star_dimension']}, {status}",
        "candidates per orthant: "
        + ", ".join(f"{orth}:{n}" for orth, n in rep["candidate_counts"]),
    ]
    return lines


def render_text(doc: dict) -> str:
    """Readable one-job summary of an output document."""
    kind = doc.get("kind")
    lines = []
    if kind == "complex":
        lines.append(
            f"complex of dimension {doc['dimension']}, f-vector "
            + _point_str(doc["f_vector"])
        )
        for f in doc["faces"]:
            label = ""
            if "multidegree" in f:
                label = "  join " + _point_str(f["multidegree"])
            lines.append(
                f"  dim {f['dim']}: "
                + " ".join(_point_str(v) for v in f["vertices"])
                + label
            )
    elif kind == "genericity":
        head = "generic" if doc["generic"] else "not generic"
        lines.append(f"{head} (mode: {doc['mode']})")
        if doc["witness"] is not None:
            w = doc["witness"]
            lines.append(
                f"  witness: {_point_str(w['a'])} and {_point_str(w['b'])} "
                f"share coordinate {w['coordinate']}"
            )
        if "modes_agree" in doc:
            lines.append(f"  modes agree: {doc['modes_agree']}")
    elif kind == "layering":
        for i, layer in enumerate(doc["layers"]):
            lines.append(f"layer {i}: " + " ".join(_point_str(p) for p in layer))
        lines.append("residual: " + (" ".join(_point_str(p) for p in doc["residual"]) or "(empty)"))
        if "filtered" in doc:
            lines.append(
                f"downset filter (k={doc.get('k')}): "
                + " ".join(_point_str(p) for p in doc["filtered"])
            )
    elif kind in ("neighbors", "star"):
        lines.append(
            f"center {_point_str(doc['center'])}: {len(doc['neighbors'])} neighbors"
        )
        for p in doc["neighbors"]:
            lines.append("  " + _point_str(p))
        if kind == "star":
            by_dim: dict = {}
            for f in doc["faces"]:
                by_dim[f["dim"]] = by_dim.get(f["dim"], 0) + 1
            lines.append(
                "faces by dimension: "
                + ", ".join(f"{d}:{by_dim[d]}" for d in sorted(by_dim))
            )
        if "report" in doc:
            lines.extend(_report_lines(doc["report"]))
        if "r_candidate" in doc:
            lines.append(
                f"candidate radius {doc['r_candidate']}, witness radius {doc['r_witness']}"
            )
    elif kind == "quotient":
        lines.append("orbit f-vector: " + _point_str(doc["f_vector"]))
        for orb in doc["orbits"]:
            lines.append(
                f"  dim {orb['dim']} x{orb['incidences']}: "
                + " ".join(_point_str(v) for v in orb["face"])
            )
        lines.extend(_report_lines(doc["report"]))
    elif kind == "resolution":
        lines.append("betti numbers: " + _point_str(doc["betti"]))
        lines.append(
            "multigraded: "
            + "; ".join(
                f"dim {e['dim']} at {_point_str(e['multidegree'])} x{e['count']}"
                for e in doc["multigraded_betti"]
            )
        )
        lines.append(
            "augmentation: "
            + "  ".join(monomial(p) for p in doc["augmentation"])
        )
        for i, step in enumerate(doc["differentials"], start=1):
            lines.append(f"differential {i}:")
            for e in step:
                sign = "+" if e["sign"] > 0 else "-"
                lines.append(
                    f"  [{e['row']},{e['col']}] {sign}{monomial(e['exponent'])}"
                )
        lines.append(f"euler characteristic: {doc['euler_characteristic']}")
    elif kind == "selftest":
        lines.append(
            f"selftest: {doc['trials']} trials with seed {doc['seed']}: "
            + ("all agreed" if doc["agreed"] else "DISAGREED")
        )
    elif kind == "error":
        lines.append(f"error [{doc['error']}]: {doc['message']}")
        if "witness" in doc:
            lines.append(f"  witness: {doc['witness']}")
    else:
        return formats.render_document(doc)
    if "genericity" in doc:
        lines.append(render_text(doc["genericity"]).rstrip("\n"))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    job = parser.parse_args(argv)
    try:
        doc = run(job)
    except ScarfError as exc:
        _emit_error(exc, exc.exit_code, job.fmt)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - surface as an internal failure
        _emit_error(exc, 5, job.fmt)
        return 5
    out = formats.render_document(doc) if job.fmt == "structured" else render_text(doc)
    sys.stdout.write(out)
    return 0


def _emit_error(exc: Exception, code: int, fmt: str) -> None:
    doc = formats.error_doc(exc, code)
    text = formats.render_document(doc) if fmt == "structured" else render_text(doc)
    sys.stderr.write(text)


if __name__ == "__main__":
    sys.exit(main())
