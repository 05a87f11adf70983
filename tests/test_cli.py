"""End-to-end command-line behavior: documents in, documents out, exit codes."""

import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scarf
from scarf import formats
from scarf.cli import (
    _genericity_lines,
    complex_text,
    layering_text,
    main,
    monomial,
    neighbors_text,
    quotient_text,
    resolution_text,
)
from scarf.errors import InputError
from scarf.finite import FinitePointSet, enumerate_complex, is_generic, neighbors
from scarf.formats import parse_lattice_doc
from scarf.geometry import Point, point_key
from scarf.periodic import quotient_complex, star_at
from scarf.resolution import build_resolution
from test_formats import (
    NO_SHRINK,
    first_difference,
    layering_cases,
    point_sets,
    reference_layering,
    reference_resolution,
)
from test_periodic import vertex_periodic_sets
from test_resolution import generic_antichains

COLLINEAR = {"points": [[0, 0], [1, 0], [2, 0]]}
STAIRCASE = {"points": [[2, 0], [1, 1], [0, 2]]}
NONGENERIC = {"points": [[2, 1], [1, 2], [2, 2]]}
KER111 = {"basis": [[1, -1, 0], [0, 1, -1]]}
KER111_E1 = {"basis": [[1, -1, 0], [0, 1, -1]], "cosets": [[0, 0, 0], [1, 0, 0]]}
KER123 = {"basis": [[2, -1, 0], [3, 0, -1]]}
KER123_E1 = {"basis": [[2, -1, 0], [3, 0, -1]], "cosets": [[0, 0, 0], [1, 0, 0]]}
KER125_E1 = {"basis": [[2, -1, 0], [5, 0, -1]], "cosets": [[0, 0, 0], [1, 0, 0]]}
KER123_3COSETS = {"basis": [[2, -1, 0], [3, 0, -1]], "cosets": [[0, 0, 0], [1, 0, 0], [1, 1, 0]]}
# an index-2 sublattice of ker(1,1,4), Smith diagonal (1, 2), with three cosets
INDEX2_3COSETS = {"basis": [[2, -2, 0], [4, 0, -1]], "cosets": [[0, 0, 0], [1, 0, 0], [1, 1, 0]]}
KER114 = {"basis": [[1, -1, 0], [4, 0, -1]]}
KER1234 = {"basis": [[2, -1, 0, 0], [3, 0, -1, 0], [4, 0, 0, -1]]}
BAD_LATTICE = {"basis": [[1, 0]]}


@pytest.fixture
def docfile(tmp_path):
    def write(doc, name="in.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# finite-nb


def test_finite_nb_full_simplex(docfile, capsys):
    code, out, _ = run_cli(
        ["finite-nb", docfile(COLLINEAR), "--format", "structured"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "complex"
    assert doc["f_vector"] == [3, 3, 1]
    assert doc["empty_face"] is True


def test_finite_nb_text(docfile, capsys):
    code, out, _ = run_cli(["finite-nb", docfile(COLLINEAR)], capsys)
    assert code == 0
    assert out.startswith("complex of dimension 2")
    assert "(0, 0)" in out


def test_finite_nb_max_dim(docfile, capsys):
    code, out, _ = run_cli(
        ["finite-nb", docfile(COLLINEAR), "--max-dim", "1", "--format", "structured"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["f_vector"] == [3, 3]
    code, _, _ = run_cli(["finite-nb", docfile(COLLINEAR), "--max-dim", "-1"], capsys)
    assert code == 2


def test_finite_nb_vertex_query(docfile, capsys):
    code, out, _ = run_cli(
        ["finite-nb", docfile(COLLINEAR), "--vertex", "0,0", "--format", "structured"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "neighbors"
    assert doc["neighbors"] == [[1, 0], [2, 0]]


def test_finite_nb_vertex_refuses_max_dim(docfile, capsys):
    # a neighbor query has no dimension to truncate, so the flag is refused, not ignored
    code, out, err = run_cli(
        ["finite-nb", docfile(COLLINEAR), "--vertex", "0,0", "--max-dim", "1",
         "--format", "structured"],
        capsys,
    )
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "InputError"
    assert doc["message"] == "--max-dim and --vertex are mutually exclusive"


def test_finite_nb_attaches_genericity(docfile, capsys):
    code, out, _ = run_cli(
        ["finite-nb", docfile(STAIRCASE), "--generic-mode", "both", "--format", "structured"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["genericity"]["generic"] is True
    assert doc["genericity"]["modes_agree"] is True


RATIONAL_COLLINEAR = {"points": [["-3/2", 2], [0, 2], ["1/2", 2], [1, 2], ["7/3", 2]]}
PLANE_3D = {"points": [[3, 0, 0], [0, 3, 0], [0, 0, 3], [2, 1, 0], [0, 2, 1], [1, 0, 2]]}
GENERIC_ANTICHAIN = {"points": [[0, 5, 9], [1, 7, 3], [4, 0, 8], [6, 2, 1], [8, 6, 0], [9, 1, 4]]}
MIXED = {"points": [["1/2", -1, 3], [2, "-5/3", 0], [-4, 2, "2/7"], [1, 1, 1], [0, -2, 5]]}
PERMUTATION_4D = {"points": [[4, 0, 2, 1], [0, 4, 1, 3], [2, 1, 4, 0], [1, 3, 0, 4], [3, 2, 3, 2]]}
TIED_RATIONAL = {"points": [["1/2", 3, "7/3"], ["5/2", "1/3", 2], [1, "7/3", "-1/2"],
                            ["1/2", "9/4", 4], [3, 0, "2/3"], ["6/3", "-0/5", 5]]}
# face-heavy: 4 095 faces over 39 distinct joins, and 1 023 faces over 10
PLANE_12 = {"points": [[i, (7 * i) % 12, 5] for i in range(12)]}
COLLINEAR_10Q = {"points": [[f"{(37 * i) % 101}/7", 3] for i in range(1, 11)]}


def seeded_grid(seed, n, dim, hi):
    """n distinct integer points of [0, hi]^dim drawn from random.Random(seed)."""
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randint(0, hi) for _ in range(dim)))
    return {"points": [list(p) for p in sorted(pts)]}


def seeded_rational_grid(seed, n, dim):
    """n rows of "p/q" strings, some with q = 1 or q dividing p, from random.Random(seed)."""
    rng = random.Random(seed)
    return {"points": [[f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}" for _ in range(dim)]
                       for _ in range(n)]}


def seeded_antichain(seed, m):
    """m points of the plane x + y + z = 20m in N^3, distinct on every axis: a generic set."""
    rng = random.Random(seed)
    span = 10 * m
    while True:
        xs = rng.sample(range(1, span), m)
        ys = rng.sample(range(1, span), m)
        zs = [2 * span - x - y for x, y in zip(xs, ys)]
        if len(set(zs)) == m:
            return {"points": [[x, y, z] for x, y, z in zip(xs, ys, zs)]}


GRID_4D = seeded_grid(4, 120, 4, 6)
RATIONAL_GRID = seeded_rational_grid(5, 40, 3)
ANTICHAIN_30 = seeded_antichain(30, 30)

FINITE_OUTPUT_SHA256 = (
    ("finite-nb", RATIONAL_COLLINEAR, ["--format", "structured"],
     "3591c96b8f8528855a2c1793c18b5746ffed4e1e2f7df19a270b359ffab6d3e7"),
    ("finite-nb", PLANE_3D, ["--format", "structured"],
     "8eaab9679f893a5acd494db2e71262010f905d9d65b905ee4f7e4e85fd355dcd"),
    ("finite-nb", PLANE_3D, ["--max-dim", "1", "--format", "structured"],
     "35bc746b1bb3f0b4e01a45c8b0cd3d1a7a56cb9033aaf048d23b86d2f78c1362"),
    ("finite-nb", GENERIC_ANTICHAIN, ["--generic-mode", "both", "--format", "structured"],
     "d4716cc2d60247d42a7008977cb3019a8ca69c8298503cce4bc70774d5536532"),
    ("finite-nb", MIXED, ["--generic-mode", "remark", "--format", "structured"],
     "44cf38743b0e28299ed730a3f77acfd82ee1dc4f4e40615413ff8050e51c5671"),
    ("finite-nb", RATIONAL_COLLINEAR, ["--format", "text"],
     "7b14cef7eae7269d194f983f84e5c8edc2575aea3032658629e87a8b7c091ede"),
    ("finite-nb", GENERIC_ANTICHAIN, ["--generic-mode", "both", "--format", "text"],
     "20e6f270a51fac00c8d901fbb0465f5809af21eaaeac64ffed44f4a33217f62d"),
    ("oracle", MIXED, ["--format", "structured"],
     "6412a7cfc5c0e830770803aefc4e037c09901565966dbb7b78eb4691cd7eb44f"),
    ("oracle", PLANE_3D, ["--format", "text"],
     "f997f8b286979f621acc11575417a6e3a6c7d0f174136f41d3f53f9c3f85d931"),
    ("layers", GRID_4D, ["--k", "3", "--format", "structured"],
     "0ddba3a2fbb238ab3ffc7f69922be5a9791a28cb6f6bf92d85f98b5ad1fcab01"),
    ("layers", GRID_4D, ["--k", "3", "--orthant=+-+-", "--format", "structured"],
     "316d01b7ae2bdf55eb8bb2f267ab08cd4eda1152b85debd41db831fedc027fd0"),
    ("layers", RATIONAL_GRID, ["--k", "2", "--format", "structured"],
     "44fbdd843f87732720ea36e91117fe363d43a6bb71ac4f144e77e5ad5d3c7c92"),
    ("scarf-resolve", ANTICHAIN_30, ["--format", "structured"],
     "66d8d9290a15645bab98a730c8ae74244a64fb70d1aaf5b6d726e4eeef7cc31c"),
    ("scarf-resolve", PERMUTATION_4D, ["--format", "structured"],
     "dc659e3f8b1163e5f592c562ff4fa93a2e7accdc51d0e588e91d7d3e5491d67d"),
    ("generic-check", TIED_RATIONAL, ["--generic-mode", "both", "--format", "structured"],
     "8f48349c30878877d384bc508c1beb71874ee7240d3168e27e83a6863dffe10d"),
    ("finite-nb", PLANE_12, ["--format", "structured"],
     "db0cc4347f16b29182dcf2d2476e4f007ec17f828585fb7b1c7a6c12e9a6bfd2"),
    ("finite-nb", PLANE_12, ["--max-dim", "2", "--format", "structured"],
     "ed97ecf521eaf4b6936857ac2fe8cf5498dccf0a1e503b1866e6dafbfa4a85bd"),
    ("finite-nb", COLLINEAR_10Q, ["--format", "structured"],
     "edfae827f133571f35554b32d05da569cd67bcc9ebb9c78db182d30f57e6b550"),
    ("finite-nb", COLLINEAR_10Q, ["--format", "text"],
     "1e4fa43404764e338ba400af211c23765b38d17306544ef98c48044661a76f12"),
    # text forms of layerings and resolutions, from before they were written
    # from the Layering and the Resolution
    ("layers", GRID_4D, ["--k", "3", "--format", "text"],
     "6c771ca52b3f5ef012c2a493048c17acc43b5bc89ddb1f1ab898559e4de864b0"),
    ("layers", GRID_4D, ["--k", "3", "--orthant=+-+-", "--format", "text"],
     "9fd57e69ee4213406aad7e3f7b5eb4a240ba4cf8108f267475f17614a8937a52"),
    ("layers", RATIONAL_GRID, ["--k", "2", "--format", "text"],
     "346dcbdefb563547ccbcbce0b4b57a8fd18098dc47b61dea0a0c90ae669117b0"),
    ("scarf-resolve", ANTICHAIN_30, ["--format", "text"],
     "1d94438fafd1156f497ab9db79bf860434063273d2dea08cf5325ba51d329706"),
    ("scarf-resolve", PERMUTATION_4D, ["--format", "text"],
     "7f69140b4a5bf0a58438ae3ff8ed34cf5802dd7ad9ae6dd30f23a8fb97b8d20e"),
    # the --max-dim cut in the text summary, and of a complex whose faces the
    # facet genericity check grew whole: from before faces grew as a tree
    ("finite-nb", PLANE_12, ["--max-dim", "2", "--format", "text"],
     "c8bc09c41c9da700bfca233260a5190af551f8851b042e4c0370285de3130f81"),
    ("finite-nb", MIXED, ["--generic-mode", "remark", "--max-dim", "1", "--format", "structured"],
     "52e8c36e012ee8730d006b86a6f1db908bffb09001284569869d193f54134534"),
)


@pytest.mark.parametrize("subcommand, doc, flags, digest", FINITE_OUTPUT_SHA256,
                         ids=[f"{c}-{i}" for i, (c, *_) in enumerate(FINITE_OUTPUT_SHA256)])
def test_finite_output_pinned(docfile, capsys, subcommand, doc, flags, digest):
    code, out, _ = run_cli([subcommand, docfile(doc), *flags], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("doc", [MIXED, PLANE_3D, GENERIC_ANTICHAIN, TIED_RATIONAL])
@pytest.mark.parametrize("mode", ["remark", "both"])
@pytest.mark.parametrize("max_dim", [None, 0, 1, 2])
def test_finite_nb_facet_genericity_grows_faces_once(docfile, capsys, monkeypatch,
                                                     doc, mode, max_dim):
    # the facet check and the complex share one growth of every face, and
    # --max-dim keeps a prefix of it: the document is the plain complex's
    # with generic-check's report attached
    from scarf import cli, finite

    calls = []

    def counting(A, max_dim=None):
        calls.append(max_dim)
        return enumerate_complex(A, max_dim)

    flags = [] if max_dim is None else ["--max-dim", str(max_dim)]
    path = docfile(doc)
    code, plain, _ = run_cli(["finite-nb", path, *flags, "--format", "structured"], capsys)
    assert code == 0
    code, report, _ = run_cli(["generic-check", path, "--generic-mode", mode,
                               "--format", "structured"], capsys)
    assert code == 0
    monkeypatch.setattr(cli, "enumerate_complex", counting)
    monkeypatch.setattr(finite, "enumerate_complex", counting)
    code, out, _ = run_cli(["finite-nb", path, *flags, "--generic-mode", mode,
                            "--format", "structured"], capsys)
    assert code == 0
    assert calls == [None]
    assert json.loads(out) == {**json.loads(plain), "genericity": json.loads(report)}


# ---------------------------------------------------------------------------
# generic-check


def test_generic_check_witness(docfile, capsys):
    code, out, _ = run_cli(
        ["generic-check", docfile(NONGENERIC), "--format", "structured"], capsys
    )
    assert code == 0  # the check ran fine; the verdict is in the document
    doc = json.loads(out)
    assert doc["generic"] is False
    assert doc["witness"] == {"a": [2, 1], "b": [2, 2], "coordinate": 1}
    assert doc["mode"] == "both"


def test_generic_check_text(docfile, capsys):
    code, out, _ = run_cli(["generic-check", docfile(NONGENERIC)], capsys)
    assert code == 0
    assert "not generic" in out
    assert "share coordinate 1" in out


# ---------------------------------------------------------------------------
# layers


def test_layers_matches_library(docfile, capsys):
    from scarf.formats import layering_doc, parse_points_doc
    from scarf.posets import dickson_layers, filter_by_downset

    doc_in = {"points": [[0, 1], [1, 0], [1, 1], [2, 0]]}
    code, out, _ = run_cli(
        ["layers", docfile(doc_in), "--k", "1", "--format", "structured"], capsys
    )
    assert code == 0
    A = parse_points_doc(doc_in)
    expected = layering_doc(dickson_layers(A, 1), filter_by_downset(A, 1), 1)
    assert json.loads(out) == json.loads("".join(expected))


@pytest.mark.parametrize("fmt", ["structured", "text"])
@pytest.mark.parametrize("orthant", [[], ["--orthant=+-+"]])
def test_layers_builds_downsets_once(docfile, capsys, monkeypatch, fmt, orthant):
    # the layering and the downset filter share one build of the downsets
    from scarf import posets

    calls = []
    build = posets._downsets

    def counting(A, o):
        calls.append(o)
        return build(A, o)

    monkeypatch.setattr(posets, "_downsets", counting)
    code, _, _ = run_cli(["layers", docfile(GENERIC_ANTICHAIN), "--k", "1", *orthant,
                          "--format", fmt], capsys)
    assert code == 0
    assert len(calls) == 1


def test_layers_orthant_flag(docfile, capsys):
    doc_in = {"points": [[0, 1], [1, 0], [1, 1]]}
    # sign strings starting with a dash need the --flag=value spelling
    code, out, _ = run_cli(
        ["layers", docfile(doc_in), "--orthant=-+", "--format", "structured"], capsys
    )
    assert code == 0
    assert json.loads(out)["kind"] == "layering"
    code, _, _ = run_cli(["layers", docfile(doc_in), "--orthant=-+-"], capsys)
    assert code == 2
    code, _, _ = run_cli(["layers", docfile(doc_in), "--k", "-2"], capsys)
    assert code == 2
    # an empty sign string is refused, not read as "no orthant"
    code, out, err = run_cli(
        ["layers", docfile(doc_in), "--orthant=", "--format", "structured"], capsys)
    assert code == 2 and out == ""
    assert "at least one axis" in json.loads(err)["message"]


# ---------------------------------------------------------------------------
# scarf-resolve


def test_resolve_staircase(docfile, capsys):
    code, out, _ = run_cli(
        ["scarf-resolve", docfile(STAIRCASE), "--format", "structured"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["betti"] == [3, 2]
    assert doc["euler_characteristic"] == 1


def test_resolve_text_monomials(docfile, capsys):
    code, out, _ = run_cli(["scarf-resolve", docfile(STAIRCASE)], capsys)
    assert code == 0
    assert "betti numbers: (3, 2)" in out
    assert "+x2" in out and "-x1" in out


def test_resolve_text_output_pinned(docfile, capsys):
    doc = {"points": [[3, 0, 1], [1, 2, 0], [0, 1, 2]]}
    code, out, _ = run_cli(["scarf-resolve", docfile(doc), "--format", "text"], capsys)
    assert code == 0
    assert out == (
        "betti numbers: (3, 3, 1)\n"
        "multigraded: dim 0 at (0, 1, 2) x1; dim 0 at (1, 2, 0) x1; dim 0 at (3, 0, 1) x1; "
        "dim 1 at (1, 2, 2) x1; dim 1 at (3, 1, 2) x1; dim 1 at (3, 2, 1) x1; "
        "dim 2 at (3, 2, 2) x1\n"
        "augmentation: x2*x3^2  x1*x2^2  x1^3*x3\n"
        "differential 1:\n"
        "  [0,0] -x1*x2\n"
        "  [0,1] -x1^3\n"
        "  [1,0] +x3^2\n"
        "  [1,2] -x1^2*x3\n"
        "  [2,1] +x2*x3\n"
        "  [2,2] +x2^2\n"
        "differential 2:\n"
        "  [0,0] +x1^2\n"
        "  [1,0] -x2\n"
        "  [2,0] +x3\n"
        "euler characteristic: 1\n"
    )


def test_monomial():
    assert monomial([0, 0]) == "1"
    assert monomial([2, 0, 1]) == "x1^2*x3"
    assert monomial([1, 1]) == "x1*x2"
    with pytest.raises(InputError):
        monomial([-1, 2])
    with pytest.raises(InputError):
        monomial(["1/2", 0])


def test_resolve_non_generic_exits_4(docfile, capsys):
    code, out, err = run_cli(
        ["scarf-resolve", docfile(NONGENERIC), "--format", "structured"], capsys
    )
    assert code == 4
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "GenericityError"
    assert doc["witness"] == [[2, 1], [2, 2], 1]
    assert doc["exit_code"] == 4
    assert "Point(" not in doc["message"]
    assert doc["message"] == "input is not generic: witness [[2, 1], [2, 2], 1]"


# ---------------------------------------------------------------------------
# lattice subcommands


def test_lattice_neighbors_positivity_exit_3(docfile, capsys):
    code, out, err = run_cli(
        ["lattice-neighbors", docfile(BAD_LATTICE), "--format", "structured"], capsys
    )
    assert code == 3
    doc = json.loads(err)
    assert doc["error"] == "PositivityError"
    assert doc["witness"] == [1, 0]


def test_lattice_star_depth_limit_exit_6(docfile, capsys, monkeypatch):
    from scarf import cli, periodic

    def capped(A, vertex):
        return periodic.certified_star(A, vertex, dmax_limit=3)

    monkeypatch.setattr(cli, "certified_star", capped)
    code, out, err = run_cli(
        ["lattice-star", docfile(KER111), "--auto-dmax", "--format", "structured"], capsys
    )
    assert code == 6
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "CertificationError"
    assert doc["exit_code"] == 6
    # the evidence: the report of the last depth tried
    assert doc["report"]["certified"] is False
    assert doc["report"]["dmax_used"] == 2


# axis 3 is 0 in the only basis column: constant on each coset
RANK1 = {"basis": [[1, -1, 0]]}
RANK1_2COSETS = {"basis": [[1, -1, 0]], "cosets": [[0, 0, 0], [0, 0, 1]]}


def run_limited(argv):
    """The CLI in a child process under its own 1 GB address-space limit and a 10 s timeout.

    Returns (exit code, stdout, stderr).  An infinite-dimensional star
    that reached the depth search would exhaust the limit or the time.
    """
    import resource

    def limit():
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    src = os.path.dirname(os.path.dirname(scarf.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "scarf.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=10, preexec_fn=limit)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("fmt", ["structured", "text"])
@pytest.mark.parametrize("subcommand", ["lattice-neighbors", "lattice-star", "quotient"])
def test_zero_row_star_exits_6_before_any_walk(docfile, subcommand, fmt):
    # every {0, u, ..., t*u} is a face: no depth certifies, and the search
    # used to run out of memory (exit 5) instead
    code, out, err = run_limited([subcommand, docfile(RANK1), "--auto-dmax", "--format", fmt])
    assert (code, out) == (6, "")
    if fmt == "structured":
        doc = json.loads(err)
        assert (doc["error"], doc["exit_code"]) == ("CertificationError", 6)
        assert "report" not in doc
        message = doc["message"]
    else:
        assert err.startswith("error [CertificationError]: ") and err.count("\n") == 1
        message = err
    assert "axis 3 is 0 in every basis column" in message
    assert "u = [1, -1, 0]" in message


def test_zero_row_check_keeps_higher_cosets_and_fixed_depths(docfile):
    two = docfile(RANK1_2COSETS, "two.json")
    # the coset at level 1 has the level-0 coset below it: its star is finite
    code, out, _ = run_limited(["lattice-neighbors", two, "--auto-dmax", "--vertex", "0,0,1",
                                "--format", "structured"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["neighbors"]) == 5 and doc["report"]["certified"] is True
    code, out, err = run_limited(["lattice-neighbors", two, "--auto-dmax", "--vertex", "0,0,0",
                                  "--format", "structured"])
    assert (code, out, json.loads(err)["exit_code"]) == (6, "", 6)
    # a fixed depth reports what it finds there, uncertified
    one = docfile(RANK1, "one.json")
    code, out, _ = run_limited(["quotient", one, "--dmax", "2", "--format", "structured"])
    assert code == 0
    assert json.loads(out)["f_vector"] == [1, 2, 4, 3, 1]
    code, out, _ = run_limited(["lattice-star", one, "--dmax", "4", "--format", "structured"])
    assert code == 0
    assert len(json.loads(out)["neighbors"]) == 8


def test_lattice_neighbors_fixture(docfile, capsys):
    code, out, _ = run_cli(
        ["lattice-neighbors", docfile(KER111), "--dmax", "6", "--format", "structured"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "neighbors"
    assert len(doc["neighbors"]) == 18
    assert doc["report"]["certified"] is True
    assert doc["report"]["dmax_used"] == 6


def test_lattice_neighbors_auto_dmax(docfile, capsys):
    code, out, _ = run_cli(
        ["lattice-neighbors", docfile(KER111), "--auto-dmax", "--format", "structured"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["neighbors"]) == 18
    assert doc["report"]["dmax_used"] == 8


LATTICE_OUTPUT_SHA256 = (
    ("lattice-star", KER111, ["--auto-dmax"],
     "e111a523a2e055af2133060b8d4f4716d307d9f27cd49f499baa2c489d128dbc"),
    ("lattice-star", KER111_E1, ["--auto-dmax"],
     "0cb12ab3abef61bdbce15f14fef3cc98734429a1acc2055bfdd53322a3c00199"),
    ("lattice-star", KER123, ["--auto-dmax"],
     "9c4e8b067cb69378d0ac3f8de4555964ada536ff4e9e91d39c92bfdf9a878d65"),
    ("lattice-star", KER123_E1, ["--auto-dmax"],
     "423b1fb62562b5d7d14be5cfe6d1df3bebd24a7657fd1b9c6dab3b69efcaee82"),
    ("quotient", KER111_E1, ["--auto-dmax"],
     "fd39df59fcd13ae3ab0d1cf0034588d9d5c44d0ba2af8f4700996799304e3443"),
    ("quotient", KER123_E1, ["--auto-dmax"],
     "1bc386452cab2a6133a82c8a3859719911e628d29b33dcb0b995c19be8507e7e"),
    ("lattice-neighbors", KER111_E1, ["--dmax", "2", "--vertex", "3,-2,0"],
     "2ba086021d61e907a790f7a9969551a2f61ca23f8f860b972dc58cb8571b5c9f"),
    ("lattice-neighbors", KER123_E1, ["--dmax", "2", "--vertex", "2,1,-1"],
     "f326cfe56360e17f5db65d635157ca468da251c50b5ca4b4eea16e814691853e"),
    ("quotient", KER125_E1, ["--auto-dmax"],
     "e1b9129e3efd7dbcdee41f3e857bdac3f82740ac554c50c80bec402f84699d10"),
    ("lattice-star", KER123_3COSETS, ["--dmax", "6", "--vertex", "1,1,0"],
     "1016966acb745ae524ae588df4f903027992041a3c47ff3cbc9dfcdec97b35b4"),
    ("quotient", INDEX2_3COSETS, ["--auto-dmax"],
     "20edd683dceb2c618ee70e9af86ec680cc972f0eaa16ee9977ee6868b54409ec"),
    ("lattice-neighbors", INDEX2_3COSETS, ["--auto-dmax"],
     "15f1bd706e8415acc113e43d048abeaedf8b2b610a7c336bacdf9331e8f8ee6f"),
    ("lattice-star", INDEX2_3COSETS, ["--dmax", "2", "--vertex", "3,-1,0"],
     "5efef645641daa3b79a3dabf6d99ec97b98a6268bb5b5b69c87daaa17c532134"),
    # one coset, so every center is a center of symmetry
    ("lattice-star", KER114, ["--auto-dmax"],
     "d2fdb3996d051a2c0714799a37064b43e62553536382ee2148f61a523e059040"),
    # a 4-D walk, at a fixed depth below the star's dimension
    ("lattice-neighbors", KER1234, ["--dmax", "4"],
     "4d74a92d31f3a8e8659f53292149c8024b22b2f16ce1d350930197700ca4ca48"),
)


@pytest.mark.parametrize("subcommand, doc, flags, digest", LATTICE_OUTPUT_SHA256,
                         ids=[f"{c}-{i}" for i, (c, *_) in enumerate(LATTICE_OUTPUT_SHA256)])
def test_lattice_structured_output_pinned(docfile, capsys, subcommand, doc, flags, digest):
    code, out, _ = run_cli([subcommand, docfile(doc), *flags, "--format", "structured"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ker(1,1,4)+e1 has a face-heavy star (2.75 MB of structured output at depth 4)
KER114_E1 = {"basis": [[1, -1, 0], [4, 0, -1]], "cosets": [[0, 0, 0], [1, 0, 0]]}

LATTICE_FORMAT_SHA256 = (
    ("lattice-star", KER114_E1, ["--dmax", "4", "--format", "structured"],
     "387b2851650d37b2d39eb68f0fb0a416e2f6ad46ddd5e27ffe72f2d8e6cf736d"),
    ("lattice-star", KER114_E1, ["--dmax", "4", "--format", "text"],
     "a05e8645e88fd77df919a8920d5949728f63d5572cb3ba4cc260654354736238"),
    ("quotient", KER114_E1, ["--dmax", "4", "--format", "structured"],
     "17753a3bb6c1dcfd5dd8d8aa72bbab9f4fe55f08c55cf8c4f3313e2fd4bd9ffe"),
    ("quotient", KER114_E1, ["--dmax", "4", "--format", "text"],
     "6cf3553291584a88a66f729188a1fdfea44ba211ce7adf1d622945a59e2717e8"),
    ("lattice-star", KER125_E1, ["--auto-dmax", "--format", "text"],
     "68648c83c266fa67949411443f9c268a64ad30f8d43eb0f8df41bb5321edc35f"),
    ("quotient", KER125_E1, ["--auto-dmax", "--format", "text"],
     "95c8bc58f391cf804e36118607f0b807a347ace0e7a5aebd1cf2425d0171e061"),
    ("lattice-neighbors", KER125_E1, ["--auto-dmax", "--format", "text"],
     "89e27e0828efe7e7c82484b0639f546a2e39f9f74a377ac0c6c029005ca3487b"),
)


@pytest.mark.parametrize("subcommand, doc, flags, digest", LATTICE_FORMAT_SHA256,
                         ids=[f"{c}-{i}" for i, (c, *_) in enumerate(LATTICE_FORMAT_SHA256)])
def test_lattice_output_in_both_formats_pinned(docfile, capsys, subcommand, doc, flags, digest):
    code, out, _ = run_cli([subcommand, docfile(doc), *flags], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def capped_star(A, vertex):
    from scarf import periodic

    return periodic.certified_star(A, vertex, dmax_limit=3)


def rational_witness(A):
    # the CLI's resolutions take integer exponents, so a "p/q" witness is planted
    from scarf.errors import GenericityError
    from scarf.geometry import Point

    raise GenericityError("input is not generic",
                          witness=(Point(["1/2", 3]), Point(["1/2", "7/3"]), 0))


TIED_VERTEX = ["--vertex", "1/2,3,7/3", "--generic-mode", "both"]
RADII = ["--r-candidate", "2", "--r-witness", "5"]

# short documents and error documents, with the exit code and, for a planted
# failure, the cli name patched to raise it; stdout's digest on exit 0,
# stderr's otherwise
SHORT_OUTPUT_SHA256 = (
    ("generic-check", TIED_RATIONAL, ["--generic-mode", "both", "--format", "text"], None, 0,
     "0079736407cfd6b95a75fa0d6d3a9268d7c26d109c8f35b41d24f84eb970e56e"),
    ("generic-check", MIXED, ["--generic-mode", "remark", "--format", "text"], None, 0,
     "56d0f09c8bddfacbc490bb36386c265614c5d4ded00bcfe5087170a04df918ed"),
    ("finite-nb", TIED_RATIONAL, [*TIED_VERTEX, "--format", "structured"], None, 0,
     "9f307732d68a3a5790a75cf0b82d80fb746d8024a75b19f7d7f8b77056c43711"),
    ("finite-nb", TIED_RATIONAL, [*TIED_VERTEX, "--format", "text"], None, 0,
     "823102bbc12769bf8bc16cf753333a95b222cac52970edb759aba2171e0e9d4a"),
    ("oracle", KER111_E1, [*RADII, "--format", "structured"], None, 0,
     "2062b57784153453e8b2a3dca8276194d5d30ee9d6193c9ec17a1d069fd3b21c"),
    ("oracle", KER111_E1, [*RADII, "--format", "text"], None, 0,
     "cfc457baea04bf723d5e98d3c29be6a98f491275f8d5cdf8cf919466119e9a1e"),
    ("oracle", None, ["--selftest", "3", "--format", "structured"], None, 0,
     "7a9371853979fd5315b4b44c771635c189abeeab68e849cc583a8cdc4700115c"),
    ("oracle", None, ["--selftest", "3", "--format", "text"], None, 0,
     "ad28c520fbce825f1616b85682fef01b795c7242d361c8f72d0f8c3837a5c17a"),
    ("finite-nb", COLLINEAR, ["--vertex", "0,0", "--max-dim", "1", "--format", "structured"],
     None, 2, "57704ae8f4ecafb7c334388f20527a82d4224bdfe89eabcb59d0432cbce7d0da"),
    ("finite-nb", COLLINEAR, ["--vertex", "0,0", "--max-dim", "1", "--format", "text"],
     None, 2, "8af0b0a10922710d42b728d1554dbad718f831cc742bade08743652b52b752c8"),
    ("lattice-neighbors", BAD_LATTICE, ["--format", "structured"], None, 3,
     "ed2855a10212d84d07209c43342818c7b0d2cf1d72e193752d4dabf97a587bf0"),
    ("lattice-neighbors", BAD_LATTICE, ["--format", "text"], None, 3,
     "d4244fcfe5e63a80660b37a162c798ec34afdafecd1ab4d8e9ef2e301cfaf208"),
    ("scarf-resolve", NONGENERIC, ["--format", "structured"], None, 4,
     "e8955142bbbae06a8049286a29636a9676c0f28d45acbb5bad0c4fe27bbca1ec"),
    ("scarf-resolve", NONGENERIC, ["--format", "text"], None, 4,
     "81bdfd1705af3710756e0ee9c8279d1eca0ef2c46e5e412f83155965e8591727"),
    ("scarf-resolve", COLLINEAR, ["--format", "structured"],
     ("build_resolution", rational_witness), 4,
     "15addcf9b411d74d3484fe0f19b5436b4b5df749cddb19b1c8b439d21131c072"),
    ("scarf-resolve", COLLINEAR, ["--format", "text"],
     ("build_resolution", rational_witness), 4,
     "86d65e13f080c5137c821100e8d5dbf2a4a19070e63a67784af512d7c0d1b739"),
    ("lattice-star", KER111, ["--auto-dmax", "--format", "structured"],
     ("certified_star", capped_star), 6,
     "567ed85f6fa9cd7596ee90531069288334c1405870eb587ee3a891fcb0bb2a85"),
    ("lattice-star", KER111, ["--auto-dmax", "--format", "text"],
     ("certified_star", capped_star), 6,
     "2a32a9ac0085314fe54d850f1ee6d7b7ef220542bae6ae8ddb8aac3a31d72b44"),
)


@pytest.mark.parametrize("subcommand, doc, flags, patch, exit_code, digest", SHORT_OUTPUT_SHA256,
                         ids=[f"{c}-{i}" for i, (c, *_) in enumerate(SHORT_OUTPUT_SHA256)])
def test_short_output_pinned(docfile, capsys, monkeypatch, subcommand, doc, flags, patch,
                             exit_code, digest):
    from scarf import cli

    if patch is not None:
        monkeypatch.setattr(cli, *patch)
    code, out, err = run_cli([subcommand, *([] if doc is None else [docfile(doc)]), *flags],
                             capsys)
    text, rest = (out, err) if code == 0 else (err, out)
    assert (code, rest) == (exit_code, "")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_lattice_flag_validation(docfile, capsys):
    code, _, _ = run_cli(
        ["lattice-neighbors", docfile(KER111), "--dmax", "6", "--auto-dmax"], capsys
    )
    assert code == 2
    code, _, _ = run_cli(["lattice-neighbors", docfile(KER111), "--dmax", "0"], capsys)
    assert code == 2
    code, _, _ = run_cli(
        ["lattice-neighbors", docfile(KER111), "--vertex", "1,0,0"], capsys
    )
    assert code == 2  # not a set point
    code, _, _ = run_cli(
        ["lattice-neighbors", docfile(KER111), "--vertex", "1,0"], capsys
    )
    assert code == 2  # wrong dimension


def test_lattice_vertex_error_renders_points_as_json(docfile, capsys):
    code, out, err = run_cli(
        ["lattice-star", docfile(KER111), "--vertex", "1,0,0", "--format", "structured"],
        capsys,
    )
    assert code == 2 and out == ""
    message = json.loads(err)["message"]
    assert "[1, 0, 0]" in message
    assert "Point(" not in message


def test_lattice_neighbors_vertex_translation(docfile, capsys):
    code, out, _ = run_cli(
        ["lattice-neighbors", docfile(KER111), "--dmax", "6",
         "--vertex", "1,-1,0", "--format", "structured"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["center"] == [1, -1, 0]
    assert [0, 0, 0] in doc["neighbors"]
    assert len(doc["neighbors"]) == 18


def test_lattice_star(docfile, capsys):
    code, out, _ = run_cli(
        ["lattice-star", docfile(KER111), "--dmax", "6", "--format", "structured"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "star"
    assert len(doc["faces"]) == 1 + 18 + 54 + 60 + 30 + 6
    assert doc["report"]["observed_star_dimension"] == 5


def test_quotient(docfile, capsys):
    code, out, _ = run_cli(
        ["quotient", docfile(KER111), "--dmax", "6", "--format", "structured"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["f_vector"] == [1, 9, 18, 15, 6, 1]
    assert all(orb["incidences"] == orb["dim"] + 1 for orb in doc["orbits"])


# ---------------------------------------------------------------------------
# text writers


def point_text(coords) -> str:
    return "(" + ", ".join(str(c) for c in coords) + ")"


def reference_monomial(exponents) -> str:
    return "*".join(f"x{i}" if c == 1 else f"x{i}^{c}"
                    for i, c in enumerate(exponents, start=1) if c) or "1"


def reference_text(doc: dict) -> str:
    """The text summary of a complex, quotient, layering or resolution document, dict by dict."""
    if doc["kind"] == "layering":
        lines = [f"layer {i}: " + " ".join(point_text(p) for p in layer)
                 for i, layer in enumerate(doc["layers"])]
        lines.append("residual: "
                     + (" ".join(point_text(p) for p in doc["residual"]) or "(empty)"))
        lines.append(f"downset filter (k={doc['k']}): "
                     + " ".join(point_text(p) for p in doc["filtered"]))
    elif doc["kind"] == "resolution":
        lines = ["betti numbers: " + point_text(doc["betti"]),
                 "multigraded: " + "; ".join(
                     f"dim {e['dim']} at {point_text(e['multidegree'])} x{e['count']}"
                     for e in doc["multigraded_betti"]),
                 "augmentation: " + "  ".join(reference_monomial(p)
                                              for p in doc["augmentation"])]
        for i, step in enumerate(doc["differentials"], start=1):
            lines.append(f"differential {i}:")
            lines += [f"  [{e['row']},{e['col']}] {'+' if e['sign'] > 0 else '-'}"
                      + reference_monomial(e["exponent"]) for e in step]
        lines.append(f"euler characteristic: {doc['euler_characteristic']}")
    elif doc["kind"] == "complex":
        lines = [f"complex of dimension {doc['dimension']}, f-vector "
                 + point_text(doc["f_vector"])]
        lines += [f"  dim {f['dim']}: " + " ".join(point_text(v) for v in f["vertices"])
                  + "  join " + point_text(f["multidegree"]) for f in doc["faces"]]
    elif doc["kind"] == "neighbors":
        lines = [f"center {point_text(doc['center'])}: {len(doc['neighbors'])} neighbors"]
        lines += ["  " + point_text(p) for p in doc["neighbors"]]
    else:
        rep = doc["report"]
        lines = ["orbit f-vector: " + point_text(doc["f_vector"])]
        lines += [f"  dim {orb['dim']} x{orb['incidences']}: "
                  + " ".join(point_text(v) for v in orb["face"]) for orb in doc["orbits"]]
        lines += [f"search depth {rep['dmax_used']}, observed star dimension "
                  f"{rep['observed_star_dimension']}, "
                  + ("certified complete" if rep["certified"] else "NOT certified"),
                  "candidates per orthant: "
                  + ", ".join(f"{orth}:{n}" for orth, n in rep["candidate_counts"])]
    if "genericity" in doc:
        g = doc["genericity"]
        lines.append(f"{'generic' if g['generic'] else 'not generic'} (mode: {g['mode']})")
        if g["witness"] is not None:
            w = g["witness"]
            lines.append(f"  witness: {point_text(w['a'])} and {point_text(w['b'])} "
                         f"share coordinate {w['coordinate']}")
        if "modes_agree" in g:
            lines.append(f"  modes agree: {g['modes_agree']}")
    return "\n".join(lines) + "\n"


def attached(A, extra):
    """The text tail and the document fields a finite job attaches, for extra."""
    if extra is None:
        return [], {}
    if extra == "source":
        return [], {"source": "oracle"}
    report = is_generic(A, mode=extra)
    return _genericity_lines(report), {"genericity": formats.genericity_doc(report)}


@settings(deadline=None)
@given(point_sets, st.none() | st.integers(0, 3),
       st.sampled_from([None, "source", "definition", "remark", "both"]))
def test_complex_text_matches_the_parsed_document(rows, max_dim, extra):
    A = FinitePointSet(rows)
    records = enumerate_complex(A, max_dim)
    tail, fields = attached(A, extra)
    text = "".join(complex_text(A, records, tail))
    expected = reference_text(json.loads("".join(formats.complex_doc(A, records, fields))))
    # not assert text == expected: pytest's diff of long strings takes
    # minutes, once per shrinking step
    same = text == expected
    assert same, f"first difference at offset {first_difference(text, expected)}"


@given(point_sets, st.sampled_from([None, "source", "definition", "remark", "both"]))
def test_neighbors_text_matches_the_parsed_document(rows, extra):
    A = FinitePointSet(rows)
    center = A.points[-1]
    nbs = [p.coords for p in sorted(neighbors(A, center), key=point_key)]
    tail, fields = attached(A, extra)
    text = "".join(neighbors_text(center, nbs, tail))
    assert text == reference_text(json.loads("".join(formats.neighbors_doc(center, nbs, fields))))


# fixed depths only: a failing certified quotient shrinks for minutes, and
# certified texts are pinned in LATTICE_FORMAT_SHA256 and in CI
@settings(max_examples=30, deadline=None)
@given(vertex_periodic_sets(), st.integers(1, 3))
def test_quotient_text_matches_the_parsed_document(A, dmax):
    q = quotient_complex(A, dmax)
    text = "".join(quotient_text(q))
    expected = reference_text(json.loads("".join(formats.quotient_doc(q))))
    same = text == expected
    assert same, f"first difference at offset {first_difference(text, expected)}"


@settings(deadline=None, phases=NO_SHRINK)
@given(layering_cases())
def test_layering_text_matches_the_reference(case):
    text, expected = "".join(layering_text(*case)), reference_text(reference_layering(*case))
    same = text == expected
    assert same, f"first difference at offset {first_difference(text, expected)}"


@settings(deadline=None, phases=NO_SHRINK)
@given(generic_antichains())
def test_resolution_text_matches_the_reference(rows):
    res = build_resolution(rows)
    text, expected = "".join(resolution_text(res)), reference_text(reference_resolution(res))
    same = text == expected
    assert same, f"first difference at offset {first_difference(text, expected)}"


def face_writers(A, tree):
    """Each format's chunks of the complex of A, as finite-nb writes it without extras."""
    return {"structured": formats.complex_doc(A, tree, {}), "text": complex_text(A, tree, [])}


@pytest.mark.parametrize("chunk", [1, 3, 64, 256])
def test_writers_chunk_by_items(monkeypatch, chunk):
    # 63 faces of 6 collinear points; a star's faces and neighbors
    A = FinitePointSet([(i, 0) for i in range(6)])
    tree = enumerate_complex(A)
    star = star_at(parse_lattice_doc(KER123_E1), Point((0, 0, 0)), 4)
    whole = {fmt: "".join(chunks) for fmt, chunks in face_writers(A, tree).items()}
    whole_star = "".join(formats.star_doc(star))
    monkeypatch.setattr(formats, "_CHUNK", chunk)
    chunks = {fmt: list(c) for fmt, c in face_writers(A, tree).items()}
    # an item is a face of the document, or a line of the summary: 63 faces and a head line
    assert len(chunks["structured"]) == -(-63 // chunk)
    assert all(c.count('"dim"') <= chunk for c in chunks["structured"])
    assert len(chunks["text"]) == -(-64 // chunk)
    assert all(c.count("\n") <= chunk for c in chunks["text"])
    assert {fmt: "".join(c) for fmt, c in chunks.items()} == whole
    assert "".join(formats.star_doc(star)) == whole_star


# CI's digests of finite-nb on 16 collinear points: 65 535 faces, 31.5 MB structured
COLLINEAR16_SHA256 = {
    "structured": "608d1f80a83f340deac3e32eb98c9f296f6e1ad11e2dd62aabf2cc99709f45a9",
    "text": "bc885ee90fb76d8b068cae06acdf95adfec1ac79203ba098972612b771cc454a",
}


def test_face_writers_hold_less_than_the_document():
    # written into a sink that keeps a running digest and a length, the
    # writers' traced peak stays below the document's length: they hold a
    # chunk of faces and two sizes' vertex texts, never the whole text
    A = FinitePointSet([(i, 0) for i in range(16)])
    tree = enumerate_complex(A)
    for fmt in ("structured", "text"):
        digest, length = hashlib.sha256(), 0
        tracemalloc.start()
        try:
            for chunk in face_writers(A, tree)[fmt]:
                digest.update(chunk.encode())
                length += len(chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest.hexdigest() == COLLINEAR16_SHA256[fmt]
        assert peak < length, f"{fmt}: peak {peak} bytes for {length} bytes written"


def fail_writer_after(monkeypatch, fmt, written, error):
    """Make finite-nb's writer in fmt raise error after `written` chunks; return its unpatched chunks."""
    from scarf import cli

    monkeypatch.setattr(formats, "_CHUNK", 2)
    A = formats.parse_points_doc(RATIONAL_COLLINEAR)
    whole = list(face_writers(A, enumerate_complex(A))[fmt])
    assert len(whole) > 1
    module, name = (formats, "complex_doc") if fmt == "structured" else (cli, "complex_text")
    writer = getattr(module, name)

    def failing(*args):
        chunks = writer(*args)
        for _ in range(written):
            yield next(chunks)
        raise error

    monkeypatch.setattr(module, name, failing)
    return whole


@pytest.mark.parametrize("fmt", ["structured", "text"])
@pytest.mark.parametrize("written", [0, 1])
@pytest.mark.parametrize("error", [RuntimeError("writer bug"), InputError("late input error")])
def test_writer_failure_after_output_exits_5(docfile, capsys, monkeypatch, fmt, written, error):
    # a writer that raises before its first chunk fails the job as its error
    # says, with nothing on stdout; one that raises after it is a bug, exit
    # 5, and stdout keeps the chunks written before it, a truncated document
    whole = fail_writer_after(monkeypatch, fmt, written, error)
    code, out, err = run_cli(["finite-nb", docfile(RATIONAL_COLLINEAR), "--format", fmt],
                             capsys)
    expected = 5 if written or not isinstance(error, InputError) else 2
    assert code == expected
    assert out == "".join(whole[:written])
    if fmt == "structured":
        assert json.loads(err) == {"kind": "error", "error": type(error).__name__,
                                   "message": str(error), "exit_code": expected}
    else:
        assert err == f"error [{type(error).__name__}]: {error}\n"


def run_interrupted(argv, capsys):
    """run_cli, failing the test where an interrupt that escapes main would end the session."""
    try:
        return run_cli(argv, capsys)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped main")


def test_interrupted_run_exits_130_quietly(docfile, capsys, monkeypatch):
    # an interrupt while the job computes: exit 130, the status a shell shows
    # for SIGINT, with nothing on stdout or stderr and no traceback
    from scarf import cli

    def interrupted(job):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run", interrupted)
    assert run_interrupted(["finite-nb", docfile(RATIONAL_COLLINEAR)], capsys) == (130, "", "")


@pytest.mark.parametrize("fmt", ["structured", "text"])
def test_interrupted_writer_exits_130_after_its_first_chunk(docfile, capsys, monkeypatch, fmt):
    # an interrupt while the output streams: exit 130 and an empty stderr,
    # and stdout keeps the chunk written before it
    whole = fail_writer_after(monkeypatch, fmt, 1, KeyboardInterrupt())
    assert run_interrupted(["finite-nb", docfile(RATIONAL_COLLINEAR), "--format", fmt],
                           capsys) == (130, whole[0], "")


def test_text_output_writes_no_json(docfile, capsys, monkeypatch):
    # a text job of every subcommand, and a text error, with every structured
    # writer but error_doc refusing to run
    pinned = {(c, json.dumps(doc), tuple(flags)): (0, digest)
              for c, doc, flags, digest in FINITE_OUTPUT_SHA256 + LATTICE_FORMAT_SHA256}
    pinned.update({(c, json.dumps(doc), tuple(flags)): (code, digest)
                   for c, doc, flags, patch, code, digest in SHORT_OUTPUT_SHA256 if patch is None})

    def refuse(*args):
        raise AssertionError("a text job wrote a structured document")

    for name in ("render_document", "complex_doc", "genericity_doc", "layering_doc",
                 "neighbors_doc", "quotient_doc", "report_doc", "resolution_doc", "star_doc"):
        monkeypatch.setattr(formats, name, refuse)
    for c, doc, flags in (("finite-nb", RATIONAL_COLLINEAR, ("--format", "text")),
                          ("finite-nb", GENERIC_ANTICHAIN,
                           ("--generic-mode", "both", "--format", "text")),
                          ("finite-nb", TIED_RATIONAL, (*TIED_VERTEX, "--format", "text")),
                          ("generic-check", TIED_RATIONAL,
                           ("--generic-mode", "both", "--format", "text")),
                          ("oracle", PLANE_3D, ("--format", "text")),
                          ("oracle", KER111_E1, (*RADII, "--format", "text")),
                          ("oracle", None, ("--selftest", "3", "--format", "text")),
                          ("quotient", KER114_E1, ("--dmax", "4", "--format", "text")),
                          ("quotient", KER125_E1, ("--auto-dmax", "--format", "text")),
                          ("lattice-star", KER125_E1, ("--auto-dmax", "--format", "text")),
                          ("lattice-neighbors", KER125_E1, ("--auto-dmax", "--format", "text")),
                          ("lattice-neighbors", BAD_LATTICE, ("--format", "text")),
                          ("layers", RATIONAL_GRID, ("--k", "2", "--format", "text")),
                          ("scarf-resolve", PERMUTATION_4D, ("--format", "text"))):
        code, out, err = run_cli([c, *([] if doc is None else [docfile(doc)]), *flags], capsys)
        digest = hashlib.sha256((out or err).encode()).hexdigest()
        assert (code, digest) == pinned[c, json.dumps(doc), flags]


# ---------------------------------------------------------------------------
# oracle


def test_oracle_selftest(capsys):
    code, out, _ = run_cli(
        ["oracle", "--selftest", "5", "--seed", "3", "--format", "structured"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"kind": "selftest", "trials": 5, "seed": 3, "agreed": True}


def test_oracle_selftest_checks_joins(capsys, monkeypatch):
    # the main path grows the right faces in the right order, but one join is
    # off; patched where either path would read the records
    import scarf.cli
    import scarf.finite

    def one_wrong_join(A, max_dim=None):
        # the last face takes the first nonempty face's join: wrong once a set has two faces
        tree = enumerate_complex(A, max_dim)
        tree.join[-1] = tree.join[1]
        return tree

    for module in (scarf.cli, scarf.finite):
        monkeypatch.setattr(module, "enumerate_complex", one_wrong_join)
    code, _, err = run_cli(["oracle", "--selftest", "5", "--format", "structured"], capsys)
    assert code == 5
    assert "enumerator and oracle disagree" in json.loads(err)["message"]


def test_oracle_points_doc(docfile, capsys):
    code, out, _ = run_cli(
        ["oracle", docfile(COLLINEAR), "--format", "structured"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["source"] == "oracle"
    assert doc["f_vector"] == [3, 3, 1]


def test_oracle_points_doc_matches_finite_nb(docfile, capsys):
    # the oracle finds its faces independently but writes them with the same writer
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [[rng.choice([rng.randint(-3, 3), f"{rng.randint(-7, 7)}/{rng.randint(2, 4)}"])
                 for _ in range(n)] for _ in range(rng.randint(1, 8))]
        path = docfile({"points": rows})
        for fmt in ("structured", "text"):
            code, oracle_out, _ = run_cli(["oracle", path, "--format", fmt], capsys)
            assert code == 0
            code, out, _ = run_cli(["finite-nb", path, "--format", fmt], capsys)
            assert code == 0
            if fmt == "structured":
                out = json.dumps({**json.loads(out), "source": "oracle"},
                                 sort_keys=True, indent=2) + "\n"
            assert oracle_out == out


def test_oracle_lattice_doc(docfile, capsys):
    code, out, _ = run_cli(
        ["oracle", docfile(KER111), "--r-candidate", "3", "--r-witness", "8",
         "--format", "structured"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "neighbors"
    assert len(doc["neighbors"]) == 18
    assert doc["source"] == "oracle"


@pytest.mark.parametrize("cosets", [[[1, 0, 0]], [[0, 0, 0], [-1, -1, -1]]],
                         ids=["origin-not-in-set", "origin-dominated"])
def test_lattice_oracle_refuses_a_center_that_is_no_vertex(docfile, capsys, cosets):
    # the oracle and the main path agree that the origin has no neighbors to list
    path = docfile({"basis": KER111["basis"], "cosets": cosets})
    code, out, err = run_cli(["oracle", path, *RADII, "--format", "structured"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "InputError"
    assert run_cli(["lattice-neighbors", path, "--dmax", "2"], capsys)[0] == code


def test_oracle_flag_validation(docfile, capsys):
    code, _, _ = run_cli(["oracle", docfile(KER111)], capsys)
    assert code == 2  # radii missing
    code, _, _ = run_cli(["oracle"], capsys)
    assert code == 2  # neither input nor selftest
    code, _, _ = run_cli(["oracle", "--selftest", "0"], capsys)
    assert code == 2


def assert_refused(argv, capsys):
    code, out, err = run_cli([*argv, "--format", "structured"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "InputError"


def test_oracle_selftest_refuses_input_and_radii(docfile, capsys):
    # refused before the document is opened
    assert_refused(["oracle", "/nonexistent.json", "--selftest", "1", "--r-candidate", "3"],
                   capsys)
    assert_refused(["oracle", docfile(COLLINEAR), "--selftest", "1"], capsys)
    assert_refused(["oracle", "--selftest", "1", "--r-witness", "8"], capsys)


def test_oracle_points_doc_refuses_radii(docfile, capsys):
    assert_refused(["oracle", docfile(COLLINEAR), "--r-candidate", "3"], capsys)
    assert_refused(["oracle", docfile(COLLINEAR), "--r-candidate", "3", "--r-witness", "8"],
                   capsys)


def test_oracle_seed_needs_selftest(docfile, capsys):
    assert_refused(["oracle", docfile(COLLINEAR), "--seed", "3"], capsys)
    assert_refused(["oracle", docfile(KER111), "--r-candidate", "3", "--r-witness", "8",
                    "--seed", "3"], capsys)


# ---------------------------------------------------------------------------
# transport and failure modes


def test_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(COLLINEAR)))
    code, out, _ = run_cli(["finite-nb", "-", "--format", "structured"], capsys)
    assert code == 0
    assert json.loads(out)["f_vector"] == [3, 3, 1]


def cyclic_garbage(job) -> list:
    """What job() leaves for the cyclic collector, but the json encoder's own cycles.

    json.dumps with an indent encodes through closures that refer to each
    other, so each render_document call leaves one such cycle: the
    collected objects that those json.encoder functions reach are left out.
    """
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        job()
        gc.collect()
        garbage = gc.garbage[:]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    left = {id(o): o for o in garbage}
    reach = [o for o in garbage
             if callable(o) and getattr(o, "__module__", None) == "json.encoder"]
    while reach:
        o = left.pop(id(reach.pop()), None)
        if o is not None:
            reach += [r for r in gc.get_referents(o) if id(r) in left]
    return list(left.values())


def test_jobs_leave_no_cyclic_garbage(docfile, capsys):
    # the quotient fold pauses the collector: a job of each subcommand, and
    # an error job, leaves nothing that only a collection would free.  Each
    # job runs once first, for what a first run loads and caches (argparse
    # leaves a help formatter's cycle on the first parse in a process)
    for c, doc, flags, exit_code in (
            ("finite-nb", RATIONAL_COLLINEAR, [], 0),
            ("finite-nb", TIED_RATIONAL, TIED_VERTEX, 0),
            ("generic-check", NONGENERIC, [], 0),
            ("layers", RATIONAL_GRID, ["--k", "2"], 0),
            ("scarf-resolve", PERMUTATION_4D, [], 0),
            ("lattice-neighbors", KER125_E1, ["--auto-dmax"], 0),
            ("lattice-star", KER123_E1, ["--dmax", "4"], 0),
            ("quotient", KER123_E1, ["--auto-dmax"], 0),
            ("oracle", PLANE_3D, [], 0),
            ("oracle", None, ["--selftest", "3"], 0),
            ("scarf-resolve", NONGENERIC, [], 4)):
        for fmt in ("structured", "text"):
            argv = [c, *([] if doc is None else [docfile(doc)]), *flags, "--format", fmt]

            def job():
                assert main(argv) == exit_code

            job()
            assert cyclic_garbage(job) == [], argv
            capsys.readouterr()


def test_module_entry_point_matches_main(capsys):
    # a fresh process builds its own parser: its bytes match the in-process run
    src = os.path.dirname(os.path.dirname(scarf.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    argv = ["finite-nb", "-", "--format", "structured"]
    text = json.dumps(STAIRCASE)
    proc = subprocess.run([sys.executable, "-m", "scarf.cli", *argv], input=text,
                          capture_output=True, text=True, env=env, check=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("sys.stdin", io.StringIO(text))
        assert run_cli(argv, capsys)[:2] == (0, proc.stdout)


@pytest.mark.parametrize("points, code", [(10, 141), (3, 0)])
def test_closed_stdout_ends_the_job_quietly(docfile, points, code):
    # a reader that stops early, as `| head -c 100` does, closes the pipe
    # under a 347 kB document: exit 141, the status a shell shows for a
    # process that SIGPIPE ended, and no traceback.  A document that fits in
    # the pipe is written whole before the reader closes it: exit 0
    src = os.path.dirname(os.path.dirname(scarf.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    path = docfile({"points": [[i, 0] for i in range(points)]})
    with subprocess.Popen([sys.executable, "-m", "scarf.cli", "finite-nb", path,
                           "--format", "structured"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        if code == 0:
            proc.wait(timeout=60)
        head = proc.stdout.read(100)
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (code, b"")
    assert head.startswith(b'{\n  "dimension": ')


def test_parser_reuse_leaks_no_defaults(docfile, capsys):
    # one process parses every job: a flag given to one must not reach the next
    grid = docfile({"points": [[0, 1], [1, 0], [1, 1]]}, "grid.json")
    stairs = docfile(STAIRCASE, "stairs.json")
    jobs = [["generic-check", stairs, "--generic-mode", "remark"],
            ["finite-nb", stairs],
            ["layers", grid, "--orthant=-+"],
            ["layers", grid]]
    forward = [run_cli([*argv, "--format", "structured"], capsys) for argv in jobs]
    backward = [run_cli([*argv, "--format", "structured"], capsys) for argv in reversed(jobs)]
    assert forward == backward[::-1]
    assert all(code == 0 for code, _, _ in forward)
    assert "genericity" not in json.loads(forward[1][1])
    assert forward[2][1] != forward[3][1]


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    # the second integer has more digits than json.loads converts (a ValueError)
    for text in ("{ not json", '{"points": [[1%s]]}' % ("0" * 5000)):
        path.write_text(text)
        code, _, err = run_cli(["finite-nb", str(path), "--format", "structured"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "InputError"


def test_non_utf8_input_exits_2(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(["finite-nb", str(path), "--format", "structured"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "InputError"


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"points": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_cli(["finite-nb", str(path), "--format", "structured"], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "InputError"


@pytest.mark.parametrize("text", ["1_0", "3.5", "1e2", " 3 ", "\u0663"])
def test_coordinate_outside_the_grammar_exits_2(docfile, capsys, text):
    # int() and Fraction() alone accept these, some only on some Python versions
    code, out, err = run_cli(
        ["finite-nb", docfile({"points": [[text, 0]]}), "--format", "structured"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InputError"


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(["finite-nb", "/nonexistent.json"], capsys)
    assert code == 2
    assert "error" in err


def test_argparse_failures_exit_2(docfile):
    with pytest.raises(SystemExit) as info:
        main(["no-such-subcommand"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["finite-nb", docfile(COLLINEAR), "--bogus"])
    assert info.value.code == 2


def test_structured_output_round_trips(docfile, capsys):
    from scarf.formats import parse_document, render_document

    code, out, _ = run_cli(
        ["lattice-star", docfile(KER111), "--dmax", "6", "--format", "structured"],
        capsys,
    )
    assert code == 0
    doc = parse_document(out)
    assert render_document(doc) == out


def test_runs_are_deterministic(docfile, capsys):
    argv = ["quotient", docfile(KER111), "--auto-dmax", "--format", "structured"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
