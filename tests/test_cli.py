"""End-to-end command-line behavior: documents in, documents out, exit codes."""

import hashlib
import io
import json

import pytest

from scarf.cli import main, monomial
from scarf.errors import InputError

COLLINEAR = {"points": [[0, 0], [1, 0], [2, 0]]}
STAIRCASE = {"points": [[2, 0], [1, 1], [0, 2]]}
NONGENERIC = {"points": [[2, 1], [1, 2], [2, 2]]}
KER111 = {"basis": [[1, -1, 0], [0, 1, -1]]}
KER111_E1 = {"basis": [[1, -1, 0], [0, 1, -1]], "cosets": [[0, 0, 0], [1, 0, 0]]}
KER123 = {"basis": [[2, -1, 0], [3, 0, -1]]}
KER123_E1 = {"basis": [[2, -1, 0], [3, 0, -1]], "cosets": [[0, 0, 0], [1, 0, 0]]}
KER125_E1 = {"basis": [[2, -1, 0], [5, 0, -1]], "cosets": [[0, 0, 0], [1, 0, 0]]}
KER123_3COSETS = {"basis": [[2, -1, 0], [3, 0, -1]], "cosets": [[0, 0, 0], [1, 0, 0], [1, 1, 0]]}
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
    assert json.loads(out) == json.loads(json.dumps(expected))


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
)


@pytest.mark.parametrize("subcommand, doc, flags, digest", LATTICE_OUTPUT_SHA256,
                         ids=[f"{c}-{i}" for i, (c, *_) in enumerate(LATTICE_OUTPUT_SHA256)])
def test_lattice_structured_output_pinned(docfile, capsys, subcommand, doc, flags, digest):
    code, out, _ = run_cli([subcommand, docfile(doc), *flags, "--format", "structured"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
# oracle


def test_oracle_selftest(capsys):
    code, out, _ = run_cli(
        ["oracle", "--selftest", "5", "--seed", "3", "--format", "structured"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {"kind": "selftest", "trials": 5, "seed": 3, "agreed": True}


def test_oracle_points_doc(docfile, capsys):
    code, out, _ = run_cli(
        ["oracle", docfile(COLLINEAR), "--format", "structured"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["source"] == "oracle"
    assert doc["f_vector"] == [3, 3, 1]


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


def test_oracle_flag_validation(docfile, capsys):
    code, _, _ = run_cli(["oracle", docfile(KER111)], capsys)
    assert code == 2  # radii missing
    code, _, _ = run_cli(["oracle"], capsys)
    assert code == 2  # neither input nor selftest
    code, _, _ = run_cli(["oracle", "--selftest", "0"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# transport and failure modes


def test_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(COLLINEAR)))
    code, out, _ = run_cli(["finite-nb", "-", "--format", "structured"], capsys)
    assert code == 0
    assert json.loads(out)["f_vector"] == [3, 3, 1]


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    code, _, err = run_cli(["finite-nb", str(path), "--format", "structured"], capsys)
    assert code == 2
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
