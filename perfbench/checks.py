"""Correctness checks on one job's structured output, run outside the timed region.

``check(job, text)`` returns None when the output is right and a one-line
reason otherwise.  Cross-checks use the brute-force oracles of
``scarf.oracles``, which share no enumeration code with the main paths.
"""

from __future__ import annotations

import json

from scarf.complexes import Face
from scarf.errors import RadiusError
from scarf.formats import parse_lattice_doc, parse_points_doc
from scarf.geometry import Point
from scarf.oracles import oracle_finite_nb, oracle_lattice_neighbors
from scarf.periodic import PeriodicSet
from scarf.resolution import Resolution, verify_chain

from workloads import Job

# Candidate and witness radii of the acceptance test's lattice cross-check.
# Sets of the random family with coefficient 5 or 6 can need a wider
# witness box; the oracle says so with RadiusError and the check widens it.
ORACLE_RADII = (6, 14)
WIDER_WITNESS_RADII = (21, 28, 42, 56)


def check(job: Job, text: str):
    doc = json.loads(text)
    return _CHECKS[job.subcommand](job, doc)


def _auto(job: Job) -> bool:
    return "--auto-dmax" in job.flags


def _check_star(job: Job, doc: dict):
    if _auto(job) and not doc["report"]["certified"]:
        return "--auto-dmax star not certified"
    center = doc["center"]
    for face in doc.get("faces", ()):
        if center not in face["vertices"]:
            return f"star face {face['vertices']} misses the center {center}"
    if job.oracle:
        return _lattice_oracle(job, doc)
    return None


def _lattice_oracle(job: Job, doc: dict):
    """Neighbors near the center must equal (certified) or lie in (fixed depth) the oracle's."""
    A = parse_lattice_doc(job.doc)
    center = Point(doc["center"])
    shifted = PeriodicSet(A.lattice, [rep - center for rep in A.reps])
    r_candidate, r_witness = ORACLE_RADII
    for wider in WIDER_WITNESS_RADII + (None,):
        try:
            neighbors = oracle_lattice_neighbors(shifted, r_candidate, r_witness)
            break
        except RadiusError:
            if wider is None:
                raise
            r_witness = wider
    expected = {p.coords for p in neighbors}
    got = set()
    for q in doc["neighbors"]:
        d = Point(q) - center
        if max(abs(c) for c in d.coords) <= r_candidate:
            got.add(d.coords)
    if doc["report"]["certified"] and got != expected:
        return f"certified neighbors differ from the oracle within radius {r_candidate}"
    if not got <= expected:
        return f"neighbors not confirmed by the oracle within radius {r_candidate}"
    return None


def _check_quotient(job: Job, doc: dict):
    if _auto(job) and not doc["report"]["certified"]:
        return "--auto-dmax quotient not certified"
    if doc["report"]["certified"]:
        for orbit in doc["orbits"]:
            if orbit["incidences"] != len(orbit["face"]):
                return (f"orbit {orbit['face']} met {orbit['incidences']} times, "
                        f"expected once per vertex")
    return None


def _faces(doc: dict) -> set:
    return {tuple(Point(v).coords for v in f["vertices"]) for f in doc["faces"]}


def _check_finite_nb(job: Job, doc: dict):
    if doc.get("kind") == "neighbors":
        return _check_finite_neighbors(job, doc)
    if job.f_vector:
        if tuple(doc["f_vector"]) != job.f_vector:
            return f"f-vector {doc['f_vector']} is not binomial"
        if len(doc["faces"]) != sum(job.f_vector):
            return f"{len(doc['faces'])} faces listed, f-vector sums to {sum(job.f_vector)}"
    if "genericity" in doc and not doc["genericity"]["generic"]:
        return "a generic antichain was reported not generic"
    if job.oracle:
        oracle = oracle_finite_nb(parse_points_doc(job.doc))
        expected = {tuple(v.coords for v in f.vertices) for f in oracle.faces() if f.vertices}
        if _faces(doc) != expected:
            return "faces differ from the subset oracle"
    return None


def _check_finite_neighbors(job: Job, doc: dict):
    """The vertex's neighbors must be the other ends of its edges in the subset oracle."""
    center = Point(doc["center"])
    flag = next(f for f in job.flags if f.startswith("--vertex="))
    if center != Point(flag.split("=", 1)[1].split(",")):
        return f"center {doc['center']} is not the requested {flag}"
    oracle = oracle_finite_nb(parse_points_doc(job.doc))
    expected = {v.coords for f in oracle.faces() if len(f.vertices) == 2 and center in f.vertices
                for v in f.vertices if v != center}
    if {Point(q).coords for q in doc["neighbors"]} != expected:
        return "neighbors differ from the edges of the subset oracle"
    return None


def _check_generic(job: Job, doc: dict):
    if not doc["generic"]:
        return "a generic antichain was reported not generic"
    if not doc["modes_agree"]:
        return "pairwise and facet genericity disagree"
    return None


def _check_layers(job: Job, doc: dict):
    k = int(job.flags[job.flags.index("--k") + 1])
    points = {tuple(p) for p in job.doc["points"]}
    layers = [{tuple(p) for p in layer} for layer in doc["layers"]]
    if len(layers) > k + 1:
        return f"{len(layers)} layers for --k {k}"
    seen: set = set()
    for layer in layers:
        if layer & seen:
            return "layers overlap"
        seen |= layer
    residual = {tuple(p) for p in doc["residual"]}
    if seen & residual or seen | residual != points:
        return "layers and residual do not partition the input"
    if not {tuple(p) for p in doc["filtered"]} <= seen:
        return "downset filter leaves the union of layers 0..k"
    return None


def _check_resolution(job: Job, doc: dict):
    """Rebuild the resolution from the output and rerun verify_chain on it."""
    res = Resolution(
        points=None,
        faces_by_dim=tuple(tuple(Face(Point(v) for v in f) for f in fs)
                           for fs in doc["faces_by_dim"]),
        augmentation=tuple(Point(p) for p in doc["augmentation"]),
        differentials=tuple(
            {(e["row"], e["col"]): (e["sign"], Point(e["exponent"])) for e in step}
            for step in doc["differentials"]),
    )
    if list(res.betti) != doc["betti"]:
        return f"betti {doc['betti']} does not match faces_by_dim"
    chain = verify_chain(res)
    if not chain.ok:
        return "verify_chain: " + chain.failures[0]
    return None


_CHECKS = {
    "lattice-star": _check_star,
    "lattice-neighbors": _check_star,
    "quotient": _check_quotient,
    "finite-nb": _check_finite_nb,
    "generic-check": _check_generic,
    "layers": _check_layers,
    "scarf-resolve": _check_resolution,
}
