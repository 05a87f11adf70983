"""Acceptance gate: nine end-to-end checks, one test (and one verdict) each.

Every expected value here is either a hand-checked fixture or recomputed by
a brute-force oracle that shares no enumeration code with the main paths.
Stated time limits are asserted, not aspirational.
"""

import itertools
import random
import time
from fractions import Fraction

from scarf.complexes import Face
from scarf.diophantine import Lattice, minimal_orthant_points, points_in_box
from scarf.finite import (
    FinitePointSet,
    enumerate_complex,
    face_witness,
    is_generic,
    neighbors,
)
from scarf.geometry import Orthant, Point, point_key, zero_point
from scarf.intsolve import smith_normal_form
from scarf.oracles import oracle_finite_nb, oracle_lattice_neighbors
from scarf.periodic import PeriodicSet, certified_star
from scarf.posets import dickson_layers, filter_by_downset
from scarf.resolution import build_resolution, verify_chain


def collinear(m):
    return FinitePointSet([(i, 0) for i in range(m + 1)])


def rational_fan(m):
    pts = [Point((0, 0, 1))]
    for i in range(1, m + 1):
        pts.append(Point((Fraction(i), Fraction(1, i), Fraction(i - 1, i))))
    return FinitePointSet(pts), pts


def verdict(name: str, ok: bool, note: str = "") -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if note:
        line += f" ({note})"
    print(line)
    assert ok, line


def test_criterion_1_collinear_truncations():
    """Truncations of the collinear ray give full simplices, all pairs joined."""
    start = time.perf_counter()
    ok = True
    for m in range(2, 9):
        A = collinear(m)
        cx = enumerate_complex(A)
        ok = ok and len(cx) == 2 ** (m + 1)
        ok = ok and cx.f_vector()[0] == m + 1 and cx.dimension == m
        for a in A.points:
            ok = ok and neighbors(A, a) == frozenset(p for p in A.points if p != a)
    elapsed = time.perf_counter() - start
    verdict("criterion 1", ok and elapsed < 1.0, f"{elapsed:.2f}s < 1s")


def test_criterion_2_fan_truncation():
    """The rational fan keeps exactly the expected facets and non-faces."""
    start = time.perf_counter()
    A, a = rational_fan(10)
    ok = all(face_witness(A, [a[0], a[i], a[i + 1]]) is None for i in range(1, 10))
    w13 = face_witness(A, [a[1], a[3]])
    w123 = face_witness(A, [a[1], a[2], a[3]])
    ok = ok and w13 == a[2]
    ok = ok and w123 == a[2]
    elapsed = time.perf_counter() - start
    verdict("criterion 2", ok and elapsed < 1.0,
            f"witnesses {w13}, {w123}; {elapsed:.2f}s < 1s")


def test_criterion_3_finite_oracle_equivalence():
    """Main enumerator vs exhaustive subset oracle on 200 random sets."""
    rng = random.Random(101)
    trials = 200
    ok = True
    for _ in range(trials):
        n = rng.randint(2, 4)
        card = rng.randint(1, 7)
        pts = {tuple(rng.randint(0, 9) for _ in range(n)) for _ in range(card)}
        A = FinitePointSet(sorted(pts))
        ok = ok and enumerate_complex(A) == oracle_finite_nb(A)
    verdict("criterion 3", ok, f"{trials} random sets, set-exact")


def test_criterion_4_layer_properties():
    """Layer partition and downset-filter containments on 100 random posets."""
    rng = random.Random(102)
    trials = 100
    ok = True
    for _ in range(trials):
        pts = {tuple(rng.randint(0, 20) for _ in range(4)) for _ in range(300)}
        poset = FinitePointSet(pts)
        layering = dickson_layers(poset, 5)
        seen: set = set()
        for layer in layering.layers:
            ok = ok and not (set(layer) & seen)
            seen |= set(layer)
        ok = ok and seen | set(layering.residual) == set(poset.points)
        ok = ok and frozenset(filter_by_downset(poset, 0)) == layering.layers[0]
        union: set = set()
        for k in range(6):
            union |= set(layering.layers[k]) if k < len(layering.layers) else set()
            ok = ok and set(filter_by_downset(poset, k)) <= union
    verdict("criterion 4", ok, f"{trials} posets of 300 points in [0,20]^4")


CONFIGS = (
    ("ker(1,1,1)", [(1, -1, 0), (0, 1, -1)], [(0, 0, 0)]),
    ("ker(1,1,1)+e1", [(1, -1, 0), (0, 1, -1)], [(0, 0, 0), (1, 0, 0)]),
    ("ker(1,2,3)", [(2, -1, 0), (3, 0, -1)], [(0, 0, 0)]),
    ("ker(1,2,3)+e1", [(2, -1, 0), (3, 0, -1)], [(0, 0, 0), (1, 0, 0)]),
)


def _certified_stars():
    for name, basis, cosets in CONFIGS:
        A = PeriodicSet(Lattice(basis), cosets)
        yield name, A, certified_star(A)


def test_criterion_5_lattice_neighbors_vs_oracle():
    """Certified periodic neighbors equal the box oracle on four configurations."""
    start = time.perf_counter()
    ok = True
    sizes = []
    for name, A, star in _certified_stars():
        ok = ok and star.report.certified
        oracle = set(oracle_lattice_neighbors(A, 6, 14))
        main_in_box = {
            p for p in star.neighbors
            if max(abs(int(c)) for c in p.coords) <= 6
        }
        ok = ok and main_in_box == oracle
        sizes.append(f"{name}:{len(oracle)}")
    elapsed = time.perf_counter() - start
    verdict("criterion 5", ok and elapsed < 30.0,
            f"{'; '.join(sizes)}; {elapsed:.1f}s < 30s")


def test_criterion_6_neighbors_live_in_small_downboxes():
    """Each neighbor's box back to 0 holds at most d+1 set points; a 5-face exists."""
    ok = True
    for name, A, star in _certified_stars():
        d = star.report.observed_star_dimension
        zero = zero_point(A.dim)
        for b in star.neighbors:
            card = len(points_in_box(A.lattice, A.reps, zero, b))
            ok = ok and card <= d + 1
    K = PeriodicSet(Lattice([(1, -1, 0), (0, 1, -1)]), [(0, 0, 0)])
    star = certified_star(K)
    five = Face([Point(p) for p in
                 [(0, 0, 0), (1, -1, 0), (1, 0, -1), (2, -2, 0), (2, -1, -1), (2, 0, -2)]])
    ok = ok and five in set(star.faces) and star.dimension == 5
    verdict("criterion 6", ok, "down-box bound on all configs; 5-face in ker(1,1,1)")


def test_criterion_7_genericity_modes_agree():
    """Pairwise and facet characterizations agree on fixtures and 200 random sets."""
    ok = True
    fan, _ = rational_fan(10)
    for fixture in (collinear(4), fan, FinitePointSet([(2, 1), (1, 2), (2, 2)])):
        r = is_generic(fixture, mode="both")
        ok = ok and r.modes_agree and r.pairwise == r.facet == r.generic
    rng = random.Random(103)
    trials = 200
    for _ in range(trials):
        n = rng.randint(2, 4)
        card = rng.randint(1, 7)
        pts = {tuple(rng.randint(0, 9) for _ in range(n)) for _ in range(card)}
        r = is_generic(FinitePointSet(sorted(pts)), mode="both")
        ok = ok and r.modes_agree and r.pairwise == r.facet
    verdict("criterion 7", ok, f"fixtures + {trials} random sets")


def test_criterion_8_resolutions():
    """Fixture Betti numbers plus chain checks on 100 random generic sets."""
    res = build_resolution([(2, 0), (1, 1), (0, 2)])
    ok = res.betti == (3, 2) and verify_chain(res).ok and res.euler_characteristic() == 1

    rng = random.Random(104)
    produced = 0
    while produced < 100:
        card = rng.randint(2, 8)
        pts = {tuple(rng.randint(0, 9) for _ in range(3)) for _ in range(card)}
        pts = {p for p in pts if any(p)}
        if len(pts) < 2:
            continue
        A = FinitePointSet(sorted(pts))
        try:
            r = build_resolution(A)
        except Exception:
            continue  # rejection sampling: not generic or not minimal
        produced += 1
        ok = ok and verify_chain(r).ok
        ok = ok and r.euler_characteristic() == 1
        ok = ok and len(r.betti) <= 3  # dimension stays below n = 3
        ok = ok and all(
            any(exp.coords) for step in r.differentials for _, exp in step.values()
        )
    verdict("criterion 8", ok, f"fixture + {produced} random generic sets")


def test_criterion_9_diophantine_core():
    """500 SNF reverifications; orthant minima vs brute force on 50 lattices."""
    rng = random.Random(105)
    ok = True
    for _ in range(500):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        smith_normal_form(M)  # raises InternalError on any failure

    radius = 5
    done = 0
    while done < 50:
        cols = [tuple(rng.randint(-2, 2) for _ in range(3))
                for _ in range(rng.randint(1, 2))]
        try:
            L = Lattice(cols)
            L.check_positive()
        except Exception:
            continue
        done += 1
        rep = Point(tuple(rng.randint(-2, 2) for _ in range(3)))
        orthant = Orthant(tuple(rng.choice((1, -1)) for _ in range(3)))
        got = minimal_orthant_points(L, [rep], orthant)
        pool = [
            Point(v) for v in itertools.product(range(-radius, radius + 1), repeat=3)
            if any(v) and orthant.contains(Point(v)) and L.member(Point(v) - rep)
        ]
        brute = sorted(
            (p for p in pool if not any(q != p and orthant.contains(p - q) for q in pool)),
            key=point_key,
        )
        in_box = [p for p in got if max(abs(int(c)) for c in p.coords) <= radius]
        ok = ok and in_box == brute
        ok = ok and all(any(orthant.contains(p - m) for m in got) for p in brute)
    verdict("criterion 9", ok, f"500 SNF checks; {done} lattices at radius {radius}")
