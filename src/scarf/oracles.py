"""Deliberately naive reference implementations for cross-checking.

Everything here recomputes results from first principles: faces by testing
every subset, lattice membership by a local rational row reduction, witness
regions by scanning whole integer boxes.  None of the optimized enumeration
code is reused, so agreement with the main paths is meaningful evidence.
The only main-path call is the radius guard of the truncation oracle, which
the contract requires to be exact rather than scanned.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .complexes import Face, LabeledComplex
from .diophantine import points_below
from .errors import InputError, InternalError, RadiusError
from .finite import FinitePointSet
from .geometry import Point, point_key
from .periodic import PeriodicSet

__all__ = [
    "oracle_finite_nb",
    "oracle_lattice_neighbors",
    "oracle_box_points",
    "oracle_minimal_orthant",
    "oracle_star_orbit_counts",
]

_SUBSET_GUARD = 16
_SCAN_GUARD = 2_000_000


def oracle_finite_nb(A: FinitePointSet) -> LabeledComplex:
    """Face-by-face exhaustive neighbor complex of a small finite set.

    Tests all 2^card subsets directly against the definition; the guard
    keeps that affordable.
    """
    pts = [p.coords for p in A.points]
    if len(pts) > _SUBSET_GUARD:
        raise InputError(f"oracle guard: at most {_SUBSET_GUARD} points, got {len(pts)}")
    n = len(pts[0])
    faces = [Face(())]
    for r in range(1, len(pts) + 1):
        for combo in itertools.combinations(pts, r):
            top = tuple(max(c[i] for c in combo) for i in range(n))
            dominated = any(
                all(a[i] < top[i] for i in range(n)) for a in pts
            )
            if not dominated:
                faces.append(Face(Point(c) for c in combo))
    return LabeledComplex.from_closed(faces)


class _CosetSolver:
    """Integer membership in a lattice via one local row reduction.

    Factorizes the basis once; after that, membership of v amounts to a few
    integer dot products: consistency rows must vanish and each pivot row's
    dot must be divisible by its denominator.
    """

    def __init__(self, columns):
        cols = [tuple(int(x) for x in col) for col in columns]
        n = len(cols[0])
        m = len(cols)
        rows = [[Fraction(cols[j][i]) for j in range(m)] for i in range(n)]
        # eliminate [M | I], tracking E with E*M in reduced echelon form
        aug = [rows[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        pivots = []
        r = 0
        for c in range(m):
            piv = next((i for i in range(r, n) if aug[i][c]), None)
            if piv is None:
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            inv = 1 / aug[r][c]
            aug[r] = [x * inv for x in aug[r]]
            for i in range(n):
                if i != r and aug[i][c]:
                    f = aug[i][c]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
            pivots.append((r, c))
            r += 1
        if len(pivots) != m:
            raise InputError("basis columns must be linearly independent")
        self.dim = n
        self.pivot_rows = []
        for r, _ in pivots:
            e = aug[r][m:]
            d = lcm(*[x.denominator for x in e]) if e else 1
            self.pivot_rows.append(([int(x * d) for x in e], d))
        self.zero_rows = []
        for i in range(m, n):
            e = aug[i][m:]
            d = lcm(*[x.denominator for x in e]) if e else 1
            self.zero_rows.append([int(x * d) for x in e])

    def member(self, v) -> bool:
        for e in self.zero_rows:
            if sum(a * b for a, b in zip(e, v)) != 0:
                return False
        for e, d in self.pivot_rows:
            if sum(a * b for a, b in zip(e, v)) % d != 0:
                return False
        return True


def _int_reps(A: PeriodicSet):
    return [r.as_int_tuple() for r in A.reps]


def _scan_box(solver, reps, lo, hi):
    """All points of the coset union inside the integer box, by full scan."""
    n = solver.dim
    volume = 1
    for a, b in zip(lo, hi):
        volume *= max(0, b - a + 1)
    if volume > _SCAN_GUARD:
        raise InputError(f"oracle guard: box of {volume} cells is too large")
    out = []
    for x in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        for c in reps:
            if solver.member(tuple(x[i] - c[i] for i in range(n))):
                out.append(x)
                break
    return out


def oracle_box_points(A: PeriodicSet, lo, hi):
    """Naive full-box scan of the periodic set; returns integer tuples."""
    solver = _CosetSolver(A.lattice.columns)
    return sorted(_scan_box(solver, _int_reps(A), tuple(lo), tuple(hi)))


def oracle_lattice_neighbors(A: PeriodicSet, r_candidate: int, r_witness: int):
    """Neighbors of the origin among points with sup-norm <= r_candidate.

    Witnesses are scanned over the box of radius r_witness.  For every
    candidate the exact strictly-below set is fetched independently and must
    lie inside the witness box; a too-small radius raises RadiusError rather
    than silently truncating, and any disagreement between the scan and the
    exact set is an internal failure.
    """
    if r_candidate < 1 or r_witness <= r_candidate:
        raise InputError(
            f"need r_witness > r_candidate >= 1, got {r_candidate}, {r_witness}"
        )
    n = A.dim
    solver = _CosetSolver(A.lattice.columns)
    reps = _int_reps(A)
    zero = (0,) * n
    candidates = [
        x for x in _scan_box(solver, reps, (-r_candidate,) * n, (r_candidate,) * n)
        if x != zero
    ]
    pool = _scan_box(solver, reps, (-r_witness,) * n, (r_witness,) * n)
    neighbors = []
    checked: dict = {}
    for b in candidates:
        top = tuple(max(x, 0) for x in b)
        if top not in checked:
            exact = points_below(A.lattice, A.reps, Point(top))
            for p in exact:
                if any(abs(c) > r_witness for c in p.as_int_tuple()):
                    raise RadiusError(
                        f"witness radius {r_witness} too small: {p} lies strictly "
                        f"below {Point(top)} outside the witness box"
                    )
            scanned = sorted(
                y for y in pool if all(y[i] < top[i] for i in range(n))
            )
            if scanned != sorted(p.as_int_tuple() for p in exact):
                raise InternalError(
                    f"witness scan and exact enumeration disagree below {Point(top)}"
                )
            checked[top] = not scanned
        if checked[top]:
            neighbors.append(Point(b))
    return tuple(sorted(neighbors, key=point_key))


def oracle_minimal_orthant(A: PeriodicSet, signs, radius: int):
    """Minimal nonzero points of the set in an orthant, brute-forced inside a box.

    For a point of sup-norm <= radius the whole orthant downset sits inside
    the box, so box-minimality and true minimality agree on the output.
    """
    n = A.dim
    solver = _CosetSolver(A.lattice.columns)
    pool = [
        x for x in _scan_box(solver, _int_reps(A), (-radius,) * n, (radius,) * n)
        if any(x) and all(s * c >= 0 for s, c in zip(signs, x))
    ]
    out = []
    for x in pool:
        reflected = tuple(s * c for s, c in zip(signs, x))
        if not any(
            y != x and all(s * c <= r for s, c, r in zip(signs, y, reflected))
            for y in pool
        ):
            out.append(x)
    return sorted(out)


def _oracle_star_zero(solver, reps, n, r_candidate, r_witness, lattice, rep_points):
    zero = (0,) * n
    pool = _scan_box(solver, reps, (-r_witness,) * n, (r_witness,) * n)
    witness_memo: dict = {}

    def face_ok(top) -> bool:
        if top not in witness_memo:
            exact = points_below(lattice, rep_points, Point(top))
            for p in exact:
                if any(abs(c) > r_witness for c in p.as_int_tuple()):
                    raise RadiusError(
                        f"witness radius {r_witness} too small below {Point(top)}"
                    )
            scanned = [y for y in pool if all(y[i] < top[i] for i in range(n))]
            if sorted(scanned) != sorted(p.as_int_tuple() for p in exact):
                raise InternalError(
                    f"witness scan and exact enumeration disagree below {Point(top)}"
                )
            witness_memo[top] = not scanned
        return witness_memo[top]

    if not face_ok(zero):
        raise InputError("the origin is strictly dominated and is not a vertex")
    candidates = [
        x for x in _scan_box(solver, reps, (-r_candidate,) * n, (r_candidate,) * n)
        if x != zero
    ]
    nbs = [
        b for b in sorted(candidates)
        if face_ok(tuple(max(c, 0) for c in b))
    ]
    faces = [(zero,)]
    level = [((), zero)]
    while level:
        nxt = []
        for idxs, top in level:
            start = idxs[-1] + 1 if idxs else 0
            for j in range(start, len(nbs)):
                cand = tuple(max(a, b) for a, b in zip(top, nbs[j]))
                if face_ok(cand):
                    nidxs = idxs + (j,)
                    nxt.append((nidxs, cand))
                    faces.append(tuple(sorted((zero,) + tuple(nbs[i] for i in nidxs))))
        level = nxt
    return faces


def oracle_star_orbit_counts(A: PeriodicSet, r_candidate: int, r_witness: int):
    """Translation classes of star faces, counted by brute force.

    Runs the box-scan star at every coset representative and folds faces to
    (shape relative to the least vertex, coset of the least vertex).  The
    value per class is the number of (representative, face) incidences.
    """
    if r_candidate < 1 or r_witness <= r_candidate:
        raise InputError(
            f"need r_witness > r_candidate >= 1, got {r_candidate}, {r_witness}"
        )
    n = A.dim
    solver = _CosetSolver(A.lattice.columns)
    base_reps = _int_reps(A)

    def coset_of(v):
        for k, c in enumerate(base_reps):
            if solver.member(tuple(v[i] - c[i] for i in range(n))):
                return k
        raise InternalError(f"point {v} escaped all cosets")

    counts: dict = {}
    for r in base_reps:
        shifted = [tuple(c[i] - r[i] for i in range(n)) for c in base_reps]
        for face in _oracle_star_zero(
            solver, shifted, n, r_candidate, r_witness,
            A.lattice, [Point(s) for s in shifted],
        ):
            translated = tuple(
                tuple(v[i] + r[i] for i in range(n)) for v in face
            )
            least = min(translated)
            shape = tuple(
                tuple(v[i] - least[i] for i in range(n)) for v in translated
            )
            key = (shape, coset_of(least))
            counts[key] = counts.get(key, 0) + 1
    return counts
