"""Lattices, cosets, and exact point enumeration.

A lattice is given by integer basis columns of full column rank.  Cosets of
the lattice are described through the Smith normal form of the basis: a
point lies in a coset exactly when a fixed family of integer equalities and
congruences holds.  On top of that sits one lazy enumerator of coset
points between integer bounds, as int tuples, so an emptiness test stops at
the first point.  It runs one Fourier-Motzkin elimination plan per lattice
and bound pattern, so a query only supplies integer right-hand sides.  Two
point queries wrap it: all coset points inside a box given by two opposite
corners, and all coset points strictly below a bound.  The minimal nonzero
coset points of an orthant come from a minimal-solutions search instead,
decided among its own candidates.
"""

from __future__ import annotations

from math import ceil, floor
from operator import le, mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InputError, PositivityError
from .geometry import Orthant, Point
from .intsolve import (
    EliminationPlan,
    matvec,
    minimal_natural_solutions,
    nonzero_cone_direction,
    smith_normal_form,
)

__all__ = [
    "Lattice",
    "coset_points",
    "points_in_box",
    "points_below",
    "minimal_orthant_points",
]


class Lattice:
    """Integer lattice spanned by basis columns of full column rank."""

    __slots__ = ("columns", "dim", "rank", "_rows", "_snf", "_diag", "_positive", "_plans")

    def __init__(self, columns: Sequence[Sequence[int]]):
        cols = []
        for col in columns:
            if not isinstance(col, (list, tuple)):
                raise InputError(f"basis columns must be integer arrays, got {col!r}")
            for x in col:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise InputError(f"basis entries must be integers, got {x!r}")
            cols.append(tuple(col))
        if not cols:
            raise InputError("a lattice needs at least one basis column")
        n = len(cols[0])
        if n == 0 or any(len(c) != n for c in cols):
            raise InputError("basis columns must share a positive length")
        self.columns = tuple(cols)
        self.dim = n
        self.rank = len(cols)
        self._rows = [[cols[j][i] for j in range(len(cols))] for i in range(n)]
        # U * basis * V = D; the rank is the number of nonzero diagonal entries
        self._snf = smith_normal_form(self._rows)
        D = self._snf[1]
        if sum(1 for i in range(min(n, self.rank)) if D[i][i]) != self.rank:
            raise InputError("basis columns must be linearly independent")
        self._diag = tuple(D[i][i] for i in range(self.rank))
        self._positive = None
        self._plans = {}

    def diagonal(self) -> tuple[int, ...]:
        return self._diag

    def _int_coords(self, p: Point) -> tuple[int, ...]:
        v = p.as_int_tuple()
        if p.dim != self.dim:
            raise InputError(f"dimension mismatch: point {p} vs lattice of dimension {self.dim}")
        return v

    def _coset_key(self, v: Sequence[int]) -> tuple[int, ...]:
        """Reduced Smith coordinates of an integer vector: equal exactly on one coset."""
        U, _, _ = self._snf
        diag = self._diag
        w = matvec(U, v)
        return tuple(w[i] % diag[i] if i < self.rank else w[i] for i in range(self.dim))

    def member(self, p: Point) -> bool:
        return not any(self._coset_key(self._int_coords(p)))

    def canonical_rep(self, p: Point) -> Point:
        """The unique coset representative with reduced Smith coordinates.

        Two points get the same representative exactly when their difference
        lies in the lattice.  With U * basis * V = D and w = U v, the
        representative is v - basis * V q for q_i = floor(w_i / d_i), whose
        Smith coordinates are w_i mod d_i.
        """
        return Point(self._canonical(self._int_coords(p)))

    def _canonical(self, v: Sequence[int]) -> tuple[int, ...]:
        """canonical_rep on an integer vector of the right dimension."""
        U, _, V = self._snf
        w = matvec(U, v)
        shift = matvec(self._rows, matvec(V, [w[i] // d for i, d in enumerate(self._diag)]))
        return tuple(x - y for x, y in zip(v, shift))

    def _plan(self, pattern: tuple[tuple[bool, bool], ...]) -> EliminationPlan:
        """The elimination plan for x = basis * t under the bounds pattern names.

        pattern[i] says whether x_i has a lower and an upper bound; the rows
        are x_i <= hi_i then -x_i <= -lo_i for each i, in that order.
        """
        plan = self._plans.get(pattern)
        if plan is None:
            rows = []
            for row, (has_lo, has_hi) in zip(self._rows, pattern):
                if has_hi:
                    rows.append(row)
                if has_lo:
                    rows.append([-x for x in row])
            plan = self._plans[pattern] = EliminationPlan(rows, self.rank)
        return plan

    def positivity_witness(self) -> Optional[Point]:
        """A nonzero nonnegative lattice vector if one exists, else None."""
        if self._positive is None:
            z = nonzero_cone_direction(self._rows)
            if z is None:
                self._positive = (True, None)
            else:
                w = Point(matvec(self._rows, z))
                self._positive = (False, w)
        return self._positive[1]

    def check_positive(self) -> None:
        w = self.positivity_witness()
        if w is not None:
            raise PositivityError(
                f"lattice contains the nonzero nonnegative vector {w}", witness=w
            )

    def __repr__(self):
        return f"Lattice(columns={self.columns!r})"


# ---------------------------------------------------------------------------
# Enumeration


def _canonical_reps(lattice: Lattice, reps: Iterable[Point]) -> list[tuple[int, ...]]:
    """One representative of each distinct coset among reps, as int tuples."""
    out: dict = {}
    for rep in reps:
        v = lattice._int_coords(rep)
        out.setdefault(lattice._coset_key(v), v)
    if not out:
        raise InputError("at least one coset representative is required")
    return list(out.values())


def coset_points(lattice: Lattice, creps: Sequence[tuple[int, ...]],
                 lo, hi) -> Iterator[tuple[int, ...]]:
    """Points c + basis*t of the cosets c in creps with lo_i <= x_i <= hi_i, as int tuples.

    creps holds one integer representative per distinct coset.  Bounds are
    integers; a None bound leaves that side open, and the region must be
    bounded.  Points are generated coset by coset, unsorted, so a caller
    that needs only the first point stops the walk there.
    """
    plan = lattice._plan(tuple((l is not None, h is not None) for l, h in zip(lo, hi)))
    rows = lattice._rows
    for c in creps:
        rhs = []
        for ci, l, h in zip(c, lo, hi):
            if h is not None:
                rhs.append(h - ci)
            if l is not None:
                rhs.append(ci - l)
        for t in plan.points(rhs):
            yield tuple(ci + sum(map(mul, row, t)) for ci, row in zip(c, rows))


def points_in_box(lattice: Lattice, reps: Sequence[Point], a: Point, b: Point) -> tuple[Point, ...]:
    """All points of the given cosets in the closed box with opposite corners a and b."""
    for corner in (a, b):
        if corner.dim != lattice.dim:
            raise InputError(f"dimension mismatch: corner {corner} vs lattice of dimension {lattice.dim}")
    creps = _canonical_reps(lattice, reps)
    lo = [ceil(min(x, y)) for x, y in zip(a.coords, b.coords)]
    hi = [floor(max(x, y)) for x, y in zip(a.coords, b.coords)]
    if any(l > h for l, h in zip(lo, hi)):
        return ()
    return tuple(Point(v) for v in sorted(coset_points(lattice, creps, lo, hi)))


def points_below(lattice: Lattice, reps: Sequence[Point], bound: Point) -> tuple[Point, ...]:
    """All coset points strictly below the bound in every coordinate.

    Finite only when the lattice meets the nonnegative orthant in 0 alone;
    otherwise a PositivityError carries the violating lattice vector.
    """
    if bound.dim != lattice.dim:
        raise InputError(f"dimension mismatch: point {bound} vs lattice of dimension {lattice.dim}")
    lattice.check_positive()
    # an integer x satisfies x < b exactly when x <= ceil(b) - 1
    hi = [ceil(b) - 1 for b in bound.coords]
    found = coset_points(lattice, _canonical_reps(lattice, reps), [None] * lattice.dim, hi)
    return tuple(Point(v) for v in sorted(found))


def _orthant_candidates(lattice: Lattice, c: tuple[int, ...],
                        orthant: Orthant) -> set[tuple[int, ...]]:
    """Superset of the coset's minimal nonzero orthant points, via reflected systems.

    With U * basis * V = D, x lies in the coset of c exactly when
    (U x)_i = (U c)_i for each i past the rank and (U x)_i = (U c)_i
    (mod d_i) for each d_i >= 2 below it.  In reflected coordinates that is
    a system over the naturals once each congruence gains a slack pair, so
    it feeds a minimal-solutions search.  Projections of minimal extended
    solutions cover every minimal nonzero point, with possible extras that
    the caller filters exactly; every candidate is a nonzero coset point of
    the orthant.
    """
    U, _, _ = lattice._snf
    uc = matvec(U, c)
    diag = lattice._diag
    signs = orthant.signs
    n = lattice.dim
    moduli = [i for i in range(lattice.rank) if diag[i] >= 2]
    slack = [0] * (2 * len(moduli))
    reflected = [[u * s for u, s in zip(row, signs)] + slack for row in U]
    rows = [(tuple(reflected[i]), uc[i]) for i in range(lattice.rank, n)]
    for a, i in enumerate(moduli):
        row = reflected[i]
        row[n + 2 * a], row[n + 2 * a + 1] = -diag[i], diag[i]
        rows.append((tuple(row), uc[i] % diag[i]))
    out = set()
    for sol in minimal_natural_solutions(rows, n + len(slack)):
        y = sol[:n]
        if not any(y):
            continue
        out.add(tuple(signs[j] * y[j] for j in range(n)))
    return out


def minimal_orthant_points(lattice: Lattice, reps: Sequence[Point],
                           orthant: Orthant) -> tuple[Point, ...]:
    """Minimal nonzero points of the coset union inside the orthant's reflected order.

    These are the steps from which neighbor candidates are produced.  Every
    minimal point is a candidate and every candidate a nonzero set point,
    so a candidate is minimal exactly when no other candidate lies below it.
    """
    if len(orthant.signs) != lattice.dim:
        raise InputError(f"dimension mismatch: orthant {orthant} vs lattice of dimension {lattice.dim}")
    candidates = set()
    for c in _canonical_reps(lattice, reps):
        candidates |= _orthant_candidates(lattice, c, orthant)
    reflected = {a: tuple(map(mul, orthant.signs, a)) for a in candidates}
    return tuple(
        Point(a) for a in sorted(candidates)
        if not any(b != a and all(map(le, rb, reflected[a])) for b, rb in reflected.items()))
