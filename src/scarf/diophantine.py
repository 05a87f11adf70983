"""Lattices, cosets, and exact point enumeration.

A lattice is given by integer basis columns of full column rank.  Cosets of
the lattice are described through the Smith normal form of the basis: a
point lies in a coset exactly when a fixed family of integer equalities and
congruences holds.  On top of that sit three enumerators used throughout
the package: all coset points inside a box given by two opposite corners,
all coset points weakly or strictly below a bound, and the minimal coset
points of an orthant.  The first two share one Fourier-Motzkin elimination
plan per lattice and bound pattern, so a query only supplies integer
right-hand sides.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor
from typing import Iterable, Optional, Sequence

from .errors import InputError, PositivityError
from .geometry import Orthant, Point, point_key, zero_point
from .intsolve import (
    EliminationPlan,
    matvec,
    minimal_natural_solutions,
    nonzero_cone_direction,
    smith_normal_form,
)

__all__ = [
    "Lattice",
    "points_in_box",
    "points_below",
    "minimal_orthant_points",
]


class Lattice:
    """Integer lattice spanned by basis columns of full column rank."""

    __slots__ = ("columns", "dim", "rank", "_rows", "_snf", "_positive", "_plans")

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
        self._positive = None
        self._plans = {}

    def diagonal(self) -> tuple[int, ...]:
        _, D, _ = self._snf
        return tuple(D[i][i] for i in range(self.rank))

    def _int_coords(self, p: Point) -> tuple[int, ...]:
        v = p.as_int_tuple()
        if p.dim != self.dim:
            raise InputError(f"dimension mismatch: point {p} vs lattice of dimension {self.dim}")
        return v

    def _coset_key(self, v: Sequence[int]) -> tuple[int, ...]:
        """Reduced Smith coordinates of an integer vector: equal exactly on one coset."""
        U, _, _ = self._snf
        diag = self.diagonal()
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
        v = self._int_coords(p)
        U, D, V = self._snf
        w = matvec(U, v)
        shift = matvec(self._rows, matvec(V, [w[i] // D[i][i] for i in range(self.rank)]))
        return Point([x - y for x, y in zip(v, shift)])

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


def _coset_points(lattice: Lattice, creps: list[tuple[int, ...]], lo, hi) -> tuple[Point, ...]:
    """Sorted points c + basis*t of distinct cosets c with lo_i <= x_i <= hi_i.

    Bounds are integers; a None bound leaves that side open.
    """
    plan = lattice._plan(tuple((l is not None, h is not None) for l, h in zip(lo, hi)))
    rows = lattice._rows
    found = []
    for c in creps:
        rhs = []
        for ci, l, h in zip(c, lo, hi):
            if h is not None:
                rhs.append(h - ci)
            if l is not None:
                rhs.append(ci - l)
        for t in plan.points(rhs):
            found.append(tuple(ci + sum(a * tj for a, tj in zip(row, t)) for ci, row in zip(c, rows)))
    found.sort()
    return tuple(Point(v) for v in found)


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
    return _coset_points(lattice, creps, lo, hi)


def _effective_bound(b: Fraction, strict: bool) -> int:
    # integer x satisfies x < b iff x <= b - 1 (b integral) or x <= floor(b)
    if strict and b.denominator == 1:
        return b.numerator - 1
    return floor(b)


def points_below(lattice: Lattice, reps: Sequence[Point], bound: Point,
                 strict: bool = False) -> tuple[Point, ...]:
    """All coset points weakly (or strictly) below the bound in every coordinate.

    Finite only when the lattice meets the nonnegative orthant in 0 alone;
    otherwise a PositivityError carries the violating lattice vector.
    """
    if bound.dim != lattice.dim:
        raise InputError(f"dimension mismatch: point {bound} vs lattice of dimension {lattice.dim}")
    lattice.check_positive()
    hi = [_effective_bound(b, strict) for b in bound.coords]
    return _coset_points(lattice, _canonical_reps(lattice, reps), [None] * lattice.dim, hi)


def _orthant_candidates(lattice: Lattice, c: tuple[int, ...], orthant: Orthant) -> set[Point]:
    """Superset of the coset's minimal orthant points, via reflected systems.

    With U * basis * V = D, x lies in the coset of c exactly when
    (U x)_i = (U c)_i for each i past the rank and (U x)_i = (U c)_i
    (mod d_i) for each d_i >= 2 below it.  In reflected coordinates that is
    a system over the naturals once each congruence gains a slack pair, so
    it feeds a minimal-solutions search.  Projections of minimal extended
    solutions cover every minimal point, with possible extras that the
    caller filters exactly.
    """
    U, _, _ = lattice._snf
    uc = matvec(U, c)
    diag = lattice.diagonal()
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
        out.add(Point([signs[j] * y[j] for j in range(n)]))
    return out


def minimal_orthant_points(lattice: Lattice, reps: Sequence[Point], orthant: Orthant,
                           exclude_zero: bool = False) -> tuple[Point, ...]:
    """Minimal points of the coset union inside the orthant's reflected order.

    With exclude_zero the origin is removed from the set before taking
    minimal elements, which is how neighbor candidates are produced.
    """
    if len(orthant.signs) != lattice.dim:
        raise InputError(f"dimension mismatch: orthant {orthant} vs lattice of dimension {lattice.dim}")
    creps = _canonical_reps(lattice, reps)
    zero = zero_point(lattice.dim)
    has_zero = any(lattice.member(zero - Point(c)) for c in creps)
    if has_zero and not exclude_zero:
        return (zero,)
    candidates = set()
    for c in creps:
        candidates |= _orthant_candidates(lattice, c, orthant)
    skip = {zero} if exclude_zero else set()
    result = []
    for a in sorted(candidates, key=point_key):
        inside = set(points_in_box(lattice, reps, zero, a))
        inside -= skip
        inside.discard(a)
        if not inside:
            result.append(a)
    return tuple(result)
