"""Lattices, cosets, and exact point enumeration.

A lattice is given by integer basis columns of full column rank.  Cosets of
the lattice are described through the Smith normal form of the basis,
U * basis * V = D, computed once per lattice.  It gives the one class map:
the class of an integer vector v is the values U_i v for each i past the
rank, then U_i v mod d_i for each d_i >= 2, and two vectors share a class
exactly when their difference lies in the lattice.  The face memo of the
star engine keys by it, and the orthant search reads its right-hand sides
from it.  The canonical representative of a coset comes from the same form,
through one precomputed reduction.  On top of that sits one lazy enumerator
of coset points between integer bounds, as int tuples, so an emptiness test
stops at the first point.  It runs one Fourier-Motzkin elimination plan per
lattice and bound pattern, so a query only supplies integer right-hand
sides.  Two point queries wrap it: all coset points inside a box given by
two opposite corners, and all coset points strictly below a bound.  The
minimal nonzero points of an orthant come from a minimal-solutions search
instead: one search per orthant answers every coset asked about, through
one counter column per coset, and each coset's points are decided among its
own candidates.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from math import ceil, floor
from operator import le, mul

from .errors import InputError, PositivityError
from .geometry import Orthant, Point
from .intsolve import EliminationPlan, _cd_search, matvec, nonzero_cone_direction, smith_normal_form

__all__ = [
    "Lattice",
    "coset_points",
    "points_in_box",
    "points_below",
    "minimal_orthant_points",
]


class Lattice:
    """Integer lattice spanned by basis columns of full column rank."""

    __slots__ = ("columns", "dim", "rank", "_rows", "_diag", "_equal_rows", "_congruences",
                 "_reduce", "_shift_rows", "_positive", "_plans")

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
        U, D, V = smith_normal_form(self._rows)
        if sum(1 for i in range(min(n, self.rank)) if D[i][i]) != self.rank:
            raise InputError("basis columns must be linearly independent")
        self._diag = tuple(D[i][i] for i in range(self.rank))
        # the class map: equality rows past the rank, congruence rows with d_i >= 2
        self._equal_rows = tuple(tuple(U[i]) for i in range(self.rank, n))
        self._congruences = tuple((tuple(U[i]), d) for i, d in enumerate(self._diag) if d >= 2)
        # the reduction: q_i = floor(U_i v / d_i), then v - (basis * V) q
        self._reduce = tuple((tuple(U[i]), d) for i, d in enumerate(self._diag))
        self._shift_rows = tuple(tuple(sum(map(mul, row, col)) for col in zip(*V))
                                 for row in self._rows)
        self._positive = None
        self._plans = {}

    def diagonal(self) -> tuple[int, ...]:
        return self._diag

    def _int_coords(self, p: Point) -> tuple[int, ...]:
        v = p.as_int_tuple()
        if p.dim != self.dim:
            raise InputError(f"dimension mismatch: point {p} vs lattice of dimension {self.dim}")
        return v

    def member(self, p: Point) -> bool:
        # a lattice vector v = basis * t has w = U v = D V^-1 t, so q = V^-1 t
        # and the shift basis * V q is v itself: its representative is the origin
        return not any(self._canonical(self._int_coords(p)))

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
        q = [sum(map(mul, u, v)) // d for u, d in self._reduce]
        return tuple(x - sum(map(mul, row, q)) for x, row in zip(v, self._shift_rows))

    def _class(self, v: Sequence[int]) -> tuple[int, ...]:
        """The class of an integer vector: one value per equality and congruence row.

        With U * basis * V = D these are U_i v for each i past the rank, then
        U_i v mod d_i for each d_i >= 2.  A lattice vector basis * t has
        U basis t = D V^-1 t, zero past the rank and a multiple of d_i below
        it, and D V^-1 is onto those values, so two vectors share a class
        exactly when their difference lies in the lattice: exactly when
        their canonical representatives agree.
        """
        return (*(sum(map(mul, row, v)) for row in self._equal_rows),
                *(sum(map(mul, row, v)) % d for row, d in self._congruences))

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

    def positivity_witness(self) -> Point | None:
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
    """The canonical representative of each distinct coset among reps, as int tuples."""
    out = list(dict.fromkeys(lattice._canonical(lattice._int_coords(rep)) for rep in reps))
    if not out:
        raise InputError("at least one coset representative is required")
    return out


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


def _orthant_steps(lattice: Lattice, diffs: Sequence[tuple[int, ...]],
                   signs: tuple[int, ...]) -> dict:
    """For each coset d + L, d in diffs, its minimal nonzero points in the orthant, reflected.

    x lies in the coset of d exactly when its class, Lattice._class, is
    d's: (U x)_i = (U d)_i for each i past the rank and (U x)_i = (U d)_i
    (mod d_i) for each d_i >= 2 below it.  In reflected coordinates
    y = sigma x that is a system A y = b_d over the naturals once each
    congruence gains a slack pair, with b_d, d's class, reduced into
    [0, d_i) on the congruence rows.  Distinct cosets have distinct b_d,
    and only L itself has b_d = 0.  So one counter search, with a column
    -b_d for each other coset, finds the minimal extended solutions of all
    of them: those with d's counter at 1, or with every counter at 0 for L.
    Their y parts cover every minimal nonzero point of each coset, with
    possible extras, and a point is kept when no other point of its coset
    lies below it.

    diffs are canonical representatives as int tuples.  Returns
    {d: sorted nonnegative y}, the points being sigma * y.
    """
    n, eqs, congruences = lattice.dim, lattice._equal_rows, lattice._congruences
    rows = [[u * s for u, s in zip(row, signs)]
            for row in (*eqs, *(row for row, _ in congruences))]
    columns = [tuple(row[j] for row in rows) for j in range(n)]
    for a, (_, modulus) in enumerate(congruences, start=len(eqs)):
        for m in (-modulus, modulus):
            columns.append(tuple(m if row == a else 0 for row in range(len(rows))))
    rhs = {d: lattice._class(d) for d in diffs}
    counted = [d for d in rhs if any(rhs[d])]
    width = len(columns)
    columns += [tuple(-b for b in rhs[d]) for d in counted]
    found: dict = {d: set() for d in rhs}
    lattice_key = (0,) * n
    for sol in _cd_search(columns, len(counted)):
        y = sol[:n]
        if any(y):
            counter = sol[width:]
            key = counted[counter.index(1)] if any(counter) else lattice_key
            if key in found:
                found[key].add(y)
    return {d: tuple(y for y in sorted(ys) if not any(z != y and all(map(le, z, y)) for z in ys))
            for d, ys in found.items()}


def minimal_orthant_points(lattice: Lattice, reps: Sequence[Point],
                           orthant: Orthant) -> tuple[Point, ...]:
    """Minimal nonzero points of the coset union inside the orthant's reflected order.

    These are the steps from which neighbor candidates are produced.  The
    minimal points of each coset come from one search, and a point is
    minimal in the union exactly when no other coset's point lies below it.
    """
    if len(orthant.signs) != lattice.dim:
        raise InputError(f"dimension mismatch: orthant {orthant} vs lattice of dimension {lattice.dim}")
    signs = orthant.signs
    ys = {y for found in _orthant_steps(lattice, _canonical_reps(lattice, reps), signs).values()
          for y in found}
    minimal = [y for y in ys if not any(z != y and all(map(le, z, y)) for z in ys)]
    return tuple(Point(a) for a in sorted(tuple(map(mul, signs, y)) for y in minimal))
