"""Exact coordinatewise order structure on Q^n.

Points carry arbitrary-precision rationals.  Floats are rejected at
construction, so no rounding can creep in anywhere downstream.  All
operations are pure functions on immutable values.  A finite set's order
structure compresses to a RankIndex: integer ranks per axis and prefix
bitsets, which answer "which points lie below this bound" with a few ANDs.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InputError


def as_fraction(value) -> Fraction:
    """Coerce an int, a "p/q" string or a Fraction to Fraction; floats are refused."""
    if isinstance(value, float):
        raise InputError(f"floating point is not allowed: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"not a rational: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"not a rational: {value!r}") from exc


class Point:
    """An immutable vector of exact rationals with structural equality.

    The hash is that of the coordinate tuple, computed on first use and
    kept, so tuples of points (face keys) hash without rehashing Fractions.
    """

    __slots__ = ("coords", "_hash")

    def __init__(self, coords: Iterable) -> None:
        cs = tuple(as_fraction(c) for c in coords)
        if not cs:
            raise InputError("a point needs at least one coordinate")
        self.coords = cs
        self._hash = None

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coords)

    def __getitem__(self, i) -> Fraction:
        return self.coords[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Point) and self.coords == other.coords

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.coords)
        return self._hash

    def __repr__(self) -> str:
        return "Point(%s)" % ", ".join(str(c) for c in self.coords)

    def __str__(self) -> str:
        """The point as JSON output writes it, on one line: [1, -2, "1/2"]."""
        return "[%s]" % ", ".join(
            str(c) if c.denominator == 1 else f'"{c}"' for c in self.coords)

    def __add__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        _same_dim(self, other)
        return Point(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        _same_dim(self, other)
        return Point(a - b for a, b in zip(self.coords, other.coords))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def as_int_tuple(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise InputError(f"integer point required, got {self}")
        return tuple(c.numerator for c in self.coords)


def zero_point(n: int) -> Point:
    return Point([0] * n)


def _same_dim(a: Point, b: Point) -> None:
    if len(a) != len(b):
        raise InputError(f"dimension mismatch: {len(a)} vs {len(b)}")


def point_key(p: Point) -> tuple[Fraction, ...]:
    """Sort key giving the canonical (lexicographic) order on points."""
    return p.coords


def join(points: Iterable[Point]) -> Point:
    """Coordinatewise maximum of a nonempty collection."""
    pts = list(points)
    if not pts:
        raise InputError("join of an empty collection")
    acc = list(pts[0].coords)
    for p in pts[1:]:
        _same_dim(pts[0], p)
        for i, c in enumerate(p.coords):
            if c > acc[i]:
                acc[i] = c
    return Point(acc)


def join2(a: Point, b: Point) -> Point:
    _same_dim(a, b)
    return Point(x if x >= y else y for x, y in zip(a.coords, b.coords))


def meet(points: Iterable[Point]) -> Point:
    """Coordinatewise minimum of a nonempty collection."""
    pts = list(points)
    if not pts:
        raise InputError("meet of an empty collection")
    acc = list(pts[0].coords)
    for p in pts[1:]:
        _same_dim(pts[0], p)
        for i, c in enumerate(p.coords):
            if c < acc[i]:
                acc[i] = c
    return Point(acc)


def leq(a: Point, b: Point) -> bool:
    """Componentwise a <= b."""
    _same_dim(a, b)
    return all(x <= y for x, y in zip(a.coords, b.coords))


@dataclass(frozen=True)
class Orthant:
    """A closed orthant of R^n given by a sign pattern (+1 / -1 per axis)."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if not self.signs:
            raise InputError("an orthant needs at least one axis")
        if any(s not in (1, -1) for s in self.signs):
            raise InputError(f"orthant signs must be +1 or -1: {self.signs!r}")

    @classmethod
    def from_string(cls, text: str) -> "Orthant":
        try:
            return cls(tuple({"+": 1, "-": -1}[ch] for ch in text))
        except KeyError as exc:
            raise InputError(f"bad orthant string {text!r}; use '+' and '-' only") from exc

    @property
    def dim(self) -> int:
        return len(self.signs)

    def __str__(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)

    def contains(self, p: Point) -> bool:
        if len(p) != self.dim:
            raise InputError(f"dimension mismatch: {len(p)} vs {self.dim}")
        return all(s * c >= 0 for s, c in zip(self.signs, p.coords))


def all_orthants(n: int) -> Iterator[Orthant]:
    for signs in itertools.product((1, -1), repeat=n):
        yield Orthant(signs)


@dataclass(frozen=True)
class Box:
    """An axis-parallel box [lo, hi], possibly degenerate, never empty."""

    lo: Point
    hi: Point

    def __post_init__(self):
        _same_dim(self.lo, self.hi)
        if not leq(self.lo, self.hi):
            raise InputError(f"box corners out of order: {self.lo} !<= {self.hi}")


def cuboid(a: Point, b: Point) -> Box:
    """The smallest box containing a and b."""
    return Box(meet([a, b]), join([a, b]))


class RankIndex:
    """The coordinatewise order type of a finite list of points, in rank space.

    Along axis k the distinct values, ascending, are values[k], and point i
    (its position in the list) has rank ranks[i][k] there, so a join of
    points is the coordinatewise max of their ranks.  below[k][r] is a
    bitset, a Python int with bit i set for point i, of the points whose
    rank on axis k is less than r, for r = 0 .. len(values[k]).  Both order
    queries are then an AND of one bitset per axis.
    """

    __slots__ = ("values", "ranks", "below")

    def __init__(self, rows: Sequence[tuple]):
        self.values, self.below, columns = [], [], []
        for k in range(len(rows[0]) if rows else 0):
            values = sorted({row[k] for row in rows})
            rank_of = {v: r for r, v in enumerate(values)}
            column = [rank_of[row[k]] for row in rows]
            at = [0] * len(values)
            for i, r in enumerate(column):
                at[r] |= 1 << i
            below = [0]
            for bits in at:
                below.append(below[-1] | bits)
            self.values.append(values)
            self.below.append(below)
            columns.append(column)
        self.ranks = list(zip(*columns))

    def strictly_under(self, top: tuple) -> int:
        """The points whose rank is below top's on every axis."""
        bits = -1
        for below, t in zip(self.below, top):
            bits &= below[t]
        return bits

    def weakly_under(self, top: tuple) -> int:
        """The points whose rank is at most top's on every axis."""
        bits = -1
        for below, t in zip(self.below, top):
            bits &= below[t + 1]
        return bits

    def strict_ranks(self, p: Point) -> tuple[int, ...]:
        """Per axis, how many values lie below p's: strictly_under's top for any point p.

        For a member this is its rank tuple; for any other point it still
        selects exactly the points strictly below p.
        """
        return tuple(bisect_left(values, c) for values, c in zip(self.values, p.coords))


def lowest_bit(bits: int) -> Optional[int]:
    """Index of the lowest set bit, or None for the empty bitset."""
    return (bits & -bits).bit_length() - 1 if bits else None


def iter_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low
