"""Exact coordinatewise order structure on Q^n.

A coordinate is a plain int whenever its value is integral, and a Fraction
with denominator above 1 otherwise.  Every input spelling of an integer (an
int, a Fraction, "6/3") becomes the same int, so points of Z^n compare,
sort and hash at C speed, and equal values stay equal and hash equal
across the two types (Fraction(3) == 3, hash(Fraction(3)) == hash(3)).
Floats are rejected at construction, so no rounding can creep in anywhere
downstream; a library caller dividing coordinates must therefore divide
with Fraction, since / on two ints gives a float.  All operations are pure
functions on immutable values.  A finite set's order structure compresses
to a RankIndex: integer ranks per axis and prefix bitsets, which answer
"which points lie below this bound" with a few ANDs.  That AND is one
function, and_prefixes, which the periodic candidate walk also calls on
prefix rows it grows itself.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import partial

from .errors import InputError

# ASCII digits only: int() alone would also take "1_0", " 3 " and "\u0663"
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def as_fraction(value):
    """An exact coordinate: an int when the value is integral, else a Fraction.

    Accepts ints (not bools), Fractions, and strings "n" or "p/q" of ASCII
    digits with an optional sign on the numerator and q nonzero.  Anything
    else, floats included, raises InputError on every Python version.
    fractions is imported only for a value that is not an int, so all-int
    work never loads it.
    """
    if type(value) is int:
        return value
    from fractions import Fraction
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, float):
        raise InputError(f"floating point is not allowed: {value!r}")
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise InputError(f"not a rational: {value!r}")
    try:
        p, q = int(match[1]), int(match[2] or 1)
    except ValueError as exc:  # more digits than the interpreter converts
        raise InputError(f"not a rational: {value!r}: {exc}") from exc
    if q == 0:
        raise InputError(f"not a rational: {value!r}")
    return p // q if p % q == 0 else Fraction(p, q)


class Point:
    """An immutable vector of exact coordinates with structural equality.

    The hash is that of the coordinate tuple, computed on first use and
    kept, so tuples of points (face keys) hash without rehashing Fractions.
    """

    __slots__ = ("coords", "_hash")

    def __init__(self, coords: Iterable) -> None:
        cs = tuple(coords)
        for c in cs:
            if type(c) is not int:  # all-int rows, the common case, skip as_fraction
                cs = tuple(map(as_fraction, cs))
                break
        if not cs:
            raise InputError("a point needs at least one coordinate")
        self.coords = cs
        self._hash = None

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator:
        return iter(self.coords)

    def __getitem__(self, i):
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
            str(c) if type(c) is int else f'"{c}"' for c in self.coords)

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
        return all(type(c) is int for c in self.coords)

    def as_int_tuple(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise InputError(f"integer point required, got {self}")
        return self.coords


def zero_point(n: int) -> Point:
    return Point([0] * n)


def _same_dim(a: Point, b: Point) -> None:
    if len(a) != len(b):
        raise InputError(f"dimension mismatch: {len(a)} vs {len(b)}")


def point_key(p: Point) -> tuple:
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


class Orthant(namedtuple("Orthant", "signs")):
    """A closed orthant of R^n given by a sign pattern (+1 / -1 per axis)."""

    __slots__ = ()

    def __new__(cls, signs: tuple[int, ...]):
        if not signs:
            raise InputError("an orthant needs at least one axis")
        if any(s not in (1, -1) for s in signs):
            raise InputError(f"orthant signs must be +1 or -1: {signs!r}")
        return super().__new__(cls, signs)

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


def all_orthants(n: int) -> Iterator[Orthant]:
    for signs in itertools.product((1, -1), repeat=n):
        yield Orthant(signs)


def and_prefixes(rows: Sequence[Sequence[int]], top: Iterable[int]) -> int:
    """The AND over the axes k of rows[k][top[k]]: one prefix bitset per axis.

    rows[k] lists bitsets, Python ints with one bit per element, that grow
    along the list: rows[k][v] holds the elements whose coordinate on axis
    k lies below a threshold named by v.  The AND holds those below top on
    every axis.
    """
    bits = -1
    for row, t in zip(rows, top):
        bits &= row[t]
    return bits


class RankIndex:
    """The coordinatewise order type of a finite list of points, in rank space.

    Along axis k the distinct values, ascending, are values[k], and point i
    (its position in the list) has rank ranks[i][k] there, so a join of
    points is the coordinatewise max of their ranks.  below[k][r] is a
    bitset, a Python int with bit i set for point i, of the points whose
    rank on axis k is less than r, for r = 0 .. len(values[k]).  Both order
    queries are then and_prefixes over these rows.  strictly_under(top),
    the points whose rank is below top's on every axis, is and_prefixes
    bound to them.
    """

    __slots__ = ("values", "ranks", "below", "strictly_under")

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
        self.strictly_under = partial(and_prefixes, self.below)

    def weakly_under(self, top: tuple) -> int:
        """The points whose rank is at most top's on every axis."""
        return and_prefixes(self.below, [t + 1 for t in top])

    def strict_ranks(self, p: Point) -> tuple[int, ...]:
        """Per axis, how many values lie below p's: strictly_under's top for any point p.

        For a member this is its rank tuple; for any other point it still
        selects exactly the points strictly below p.
        """
        return tuple(bisect_left(values, c) for values, c in zip(self.values, p.coords))


def lowest_bit(bits: int) -> int | None:
    """Index of the lowest set bit, or None for the empty bitset."""
    return (bits & -bits).bit_length() - 1 if bits else None


def iter_bits(bits: int) -> Iterator[int]:
    """Indices of the set bits, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low
