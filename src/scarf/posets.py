"""Staged minimal-element layering and downset-size filters.

The layering peels minimal elements repeatedly: layer 0 is the set of minimal
elements, layer k+1 is the set of minimal elements of what is left after
removing layers 0..k.  For a finite set this stratifies everything, and the
stage index of an element bounds the length of chains below it, so elements
with small downsets live in the early layers.

Supplying an orthant reinterprets "<=" as the orthant order (b - a lies in
the orthant), which reuses one implementation for all 2^n sign patterns by
reversing the axes where the orthant is negative.  Comparisons run in rank
space: the poset builds one RankIndex of the reflected points, each
downset is an AND of one "rank at most r" bitset per axis, and its size is
a bit count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InputError
from .geometry import Orthant, Point, RankIndex, point_key


class FinitePoset:
    """A finite point set under the componentwise or an orthant order."""

    __slots__ = ("points", "orthant", "_down_cache")

    def __init__(self, points: Iterable[Point], orthant: Optional[Orthant] = None):
        pts = sorted(set(points), key=point_key)
        if pts:
            n = len(pts[0])
            if any(len(p) != n for p in pts):
                raise InputError("mixed point dimensions in one poset")
            if orthant is not None and orthant.dim != n:
                raise InputError(f"dimension mismatch: orthant {orthant.dim} vs points {n}")
        self.points = tuple(pts)
        self.orthant = orthant
        self._down_cache = None

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def _downsets(self) -> list[int]:
        """Bitset of each point's downset, itself included, in point order."""
        if self._down_cache is None:
            rows = [p.coords for p in self.points]
            if self.orthant is not None:
                signs = self.orthant.signs
                rows = [tuple(c if s > 0 else -c for s, c in zip(signs, cs)) for cs in rows]
            index = RankIndex(rows)
            self._down_cache = [index.weakly_under(r) for r in index.ranks]
        return self._down_cache


@dataclass(frozen=True)
class Layering:
    """Staged minimal-element strata plus whatever depth k left untouched."""

    layers: tuple[frozenset, ...]
    residual: frozenset


def dickson_layers(poset: FinitePoset, k: int) -> Layering:
    """Layers 0..k of the staged minimal-element decomposition."""
    if k < 0:
        raise InputError(f"layer depth must be nonnegative, got {k}")
    down = poset._downsets()
    remaining = list(range(len(down)))
    mask = (1 << len(down)) - 1
    layers = []
    for _ in range(k + 1):
        if not remaining:
            break
        # i is minimal among what is left when its downset meets it alone
        layer = [i for i in remaining if down[i] & mask == 1 << i]
        layers.append(frozenset(poset.points[i] for i in layer))
        for i in layer:
            mask ^= 1 << i
        remaining = [i for i in remaining if mask >> i & 1]
    residual = frozenset(poset.points[i] for i in remaining)
    return Layering(tuple(layers), residual)


def filter_by_downset(poset: FinitePoset, k: int) -> frozenset:
    """Elements whose downset has at most k+1 elements.

    Always a subset of the union of layers 0..k, and equal to the minimal
    elements at k = 0; the containment can be strict.
    """
    if k < 0:
        raise InputError(f"downset bound must be nonnegative, got {k}")
    down = poset._downsets()
    return frozenset(p for p, d in zip(poset.points, down) if d.bit_count() <= k + 1)
