"""Staged minimal-element layering and downset-size filters.

The layering peels minimal elements repeatedly: layer 0 is the set of minimal
elements, layer k+1 is the set of minimal elements of what is left after
removing layers 0..k.  For a finite set this stratifies everything, and the
stage index of an element bounds the length of chains below it, so elements
with small downsets live in the early layers.

Supplying an orthant reinterprets "<=" as the orthant order (b - a lies in
the orthant), which reuses one implementation for all 2^n sign patterns via
reflection.  Comparisons run on integer-rescaled coordinates so large batches
stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Optional

from .errors import InputError
from .geometry import Orthant, Point, point_key


class FinitePoset:
    """A finite point set under the componentwise or an orthant order."""

    __slots__ = ("points", "orthant", "_key_cache", "_card_cache")

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
        self._key_cache = None
        self._card_cache = None

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def _keys(self):
        if self._key_cache is None:
            self._key_cache = _integer_keys(self.points, self.orthant)
        return self._key_cache

    def _cards(self):
        if self._card_cache is None:
            self._card_cache = _downset_cards(self._keys())
        return self._card_cache


def _integer_keys(points, orthant):
    """Orthant-reflected, integer-rescaled coordinate tuples (order-isomorphic)."""
    signs = orthant.signs if orthant is not None else None
    raw = []
    for p in points:
        cs = p.coords if signs is None else tuple(s * c for s, c in zip(signs, p.coords))
        raw.append(cs)
    scale = 1
    for cs in raw:
        for c in cs:
            if c.denominator != 1:
                scale = lcm(scale, c.denominator)
    if scale == 1:
        return [tuple(c.numerator for c in cs) for cs in raw]
    return [tuple(int(c * scale) for c in cs) for cs in raw]


def _dominates(u, v):
    # u <= v componentwise on integer key tuples
    return all(x <= y for x, y in zip(u, v))


def _minimal_indices(keys, index_pool):
    """Indices of minimal elements of the subset index_pool, by sum-ordered scan.

    Any dominator has strictly smaller coordinate sum (keys are distinct), so
    scanning in sum order and checking against accepted minimals is exact.
    """
    order = sorted(index_pool, key=lambda i: (sum(keys[i]), keys[i]))
    accepted = []
    for i in order:
        ki = keys[i]
        if not any(_dominates(keys[j], ki) for j in accepted):
            accepted.append(i)
    return set(accepted)


@dataclass(frozen=True)
class Layering:
    """Staged minimal-element strata plus whatever depth k left untouched."""

    layers: tuple[frozenset, ...]
    residual: frozenset


def dickson_layers(poset: FinitePoset, k: int) -> Layering:
    """Layers 0..k of the staged minimal-element decomposition."""
    if k < 0:
        raise InputError(f"layer depth must be nonnegative, got {k}")
    keys = poset._keys()
    remaining = set(range(len(keys)))
    layers = []
    for _ in range(k + 1):
        if not remaining:
            break
        layer = _minimal_indices(keys, remaining)
        layers.append(frozenset(poset.points[i] for i in layer))
        remaining -= layer
    residual = frozenset(poset.points[i] for i in remaining)
    return Layering(tuple(layers), residual)


def _downset_cards(keys):
    order = sorted(range(len(keys)), key=lambda i: (sum(keys[i]), keys[i]))
    cards = [0] * len(keys)
    for pos, i in enumerate(order):
        ki = keys[i]
        c = 1
        for j in order[:pos]:
            if _dominates(keys[j], ki):
                c += 1
        cards[i] = c
    return cards


def filter_by_downset(poset: FinitePoset, k: int) -> frozenset:
    """Elements whose downset has at most k+1 elements.

    Always a subset of the union of layers 0..k, and equal to the minimal
    elements at k = 0; the containment can be strict.
    """
    if k < 0:
        raise InputError(f"downset bound must be nonnegative, got {k}")
    cards = poset._cards()
    return frozenset(p for p, c in zip(poset.points, cards) if c <= k + 1)
