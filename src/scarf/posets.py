"""Staged minimal-element layering and downset-size filters.

The layering peels minimal elements repeatedly: layer 0 is the set of minimal
elements, layer k+1 is the set of minimal elements of what is left after
removing layers 0..k.  For a finite set this stratifies everything, and the
stage index of an element bounds the length of chains below it, so elements
with small downsets live in the early layers.

Supplying an orthant reinterprets "<=" as the orthant order (b - a lies in
the orthant), which reverses the axes where the orthant is negative.
Comparisons run in rank space on the set's own RankIndex: each downset is an
AND of one bitset per axis, "rank at most r" on a positive axis and "rank at
least r" on a reversed one, and its size is a bit count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InputError
from .finite import FinitePointSet
from .geometry import Orthant


def _downsets(A: FinitePointSet, orthant: Optional[Orthant]) -> list[int]:
    """Bitset of each point's downset under the orthant order, itself included."""
    signs = (1,) * A.dim if orthant is None else orthant.signs
    if len(signs) != A.dim:
        raise InputError(
            f"orthant {orthant} has dimension {orthant.dim}, the set has dimension {A.dim}")
    index = A.rank_index
    full = (1 << len(A)) - 1
    out = []
    for ranks in index.ranks:
        bits = full
        for s, below, r in zip(signs, index.below, ranks):
            bits &= below[r + 1] if s > 0 else full ^ below[r]
        out.append(bits)
    return out


@dataclass(frozen=True)
class Layering:
    """Staged minimal-element strata plus whatever depth k left untouched."""

    layers: tuple[frozenset, ...]
    residual: frozenset


def dickson_layers(A: FinitePointSet, k: int, orthant: Optional[Orthant] = None) -> Layering:
    """Layers 0..k of the staged minimal-element decomposition."""
    if k < 0:
        raise InputError(f"layer depth must be nonnegative, got {k}")
    down = _downsets(A, orthant)
    remaining = list(range(len(down)))
    mask = (1 << len(down)) - 1
    layers = []
    for _ in range(k + 1):
        if not remaining:
            break
        # i is minimal among what is left when its downset meets it alone
        layer = [i for i in remaining if down[i] & mask == 1 << i]
        layers.append(frozenset(A.points[i] for i in layer))
        for i in layer:
            mask ^= 1 << i
        remaining = [i for i in remaining if mask >> i & 1]
    residual = frozenset(A.points[i] for i in remaining)
    return Layering(tuple(layers), residual)


def filter_by_downset(A: FinitePointSet, k: int, orthant: Optional[Orthant] = None) -> frozenset:
    """Elements whose downset has at most k+1 elements.

    Always a subset of the union of layers 0..k, and equal to the minimal
    elements at k = 0; the containment can be strict.
    """
    if k < 0:
        raise InputError(f"downset bound must be nonnegative, got {k}")
    down = _downsets(A, orthant)
    return frozenset(p for p, d in zip(A.points, down) if d.bit_count() <= k + 1)
