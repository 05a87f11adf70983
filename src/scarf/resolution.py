"""Signed monomial chain complexes over finite generic exponent sets.

Each face of the neighbor complex becomes one generator, graded by the join
of its vertices.  The boundary of a face drops one vertex at a time with an
alternating sign and records the label quotient as an exponent vector; the
vertices themselves map onto the single rank-one slot with their full
exponents.  For generic inputs every boundary exponent is nonzero, which is
exactly minimality of the resolution the complex supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import Face
from .errors import GenericityError, InputError
from .finite import FinitePointSet, enumerate_complex, face_witness, is_generic
from .geometry import Point

__all__ = ["Resolution", "ChainCheck", "build_resolution", "verify_chain"]


@dataclass
class Resolution:
    """Betti data and sparse signed-monomial boundary maps.

    differentials[i-1] maps i-dimensional faces to (i-1)-dimensional ones,
    keyed by (row_index, column_index) with value (sign, exponent vector);
    a single-vertex input therefore has no differentials at all.  The
    augmentation lists each vertex's own exponent vector (the rank-one map).
    multigraded_betti counts faces per (homological degree, multidegree).
    """

    points: FinitePointSet
    faces_by_dim: tuple[tuple[Face, ...], ...]
    augmentation: tuple[Point, ...]
    differentials: tuple[dict, ...] = field(default_factory=tuple)

    @property
    def betti(self) -> tuple[int, ...]:
        return tuple(len(fs) for fs in self.faces_by_dim)

    @property
    def multigraded_betti(self) -> dict:
        table: dict = {}
        for d, fs in enumerate(self.faces_by_dim):
            for f in fs:
                key = (d, f.multidegree)
                table[key] = table.get(key, 0) + 1
        return table

    def euler_characteristic(self) -> int:
        return sum((-1) ** i * b for i, b in enumerate(self.betti))


@dataclass
class ChainCheck:
    """Outcome of recomputing all composites of consecutive boundary maps."""

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _validate_exponent_points(A: FinitePointSet) -> None:
    for p in A.points:
        if not p.is_integral() or any(c < 0 for c in p.coords):
            raise InputError(f"exponent vectors must be nonnegative integers, got {p}")
        if not any(p.coords):
            raise InputError("the zero exponent vector generates the unit ideal")


def _check_minimal_generators(A: FinitePointSet) -> None:
    # Weak divisibility with a coordinate tie is left to the genericity
    # check, which reports the shared coordinate.
    for b in A.points:
        a = face_witness(A, [b])
        if a is not None:
            raise InputError(f"non-minimal generator: {b} is strictly dominated by {a}")


def build_resolution(A: FinitePointSet) -> Resolution:
    """The labeled chain complex of a finite generic exponent set.

    Raises InputError when some exponent vector divides another (the input
    is then not a minimal generating set) and GenericityError when two
    neighbors share a coordinate value.
    """
    if not isinstance(A, FinitePointSet):
        A = FinitePointSet(A)
    _validate_exponent_points(A)
    _check_minimal_generators(A)
    report = is_generic(A, mode="definition")
    if not report.generic:
        a, b, k = report.witness
        raise GenericityError(
            f"input is not generic: witness [{a}, {b}, {k}]", witness=report.witness
        )
    complex_ = enumerate_complex(A)
    faces_by_dim: list = [[] for _ in range(complex_.dimension + 1)]
    index = {}
    for f in complex_.faces():
        if f.vertices:
            fs = faces_by_dim[f.dim]
            index[f.vertices] = len(fs)
            fs.append(f)
    augmentation = tuple(f.vertices[0] for f in faces_by_dim[0])
    diffs = []
    for lower, upper in zip(faces_by_dim, faces_by_dim[1:]):
        entries: dict = {}
        for col, face in enumerate(upper):
            vs = face.vertices
            for j in range(len(vs)):
                row = index[vs[:j] + vs[j + 1:]]
                entries[(row, col)] = ((-1) ** j, face.multidegree - lower[row].multidegree)
        diffs.append(entries)
    return Resolution(
        points=A,
        faces_by_dim=tuple(map(tuple, faces_by_dim)),
        augmentation=augmentation,
        differentials=tuple(diffs),
    )


def _compose(lower: dict, upper: dict, step: int, failures: list) -> None:
    by_col: dict = {}
    for (m, c), (sign, exp) in upper.items():
        by_col.setdefault(c, []).append((m, sign, exp))
    lower_by_mid: dict = {}
    for (r, m), (sign, exp) in lower.items():
        lower_by_mid.setdefault(m, []).append((r, sign, exp))
    for c, terms in by_col.items():
        acc: dict = {}
        for m, sign1, exp1 in terms:
            for r, sign2, exp2 in lower_by_mid.get(m, ()):
                key = (r, (exp1 + exp2).coords)
                acc[key] = acc.get(key, 0) + sign1 * sign2
        for (r, total), coeff in acc.items():
            if coeff != 0:
                failures.append(
                    f"composite at step {step} nonzero in row {r}, column {c}: "
                    f"coefficient {coeff} on exponent {total}"
                )


def verify_chain(res: Resolution) -> ChainCheck:
    """Recompute every composite of consecutive stored boundary maps.

    Works purely from the stored data: entries multiply as signed monomials
    and each (row, column) slot of a composite must cancel to zero.  Also
    re-checks minimality (no boundary entry with the zero exponent) and the
    alternating rank sum, which must be 1.
    """
    failures: list = []
    for i, diff in enumerate(res.differentials):
        for (r, c), (sign, exp) in diff.items():
            if sign not in (1, -1):
                failures.append(f"bad sign {sign} at step {i + 1}, row {r}, column {c}")
            if not any(exp.coords):
                failures.append(
                    f"zero exponent at step {i + 1}, row {r}, column {c}: not minimal"
                )
    if res.differentials:
        aug = {(0, i): (1, p) for i, p in enumerate(res.augmentation)}
        _compose(aug, res.differentials[0], 1, failures)
    for i in range(1, len(res.differentials)):
        _compose(res.differentials[i - 1], res.differentials[i], i + 1, failures)
    if res.euler_characteristic() != 1:
        failures.append(
            f"alternating rank sum is {res.euler_characteristic()}, expected 1"
        )
    return ChainCheck(ok=not failures, failures=tuple(failures))
