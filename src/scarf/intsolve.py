"""Exact integer linear algebra primitives.

Everything here is plain Python ints: Smith normal form with unimodular
transforms, Bareiss determinants, a breadth-first minimal-solutions search
for linear Diophantine systems over the naturals (Contejean-Devie branching
rule with domination pruning, with counter columns so that one search
answers several right-hand sides), and one Fourier-Motzkin projection,
`fm_systems`.  The projection serves integer point enumeration, through
elimination plans built once per coefficient matrix, and the search for a
nonzero direction in a cone.  Rational rows given to `fm_enumerate_integer`
are scaled to integers exactly.  No floats anywhere.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from math import gcd, lcm
from operator import add, ge, mul

from .errors import InputError, InternalError


def _as_int(value) -> int:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"integer required, got {value!r}")
    if isinstance(value, int):
        return value
    from fractions import Fraction  # only for a value that is not an int
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    raise InputError(f"integer required, got {value!r}")


def _check_matrix(M) -> tuple[int, int]:
    nr = len(M)
    nc = len(M[0]) if nr else 0
    if any(len(row) != nc for row in M):
        raise InputError("ragged matrix")
    return nr, nc


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(A, B) -> list[list]:
    nb = len(B)
    return [[sum(A[i][k] * B[k][j] for k in range(nb)) for j in range(len(B[0]))] for i in range(len(A))]


def matvec(A, v) -> list:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in A]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def det(M) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    nr, nc = _check_matrix(M)
    if nr != nc:
        raise InputError("determinant of a non-square matrix")
    if nr == 0:
        return 1
    a = [[_as_int(x) for x in row] for row in M]
    sign = 1
    prev = 1
    for k in range(nr - 1):
        if a[k][k] == 0:
            for i in range(k + 1, nr):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, nr):
            for j in range(k + 1, nr):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


# ---------------------------------------------------------------------------
# Smith normal form


def smith_normal_form(M):
    """U, D, V with U*M*V = D diagonal, d1 | d2 | ..., U and V unimodular.

    Classic elimination: pull the absolutely smallest entry into the pivot,
    clear its row and column with Euclidean row/column combinations, and when
    some trailing entry is not divisible by the pivot fold its row into the
    pivot row and repeat (the pivot shrinks each time, so this stops).
    The result passes verify_snf before it is returned.
    """
    nr, nc = _check_matrix(M)
    D = [[_as_int(x) for x in row] for row in M]
    U = identity_matrix(nr)
    V = identity_matrix(nc)

    def row_combine(i1, i2, a, b, c, d):
        # (R_i1, R_i2) <- (a R_i1 + b R_i2, c R_i1 + d R_i2), ad - bc = +-1
        for X in (D, U):
            r1, r2 = X[i1], X[i2]
            for j in range(len(r1)):
                x, y = r1[j], r2[j]
                r1[j] = a * x + b * y
                r2[j] = c * x + d * y

    def col_combine(j1, j2, a, b, c, d):
        for X in (D, V):
            for row in X:
                x, y = row[j1], row[j2]
                row[j1] = a * x + b * y
                row[j2] = c * x + d * y

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for X in (D, V):
            for row in X:
                row[i], row[j] = row[j], row[i]

    for t in range(min(nr, nc)):
        # smallest nonzero entry of the trailing block becomes the pivot
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if D[i][j] and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])
        while True:
            for i in range(t + 1, nr):
                b = D[i][t]
                if not b:
                    continue
                a = D[t][t]
                if b % a == 0:
                    q = b // a
                    row_combine(t, i, 1, 0, -q, 1)
                else:
                    g, x, y = xgcd(a, b)
                    row_combine(t, i, x, y, -(b // g), a // g)
            if any(D[i][t] for i in range(t + 1, nr)):
                continue
            for j in range(t + 1, nc):
                b = D[t][j]
                if not b:
                    continue
                a = D[t][t]
                if b % a == 0:
                    q = b // a
                    col_combine(t, j, 1, 0, -q, 1)
                else:
                    g, x, y = xgcd(a, b)
                    col_combine(t, j, x, y, -(b // g), a // g)
            if any(D[i][t] for i in range(t + 1, nr)) or any(D[t][j] for j in range(t + 1, nc)):
                continue
            bad = next(((i, j) for i in range(t + 1, nr) for j in range(t + 1, nc)
                        if D[i][j] % D[t][t] != 0), None)
            if bad is None:
                break
            row_combine(t, bad[0], 1, 1, 0, 1)  # R_t += R_bad, brings the entry in reach
        if D[t][t] < 0:
            for j in range(nc):
                D[t][j] = -D[t][j]
            for j in range(nr):
                U[t][j] = -U[t][j]
    verify_snf(M, U, D, V)
    return U, D, V


def verify_snf(M, U, D, V) -> None:
    """Re-check U*M*V = D, the divisibility chain, and unimodularity."""
    nr, nc = _check_matrix(M)
    if matmul(matmul(U, M), V) != D:
        raise InternalError("smith normal form: U*M*V != D")
    diag = [D[i][i] for i in range(min(nr, nc))]
    for i in range(nr):
        for j in range(nc):
            if i != j and D[i][j] != 0:
                raise InternalError("smith normal form: D not diagonal")
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            raise InternalError("smith normal form: zero before nonzero on the diagonal")
        if a != 0 and b % a != 0:
            raise InternalError("smith normal form: divisibility chain broken")
    if any(d < 0 for d in diag):
        raise InternalError("smith normal form: negative diagonal entry")
    if abs(det(U)) != 1 or abs(det(V)) != 1:
        raise InternalError("smith normal form: transform not unimodular")


# ---------------------------------------------------------------------------
# Fourier-Motzkin projection and integer enumeration


def fm_systems(rows: Sequence[Sequence[int]], nvars: int):
    """Fourier-Motzkin projection of {z : A z <= b} for integer rows A, valid for every b.

    Variables are eliminated back to front.  Each derived row keeps its
    nonnegative integer multipliers over the rows of A and is scaled by the
    gcd of its coefficients and multipliers, so for a given integer b its
    right-hand side is one dot product.  Pruning looks at A alone: exact
    duplicates go, and so does every row drawn from more than t+1 rows of A
    after t eliminations, which is redundant by Kohler's criterion.

    Returns (levels, checks).  levels[k] is the pair (upper, lower) of the
    rows (coeffs[:k], |coeffs[k]|, support) of the projection onto z_0..z_k
    whose coefficient of z_k is positive, respectively negative; a support
    lists (row of A, multiplier) pairs.  checks holds the supports of derived
    rows with no coefficient left: b must give each a nonnegative sum for
    the region to be nonempty.
    """
    nrows = len(rows)
    checks: dict = {}

    def add(coeffs, mults, into, max_support):
        g = 0
        for x in coeffs + mults:
            g = gcd(g, x)
        if g > 1:
            coeffs = tuple(x // g for x in coeffs)
            mults = tuple(x // g for x in mults)
        support = tuple((i, m) for i, m in enumerate(mults) if m)
        if len(support) > max_support:
            return
        if any(coeffs):
            into.setdefault((coeffs, mults), support)
        else:
            checks.setdefault(support, None)

    system: dict = {}
    for i, coeffs in enumerate(rows):
        add(tuple(coeffs), tuple(int(j == i) for j in range(nrows)), system, 1)
    levels = [None] * nvars
    for k in range(nvars - 1, -1, -1):
        pos = [(c, m) for c, m in system if c[k] > 0]
        neg = [(c, m) for c, m in system if c[k] < 0]
        levels[k] = (
            tuple((c[:k], c[k], system[c, m]) for c, m in pos),
            tuple((c[:k], -c[k], system[c, m]) for c, m in neg),
        )
        nxt = {key: sup for key, sup in system.items() if key[0][k] == 0}
        for pc, pm in pos:
            for nc, nm in neg:
                a, b = pc[k], -nc[k]
                add(tuple(b * x + a * y for x, y in zip(pc, nc)),
                    tuple(b * x + a * y for x, y in zip(pm, nm)),
                    nxt, nvars - k + 1)
        system = nxt
    return levels, tuple(checks)


class EliminationPlan:
    """The projection fm_systems builds for one integer matrix A, answered for any integer b."""

    __slots__ = ("nvars", "levels", "checks")

    def __init__(self, rows: Sequence[Sequence[int]], nvars: int):
        self.nvars = nvars
        self.levels, self.checks = fm_systems(rows, nvars)

    def points(self, rhs: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """Generate all integer z with A z <= rhs, in lexicographic order.

        Requires boundedness.  The walk is lazy, so a caller that stops
        early stops the enumeration there.
        """
        for support in self.checks:
            if sum(m * rhs[i] for i, m in support) < 0:
                return
        if self.nvars:
            # a level's right-hand sides, computed when the walk first reaches it
            yield from self._walk(rhs, [None] * self.nvars, 0, ())

    def _walk(self, rhs: Sequence[int], bounds: list, k: int, prefix: tuple):
        """The points of points(rhs) that extend prefix, whose length is k.

        A method, not a closure that calls itself, so a walk leaves no
        reference cycle behind for the collector.
        """
        if bounds[k] is None:
            bounds[k] = tuple(
                tuple((cs, c, sum(m * rhs[i] for i, m in support)) for cs, c, support in side)
                for side in self.levels[k])
        upper, lower = bounds[k]
        if not upper or not lower:
            raise InternalError("unbounded direction in an enumeration region")
        hi = min((r - sum(map(mul, cs, prefix))) // c for cs, c, r in upper)
        lo = -min((r - sum(map(mul, cs, prefix))) // c for cs, c, r in lower)
        if k == self.nvars - 1:
            for v in range(lo, hi + 1):
                yield prefix + (v,)
        else:
            for v in range(lo, hi + 1):
                yield from self._walk(rhs, bounds, k + 1, prefix + (v,))


def fm_enumerate_integer(rows, nvars: int) -> Iterator[tuple[int, ...]]:
    """All integer points of the polytope {z : rows}.  Requires boundedness.

    The one-shot form of EliminationPlan: each rational row is scaled to
    integers exactly, and an unbounded interval in the walk means the region
    was not a polytope, which callers must rule out.
    """
    from fractions import Fraction
    coeff_rows, rhs = [], []
    for coeffs, bound in rows:
        vals = [Fraction(x) for x in coeffs] + [Fraction(bound)]
        scale = lcm(*(x.denominator for x in vals))
        ints = [x.numerator * (scale // x.denominator) for x in vals]
        coeff_rows.append(ints[:-1])
        rhs.append(ints[-1])
    yield from EliminationPlan(coeff_rows, nvars).points(rhs)


def nonzero_cone_direction(B) -> list[int] | None:
    """A primitive integer z != 0 with B z >= 0 componentwise, or None if only z = 0.

    For each coordinate j in turn, projects the cone {z : -B z <= 0} with
    fm_systems, z_j ordered first; the cone is {0} exactly when every
    projection onto z_j is {0}.  Otherwise z_j = -1 or 1 is lifted through
    the other variables, each taking the lower end of its interval when
    there is one, else the upper end, else 0.  The cone is homogeneous, so
    the lift stays integral by rescaling the prefix by the denominator of
    each end instead of dividing.
    """
    nr, nc = _check_matrix(B)
    for j in range(nc):
        perm = [j] + [i for i in range(nc) if i != j]
        levels, _ = fm_systems([[-row[p] for p in perm] for row in B], nc)
        upper, lower = levels[0]
        if upper and lower:
            continue  # z_j forced to 0
        z = [-1 if upper else 1]
        for upper, lower in levels[1:]:
            # a lower row bounds z_k below by cs.z / c, an upper row above by -cs.z / c
            side, sign = (lower, 1) if lower else (upper, -1)
            num, den = 0, 1
            for n, (cs, c, _) in enumerate(side):
                v = sign * sum(a * x for a, x in zip(cs, z))
                if n == 0 or sign * (v * den - num * c) > 0:
                    num, den = v, c
            g = gcd(num, den)
            z = [x * (den // g) for x in z] + [num // g]
        out = [0] * nc
        for pos, var in enumerate(perm):
            out[var] = z[pos]
        if all(x >= 0 for x in matvec(B, out)):
            return out
        raise InternalError("cone direction reconstruction failed")
    return None


# ---------------------------------------------------------------------------
# Minimal solutions of linear Diophantine systems over the naturals


def _dominates_any(x, minimals):
    for m in minimals:
        if all(map(ge, x, m)):
            return True
    return False


def _cd_search(columns, counters=0):
    """Componentwise-minimal nonzero solutions of sum_i x_i * columns[i] = 0, x in N^k.

    Breadth-first from the unit vectors; a node x grows in direction i only
    when <Ax, Ae_i> < 0, which preserves completeness; nodes dominating a
    known solution are pruned.

    The last `counters` columns are counters: in every node at most one of
    them is nonzero, and it is at most 1.  No solution with that property
    is lost, because a search path only increases coordinates: every node
    on the path to a solution (y, e_j) lies below it and has the property
    too.  Anything below such a solution has it as well, so the solutions
    returned are exactly the minimal solutions of the whole system that
    have it.  With counter columns -b_1, ..., -b_m, those with counter j at
    1 give the minimal solutions y of A y = b_j (a nonzero solution of
    A y = 0 below y would leave a smaller one), and those with every
    counter at 0 the minimal nonzero solutions of A y = 0, so one search
    serves m right-hand sides and the homogeneous system.
    """
    k = len(columns)
    free = k - counters
    nrows = len(columns[0]) if k else 0
    zero_val = (0,) * nrows
    minimals = []
    frontier = {}
    for i in range(k):
        unit = tuple(1 if j == i else 0 for j in range(k))
        frontier[unit] = tuple(columns[i])
    while frontier:
        sols = sorted(x for x, v in frontier.items() if v == zero_val)
        minimals.extend(sols)
        nxt = {}
        for x, v in frontier.items():
            if v == zero_val:
                continue
            if _dominates_any(x, minimals):
                continue
            # a node with a counter set grows in the other columns only
            for i in range(free if any(x[free:]) else k):
                col = columns[i]
                if sum(map(mul, v, col)) >= 0:
                    continue
                child = x[:i] + (x[i] + 1,) + x[i + 1:]
                if child in nxt:
                    continue
                if _dominates_any(child, minimals):
                    continue
                nxt[child] = tuple(map(add, v, col))
        frontier = nxt
    return sorted(minimals)


def minimal_natural_solutions(rows, nvars: int) -> list[tuple[int, ...]]:
    """Minimal solutions in N^nvars of the integer system coeffs . x = rhs.

    Homogeneous systems yield the minimal nonzero solutions.  Inhomogeneous
    systems gain one counter column, minus the right-hand side; their
    minimal solutions are exactly the minimal solutions of the counter
    search with the counter at 1.
    """
    checked = []
    for coeffs, rhs in rows:
        checked.append((tuple(_as_int(c) for c in coeffs), _as_int(rhs)))
        if len(checked[-1][0]) != nvars:
            raise InputError("row width does not match the variable count")
    columns = [tuple(coeffs[i] for coeffs, _ in checked) for i in range(nvars)]
    if all(rhs == 0 for _, rhs in checked):
        return _cd_search(columns)
    columns.append(tuple(-rhs for _, rhs in checked))
    return sorted(s[:-1] for s in _cd_search(columns, 1) if s[-1])
