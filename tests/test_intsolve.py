"""Exact integer linear algebra: SNF, Fourier-Motzkin, minimal solutions."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scarf.errors import InputError, InternalError
from scarf.intsolve import (
    EliminationPlan,
    det,
    fm_enumerate_integer,
    identity_matrix,
    matmul,
    matvec,
    minimal_natural_solutions,
    nonzero_cone_direction,
    smith_normal_form,
    verify_snf,
    xgcd,
)


def random_matrix(rng, nr, nc, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(nc)] for _ in range(nr)]


# ---------------------------------------------------------------------------
# scalar and matrix helpers


def test_xgcd_fixtures():
    assert xgcd(12, 18)[0] == 6
    assert xgcd(0, 0) == (0, 1, 0)
    assert xgcd(-4, 6)[0] == 2
    assert xgcd(7, 0)[0] == 7
    assert xgcd(0, -5)[0] == 5


def test_xgcd_bezout_exhaustive():
    for a in range(-30, 31):
        for b in range(-30, 31):
            g, x, y = xgcd(a, b)
            assert g == math.gcd(a, b)
            assert a * x + b * y == g


def test_matrix_helpers():
    assert identity_matrix(3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    A = [[1, 2], [3, 4]]
    B = [[0, 1], [1, 0]]
    assert matmul(A, B) == [[2, 1], [4, 3]]
    assert matvec(A, [1, 1]) == [3, 7]


def test_det_fixtures():
    assert det([[2, 4], [6, 8]]) == -8
    assert det(identity_matrix(4)) == 1
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[5]]) == 5
    with pytest.raises(InputError):
        det([[1, 2, 3], [4, 5, 6]])


def test_det_multiplicative():
    rng = random.Random(401)
    for _ in range(200):
        A = random_matrix(rng, 3, 3, -5, 5)
        B = random_matrix(rng, 3, 3, -5, 5)
        assert det(matmul(A, B)) == det(A) * det(B)


# ---------------------------------------------------------------------------
# Smith normal form


def snf_diag(M):
    _, D, _ = smith_normal_form(M)
    return tuple(D[i][i] for i in range(min(len(D), len(D[0]))))


def test_snf_fixtures():
    assert snf_diag(identity_matrix(2)) == (1, 1)
    assert snf_diag([[2, 4], [6, 8]]) == (2, 4)
    assert snf_diag([[2, 0], [0, 3]]) == (1, 6)
    assert snf_diag([[1, 2], [3, 4]]) == (1, 2)
    assert snf_diag([[2, 4, 6]]) == (2,)
    assert snf_diag([[0, 0], [0, 0]]) == (0, 0)


def test_snf_shapes():
    U, D, V = smith_normal_form([[2, 4, 6]])
    assert D == [[2, 0, 0]]
    assert len(U) == 1 and len(V) == 3
    U, D, V = smith_normal_form([[3], [6], [9]])
    assert [row[0] for row in D] == [3, 0, 0]


def test_snf_random_reverify():
    # every call re-verifies U*M*V = D, divisibility, unimodularity
    rng = random.Random(404)
    for _ in range(300):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 4)
        M = random_matrix(rng, nr, nc)
        U, D, V = smith_normal_form(M)
        diag = [D[i][i] for i in range(min(nr, nc))]
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)


def test_snf_diagonal_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(407)
    for _ in range(120):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        M = random_matrix(rng, nr, nc)
        if rng.random() < 0.3:
            # rank-deficient: repeat a scaled row
            M[-1] = [rng.randint(-2, 2) * x for x in M[0]]
        theirs = sympy_snf(sympy.Matrix(M), domain=sympy.ZZ)
        want = tuple(abs(int(theirs[i, i])) for i in range(min(nr, nc)))
        assert snf_diag(M) == want, M


def test_verify_snf_rejects_tampering():
    M = [[2, 4], [6, 8]]
    U, D, V = smith_normal_form(M)
    bad = [row[:] for row in D]
    bad[0][0] += 1
    with pytest.raises(InternalError):
        verify_snf(M, U, bad, V)
    badU = [row[:] for row in U]
    badU[0] = [2 * x for x in badU[0]]
    with pytest.raises(InternalError):
        verify_snf(M, badU, D, V)


# ---------------------------------------------------------------------------
# Fourier-Motzkin enumeration


def halfplane(coeffs, rhs):
    return (tuple(Fraction(c) for c in coeffs), Fraction(rhs))


def box_rows(n, lo, hi):
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append(halfplane(e, hi))
        rows.append(halfplane([-x for x in e], -lo))
    return rows


def test_fm_enumerate_fixtures():
    square = sorted(fm_enumerate_integer(box_rows(2, 0, 2), 2))
    assert len(square) == 9
    assert square[0] == (0, 0) and square[-1] == (2, 2)

    triangle = box_rows(2, 0, 3) + [halfplane([1, 1], 3)]
    assert len(list(fm_enumerate_integer(triangle, 2))) == 10

    infeasible = [halfplane([1], 0), halfplane([-1], -1)]  # x <= 0 and x >= 1
    assert list(fm_enumerate_integer(infeasible, 1)) == []

    frac = [halfplane([2], 3), halfplane([-1], 0)]  # 0 <= x <= 3/2
    assert sorted(fm_enumerate_integer(frac, 1)) == [(0,), (1,)]

    assert list(fm_enumerate_integer([], 0)) == []


def test_fm_enumerate_matches_scan():
    rng = random.Random(405)
    for _ in range(100):
        n = rng.randint(2, 3)
        rows = box_rows(n, -3, 3)
        for _ in range(rng.randint(0, 3)):
            coeffs = [rng.randint(-2, 2) for _ in range(n)]
            rows.append(halfplane(coeffs, rng.randint(-3, 5)))
        got = set(fm_enumerate_integer(rows, n))
        want = set()
        for vals in itertools.product(range(-3, 4), repeat=n):
            if all(sum(c * v for c, v in zip(coeffs, vals)) <= rhs for coeffs, rhs in rows):
                want.add(vals)
        assert got == want, rows
    # rational coefficients and right-hand sides, up to four variables
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = box_rows(n, -2, 2)
        for _ in range(rng.randint(1, 4)):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
            rows.append(halfplane(coeffs, Fraction(rng.randint(-6, 8), rng.randint(1, 3))))
        got = sorted(fm_enumerate_integer(rows, n))
        want = [vals for vals in itertools.product(range(-2, 3), repeat=n)
                if all(sum(c * v for c, v in zip(coeffs, vals)) <= rhs for coeffs, rhs in rows)]
        assert got == want, rows


@st.composite
def bounded_systems(draw):
    """Integer rows and right-hand sides: a box in Z^n, n <= 3, cut by up to two halfplanes."""
    n = draw(st.integers(1, 3))
    rows, rhs = [], []
    for i in range(n):
        unit = [int(j == i) for j in range(n)]
        rows += [unit, [-x for x in unit]]
        rhs += [draw(st.integers(-1, 3)), draw(st.integers(-1, 3))]
    for _ in range(draw(st.integers(0, 2))):
        rows.append(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        rhs.append(draw(st.integers(-3, 5)))
    return rows, rhs


@given(bounded_systems(), st.integers(1, 40))
def test_plan_points_limit_is_a_prefix(system, limit):
    # the points are generated lazily: a caller that stops early sees a prefix
    rows, rhs = system
    plan = EliminationPlan(rows, len(rows[0]))
    full = list(plan.points(rhs))
    assert full == sorted(set(full))
    assert list(itertools.islice(plan.points(rhs), limit)) == full[:limit]
    assert list(itertools.islice(plan.points(rhs), 0)) == []
    assert list(itertools.islice(plan.points(rhs), len(full))) == full
    assert list(itertools.islice(plan.points(rhs), len(full) + 1)) == full


def test_fm_unbounded_raises():
    rows = [halfplane([-1], 0)]  # x >= 0, no upper bound
    with pytest.raises(InternalError):
        list(fm_enumerate_integer(rows, 1))


# ---------------------------------------------------------------------------
# cone directions


def test_nonzero_cone_direction_fixtures():
    z = nonzero_cone_direction(identity_matrix(2))
    assert z is not None and any(z) and all(x >= 0 for x in z)

    # z, -z >= 0 forces z = 0
    assert nonzero_cone_direction([[1], [-1]]) is None

    z = nonzero_cone_direction([[1, 1], [-1, -1]])
    assert z is not None and any(z) and z[0] + z[1] == 0

    # exact witnesses, as error messages and CLI error documents print them
    assert nonzero_cone_direction([[1, 1], [-1, -1]]) == [1, -1]
    assert nonzero_cone_direction([[2, -1], [-1, 3]]) == [3, 1]
    assert nonzero_cone_direction([[1, -2], [0, 1], [-3, 7]]) == [7, 3]


def test_nonzero_cone_direction_random():
    rng = random.Random(406)
    for _ in range(150):
        nr = rng.randint(1, 3)
        nc = rng.randint(1, 3)
        B = random_matrix(rng, nr, nc, -3, 3)
        z = nonzero_cone_direction(B)
        if z is None:
            # no nonzero direction may hide in a small box either
            for vals in itertools.product(range(-2, 3), repeat=nc):
                if any(vals):
                    img = matvec(B, list(vals))
                    assert not all(x >= 0 for x in img), (B, vals)
        else:
            assert any(z)
            assert all(x >= 0 for x in matvec(B, z))


# ---------------------------------------------------------------------------
# minimal natural solutions


def test_minimal_natural_solutions_fixtures():
    assert minimal_natural_solutions([((1, -1), 0)], 2) == [(1, 1)]
    assert minimal_natural_solutions([((1, 1), 0)], 2) == []
    assert minimal_natural_solutions([((2, -3), 0)], 2) == [(3, 2)]
    assert minimal_natural_solutions([((1, 1, -1), 0)], 3) == [(0, 1, 1), (1, 0, 1)]
    assert minimal_natural_solutions([((1, 1), 2)], 2) == [(0, 2), (1, 1), (2, 0)]
    assert minimal_natural_solutions([((1, -1), 1)], 2) == [(1, 0)]
    assert minimal_natural_solutions([((1, 1), -1)], 2) == []


def test_minimal_natural_solutions_row_width():
    with pytest.raises(InputError):
        minimal_natural_solutions([((1, 2, 3), 0)], 2)


def brute_minimal(rows, nvars, bound):
    sols = []
    for x in itertools.product(range(bound + 1), repeat=nvars):
        if not any(x):
            continue
        if all(sum(c * v for c, v in zip(coeffs, x)) == rhs for coeffs, rhs in rows):
            sols.append(x)
    return [s for s in sols if not any(t != s and all(a <= b for a, b in zip(t, s)) for t in sols)]


def test_minimal_natural_solutions_against_scan():
    rng = random.Random(407)
    bound = 6
    for _ in range(60):
        nvars = rng.randint(2, 3)
        nrows = rng.randint(1, 2)
        homogeneous = rng.random() < 0.5
        rows = []
        for _ in range(nrows):
            coeffs = tuple(rng.randint(-3, 3) for _ in range(nvars))
            rows.append((coeffs, 0 if homogeneous else rng.randint(-2, 4)))
        got = minimal_natural_solutions(rows, nvars)

        for s in got:
            assert any(s)
            assert all(sum(c * v for c, v in zip(coeffs, s)) == rhs for coeffs, rhs in rows)
        for i, s in enumerate(got):
            for j, t in enumerate(got):
                if i != j:
                    assert not all(a <= b for a, b in zip(s, t))

        scan = brute_minimal(rows, nvars, bound)
        inside = [s for s in got if max(s) <= bound]
        # within the box the two minimal sets must agree exactly
        assert sorted(inside) == sorted(
            t for t in scan if not any(all(a <= b for a, b in zip(s, t)) and s != t for s in got)
        )
        for t in scan:
            assert any(all(a <= b for a, b in zip(s, t)) for s in got)
