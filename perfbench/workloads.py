"""Seeded job lists for the two benchmark workloads.

A workload is a list of fixed jobs followed by a given number of rounds.
Every round has the same composition (subcommands, flags and input sizes)
and draws only the content of its documents from the seed, so the cost of a
run depends little on the seed.  No input document repeats within a run,
which keeps a cache that outlives one job from passing for a per-job
speed-up; the CLI runs one job per process.

The generators use only the standard library: the program sees nothing but
the generated documents and flags.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb
from typing import Iterator


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``scarf <subcommand> <doc file> <flags> --format structured``.

    ``oracle`` asks the checks to recompute the answer with a brute-force
    oracle; ``f_vector`` is the expected f-vector when it is known in closed
    form (sets where every subset is a face).
    """

    id: str
    subcommand: str
    doc: dict
    flags: tuple[str, ...] = ()
    oracle: bool = False
    f_vector: tuple[int, ...] = ()


# ---------------------------------------------------------------------------
# lattice
#
# Why: diophantine, intsolve, periodic and complexes do nearly all the work
# here.  Certified jobs (--auto-dmax) double the depth and, for quotients,
# rerun per coset; the fixed-depth jobs skip both, so a doubling or
# cross-coset optimisation has a bypass case in the same workload.

# The four configurations of the acceptance test, as named jobs.
ACCEPTANCE_LATTICES = (
    ("ker(1,1,1)", [[1, -1, 0], [0, 1, -1]], [[0, 0, 0]]),
    ("ker(1,1,1)+e1", [[1, -1, 0], [0, 1, -1]], [[0, 0, 0], [1, 0, 0]]),
    ("ker(1,2,3)", [[2, -1, 0], [3, 0, -1]], [[0, 0, 0]]),
    ("ker(1,2,3)+e1", [[2, -1, 0], [3, 0, -1]], [[0, 0, 0], [1, 0, 0]]),
)

# The family is ker(x) for x a coordinate permutation of (1, b, c) with
# b <= c <= 6, minus the heavy tail c >= 4b: on this family certified
# single-coset stars take 0.2-1.5 s, while ker(1,1,4)+e1 takes about 60 s
# for a certified star.  Certified jobs use one coset; fixed-depth jobs use
# two.  Z^3 / ker(x) is Z through v -> x.v, so the second coset is named by
# its residue r = x.v, with v some e_i or e_i + e_j.
_MAX_COEFF = 6
_ACCEPTANCE_SETS = {((1, 1, 1), None), ((1, 1, 1), 1), ((1, 2, 3), None), ((1, 2, 3), 1)}


def _kernel_basis(x: tuple[int, int, int]) -> list[list[int]]:
    """Basis columns e_q - x_q e_p of ker(x), where x_p = 1."""
    p = x.index(1)
    cols = []
    for q in range(3):
        if q != p:
            col = [0, 0, 0]
            col[q] = 1
            col[p] = -x[q]
            cols.append(col)
    return cols


class _Family:
    """Periodic sets of the family in a fixed sequence of shapes.

    A shape is (b, c, r): ker of a permutation x of (1, b, c), alone when r
    is None, else with the coset of residue r.  Shapes come in a fixed
    cyclic order, so the mix of costs in a run does not depend on the seed;
    the seed draws the coordinate permutation, without replacement per
    shape.  Sets repeat only after every permutation of a shape has been
    used, that is after three passes over the shapes, which at this commit
    is about twice the jobs one run makes.  The acceptance sets are left out.
    """

    def __init__(self, rng: random.Random, two_cosets: bool):
        self.rng = rng
        self.shapes = [(b, c, r) for b in range(1, _MAX_COEFF + 1)
                       for c in range(b, min(4 * b, _MAX_COEFF + 1))
                       for r in (sorted({1, b, c, 1 + b, 1 + c, b + c})
                                 if two_cosets else (None,))
                       if _permutations((b, c, r))]
        self.unused: dict[tuple, list] = {shape: [] for shape in self.shapes}
        self.dealt = 0

    def deal(self) -> tuple[tuple[int, int, int], int | None]:
        shape = self.shapes[self.dealt % len(self.shapes)]
        self.dealt += 1
        unused = self.unused[shape]
        if not unused:
            unused.extend(_permutations(shape))
        return unused.pop(self.rng.randrange(len(unused))), shape[2]


def _permutations(shape) -> list[tuple[int, int, int]]:
    b, c, r = shape
    return [x for x in sorted(set(itertools.permutations((1, b, c))))
            if (x, r) not in _ACCEPTANCE_SETS]


def _lattice_point(rng: random.Random, cols, base, spread: int) -> list[int]:
    t = [rng.randint(-spread, spread) for _ in cols]
    return [base[i] + sum(tj * col[i] for tj, col in zip(t, cols)) for i in range(3)]


def _periodic_doc(rng: random.Random, x, r) -> tuple[dict, list[list[int]]]:
    """Document for the set (x, r), with seed-drawn coset representatives.

    Returns the document and one representative per coset.
    """
    cols = _kernel_basis(x)
    bases = [[0, 0, 0]]
    if r is not None:
        bases.append(next([int(i in idx) for i in range(3)]
                          for size in (1, 2) for idx in itertools.combinations(range(3), size)
                          if sum(x[i] for i in idx) == r))
    reps = [_lattice_point(rng, cols, b, 2) for b in bases]
    return {"basis": cols, "cosets": reps}, reps


def _vertex_flag(rng: random.Random, x, reps) -> tuple[str]:
    # one token: a value such as "-3,1,0" would otherwise parse as an option
    v = _lattice_point(rng, _kernel_basis(x), rng.choice(reps), 3)
    return ("--vertex=" + ",".join(map(str, v)),)


# (subcommand, depth flags, two cosets) per slot of a lattice round
_LATTICE_ROUND = (
    ("quotient", ("--auto-dmax",), False),
    ("lattice-star", ("--auto-dmax",), False),
    ("lattice-neighbors", ("--dmax", "2"), True),
    ("lattice-neighbors", ("--dmax", "2"), True),
    ("lattice-neighbors", ("--dmax", "2"), True),
    ("lattice-star", ("--dmax", "2"), True),
    ("lattice-star", ("--dmax", "2"), True),
    ("lattice-star", ("--dmax", "2"), True),
    ("lattice-star", ("--dmax", "3"), True),
)


def lattice_jobs(seed: int, rounds: int) -> list[Job]:
    jobs = [Job(f"star:{name}", "lattice-star", {"basis": basis, "cosets": cosets},
                ("--auto-dmax",), oracle=True)
            for name, basis, cosets in ACCEPTANCE_LATTICES]
    rng = random.Random(seed)
    single, double = _Family(rng, False), _Family(rng, True)
    for rnd in range(rounds):
        for slot, (sub, depth, two) in enumerate(_LATTICE_ROUND):
            x, r = (double if two else single).deal()
            doc, reps = _periodic_doc(rng, x, r)
            flags = depth if sub == "quotient" else depth + _vertex_flag(rng, x, reps)
            name = "ker(%d,%d,%d)" % x + ("" if r is None else f"+r{r}")
            jobs.append(Job(f"r{rnd}.{slot}:{sub}:{name}", sub, doc, flags,
                            oracle=sub != "quotient" and rng.random() < 0.03125))
    return jobs


# ---------------------------------------------------------------------------
# finite
#
# Why: the finite layer used two ways, in one workload.  Sparse jobs
# (antichains, resolutions, posets) are dominated by queries: most candidate
# faces are rejected (under cProfile, 97% of build_resolution is
# strict_dominator calls), output is small, and posets and resolution do
# their work only here.  Dense jobs (every subset a face) have an accept
# ratio of 1 and cheap queries over few points, and formats carries about a
# third of their time rendering megabytes of JSON.  A query speed-up should
# move the sparse jobs and barely the dense ones; an output or
# face-construction change the reverse.  The per-job records keep the two
# apart.  Dense sizes stay at 2^10-2^12 faces, plus the 2^14 case as a
# fixed job, so a run holds enough jobs for a tail percentile.  The
# 18-point case (58 s, 138 MB of JSON) is a known defect left out of scope.

def _generic_antichain(rng: random.Random, m: int) -> list[list[int]]:
    """m points of the plane x + y + z = 2*span in N^3 with all coordinates distinct.

    Points of one plane form an antichain, and distinct values on every axis
    make the set generic.
    """
    span = 10 * m
    while True:
        xs = rng.sample(range(1, span), m)
        ys = rng.sample(range(1, span), m)
        zs = [2 * span - x - y for x, y in zip(xs, ys)]
        if len(set(zs)) == m:
            return [[x, y, z] for x, y, z in zip(xs, ys, zs)]


def _rational(rng: random.Random, pts: list[list[int]]) -> list[list]:
    """The same order type with "p/q" coordinates: axis i is divided by q_i."""
    qs = [rng.randint(2, 9) for _ in range(3)]
    return [[f"{c}/{q}" for c, q in zip(p, qs)] for p in pts]


def _full_simplex(rng: random.Random, m: int, dim: int) -> list[list]:
    """m points sharing their last coordinate: every subset is a face.

    In two dimensions they are collinear with rational x; in three they lie
    in a horizontal plane with integer x and y.
    """
    last = rng.randint(0, 99)
    xs = rng.sample(range(1, 1000), m)
    if dim == 2:
        q = rng.randint(2, 9)
        return [[f"{x}/{q}", last] for x in xs]
    return [[x, rng.randint(0, 99), last] for x in xs]


def _simplex_f_vector(m: int) -> tuple[int, ...]:
    return tuple(comb(m, k + 1) for k in range(m))


def _sparse_round(rng: random.Random, rnd: int) -> Iterator[Job]:
    # Sizes are fixed per slot: resolution time grows like m^2.8 and the
    # downset filter like n^2, so drawing sizes would make the seed set the cost.
    for slot in range(2):
        yield Job(f"r{rnd}.s{slot}:scarf-resolve:m30", "scarf-resolve",
                  {"points": _generic_antichain(rng, 30)})
    yield Job(f"r{rnd}.s2:finite-nb:m12", "finite-nb",
              {"points": _rational(rng, _generic_antichain(rng, 12))},
              ("--generic-mode", "definition"), oracle=rng.random() < 0.34)
    nb_pts = _rational(rng, _generic_antichain(rng, 12))
    yield Job(f"r{rnd}.s3:finite-nb:m12:vertex", "finite-nb", {"points": nb_pts},
              ("--vertex=" + ",".join(rng.choice(nb_pts)),), oracle=True)
    yield Job(f"r{rnd}.s4:generic-check:m24", "generic-check",
              {"points": _rational(rng, _generic_antichain(rng, 24))},
              ("--generic-mode", "both"))
    dim = 4
    pts: set = set()
    while len(pts) < 800:
        pts.add(tuple(rng.randint(0, 30) for _ in range(dim)))
    flags = ("--k", "3")
    if rng.random() < 0.5:
        # one token, as a leading "-" would otherwise parse as an option
        flags += ("--orthant=" + "".join(rng.choice("+-") for _ in range(dim)),)
    yield Job(f"r{rnd}.s5:layers:n800", "layers",
              {"points": [list(p) for p in sorted(pts)]}, flags)


# Six 10-point jobs cost about what a 30-point resolution costs, so with the
# resolutions they form one cost cluster of nine jobs a round, and the
# median job of a run falls inside it.  Three 12-point jobs a round form
# the top cluster, so the tail percentile falls among them, about two
# thirds of the way up, rather than at the edge of a cluster.  Large
# clusters drift less from run to run than clusters of a few jobs.
_DENSE_ROUND = ((10, 2),) * 6 + ((12, 3),) * 3


def _dense_round(rng: random.Random, rnd: int) -> Iterator[Job]:
    for slot, (m, dim) in enumerate(_DENSE_ROUND):
        yield Job(f"r{rnd}.d{slot}:finite-nb:m{m}d{dim}", "finite-nb",
                  {"points": _full_simplex(rng, m, dim)},
                  f_vector=_simplex_f_vector(m), oracle=m == 10 and rng.random() < 0.1)


# The roadmap's m = 100 build_resolution case, identical in every run.
ANTICHAIN_100_SEED = 100


def finite_jobs(seed: int, rounds: int) -> list[Job]:
    pts = _generic_antichain(random.Random(ANTICHAIN_100_SEED), 100)
    jobs = [Job("resolve:antichain100", "scarf-resolve", {"points": pts}),
            Job("finite-nb:collinear14", "finite-nb",
                {"points": [[i, 0] for i in range(14)]}, f_vector=_simplex_f_vector(14))]
    rng = random.Random(seed)
    for rnd in range(rounds):
        jobs += _sparse_round(rng, rnd)
        jobs += _dense_round(rng, rnd)
    return jobs


WORKLOADS = {
    "lattice": lattice_jobs,
    "finite": finite_jobs,
}
