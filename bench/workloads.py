"""Seeded job lists for the four benchmark workloads.

Each ``*_jobs`` function takes a ``random.Random`` and returns a list of
jobs.  A job is one CLI call: its argv (map files named relative to the work
directory, so the report's digest does not depend on where the checkout
lives), the files it reads, and the facts known from how its inputs were
built.  Why each workload exists, and how the sizes were chosen, is in
README.md.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field
from typing import Optional

import polys

F101 = 101


@dataclass
class Job:
    name: str
    argv: list
    files: dict = dc_field(default_factory=dict)  # file name -> bytes
    exit_code: int = 0
    error: Optional[str] = None  # the stderr "error" kind of an exit-2 job
    facts: dict = dc_field(default_factory=dict)  # report fields known from construction


def map_bytes(field, nvars, components) -> bytes:
    payload = {
        "field": polys.field_json(field),
        "nvars": nvars,
        "polys": [polys.render(field, c) for c in components],
    }
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def _nonzero(rng, field):
    return polys.coerce(field, rng.choice([1, -1, 2, -2, 3, -3]))


def chain_matrix(rng, field, chains):
    """Strictly lower triangular A whose nonzero entries link consecutive
    variables inside each chain; the inverse of x + (Ax)^{*d} then has degree
    d^(longest chain - 1)."""
    n = sum(chains)
    a = [[polys.coerce(field, 0)] * n for _ in range(n)]
    start = 0
    for length in chains:
        for i in range(start + 1, start + length):
            a[i][i - 1] = _nonzero(rng, field)
        start += length
    return a


def cycle_matrix(rng, field, n):
    """A cyclic shift with random weights: x + (Ax)^{*d} is then not a Keller
    map, so it has no polynomial inverse."""
    a = [[polys.coerce(field, 0)] * n for _ in range(n)]
    for i in range(n):
        a[i][(i - 1) % n] = _nonzero(rng, field)
    return a


def unimodular(rng, field, n):
    """S = L U with unit bidiagonal factors: det S = 1, so over Q the inverse
    is integral too.  A fixed band, with entries varied enough not to cancel,
    keeps the term count of the hidden map, and so the job's cost, about the
    same from seed to seed; S of random density put one n=5, d=2 map at
    0.13 s and another past 120 s."""

    def entry(i, j):
        if i == j:
            return polys.coerce(field, 1)
        if abs(i - j) > 1:
            return polys.coerce(field, 0)
        return _nonzero(rng, field)

    lower = [[entry(i, j) if i >= j else polys.coerce(field, 0) for j in range(n)] for i in range(n)]
    upper = [[entry(i, j) if i <= j else polys.coerce(field, 0) for j in range(n)] for i in range(n)]
    return polys.mat_mul(field, lower, upper)


def hidden_power_linear(rng, field, a, d, translate):
    """Components of S^-1 F(S x + s) for F = x + (Ax)^{*d}."""
    n = len(a)
    s_mat = unimodular(rng, field, n)
    s_inv = polys.mat_inverse(field, s_mat)
    shift = [rng.choice([1, -1, 2, -2]) if translate else 0 for _ in range(n)]
    ys = [polys.affine(field, row, c, n) for row, c in zip(s_mat, shift)]
    f = []
    for k in range(n):
        form = polys.add(field, *(polys.scale(field, y, a[k][j]) for j, y in enumerate(ys) if a[k][j]))
        f.append(polys.add(field, ys[k], polys.power(field, form, d, n)))
    return [
        polys.add(field, *(polys.scale(field, f[k], s_inv[i][k]) for k in range(n) if s_inv[i][k]))
        for i in range(n)
    ]


def triangular_inverse_degree(field, a, d) -> int:
    """Degree of the inverse of x + (Ax)^{*d} for strictly lower triangular A,
    by the inductive formula G_i = x_i - (sum_j A_ij G_j)^d."""
    n = len(a)
    gs = []
    for i in range(n):
        form = polys.add(field, *(polys.scale(field, gs[j], a[i][j]) for j in range(i) if a[i][j]))
        gs.append(polys.add(field, polys.variable(field, n, i), polys.scale(field, polys.power(field, form, d, n), -1)))
    return max(polys.degree(g) for g in gs)


def random_map(rng, field, n, deg, nterms):
    """x + (nterms random monomials of degree 2..deg)."""
    comps = []
    for i in range(n):
        extra = {}
        while len(extra) < nterms:
            exps = [0] * n
            for _ in range(rng.randint(2, deg)):
                exps[rng.randrange(n)] += 1
            extra[tuple(exps)] = _nonzero(rng, field)
        comps.append(polys.add(field, polys.variable(field, n, i), extra))
    return comps


# ---- invert-q / invert-fp ------------------------------------------------

# Map shapes: (n, d, chain lengths).  The inverse degree is
# d^(longest chain - 1), 3 or 4, while the default bound d^(n-1) is 8 to 32.
# Longer chains sit on a cliff: see README.md.
SMALL = (4, 3, (2, 1, 1))
MIDDLE = (4, 2, (3, 1))
LARGE_5 = (5, 2, (3, 1, 1))
LARGE_6 = (6, 2, (3, 1, 1, 1))

# (shape, translated) per job, plus one map with no polynomial inverse.  A
# translated map costs about twice as much as the same map untranslated, so
# the middle of the job list is one untranslated shape: a median that fell
# between two cost classes would jump from seed to seed.
INVERT_PLAN = (
    [(SMALL, False), (SMALL, True)] * 2
    + [(MIDDLE, False)] * 14
    + [(MIDDLE, True)] * 3
    + [(LARGE_5, True), (LARGE_6, True)]
)


def invert_jobs(rng, field):
    jobs = []
    for k, ((n, d, chains), translate) in enumerate(INVERT_PLAN):
        a = chain_matrix(rng, field, chains)
        comps = hidden_power_linear(rng, field, a, d, translate)
        name = f"inv{k:02d}.json"
        jobs.append(
            Job(
                name=name,
                argv=["invert", name],
                files={name: map_bytes(field, n, comps)},
                facts={
                    "verdict": "PolynomialInverse",
                    "inverse_degree": triangular_inverse_degree(field, a, d),
                },
            )
        )
    a = cycle_matrix(rng, field, 3)
    name = "noinv.json"
    comps = hidden_power_linear(rng, field, a, 2, False)
    jobs.append(
        Job(
            name=name,
            argv=["invert", name],
            files={name: map_bytes(field, 3, comps)},
            facts={"verdict": "NotPolynomialUpToBound", "inverse_degree": None},
        )
    )
    return jobs


# ---- collide-scan ----------------------------------------------------------

# (n, p, map degree, r) per job.  The middle of the list is one shape, for
# the reason given at INVERT_PLAN; p stays at or below 23 for n = 2 and at
# or below 7 for n = 3, because the line loop grows as p^(2n+1) (README.md).
COLLIDE_PLAN = (
    [(2, 13, 3, 2)] * 4
    + [(3, 5, 2, 2)] * 4
    + [(2, 17, 2, 2)] * 12
    + [(2, 19, 3, 3), (3, 7, 3, 3), (2, 23, 2, 2), (2, 23, 2, 2)]
)


def collide_jobs(rng):
    jobs = []
    for k, (n, p, deg, r) in enumerate(COLLIDE_PLAN):
        comps = random_map(rng, p, n, deg, 2)
        name = f"col{k:02d}.json"
        jobs.append(Job(name=name, argv=["collide", name, "-r", str(r)], files={name: map_bytes(p, n, comps)}))
    return jobs


# ---- cli-short -------------------------------------------------------------


def _matrix_bytes(field, rows) -> bytes:
    return (json.dumps([[polys.render_scalar(field, x) for x in row] for row in rows]) + "\n").encode()


def _scalars(field, values) -> str:
    return ",".join(polys.render_scalar(field, v) for v in values)


def _rank_drop_map(rng, field, n):
    """A degree-2 map that is even along the line through e_1: its
    components restrict to c_i t^2, so it takes equal values at t = a and
    t = -a, and degree list 0,1,2 covers its support."""
    comps = []
    for i in range(n):
        terms = [polys.scale(field, polys.power(field, polys.variable(field, n, 0), 2, n), _nonzero(rng, field))]
        if i > 0:
            terms.append(polys.variable(field, n, i))
            terms.append(polys.scale(field, polys.mul(field, polys.variable(field, n, 0), polys.variable(field, n, i)), _nonzero(rng, field)))
        else:
            terms.append(polys.variable(field, n, n - 1))
        comps.append(polys.add(field, *terms))
    return comps


def short_jobs(rng):
    """39 calls over all ten subcommands.  The reduce, inverse-degree and
    invert jobs, the n=6 keller jobs and the largest collide, 15 in all, take
    0.2 to 0.8 s; the rest are mostly process start.  The tail (the 11th
    slowest job) then falls inside the heavy group, not on its edge."""
    jobs = []
    fields = [None, F101]

    def add_map(prefix, field, n, comps, argv_tail, **expect):
        name = f"{prefix}{len(jobs):02d}.json"
        job = Job(name=name, argv=[argv_tail[0], name, *argv_tail[1:]], files={name: map_bytes(field, n, comps)}, **expect)
        jobs.append(job)

    for k in range(4):
        field, n = fields[k % 2], 4 + k % 3
        comps = hidden_power_linear(rng, field, chain_matrix(rng, field, (2,) * (n // 2) + (1,) * (n % 2)), 2, False)
        add_map("kel", field, n, comps, ["keller"], facts={"keller": True})
    for k in range(2):
        field = fields[k % 2]
        add_map("kel", field, 5, random_map(rng, field, 5, 2, 2), ["keller"])
    for k in range(4):
        field, n = fields[k % 2], 4 + k % 3
        add_map("jac", field, n, random_map(rng, field, n, 3, 2), ["jacobian"])
    for k in range(5):
        field = fields[k % 2]
        # only the first two columns of A are nonzero, so the Jacobian has a
        # constant kernel, r = 2 and the tight bound d^r is 4
        a = chain_matrix(rng, field, (3, 1))
        comps = hidden_power_linear(rng, field, a, 2, k == 4)
        add_map("red", field, 4, comps, ["reduce"])
    for k in range(4):
        field, n = fields[k % 2], 2 + k % 2
        comps = random_map(rng, field, n, 3, 2)
        point = [rng.randint(-3, 3) for _ in range(n)]
        point[0] = point[0] or 1
        add_map("lin", field, n, comps, ["line-check", "--point=" + _scalars(field, point)])
    for k in range(3):
        field, n = fields[k % 2], 2 + k % 2
        comps = _rank_drop_map(rng, field, n)
        a = rng.randint(1, 9)
        direction = _scalars(field, [1] + [0] * (n - 1))
        params = _scalars(field, [a, -a])
        add_map("rdp", field, n, comps, ["rank-drop", "--dir=" + direction, "--params=" + params, "--degrees", "0,1,2"])
    for k in range(3):
        field = fields[k % 2]
        count = 3 + k
        points = rng.sample(range(-20, 21), count)
        degrees = sorted(rng.sample(range(0, 8), count))
        jobs.append(
            Job(
                name=f"van{len(jobs):02d}",
                argv=["vandermonde", "--points=" + _scalars(field, points), "--degrees", ",".join(map(str, degrees)), "--field", polys.field_flag(field)],
            )
        )
    for k in range(3):
        field, n = fields[k % 2], 3 + k % 2
        name = f"drz{len(jobs):02d}.json"
        rows = chain_matrix(rng, field, (n,))
        jobs.append(
            Job(
                name=name,
                argv=["druzkowski", "--matrix", name, "--deg", str(2 + k % 2), "--field", polys.field_flag(field)],
                files={name: _matrix_bytes(field, rows)},
            )
        )
    for k in range(3):
        field, n = fields[k % 2], 3 + k % 2
        a = chain_matrix(rng, field, (3,) + (1,) * (n - 3))
        comps = hidden_power_linear(rng, field, a, 2, k == 1)
        add_map("ideg", field, n, comps, ["inverse-degree"], facts={"degree": triangular_inverse_degree(field, a, 2)})
    comps = hidden_power_linear(rng, None, cycle_matrix(rng, None, 3), 2, False)
    add_map("ideg", None, 3, comps, ["inverse-degree"], exit_code=2, error="NotInvertibleUpToBound")
    for k in range(3):
        field, n = fields[k % 2], 4
        a = chain_matrix(rng, field, (3, 1))
        comps = hidden_power_linear(rng, field, a, 2, k == 2)
        add_map("inv", field, n, comps, ["invert"], facts={"verdict": "PolynomialInverse", "inverse_degree": triangular_inverse_degree(field, a, 2)})
    for k in range(3):
        p = [5, 7, 11][k]
        add_map("col", p, 2, random_map(rng, p, 2, 2, 2), ["collide", "-r", "2"])
    add_map("col", 11, 3, random_map(rng, 11, 3, 2, 2), ["collide", "-r", "2", "--budget", "1000"], exit_code=2, error="BudgetExceeded")
    return jobs


def build(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "invert-q":
        return invert_jobs(rng, None)
    if workload == "invert-fp":
        return invert_jobs(rng, F101)
    if workload == "collide-scan":
        return collide_jobs(rng)
    if workload == "cli-short":
        return short_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("invert-q", "invert-fp", "collide-scan", "cli-short")
