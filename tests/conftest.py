"""Shared test helpers: parse shortcuts, seeded random generators, and
independent oracles (permutation-expansion determinants, brute-force rank)
used to cross-check the elimination-based implementations."""

import itertools
import random

from kellerlab import (
    CollisionWitness,
    Matrix,
    MPoly,
    PolyMap,
    PolyMatrix,
    TheoremViolation,
    UniPoly,
    find_rank_drop,
    generalized_vandermonde,
    parse,
)
from kellerlab.errors import PreconditionFailed


def P(text, nvars, field):
    return parse(text, nvars, field)


def pmap(field, nvars, *texts):
    return PolyMap(field, nvars, [parse(t, nvars, field) for t in texts])


def doubled_inverse(inverse):
    """Fault injection: a Matrix.inverse that returns twice the true inverse."""

    def wrong(self):
        return Matrix(self.field, [[2 * e for e in row] for row in inverse(self).rows])

    return wrong


def transposed_jacobian(jacobian):
    """Fault injection: a PolyMap.jacobian that returns the transpose.  The
    determinant, and so the Keller verdict, is unchanged; J^T b need not
    vanish where J b does."""

    def wrong(self):
        grid = jacobian(self).grid
        return PolyMatrix(self.field, self.n, list(zip(*grid)))

    return wrong


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def perm_det(matrix):
    """Permutation-expansion determinant; independent of elimination."""
    n = matrix.nrows
    field = matrix.field
    total = field.zero
    for perm in itertools.permutations(range(n)):
        prod = field.one
        for i, j in enumerate(perm):
            prod = prod * matrix.rows[i][j]
        total = total + (prod if perm_sign(perm) > 0 else -prod)
    return total


def brute_rank(matrix):
    """Largest size of a square submatrix with nonzero permutation det."""
    best = 0
    field = matrix.field
    for k in range(1, min(matrix.nrows, matrix.ncols) + 1):
        for rows in itertools.combinations(range(matrix.nrows), k):
            for cols in itertools.combinations(range(matrix.ncols), k):
                sub = Matrix(field, [[matrix.rows[i][j] for j in cols] for i in rows])
                if perm_det(sub) != field.zero:
                    best = k
                    break
            if best == k:
                break
    return best


def random_scalar(rng, field, span=5):
    return field.coerce(rng.randint(-span, span))


def random_matrix(rng, field, nrows, ncols, span=5):
    return Matrix(
        field,
        [[random_scalar(rng, field, span) for _ in range(ncols)] for _ in range(nrows)],
        ncols=ncols,
    )


def random_mpoly(rng, field, nvars, max_deg=3, max_terms=4, span=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * nvars
        budget = rng.randint(0, max_deg)
        for _ in range(budget):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = rng.randint(-span, span)
    return MPoly(field, nvars, terms)


def naive_product(a, b, max_degree=None):
    """Tuple-keyed convolution with field arithmetic: the reference for the
    packed kernel behind ``*``."""
    acc = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            if max_degree is None or sum(key) <= max_degree:
                acc[key] = acc.get(key, a.field.zero) + c1 * c2
    return MPoly(a.field, a.nvars, acc)


def naive_substitute(poly, images, max_degree=None):
    """Term-by-term composition built on ``naive_product``: the reference
    for ``MPoly.substitute``."""
    tgt = images[0]
    total = MPoly.zero(tgt.field, tgt.nvars)
    for exps, c in poly.terms.items():
        term = MPoly.constant(tgt.field, tgt.nvars, c)
        for image, e in zip(images, exps):
            for _ in range(e):
                term = naive_product(term, image, max_degree)
        total = total + term
    if max_degree is not None:
        kept = {e: c for e, c in total.terms.items() if sum(e) <= max_degree}
        total = MPoly(tgt.field, tgt.nvars, kept)
    return total


def _naive_term(term, vals, exps):
    for x, e in zip(vals, exps):
        for _ in range(e):
            term = term * x
    return term


def naive_evaluate(poly, point):
    """Term-by-term evaluation by repeated multiplication of field
    elements: the reference for ``MPoly.evaluate``."""
    vals = [poly.field.coerce(x) for x in point]
    total = poly.field.zero
    for exps, c in poly.terms.items():
        total = total + _naive_term(c, vals, exps)
    return total


def naive_restrict_to_line(poly, direction):
    """``t -> poly(t * direction)`` collected degree by degree with field
    elements: the reference for ``MPoly.restrict_to_line``."""
    field = poly.field
    b = [field.coerce(x) for x in direction]
    coeffs = [field.zero] * (poly.degree() + 1)
    for exps, c in poly.terms.items():
        coeffs[sum(exps)] = coeffs[sum(exps)] + _naive_term(c, b, exps)
    return UniPoly(field, coeffs)


def naive_collision_search(polymap, r):
    """Every-base line loop: builds each line at all p of its points and
    keeps it only at its lexicographically smallest one.  The order-exact
    reference for ``collision_search`` (argument checks left out)."""
    field = polymap.field
    p, n = field.p, polymap.n
    points = list(itertools.product(range(p), repeat=n))
    table = {pt: polymap.evaluate(pt) for pt in points}
    directions = [
        b for b in points if any(b) and b[next(k for k in range(n) if b[k])] == 1
    ]
    det_nonconstant = not polymap.is_keller()
    map_degree = polymap.degree()
    degrees = tuple(range(r + 1))
    witnesses = []
    for base in points:
        for b in directions:
            line_pts = [tuple((base[k] + t * b[k]) % p for k in range(n)) for t in range(p)]
            if min(line_pts) != base:
                continue
            groups: dict = {}
            for t, pt in enumerate(line_pts):
                groups.setdefault(table[pt], []).append(t)
            for ts in groups.values():
                if len(ts) < r:
                    continue
                sel = ts[:r]
                origin = line_pts[sel[0]]
                params = tuple(field.coerce(t - sel[0]) for t in sel)
                vandermonde = generalized_vandermonde(field, params, degrees[:r])
                translated = polymap.translate([field.coerce(c) for c in origin])
                try:
                    drop = find_rank_drop(translated, b, params, degrees)
                    drop_value = drop.value
                except PreconditionFailed:
                    drop_value = None
                witness = CollisionWitness(
                    b=tuple(field.coerce(c) for c in b),
                    base=tuple(field.coerce(c) for c in origin),
                    params=params,
                    degrees=degrees,
                    vandermonde_rank=vandermonde.rank(),
                    rank_drop_param=drop_value,
                    det_jac_nonconstant=det_nonconstant,
                )
                if r >= map_degree and r % p != 0 and not det_nonconstant:
                    raise TheoremViolation(
                        "collision witness against a map with unit Jacobian "
                        f"determinant (r = {r}, degree {map_degree})"
                    )
                witnesses.append(witness)
    return witnesses


def rng_for(name):
    return random.Random(f"kellerlab:{name}")
