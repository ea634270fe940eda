"""Shared test helpers: parse shortcuts, seeded random generators, and
independent oracles (permutation-expansion determinants, brute-force rank)
used to cross-check the elimination-based implementations."""

import itertools
import random

from kellerlab import Matrix, MPoly, PolyMap, parse


def P(text, nvars, field):
    return parse(text, nvars, field)


def pmap(field, nvars, *texts):
    return PolyMap(field, nvars, [parse(t, nvars, field) for t in texts])


def doubled_inverse(inverse):
    """Fault injection: a Matrix.inverse that returns twice the true inverse."""

    def wrong(self):
        return Matrix(self.field, [[2 * e for e in row] for row in inverse(self).rows])

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


def rng_for(name):
    return random.Random(f"kellerlab:{name}")
