"""Integer-lattice utilities for quotient enumeration.

The matrix family reduces modulo sublattices A*Z^d.  A column-style Hermite
normal form H (lower triangular, positive diagonal, H*Z^d = A*Z^d) turns the
quotient Z^d / A*Z^d into the box  prod_i [0, h_ii),  which gives canonical
representatives and an exact count equal to |det A|.

Reduction works on batches in column layout: d lists of integers, list i
holding coordinate i of every vector in the batch.  ``hnf_reduce_columns``
subtracts integer multiples of the HNF's columns top row first, as in the
reduction modulo an HNF basis of Cohen, GTM 138, section 2.4.  Each
coordinate costs one list comprehension over the batch, plus one per
nonzero entry below the diagonal of H.  ``hnf_reduce`` is a batch of one.
"""

from __future__ import annotations

import math
from fractions import Fraction


def int_det(mat) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)]
        for i in range(n)
    ]


def mat_vec(a, v):
    n = len(v)
    out = []
    for i in range(len(a)):
        row = a[i]
        acc = None
        for k in range(n):
            if row[k]:
                term = row[k] * v[k]
                acc = term if acc is None else acc + term
        out.append(acc if acc is not None else 0 * v[0])
    return tuple(out)


def mat_pow(a, e: int):
    n = len(a)
    result = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = [row[:] for row in a]
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def mat_inv(a):
    """Exact inverse of an integer (or rational) matrix, as Fractions."""
    n = len(a)
    aug = [
        [Fraction(a[i][j]) for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def hermite_normal_form(mat):
    """Column HNF of a nonsingular integer matrix.

    Returns H, lower triangular with positive diagonal, whose columns span
    the same lattice as the columns of `mat`.
    """
    h = [list(map(int, row)) for row in mat]
    n = len(h)
    for i in range(n):
        # Clear row i to the right of the pivot with gcd column steps.
        for j in range(i + 1, n):
            while h[i][j] != 0:
                if h[i][i] == 0:
                    for r in range(n):
                        h[r][i], h[r][j] = h[r][j], h[r][i]
                    continue
                q = h[i][j] // h[i][i]
                for r in range(n):
                    h[r][j] -= q * h[r][i]
                if h[i][j] != 0:
                    for r in range(n):
                        h[r][i], h[r][j] = h[r][j], h[r][i]
        if h[i][i] == 0:
            raise ZeroDivisionError("matrix is singular")
        if h[i][i] < 0:
            for r in range(n):
                h[r][i] = -h[r][i]
    return h


def in_hnf_box(h, v) -> bool:
    """Whether v is a tuple of Fractions with 0 <= v_i < h_ii for every i.

    These are exactly the fixed points of ``hnf_reduce`` (see
    ``iter_hnf_box``) that already have its output types.  Integer
    comparisons only: no Fraction is built.
    """
    if type(v) is not tuple or len(v) != len(h):
        return False
    for i, x in enumerate(v):
        if type(x) is not Fraction or not 0 <= x.numerator < h[i][i] * x.denominator:
            return False
    return True


def hnf_reduce(h, v):
    """Canonical representative of a rational vector modulo the HNF lattice.

    ``hnf_reduce_columns`` on a batch of one: the numerators of v over their
    common denominator, reduced by h scaled by it.  Exact.  Canonical
    input, a tuple of Fractions already in the box, is returned unchanged
    (the same object); any other input comes back as a new tuple of
    Fractions.
    """
    if in_hnf_box(h, v):
        return v
    x = [Fraction(c) for c in v]
    den = math.lcm(*(c.denominator for c in x))
    scaled = [[den * c for c in row] for row in h]
    cols = hnf_reduce_columns(scaled, [[c.numerator * (den // c.denominator)] for c in x])
    return tuple(Fraction(col[0], den) for col in cols)


def hnf_reduce_columns(h, cols):
    """The box representatives of a batch of integer vectors modulo the
    lattice of h, in column layout: cols[i] lists coordinate i of every
    vector, and the result is a new list of d such lists, the vectors in
    the same order.  The input lists are not changed.  In numerators over
    den, this reduces y/den modulo the lattice of h/den, for any den.

    Coordinates are done top row first, each in one step: coordinate i is
    taken mod h_ii, and its floor quotients q = y_i // h_ii take q*h_ri off
    coordinate r for each r > i with h_ri nonzero.  A coordinate whose
    entries all lie in [0, h_ii) has every quotient zero and is skipped.
    """
    cols = list(cols)
    n = len(cols)
    for i in range(n):
        col = cols[i]
        d = h[i][i]
        if not col or (min(col) >= 0 and max(col) < d):
            continue
        below = [(r, h[r][i]) for r in range(i + 1, n) if h[r][i]]
        if below:
            qs = [c // d for c in col]
            for r, hr in below:
                cols[r] = [c - q * hr for c, q in zip(cols[r], qs)]
        cols[i] = [c % d for c in col]
    return cols


def hnf_box_count(h) -> int:
    out = 1
    for i in range(len(h)):
        out *= h[i][i]
    return out


def iter_hnf_box(h):
    """Canonical integer representatives of Z^d modulo the HNF lattice.

    Yields exactly hnf_box_count(h) tuples of ints.  Box vectors are fixed
    points of the reduction: it walks coordinates top-down and each
    quotient against the positive diagonal vanishes on [0, h_ii).
    """
    n = len(h)
    diag = [h[i][i] for i in range(n)]

    def rec(i, prefix):
        if i == n:
            yield tuple(prefix)
            return
        for c in range(diag[i]):
            yield from rec(i + 1, prefix + [c])

    yield from rec(0, [])
