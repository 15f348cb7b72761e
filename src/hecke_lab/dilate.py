"""Symbolic minimal unitary dilation of an isometric semigroup part.

A dilation vector is a finite combination of blocks (s, h): the block (s, h)
stands for U_s* h, where h lives in the original carrier and U is the
dilating unitary group.  All structure is Ore-reduced back onto the
original representation:

* inner:   <(s,h), (t,k)> = <V_u h, V_v k> = <V_v* h, V_u* k>  with u*s = v*t
           the least pair, for which V_v* V_u = V_u V_v* (see ``repspace``);
* U_r:     (s,h) -> (a, V_b h)  with (a,b) the least pair for a*r = b*s;
* U_r*:    (s,h) -> (s*r, h);
* W_n:     (s,h) -> (s, Y_[psi_s(n)] h).

Vector equality means distance zero under the induced form: the symbol
space is a quotient by the Gram kernel, e.g. (t*s, V_t h) is the same
vector as (s, h).

Gram positivity and restriction-compression need dense linear algebra on
small Gram matrices (tens of rows).  Both routines are pure Python, because
an array library's import would cost every process, including the many
that never build a Gram matrix, about 13 MB of resident memory and 0.1 s
of start-up:

* ``_hermitian_eigenvalues``, cyclic Jacobi for Hermitian matrices (Golub
  and Van Loan, *Matrix Computations*, 8.5), stops once the off-diagonal
  Frobenius norm is at most 1e-13 * max(1, max |a_ii|); by Weyl's
  inequality that bounds the error of every eigenvalue;
* ``_ldl_pivoted`` factors a positive semidefinite matrix as L D L^H with
  diagonal pivoting (Higham, *Accuracy and Stability of Numerical
  Algorithms*, 10.3) and ends at the first pivot at most n * eps times the
  largest diagonal entry; ``_ldl_solve`` solves from that one factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
import math
import sys

from .errors import ConfigError
from .pairs import PairFamily
from .repspace import CovariantRep, SparseVector

_EMPTY = SparseVector({})

# The most vectors ``gram_min_eigenvalue`` accepts: Jacobi's cost grows as
# n^3, about 0.5 s at 64 vectors.
GRAM_CAP = 64


@dataclass(frozen=True, eq=False)
class DilationVector:
    """Blocks keyed by semigroup level: {s: h} stands for sum of U_s* h."""

    blocks: dict = field(default_factory=dict)

    @staticmethod
    def symbol(s, h: SparseVector) -> "DilationVector":
        return DilationVector({s: h})

    @staticmethod
    def build(pairs) -> "DilationVector":
        """Sum the blocks level by level: the blocks of one level are
        merged by one ``SparseVector.sum``, in the order given, and levels
        whose sum is empty are dropped."""
        levels: dict = {}
        for s, h in pairs:
            levels.setdefault(s, []).append(h)
        out = {}
        for s, hs in levels.items():
            h = hs[0] if len(hs) == 1 else SparseVector.sum(hs)
            if h:
                out[s] = h
        return DilationVector(out)

    def __add__(self, other):
        return DilationVector.build(chain(self.blocks.items(), other.blocks.items()))

    def __sub__(self, other):
        """Level by level with the one-pass ``SparseVector`` difference, in
        ``build``'s level order; levels whose difference is empty are dropped."""
        out = dict(self.blocks)
        for s, h in other.blocks.items():
            out[s] = out.get(s, _EMPTY) - h
        return DilationVector({s: h for s, h in out.items() if h})

    def scale(self, c) -> "DilationVector":
        return DilationVector.build((s, h.scale(c)) for s, h in self.blocks.items())

    def map_blocks(self, fn) -> "DilationVector":
        return DilationVector.build((s, fn(s, h)) for s, h in self.blocks.items())


class Dilation:
    """The dilation space attached to one covariant representation."""

    def __init__(self, rep: CovariantRep):
        self.rep = rep
        self.family: PairFamily = rep.family

    # -- the pre-Hilbert structure -----------------------------------------

    def embed(self, h: SparseVector) -> DilationVector:
        """The original carrier sits inside as the identity-level block."""
        return DilationVector.symbol(self.family.s_identity, h)

    def inner(self, v: DilationVector, w: DilationVector) -> complex:
        return self._inner(v, w, self.rep.apply_Vstar)

    def _inner(self, v: DilationVector, w: DilationVector, adjoint) -> complex:
        """The form, with ``adjoint(u, h)`` = V_u* h: each pair of blocks
        gives <V_u h, V_v k> = <V_v* h, V_u* k> for the least pair
        u*s = v*t, so no vector is lifted to the join level, whose cap is
        still enforced."""
        fam = self.family
        total = 0j
        for s, h in v.blocks.items():
            for t, k in w.blocks.items():
                u, vv = fam.ore_pair(s, t)
                fam.require_level(fam.s_mul(u, s))
                total += adjoint(vv, h).inner(adjoint(u, k))
        return total

    def raise_blocks(self, v: DilationVector) -> DilationVector:
        """Canonical form: one block at the join level, using the
        identification of (s, h) with (t*s, V_t h).

        Equal vectors raise to coefficientwise equal blocks, which keeps
        norms of differences numerically honest.
        """
        fam = self.family
        if len(v.blocks) <= 1:
            return v
        levels = list(v.blocks)
        top = levels[0]
        for s in levels[1:]:
            top = fam.s_join(top, s)
        fam.require_level(top)
        total = SparseVector.sum(
            self.rep.apply_V(fam.s_divide(top, s), h) for s, h in v.blocks.items()
        )
        return DilationVector.symbol(top, total)

    def norm(self, v: DilationVector) -> float:
        raised = self.raise_blocks(v)
        if not raised.blocks:
            return 0.0
        (_, h), = raised.blocks.items()
        return h.norm()

    def distance(self, v: DilationVector, w: DilationVector) -> float:
        """``norm(v - w)``; two one-block vectors at the same level take the
        carrier's ``SparseVector.distance``, which equals it bit for bit."""
        if len(v.blocks) == 1 and v.blocks.keys() == w.blocks.keys():
            (s, h), = v.blocks.items()
            return h.distance(w.blocks[s])
        return self.norm(v - w)

    def gram(self, vectors) -> list:
        """The matrix of ``inner`` over vectors, as a list of rows of
        ``complex``; each V_u* h is computed once per call, not once per
        pair."""
        adjoints = {}

        def adjoint(u, h):
            key = (u, id(h))
            out = adjoints.get(key)
            if out is None:
                out = adjoints[key] = self.rep.apply_Vstar(u, h)
            return out

        n = len(vectors)
        g = [[0j] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                val = self._inner(vectors[i], vectors[j], adjoint)
                g[i][j] = val
                g[j][i] = val.conjugate() if i != j else val
        return g

    def gram_min_eigenvalue(self, vectors) -> float:
        if len(vectors) > GRAM_CAP:
            raise ConfigError(f"Gram computations are capped at {GRAM_CAP} vectors")
        return min(_hermitian_eigenvalues(self.gram(vectors)))

    # -- the unitary group ----------------------------------------------------

    def apply_Ustar(self, r, v: DilationVector) -> DilationVector:
        fam = self.family
        fam.validate_s(r)
        out = []
        for s, h in v.blocks.items():
            deeper = fam.s_mul(s, r)
            fam.require_level(deeper)
            out.append((deeper, h))
        return DilationVector.build(out)

    def apply_Us(self, r, v: DilationVector) -> DilationVector:
        """U_r for r in the semigroup."""
        fam = self.family
        fam.validate_s(r)
        out = []
        for s, h in v.blocks.items():
            a, b = fam.ore_pair(r, s)
            fam.require_level(fam.s_mul(a, r))
            out.append((a, self.rep.apply_V(b, h)))
        return DilationVector.build(out)

    def apply_U(self, g, v: DilationVector) -> DilationVector:
        """U_g for g = s^-1 t in the enveloping group."""
        fam = self.family
        s, t = fam.g_reduce(g)
        out = v
        if t != fam.s_identity:
            out = self.apply_Us(t, out)
        if s != fam.s_identity:
            out = self.apply_Ustar(s, out)
        return out

    # -- the dilated unitaries over N -----------------------------------------

    def apply_W(self, n, v: DilationVector) -> DilationVector:
        fam = self.family
        return v.map_blocks(
            lambda s, h: self.rep.apply_Y(fam.canon(fam.psi_s(s, n)), h)
        )

    def project_block(self, s, h: SparseVector) -> SparseVector:
        """Carrier of the projection of the block (s, h) onto the fixed
        space of the subgroup unitaries: the average of the translations
        of h by ``solve_coset(s, 0)``, which covariance at n = 0 makes
        V_s V_s* h."""
        return self.rep.apply_V(s, self.rep.apply_Vstar(s, h))

    def project_fixed(self, v: DilationVector) -> DilationVector:
        return DilationVector.build((s, self.project_block(s, h)) for s, h in v.blocks.items())


@dataclass(frozen=True)
class CompressedRep:
    """The covariant pair recovered from a dilation by restricting the
    unitaries to the fixed space and compressing:

        Y_n = W_n,   V_s = U_s,   V_s* = P U_s*,

    with P the fixed-space projection.  ``excess_residuals`` lists the
    distances by which a truncated fixed space exceeds the embedded carrier,
    when ``restrict_compress`` measured them."""

    dilation: Dilation
    excess_residuals: tuple = ()

    def apply_Y(self, n, v: DilationVector) -> DilationVector:
        return self.dilation.apply_W(n, v)

    def apply_V(self, s, v: DilationVector) -> DilationVector:
        return self.dilation.apply_Us(s, v)

    def apply_Vstar(self, s, v: DilationVector) -> DilationVector:
        return self.dilation.project_fixed(self.dilation.apply_Ustar(s, v))


def restrict_compress(
    dil: Dilation, truncation, h_basis, tol: float = 1e-9
) -> CompressedRep:
    """Compute the fixed space inside the truncated symbol span and restrict.

    ``truncation`` is a finite set of semigroup levels; ``h_basis`` a finite
    spanning sample of the original carrier.  Reports (without failing) if
    the truncated fixed space is strictly larger than the embedded carrier.
    """
    fam = dil.family
    # The embedded comparison span must be closed under the compressed
    # adjoints: the fixed-space projection of a block (s, h) lies over the
    # adjoint image of h, not over h itself.
    carrier = list(h_basis)
    for s in truncation:
        fam.validate_s(s)
        carrier.extend(dil.rep.apply_Vstar(s, h) for h in h_basis)
    embedded = [dil.embed(h) for h in carrier]
    fixed = []
    for s in truncation:
        for h in h_basis:
            fixed.append(dil.project_fixed(DilationVector.symbol(s, h)))

    # Residual distance of each fixed vector from the span of the embedded
    # carrier; a strict excess is diagnostic, not an error.  The normal
    # equations sum_i x_i <e_i, e_k> = <f, e_k> have the transpose of the
    # Gram matrix, factored once for every f.
    factor = _ldl_pivoted(zip(*dil.gram(embedded)))
    excess = []
    for f in fixed:
        coeffs = _ldl_solve(factor, [dil.inner(f, e) for e in embedded])
        approx = DilationVector.build(
            (s, h.scale(c))
            for c, e in zip(coeffs, embedded)
            for s, h in e.blocks.items()
        )
        residual = dil.distance(f, approx)
        if residual > tol:
            excess.append(residual)

    return CompressedRep(dil, tuple(excess))


def _hermitian_eigenvalues(a) -> list:
    """The eigenvalues, ascending, of the Hermitian matrix a (rows of
    numbers; only the real parts of the diagonal are read), by cyclic
    Jacobi rotations on a copy.  Each is off by at most the final
    off-diagonal Frobenius norm, 1e-13 * max(1, max |a_ii|)."""
    a = [list(row) for row in a]
    n = len(a)
    for _ in range(100):
        off = sum(abs(x) ** 2 for i, row in enumerate(a) for x in row[i + 1:])
        stop = 1e-13 * max([1.0] + [abs(a[i][i].real) for i in range(n)])
        if 2.0 * off <= stop * stop:
            break
        # An entry at most stop/n is left alone: if all are, the stop holds.
        small = stop / n
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[p][q]
                r = abs(g)
                if r <= small:
                    continue
                # The phase e = g/r makes the (p, q) entry real; then the
                # real symmetric rotation (c, s) of Golub and Van Loan's
                # sym.schur2 zeroes it.
                e = g / r
                tau = (a[q][q].real - a[p][p].real) / (2.0 * r)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                se, ce = s * e.conjugate(), c * e.conjugate()
                row_p, row_q = a[p], a[q]
                for k in range(n):
                    if k == p or k == q:
                        continue
                    row_k = a[k]
                    akp, akq = row_k[p], row_k[q]
                    row_k[p] = x = c * akp - se * akq
                    row_p[k] = x.conjugate()
                    row_k[q] = y = s * akp + ce * akq
                    row_q[k] = y.conjugate()
                row_p[p] = complex(row_p[p].real - t * r)
                row_q[q] = complex(row_q[q].real + t * r)
                row_p[q] = row_q[p] = 0j
    return sorted(a[i][i].real for i in range(n))


def _ldl_pivoted(a):
    """(perm, rows, pivots) of P a P^T = L D L^H for a positive
    semidefinite a, with the largest remaining diagonal entry as each
    pivot: row i of L is rows[i] (its entries left of the diagonal), D is
    diag(pivots) and perm[i] the index of a's row at position i.  The
    factorization ends at the first pivot <= n * eps * max |a_ii|, the
    rank it detects."""
    a = [list(row) for row in a]
    n = len(a)
    perm = list(range(n))
    cutoff = n * sys.float_info.epsilon * max((abs(a[i][i].real) for i in range(n)), default=0.0)
    pivots = []
    for k in range(n):
        j = max(range(k, n), key=lambda i: a[i][i].real)
        d = a[j][j].real
        if d <= cutoff:
            break
        a[k], a[j] = a[j], a[k]
        for row in a:
            row[k], row[j] = row[j], row[k]
        perm[k], perm[j] = perm[j], perm[k]
        pivots.append(d)
        col = [a[i][k] for i in range(k + 1, n)]
        for i, x in enumerate(col, k + 1):
            if x:
                row_i, xd = a[i], x / d
                for m, y in enumerate(col, k + 1):
                    row_i[m] -= xd * y.conjugate()
            a[i][k] = x / d
    rows = [a[i][:i] for i in range(len(pivots))]
    return perm, rows, pivots


def _ldl_solve(factor, b) -> list:
    """A solution x of a x = b from ``_ldl_pivoted(a)``: the leading block
    of the permuted system is solved, and x is zero off the pivots."""
    perm, rows, pivots = factor
    r = len(pivots)
    y = [b[perm[i]] for i in range(r)]
    for i in range(r):
        row = rows[i]
        y[i] -= sum(row[j] * y[j] for j in range(i))
    for i in range(r):
        y[i] /= pivots[i]
    for i in reversed(range(r)):
        y[i] -= sum(rows[j][i].conjugate() * y[j] for j in range(i + 1, r))
    x = [0j] * len(perm)
    for i in range(r):
        x[perm[i]] = y[i]
    return x
