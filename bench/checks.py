"""Output checks that do not go through the code they check.

``Arith`` is the benchmark's own model of a shipped family with diagonal
data: the level-s subgroup of M is a box of per-coordinate moduli, so
canonical keys, coset counts, preimages, refinements and convolutions are
recomputed here coordinate by coordinate.  Exact functions are compared in
integer codes: with Q_i a common denominator of every key an operation can
produce, a key x becomes the integer tuple (x_i * Q_i), so the expected
supports are built and compared with integer arithmetic and no Fraction is
hashed.  Every check raises ``CheckFailed`` with the first discrepancy it
finds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

TOL = 1e-9


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


class Arith:
    """Coordinates, moduli and index of a family, from its descriptor.

    Supported: ``bost-connes``, ``padic(p)`` and ``matrix(F, M)`` with
    diagonal positive F and M (the hermite form of F^a M^b is then the
    diagonal itself).
    """

    def __init__(self, config: dict):
        self.config = config
        kind = config["family"]
        self.kind = kind
        if kind == "bost-connes":
            self.dim, self.identity = 1, 1
        elif kind == "padic":
            self.dim, self.identity, self.p = 1, 0, config["p"]
        elif kind == "matrix":
            F, M = config["F"], config["M"]
            self.dim = len(F)
            for mat in (F, M):
                if any(mat[i][j] for i in range(self.dim) for j in range(self.dim) if i != j):
                    raise ValueError("Arith models diagonal matrix families only")
                if any(mat[i][i] < 1 for i in range(self.dim)):
                    raise ValueError("Arith needs positive diagonal entries")
            self.fdiag = [F[i][i] for i in range(self.dim)]
            self.mdiag = [M[i][i] for i in range(self.dim)]
            self.identity = (0, 0)
        else:
            raise ValueError(f"unknown family {kind!r}")

    # -- levels ----------------------------------------------------------------

    def moduli(self, level):
        """Per-coordinate moduli D_i: level-s canonical keys lie in prod [0, D_i)."""
        if self.kind == "bost-connes":
            return (level,)
        if self.kind == "padic":
            return (self.p**level,)
        a, b = level
        return tuple(f**a * m**b for f, m in zip(self.fdiag, self.mdiag))

    def index(self, level) -> int:
        return math.prod(self.moduli(level))

    def join(self, s, t):
        if self.kind == "bost-connes":
            return s * t // math.gcd(s, t)
        if self.kind == "padic":
            return max(s, t)
        return (max(s[0], t[0]), max(s[1], t[1]))

    def mul(self, s, t):
        if self.kind == "bost-connes":
            return s * t
        if self.kind == "padic":
            return s + t
        return (s[0] + t[0], s[1] + t[1])

    def g_of(self, s, t):
        """The group element s^-1 t, in the family's own encoding."""
        if self.kind == "bost-connes":
            return Fraction(t, s)
        if self.kind == "padic":
            return t - s
        return (t[0] - s[0], t[1] - s[1])

    def g_mul(self, g, h):
        if self.kind == "bost-connes":
            return g * h
        if self.kind == "padic":
            return g + h
        return (g[0] + h[0], g[1] + h[1])

    def g_inv(self, g):
        if self.kind == "bost-connes":
            return 1 / g
        if self.kind == "padic":
            return -g
        return (-g[0], -g[1])

    def g_reduce(self, g):
        """(s, t) in the semigroup with g = s^-1 t and no common factor."""
        if self.kind == "bost-connes":
            return g.denominator, g.numerator
        if self.kind == "padic":
            return (-g, 0) if g < 0 else (0, g)
        s = (max(-g[0], 0), max(-g[1], 0))
        return s, (g[0] + s[0], g[1] + s[1])

    # -- keys ------------------------------------------------------------------

    def coords(self, key):
        return key if self.kind == "matrix" else (key,)

    def key(self, coords):
        return tuple(coords) if self.kind == "matrix" else coords[0]

    def canon(self, key, level=None):
        mods = self.moduli(self.identity if level is None else level)
        return self.key([Fraction(x) % d for x, d in zip(self.coords(key), mods)])

    def translate(self, key, by):
        return self.canon(self.key([x + y for x, y in zip(self.coords(key), self.coords(by))]))

    def preimages(self, s, n):
        """Cosets m modulo M with psi_s^-1(m) = n modulo M: m_i = (n_i + k_i) / D_i."""
        mods = self.moduli(s)
        base = self.coords(n)
        for ks in product(*(range(d) for d in mods)):
            yield self.key([((x + k) / d) % 1 for x, k, d in zip(base, ks, mods)])

    def common_denominators(self, keys, level):
        """Q_i = lcm of the keys' i-th denominators times the level's D_i."""
        dens = [1] * self.dim
        for key in keys:
            for i, x in enumerate(self.coords(key)):
                dens[i] = math.lcm(dens[i], Fraction(x).denominator)
        return tuple(b * d for b, d in zip(dens, self.moduli(level)))

    def code(self, key, level, Q):
        """Integer code of canon(key, level): x_i * Q_i modulo D_i * Q_i."""
        return tuple(
            x.numerator * (q // x.denominator) % (d * q)
            for x, q, d in zip(map(Fraction, self.coords(key)), Q, self.moduli(level))
        )

    def psi_s(self, s, key):
        """psi_s(n) = n / D_i coordinatewise, for s in the semigroup."""
        return self.key([Fraction(x) / d for x, d in zip(self.coords(key), self.moduli(s))])


# -- coefficients --------------------------------------------------------------


def parts(c):
    """(re, im) of an exact coefficient; anything inexact fails."""
    re, im = getattr(c, "re", c), getattr(c, "im", 0)
    if type(re) is int:
        re = Fraction(re)
    if type(im) is int:
        im = Fraction(im)
    if type(re) is not Fraction or type(im) is not Fraction:
        raise CheckFailed(f"coefficient {c!r} is not an exact rational complex number")
    return re, im


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def cscale(x, q):
    return (x[0] * q, x[1] * q)


def add_into(out: dict, key, c):
    total = cadd(out.get(key, (Fraction(0), Fraction(0))), c)
    if total[0] or total[1]:
        out[key] = total
    else:
        out.pop(key, None)


# -- expected functions, as dicts code -> (re, im) ---------------------------


def expected_build(ar: Arith, level, pairs, Q) -> dict:
    out = {}
    for n, c in pairs:
        add_into(out, ar.code(n, level, Q), parts(c))
    return out


def expected_alpha(ar: Arith, s, built: dict, Q) -> dict:
    """alpha_s: the cosets m with psi_s^-1(m) = n, m_i = (n_i + k_i) / D_i,
    each with coefficient c_n / index(s).  Q must include the factor D(s)."""
    mods, w = ar.moduli(s), Fraction(1, ar.index(s))
    out = {}
    for code, c in built.items():  # distinct n have disjoint preimage sets
        v = cscale(c, w)
        for ks in product(*(range(d) for d in mods)):
            out[tuple((x + k * q) // d for x, k, q, d in zip(code, ks, Q, mods))] = v
    return out


def expected_theta_inv(ar: Arith, s, level, built: dict, Q):
    """theta_star_inv: the level-a cylinder over c goes to index(s) times the
    level-(a*s) cylinder over psi_s^-1(c) = c * D_i."""
    deeper = ar.mul(level, s)
    bounds = [d * q for d, q in zip(ar.moduli(deeper), Q)]
    out = {}
    for code, c in built.items():
        key = tuple(x * d % b for x, d, b in zip(code, ar.moduli(s), bounds))
        add_into(out, key, cscale(c, ar.index(s)))
    return deeper, out


def expected_refine(ar: Arith, level, built: dict, t, Q) -> dict:
    """The level-a cylinder over c splits into the level-t cylinders over
    c_i + A_i k_i, 0 <= k_i < T_i / A_i."""
    amods, tmods = ar.moduli(level), ar.moduli(t)
    if any(tm % am for am, tm in zip(amods, tmods)):
        raise CheckFailed(f"level {t!r} does not refine {level!r}")
    out = {}
    for code, c in built.items():  # distinct cylinders split into disjoint ones
        for ks in product(*(range(tm // am) for am, tm in zip(amods, tmods))):
            out[tuple(x + a * q * k for x, a, q, k in zip(code, amods, Q, ks))] = c
    return out


def expected_convolve(ar: Arith, fl, fb: dict, gl, gb: dict, Q):
    t = ar.join(fl, gl)
    a, b = expected_refine(ar, fl, fb, t, Q), expected_refine(ar, gl, gb, t, Q)
    bounds = [d * q for d, q in zip(ar.moduli(t), Q)]
    w = Fraction(1, ar.index(t))
    out = {}
    for x, va in a.items():
        for y, vb in b.items():
            key = tuple((p + r) % bd for p, r, bd in zip(x, y, bounds))
            add_into(out, key, cscale(cmul(va, vb), w))
    return t, out


def expected_product(ar: Arith, ab: dict, bb: dict, Q) -> dict:
    out = {}
    for x, ca in ab.items():
        for y, cb in bb.items():
            add_into(out, tuple((p + r) % q for p, r, q in zip(x, y, Q)), cmul(ca, cb))
    return out


# -- the crossed product, as dicts g -> (level, code -> (re, im)) --------------
#
# (f u_g)(f' u_h) = (f * theta_g(f')) u_gh and (f u_g)^* = theta_g^-1(f^*) u_g^-1,
# with theta_g = theta_star_inv(s) o theta_star(t) for g = s^-1 t.  Q must
# hold every denominator the products create: ``corner_level`` gives a level
# whose moduli are enough for the corner workload's products.


def corner_level(ar: Arith, s, t):
    st = ar.mul(s, t)
    return ar.mul(ar.mul(st, st), st)


def _exact_div(x: int, d: int) -> int:
    q, r = divmod(x, d)
    if r:
        raise CheckFailed("benchmark model: the common denominator is too small")
    return q


def expected_theta(ar: Arith, t, level, built: dict, Q) -> dict:
    """theta_star(t, .) keeps the level: the level-a cylinder over c spreads
    over the cylinders over (c + A_i j_i) / D_i, 0 <= j_i < D_i, each with
    index(t)^-1 of its value."""
    tmods = ar.moduli(t)
    bounds = [a * q for a, q in zip(ar.moduli(level), Q)]
    w = Fraction(1, ar.index(t))
    out = {}
    for code, c in built.items():
        v = cscale(c, w)
        for js in product(*(range(d) for d in tmods)):
            add_into(out, tuple(
                _exact_div(x + b * j, d) % b for x, b, j, d in zip(code, bounds, js, tmods)
            ), v)
    return out


def expected_theta_g(ar: Arith, g, level, built: dict, Q):
    s, t = ar.g_reduce(g)
    if t != ar.identity:
        built = expected_theta(ar, t, level, built, Q)
    if s != ar.identity:
        level, built = expected_theta_inv(ar, s, level, built, Q)
    return level, built


def accumulate(ar: Arith, out: dict, g, level, built: dict, Q):
    """out[g] += (level, built), at the join of the two levels."""
    if g not in out:
        out[g] = (level, dict(built))
        return
    old_level, old = out[g]
    j = ar.join(old_level, level)
    total = expected_refine(ar, old_level, old, j, Q)
    for code, c in expected_refine(ar, level, built, j, Q).items():
        add_into(total, code, c)
    out[g] = (j, total)


def expected_crossed_mul(ar: Arith, x: dict, y: dict, Q) -> dict:
    out = {}
    for g, (la, fa) in x.items():
        for h, (lb, fb) in y.items():
            lt, moved = expected_theta_g(ar, g, lb, fb, Q)
            lc, conv = expected_convolve(ar, la, fa, lt, moved, Q)
            accumulate(ar, out, ar.g_mul(g, h), lc, conv, Q)
    return {g: v for g, v in out.items() if v[1]}


def expected_crossed_star(ar: Arith, x: dict, Q) -> dict:
    out = {}
    for g, (level, f) in x.items():
        bounds = [d * q for d, q in zip(ar.moduli(level), Q)]
        conj = {tuple(-c % b for c, b in zip(code, bounds)): (v[0], -v[1]) for code, v in f.items()}
        gi = ar.g_inv(g)
        accumulate(ar, out, gi, *expected_theta_g(ar, gi, level, conj, Q), Q)
    return out


def expected_isom(ar: Arith, s, Q) -> dict:
    """v_s = theta_star(s, chi_K) u_s."""
    e = ar.identity
    chi = {(0,) * ar.dim: (Fraction(1), Fraction(0))}
    return {ar.g_of(e, s): (e, expected_theta(ar, s, e, chi, Q))}


def expected_corner(ar: Arith, s, built: dict, t, Q) -> dict:
    """compose_corner: (v_s^* i(a)) v_t, multiplied in the program's order."""
    e = ar.identity
    left = expected_crossed_mul(ar, expected_crossed_star(ar, expected_isom(ar, s, Q), Q),
                                {ar.g_of(e, e): (e, built)}, Q)
    return expected_crossed_mul(ar, left, expected_isom(ar, t, Q), Q)


def expected_module(ar: Arith, s, built: dict, t, Q) -> dict:
    """module_element: (theta_(s^-1)(i(a)) u_(s^-1)) v_t."""
    e = ar.identity
    gi = ar.g_inv(ar.g_of(e, s))
    return expected_crossed_mul(ar, {gi: expected_theta_g(ar, gi, e, built, Q)},
                                expected_isom(ar, t, Q), Q)


def check_crossed(ar: Arith, d, expected: dict, Q, what: str):
    """The program's crossed element has the expected group elements, and
    each term the expected function, compared at the join of the levels."""
    check(d.terms, f"{what} is zero")
    got_g, want_g = set(d.terms), set(expected)
    check(got_g == want_g, f"{what}: terms at {sorted(map(str, got_g))}, "
                           f"expected {sorted(map(str, want_g))}")
    for g, f in d.terms.items():
        level, want = expected[g]
        got = {code: parts(c) for code, c in encode(ar, f.level, f.values, Q).items()}
        j = ar.join(level, f.level)
        got, want = expected_refine(ar, f.level, got, j, Q), expected_refine(ar, level, want, j, Q)
        missing = want.keys() - got.keys()
        check(not missing, f"{what} at {g!r}: dropped key {next(iter(missing), None)!r}")
        extra = got.keys() - want.keys()
        check(not extra, f"{what} at {g!r}: unexpected key {next(iter(extra), None)!r}")
        wrong = next((code for code, c in got.items() if c != want[code]), None)
        check(wrong is None, f"{what} at {g!r}: wrong coefficient at {wrong!r}")


def mass(ar: Arith, level, expected: dict):
    """Total integral of a function given as code -> (re, im): each level-s
    cylinder weighs index(s)^-1."""
    total = (Fraction(0), Fraction(0))
    for c in expected.values():
        total = cadd(total, c)
    return cscale(total, Fraction(1, ar.index(level)))


# -- exact checks ------------------------------------------------------------


def check(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def check_keys_in_box(ar: Arith, level, values: dict):
    """Canonical keys are exact rationals with 0 <= x_i < D_i."""
    mods = ar.moduli(level)
    for key in values:
        coords = ar.coords(key)
        if len(coords) != len(mods) or not all(
            isinstance(x, Fraction) and 0 <= x < d for x, d in zip(coords, mods)
        ):
            raise CheckFailed(f"key {key!r} is not canonical at level {level!r}")


def encode(ar: Arith, level, values: dict, Q) -> dict:
    """The program's function as code -> value; every key must be a
    canonical level key with denominators dividing Q."""
    bounds = [d * q for d, q in zip(ar.moduli(level), Q)]
    out = {}
    for key, c in values.items():
        coords = ar.coords(key)
        code = []
        for x, q, bound in zip(coords, Q, bounds):
            if type(x) is not Fraction or q % x.denominator:
                raise CheckFailed(f"key {key!r} is not an expected coset")
            code.append(x.numerator * (q // x.denominator))
            if not 0 <= code[-1] < bound:
                raise CheckFailed(f"key {key!r} is not canonical at level {level!r}")
        if len(code) != ar.dim:
            raise CheckFailed(f"key {key!r} has the wrong dimension")
        out[tuple(code)] = c
    return out


def check_function(ar: Arith, level, values: dict, expected: dict, Q, what: str):
    """Canonical keys, the expected support and the same exact value on
    every key.  Returns the exact sum of the values, for mass checks."""
    got = encode(ar, level, values, Q)
    missing = expected.keys() - got.keys()
    check(not missing, f"{what}: dropped key {next(iter(missing), None)!r}")
    extra = got.keys() - expected.keys()
    check(not extra, f"{what}: unexpected key {next(iter(extra), None)!r}")
    # Compare numerators and denominators as integers; the expected values
    # are shared per source coset, so each is converted once.
    want_ints, sums = {}, ({}, {})
    for code, c in got.items():
        w = expected[code]
        wi = want_ints.get(id(w))
        if wi is None:
            wi = want_ints[id(w)] = (w[0].numerator, w[0].denominator, w[1].numerator, w[1].denominator)
        re, im = parts(c)
        vi = (re.numerator, re.denominator, im.numerator, im.denominator)
        check(vi == wi, f"{what}: wrong coefficient at {code!r}")
        sums[0][vi[1]] = sums[0].get(vi[1], 0) + vi[0]
        sums[1][vi[3]] = sums[1].get(vi[3], 0) + vi[2]
    return tuple(sum((Fraction(n, d) for d, n in t.items()), Fraction(0)) for t in sums)


def check_mass(ar: Arith, level, total, want, what: str):
    """The mass index(level)^-1 * (sum of values) equals ``want``."""
    got = cscale(total, Fraction(1, ar.index(level)))
    check(got == want, f"{what}: mass {got} differs from {want}")


# -- float checks ------------------------------------------------------------


def vec_norm(values: dict) -> float:
    return math.sqrt(sum(abs(c) ** 2 for c in values.values()))


def vec_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) - c
    return out


def vec_translate(ar: Arith, n, values: dict) -> dict:
    """Y_n: xi_k -> xi_(n+k) on canonical cosets."""
    out = {}
    for k, c in values.items():
        key = ar.translate(k, n)
        out[key] = out.get(key, 0) + c
    return out


def check_close(dev: float, what: str, tol: float = TOL):
    if not dev <= tol:  # also catches NaN
        raise CheckFailed(f"{what}: deviation {dev:.3e} exceeds {tol:.0e}")


def check_psd(gram, norms, what: str, tol: float = TOL):
    """Hermitian, positive semidefinite, diagonal equal to the squared norms."""
    import numpy as np

    g = np.asarray(gram)
    check_close(float(np.max(np.abs(g - g.conj().T))), f"{what} hermitian", tol)
    check_close(
        float(np.max(np.abs(np.diag(g).real - np.asarray(norms) ** 2))), f"{what} diagonal", tol
    )
    check_close(max(0.0, -float(np.linalg.eigvalsh((g + g.conj().T) / 2)[0])), f"{what} psd", tol)
