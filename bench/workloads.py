"""The four benchmark workloads, each a fixed list of checked operations.

``setup(name, seed)`` builds the families and draws every input from the
seed as plain data (rationals, exact complex coefficients, sparse vectors),
so that no program cache is filled before the first timed pass.  Each
operation is ``(label, action, check)``: ``action()`` calls the program and
is timed, ``check(output)`` is not timed and raises ``CheckFailed``.

Operands are rebuilt from the plain data inside every action, so later
passes reuse the families' caches but no per-object cache.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from checks import (
    TOL,
    Arith,
    accumulate,
    check,
    check_close,
    check_crossed,
    check_function,
    check_keys_in_box,
    check_mass,
    check_psd,
    cmul,
    corner_level,
    expected_alpha,
    expected_build,
    expected_convolve,
    expected_corner,
    expected_crossed_mul,
    expected_crossed_star,
    expected_module,
    expected_product,
    expected_refine,
    expected_theta_inv,
    mass,
    parts,
    vec_norm,
    vec_sub,
    vec_translate,
)
from hecke_lab import autodil, cli, dilate, grpalg, repspace, xprod
from hecke_lab.coeffs import QC
from hecke_lab.pairs import family_from_config

BOST_CONNES = {"family": "bost-connes"}
PADIC_2 = {"family": "padic", "p": 2}
PADIC_3 = {"family": "padic", "p": 3}
MATRIX = {"family": "matrix", "F": [[2, 0], [0, 3]], "M": [[5, 0], [0, 1]]}

# The matrix family reaches level (3,3), index 6^3 * 5^3 = 27,000, padic(3)
# level 9, index 19,683, and bost-connes 5040; those three intertwinings are
# most of a pass.  The other operations run at every level up to index
# about 200, where enumeration is cheap, so that a pass stays short enough
# for several in one run.
MATRIX_LEVELS = [(a, b) for a in range(4) for b in range(4) if 0 < a + b <= 3]

# (family, [(level, terms)]) per operation kind.
COSET_PLAN = {
    "intertwine": [
        (BOST_CONNES, [(s, 2) for s in (12, 60, 360, 5040)]),
        (PADIC_3, [(l, 2) for l in (1, 2, 3, 4, 9)]),
        (MATRIX, [(s, 1) for s in MATRIX_LEVELS + [(3, 3)]]),
    ],
    "roundtrip": [
        (BOST_CONNES, [(s, 2) for s in (12, 60, 360, 720)]),
        (PADIC_3, [(l, 2) for l in range(1, 7)]),
        (MATRIX, [(s, 1) for s in MATRIX_LEVELS]),
    ],
}
# (family, level of f, level of g, refinement target of f, terms)
CONVOLVE_PLAN = [
    (BOST_CONNES, 12, 8, 360, 3),
    (BOST_CONNES, 6, 10, 720, 3),
    (PADIC_3, 2, 3, 6, 3),
    (PADIC_3, 1, 4, 7, 3),
    (MATRIX, (1, 0), (0, 1), (2, 2), 3),
    (MATRIX, (1, 1), (0, 2), (2, 3), 3),
]
PRODUCT_TERMS = 5

# (family, round trips, products, module pairings) as lists of (s, t).
# Left out for their cost, not their results: the matrix product with
# (s, t) = ((0,0),(1,1)) takes about 73 s, the padic(3) pairing with
# (0, 3) about 67 s, and the matrix product with ((1,0),(0,1)) about 3 s,
# as long as all the rest of a pass.
CORNER_PLAN = [
    (BOST_CONNES,
     [(2, 3), (4, 6), (3, 3), (12, 8), (1, 6), (6, 1)],
     [(2, 3), (4, 6)],
     [(2, 3), (3, 3)]),
    (PADIC_3,
     [(1, 2), (2, 2), (2, 1), (0, 1), (0, 3), (1, 0)],
     [(1, 2), (2, 1), (0, 1)],
     [(2, 1), (1, 0), (0, 1)]),
    (MATRIX,
     [((1, 0), (0, 1)), ((1, 1), (1, 0)), ((0, 1), (0, 0)), ((1, 1), (1, 1)), ((0, 0), (1, 1))],
     [((1, 1), (1, 0)), ((1, 1), (1, 1))],
     [((1, 1), (1, 1)), ((1, 0), (1, 0))]),
]
ISOMETRY_LEVELS = {"bost-connes": [1, 2, 3, 6], "padic": [0, 1, 2], "matrix": [(0, 0), (1, 0), (0, 1)]}

DILATION_FAMILIES = [
    (BOST_CONNES, [1, 2, 3, 4, 6], [2, 3, 4]),
    (PADIC_3, [0, 1, 2], [1, 2]),
]
DILATION_ROUNDS = 45

# The user-facing runs: every suite for bost-connes and padic(2), every
# suite but the matrix appendix (about 220 s) for the matrix family.
VERIFY_JOBS = [(BOST_CONNES, "all"), (PADIC_2, "all")] + [
    (MATRIX, suite) for suite in ("algebra", "tower", "autodil", "dilation", "adeles")
]
VERIFY_SEED = 1

def setup(name: str, seed: int):
    """The operation list of one workload, drawn from the seed."""
    rng = random.Random(f"{name}:{seed}")
    return {
        "coset-algebra": coset_algebra,
        "corner": corner,
        "dilation": dilation,
        "verify": verify,
    }[name](rng)


# -- seeded plain inputs -------------------------------------------------------


# Denominator shapes of the seeded keys, one per term: the seed picks the
# numerators and coefficients, the shape fixes each operation's support
# sizes, so that the cost of a pass does not depend on the seed.  Shapes are
# denominators for bost-connes, exponents of p for padic, and levels whose
# moduli are the per-coordinate denominators for matrix.
SHAPES = {
    "bost-connes": [3, 4, 6, 5, 12],
    "padic": [1, 2, 0, 2, 1],
    "matrix": [(1, 0), (0, 1), (1, 1), (0, 0), (2, 0)],
}


def raw_key(ar: Arith, rng: random.Random, shape, numerator=None):
    """An element of N with the given denominators and a seeded (or the
    given) numerator, offset by a random integer so that it is usually not
    canonical."""
    if ar.kind == "bost-connes":
        dens = (shape,)
    elif ar.kind == "padic":
        dens = (ar.p**shape,)
    else:
        dens = ar.moduli(shape)
    coords = []
    for d in dens:
        k = numerator or rng.choice([k for k in range(d) if math.gcd(k, d) == 1])
        coords.append(Fraction(k + d * rng.randint(-2, 2), d))
    return ar.key(coords)


def raw_coeff(rng: random.Random, positive=False) -> QC:
    """An exact complex coefficient; ``positive`` makes both parts positive,
    so that sums of products of such coefficients cannot cancel."""
    if positive:
        return QC(Fraction(rng.randint(1, 4), rng.randint(1, 4)), Fraction(rng.randint(1, 4), rng.randint(1, 4)))
    re = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 4))
    return QC(re, Fraction(rng.randint(-4, 4), rng.randint(1, 4)))


def raw_pairs(ar: Arith, rng: random.Random, terms: int):
    """`terms` (key, coefficient) pairs with distinct cosets modulo M."""
    seen, out = set(), []
    for shape in SHAPES[ar.kind][:terms]:
        n = raw_key(ar, rng, shape)
        while ar.canon(n) in seen:
            n = raw_key(ar, rng, shape)
        seen.add(ar.canon(n))
        out.append((n, raw_coeff(rng)))
    return out


def corner_pairs(ar: Arith, rng: random.Random):
    """The identity coset and the first shape's coset with numerator 1, each
    offset by a random integer, with seeded positive coefficients.  Whether a
    corner product or pairing vanishes depends on where the cosets sit and
    on cancellation, not only on the denominators, so corner operands keep
    their cosets fixed and their coefficients from cancelling: the cost of
    a pass is then the same for every seed."""
    zero = ar.key([Fraction(rng.randint(-2, 2))] * ar.dim)
    one = raw_key(ar, rng, SHAPES[ar.kind][0], numerator=1)
    return [(zero, raw_coeff(rng, positive=True)), (one, raw_coeff(rng, positive=True))]


def raw_vector(ar: Arith, rng: random.Random, terms: int = 3):
    vals = {}
    for n, _ in raw_pairs(ar, rng, terms):
        vals[ar.canon(n)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return repspace.SparseVector(vals)


# -- coset-algebra -------------------------------------------------------------


def coset_algebra(rng):
    ops = []
    for config, plan in COSET_PLAN["intertwine"]:
        fam, ar = family_from_config(config), Arith(config)
        for s, terms in plan:
            ops.append(_intertwine(fam, ar, s, raw_pairs(ar, rng, terms)))
    for config, plan in COSET_PLAN["roundtrip"]:
        fam, ar = family_from_config(config), Arith(config)
        for s, terms in plan:
            ops.append(_theta_roundtrip(fam, ar, s, raw_pairs(ar, rng, terms)))
    for config, fl, gl, t, terms in CONVOLVE_PLAN:
        fam, ar = family_from_config(config), Arith(config)
        ops.append(_convolve_refine(
            fam, ar, fl, raw_pairs(ar, rng, terms), gl, raw_pairs(ar, rng, terms), t
        ))
    for config in (BOST_CONNES, PADIC_3, MATRIX):
        fam, ar = family_from_config(config), Arith(config)
        ops.append(_product(fam, ar, raw_pairs(ar, rng, PRODUCT_TERMS),
                            raw_pairs(ar, rng, PRODUCT_TERMS)))
    return ops


def _intertwine(fam, ar, s, pairs):
    e = ar.identity

    def action():
        a = grpalg.GroupAlgebraElement.build(fam, pairs)
        lhs = autodil.embed_i(grpalg.alpha(s, a))
        rhs = autodil.theta_star(s, autodil.embed_i(a))
        return a, lhs, rhs, lhs == rhs

    def verdict(out):
        a, lhs, rhs, equal = out
        Q = ar.common_denominators([n for n, _ in pairs], s)
        want_a = expected_build(ar, e, pairs, Q)
        check_function(ar, e, a.values, want_a, Q, "build")
        want = expected_alpha(ar, s, want_a, Q)
        check(len(want) == len(pairs) * ar.index(s), "alpha support is not terms * index")
        check_function(ar, e, lhs.values, want, Q, "alpha")
        total = check_function(ar, e, rhs.values, want, Q, "theta_star")
        check_mass(ar, e, total, mass(ar, e, want_a), "theta_star")
        check(equal is True, "embed_i(alpha(s, a)) != theta_star(s, embed_i(a))")

    return (f"intertwine {fam.tag} {s!r}", action, verdict)


def _theta_roundtrip(fam, ar, s, pairs):
    e = ar.identity

    def action():
        f = autodil.LocFun.build(fam, e, pairs)
        g = autodil.theta_star_inv(s, f)
        h = autodil.theta_star(s, g)
        return f, g, h, h == f

    def verdict(out):
        f, g, h, equal = out
        Q = ar.common_denominators([n for n, _ in pairs], e)
        want_f = expected_build(ar, e, pairs, Q)
        check_function(ar, e, f.values, want_f, Q, "build")
        deeper, want_g = expected_theta_inv(ar, s, e, want_f, Q)
        check(g.level == deeper, f"theta_star_inv level {g.level!r} != {deeper!r}")
        g_total = check_function(ar, deeper, g.values, want_g, Q, "theta_star_inv")
        want_h = expected_refine(ar, e, want_f, deeper, Q)
        h_total = check_function(ar, deeper, h.values, want_h, Q, "theta_star")
        m = mass(ar, e, want_f)
        check_mass(ar, deeper, g_total, m, "theta_star_inv")
        check_mass(ar, deeper, h_total, m, "theta_star")
        check(equal is True, "theta_star(s, theta_star_inv(s, f)) != f")

    return (f"theta-roundtrip {fam.tag} {s!r}", action, verdict)


def _convolve_refine(fam, ar, fl, fpairs, gl, gpairs, t):
    def action():
        f = autodil.LocFun.build(fam, fl, fpairs)
        g = autodil.LocFun.build(fam, gl, gpairs)
        return f, g, autodil.convolve(f, g), f.refine(t)

    def verdict(out):
        f, g, fg, ft = out
        Q = ar.common_denominators([n for n, _ in fpairs + gpairs], ar.identity)
        want_f, want_g = expected_build(ar, fl, fpairs, Q), expected_build(ar, gl, gpairs, Q)
        check_function(ar, fl, f.values, want_f, Q, "build")
        check_function(ar, gl, g.values, want_g, Q, "build")
        join, want = expected_convolve(ar, fl, want_f, gl, want_g, Q)
        check(fg.level == join, f"convolution level {fg.level!r} != {join!r}")
        total = check_function(ar, join, fg.values, want, Q, "convolve")
        check_mass(ar, join, total, cmul(mass(ar, fl, want_f), mass(ar, gl, want_g)), "convolve")
        check(ft.level == t, f"refine level {ft.level!r} != {t!r}")
        total = check_function(ar, t, ft.values, expected_refine(ar, fl, want_f, t, Q), Q, "refine")
        check_mass(ar, t, total, mass(ar, fl, want_f), "refine")

    return (f"convolve-refine {fam.tag} {fl!r}*{gl!r}", action, verdict)


def _product(fam, ar, apairs, bpairs):
    e = ar.identity

    def action():
        a = grpalg.GroupAlgebraElement.build(fam, apairs)
        b = grpalg.GroupAlgebraElement.build(fam, bpairs)
        return a * b

    def verdict(ab):
        Q = ar.common_denominators([n for n, _ in apairs + bpairs], e)
        want_a, want_b = expected_build(ar, e, apairs, Q), expected_build(ar, e, bpairs, Q)
        want = expected_product(ar, want_a, want_b, Q)
        total = check_function(ar, e, ab.values, want, Q, "product")
        check_mass(ar, e, total, cmul(mass(ar, e, want_a), mass(ar, e, want_b)), "product")

    return (f"product {fam.tag}", action, verdict)


# -- corner --------------------------------------------------------------------


def corner(rng):
    ops = []
    for config, roundtrips, products, pairings in CORNER_PLAN:
        fam, ar = family_from_config(config), Arith(config)
        ops.append(_isometries(fam, ar, ISOMETRY_LEVELS[ar.kind]))
        for s, t in roundtrips:
            ops.append(_corner_roundtrip(fam, ar, s, t, corner_pairs(ar, rng)))
        for s, t in products:
            ops.append(_corner_product(fam, ar, s, t, corner_pairs(ar, rng), corner_pairs(ar, rng)))
        for s, t in pairings:
            ops.append(_module_pairing(fam, ar, s, t, corner_pairs(ar, rng), corner_pairs(ar, rng)))
    return ops


def _recompose(fam, triples):
    out = xprod.CrossedElement(fam, {})
    for s, a, t in triples:
        out = out + xprod.compose_corner(fam, s, a, t)
    return out


def _check_triples(ar, triples, what):
    for s, a, t in triples:
        check_keys_in_box(ar, ar.identity, a.values)
        check(all(any(parts(c)) for c in a.values.values()), f"{what}: zero coefficient kept")


def _corner_verdict(ar, pairs, level, expected, what):
    """Check a corner operation's (d, triples, recompose(triples) == d):
    d against the benchmark's own product, computed once and reused in
    later passes, and the triples by recomposing them the same way."""
    Q = ar.common_denominators([n for n, _ in pairs], level)
    want = functools.cache(lambda: expected(Q))
    recomposed = {}

    def verdict(res):
        d, triples, equal = res
        check_crossed(ar, d, want(), Q, what)
        _check_triples(ar, triples, "corner_decompose")
        key = tuple((s, frozenset(a.values.items()), t) for s, a, t in triples)
        if key not in recomposed:
            keys = [n for n, _ in pairs] + [n for _, a, _ in triples for n in a.values]
            Q2 = ar.common_denominators(keys, level)
            total = {}
            for s, a, t in triples:
                built = expected_build(ar, ar.identity, a.values.items(), Q2)
                for g, (lv, f) in expected_corner(ar, s, built, t, Q2).items():
                    accumulate(ar, total, g, lv, f, Q2)
            recomposed[key] = Q2, {g: v for g, v in total.items() if v[1]}
        Q2, total = recomposed[key]
        check_crossed(ar, d, total, Q2, f"{what} recomposed from its triples")
        check(equal is True, f"{what}: recomposed triples differ in the program")

    return verdict


def _isometries(fam, ar, levels):
    """p is a projection, v_s* v_s = p and v_s v_t = v_st, with v_s checked
    against the benchmark's own alpha_s(delta_0)."""

    def action():
        p = xprod.projection_p(fam)
        out = [p * p == p, p.star() == p]
        vs = {s: xprod.isom_v(fam, s) for s in levels}
        for s in levels:
            out.append(vs[s].star() * vs[s] == p)
            for t in levels:
                out.append(vs[s] * vs[t] == xprod.isom_v(fam, fam.s_mul(s, t)))
        return p, vs, out

    def verdict(res):
        p, vs, eqs = res
        e, one = ar.identity, (Fraction(1), Fraction(0))
        zero = (0,) * ar.dim
        check(list(p.terms) == [fam.g_identity], "p is not concentrated at the identity")
        check_function(ar, e, p.terms[fam.g_identity].values, {zero: one}, (1,) * ar.dim, "p")
        for s, v in vs.items():
            (g, f), = v.terms.items()
            check(g == ar.g_of(ar.identity, s), f"v_{s!r} sits at {g!r}")
            Q = ar.moduli(s)
            check_function(ar, e, f.values, expected_alpha(ar, s, {zero: one}, Q), Q, f"v_{s!r}")
        check(all(x is True for x in eqs), "an isometry relation failed")

    return (f"isometries {fam.tag}", action, verdict)


def _corner_roundtrip(fam, ar, s, t, pairs):
    e = ar.identity

    def action():
        d = xprod.compose_corner(fam, s, grpalg.GroupAlgebraElement.build(fam, pairs), t)
        triples = xprod.corner_decompose(d)
        return d, triples, _recompose(fam, triples) == d

    def expected(Q):
        return expected_corner(ar, s, expected_build(ar, e, pairs, Q), t, Q)

    verdict = _corner_verdict(ar, pairs, corner_level(ar, s, t), expected, "compose_corner")
    return (f"corner-roundtrip {fam.tag} {s!r},{t!r}", action, verdict)


def _corner_product(fam, ar, s, t, apairs, bpairs):
    e = ar.identity

    def action():
        a = grpalg.GroupAlgebraElement.build(fam, apairs)
        b = grpalg.GroupAlgebraElement.build(fam, bpairs)
        d = xprod.compose_corner(fam, s, a, t) * xprod.compose_corner(fam, t, b, s)
        triples = xprod.corner_decompose(d)
        return d, triples, _recompose(fam, triples) == d

    def expected(Q):
        a, b = expected_build(ar, e, apairs, Q), expected_build(ar, e, bpairs, Q)
        return expected_crossed_mul(ar, expected_corner(ar, s, a, t, Q), expected_corner(ar, t, b, s, Q), Q)

    verdict = _corner_verdict(ar, apairs + bpairs, corner_level(ar, s, t), expected, "corner product")
    return (f"corner-product {fam.tag} {s!r},{t!r}", action, verdict)


def _module_pairing(fam, ar, s, t, apairs, bpairs):
    e = ar.identity

    def action():
        a = grpalg.GroupAlgebraElement.build(fam, apairs)
        b = grpalg.GroupAlgebraElement.build(fam, bpairs)
        x1 = xprod.module_element(fam, s, a, t)
        x2 = xprod.module_element(fam, t, b, s)
        d = x2.star() * x1
        triples = xprod.corner_decompose(d)
        return d, triples, _recompose(fam, triples) == d

    def expected(Q):
        a, b = expected_build(ar, e, apairs, Q), expected_build(ar, e, bpairs, Q)
        x2 = expected_crossed_star(ar, expected_module(ar, t, b, s, Q), Q)
        return expected_crossed_mul(ar, x2, expected_module(ar, s, a, t, Q), Q)

    verdict = _corner_verdict(ar, apairs + bpairs, corner_level(ar, s, t), expected, "module pairing")
    return (f"module-pairing {fam.tag} {s!r},{t!r}", action, verdict)


# -- dilation ------------------------------------------------------------------


def dilation(rng):
    ops = []
    for config, levels, vlevels in DILATION_FAMILIES:
        fam, ar = family_from_config(config), Arith(config)
        rep = repspace.regular_covariant(fam, check=False)
        dil = dilate.Dilation(rep)
        ind = xprod.x_ind(rep)
        for r in range(DILATION_ROUNDS):
            # The seed draws the vectors and cosets; the levels cycle, so
            # that every seed asks for the same work.
            vecs = [raw_vector(ar, rng) for _ in range(6)]
            ns = [ar.canon(n) for n, _ in raw_pairs(ar, rng, 3)]
            ss = [vlevels[(r + i) % len(vlevels)] for i in range(3)]
            blocks = [levels[(r + i) % len(levels)] for i in range(6)]
            ops.append(_covariance(fam, ar, rep, ss, ns, vecs[:3]))
            ops.append(_dilation_space(fam, ar, dil, blocks, ss, ns, vecs))
            ops.append(_induction(fam, ar, rep, ind, ss, ns, vecs[:3]))
        ops.append(_restrict_compress(fam, ar, rep, dil, levels, ns, [raw_vector(ar, rng, 1) for _ in range(2)]))
    return ops


def _covariance(fam, ar, rep, ss, ns, vecs):
    """V_s Y_n V_s* = index(s)^-1 sum Y_m, V_s isometric, V_s* V_s = 1."""

    def action():
        out = []
        for s, n, v in zip(ss, ns, vecs):
            lhs = rep.apply_V(s, rep.apply_Y(n, rep.apply_Vstar(s, v)))
            vs = rep.apply_V(s, v)
            out.append((s, n, v, lhs, vs, rep.apply_Vstar(s, vs)))
        return out

    def verdict(res):
        for s, n, v, lhs, vs, back in res:
            w = 1.0 / ar.index(s)
            rhs = {}
            for m in ar.preimages(s, n):
                for k, c in vec_translate(ar, m, v.values).items():
                    rhs[k] = rhs.get(k, 0) + c * w
            check_keys_in_box(ar, ar.identity, lhs.values)
            check_close(vec_norm(vec_sub(lhs.values, rhs)), f"covariance at s={s!r}")
            check_close(abs(vec_norm(vs.values) - vec_norm(v.values)), f"V_{s!r} isometry")
            check_close(vec_norm(vec_sub(back.values, v.values)), f"V_{s!r}* V_{s!r}")

    return (f"covariance {fam.tag}", action, verdict)


def _dilation_space(fam, ar, dil, blocks, ss, ns, vecs):
    """Gram, norms, U_g, W_n and the fixed-space projection on symbols."""
    DV = dilate.DilationVector
    symbols = [DV.symbol(b, h) for b, h in zip(blocks, vecs)]

    def action():
        gram = dil.gram(symbols)
        norms = [dil.norm(v) for v in symbols]
        moved = []
        for s, n, v in zip(ss, ns, symbols):
            g = fam.g_from_s(s)
            u = dil.apply_U(g, v)
            w = dil.apply_W(n, v)
            conj = dil.apply_U(g, dil.apply_W(n, dil.apply_U(fam.g_inv(g), v)))
            pv = dil.project_fixed(v)
            moved.append((
                dil.norm(u),
                dil.distance(dil.apply_U(fam.g_inv(g), u), v),
                dil.norm(w),
                dil.distance(dil.apply_W(fam.n_neg(n), w), v),
                dil.distance(conj, dil.apply_W(ar.psi_s(s, n), v)),
                dil.distance(dil.project_fixed(pv), pv),
                abs(dil.inner(pv, symbols[0]) - dil.inner(v, dil.project_fixed(symbols[0]))),
            ))
        return gram, norms, moved

    def verdict(res):
        gram, norms, moved = res
        want = [vec_norm(h.values) for h in vecs]
        for got, exp in zip(norms, want):
            check_close(abs(got - exp), "symbol norm")
        check_psd(gram, want, "gram")
        for (nu, back, nw, wback, cov, idem, selfadj), exp in zip(moved, want):
            check_close(abs(nu - exp), "U_g norm")
            check_close(back, "U_g^-1 U_g")
            check_close(abs(nw - exp), "W_n norm")
            check_close(wback, "W_-n W_n")
            check_close(cov, "U_g W_n U_g* = W_psi_g(n)")
            check_close(idem, "projection idempotent")
            check_close(selfadj, "projection self-adjoint")

    return (f"dilation-space {fam.tag}", action, verdict)


def _induction(fam, ar, rep, ind, ss, ns, vecs):
    """theta_map of v_s and i(delta_n) lands on phi(V_s h) and phi(Y_n h);
    rc inverts induction on the embedded carrier."""
    dil = ind.dilation

    def action():
        back = xprod.rc(ind)
        out = []
        for s, n, h in zip(ss, ns, vecs):
            phi_h = ind.phi(h)
            vh, yh = rep.apply_V(s, h), rep.apply_Y(n, h)
            out.append((
                dil.distance(xprod.theta_map(ind, xprod.isom_v(fam, s), h), ind.phi(vh)),
                dil.distance(xprod.theta_map(ind, xprod.embed_algebra(grpalg.delta(fam, n)), h), ind.phi(yh)),
                dil.distance(back.apply_Y(n, phi_h), ind.phi(yh)),
                dil.distance(back.apply_V(s, phi_h), ind.phi(vh)),
                dil.distance(back.apply_Vstar(s, phi_h), ind.phi(rep.apply_Vstar(s, h))),
                vh, yh,
            ))
        return out

    def verdict(res):
        for (s, n, h), (*devs, vh, yh) in zip(zip(ss, ns, vecs), res):
            for dev, what in zip(devs, ("theta_map v_s", "theta_map i(delta_n)", "rc Y", "rc V", "rc V*")):
                check_close(dev, what)
            check_close(vec_norm(vec_sub(yh.values, vec_translate(ar, n, h.values))), "Y_n")
            check_close(abs(vec_norm(vh.values) - vec_norm(h.values)), "V_s norm")

    return (f"induction {fam.tag}", action, verdict)


def _restrict_compress(fam, ar, rep, dil, truncation, ns, basis):
    def action():
        rc_rep = dilate.restrict_compress(dil, truncation, basis, tol=TOL)
        devs = []
        for h in basis:
            eh = dil.embed(h)
            for n in ns:
                devs.append(dil.distance(rc_rep.apply_Y(n, eh), dil.embed(rep.apply_Y(n, h))))
            for s in truncation:
                devs.append(dil.distance(rc_rep.apply_V(s, eh), dil.embed(rep.apply_V(s, h))))
                devs.append(dil.distance(rc_rep.apply_Vstar(s, eh), dil.embed(rep.apply_Vstar(s, h))))
        return rc_rep.excess_residuals, devs

    def verdict(res):
        excess, devs = res
        check(not excess, f"fixed space exceeds the embedded carrier by {excess}")
        check_close(max(devs), "restrict-compress")

    return (f"restrict-compress {fam.tag}", action, verdict)


# -- verify --------------------------------------------------------------------


def verify(rng):
    return [_verify_job(config, suite) for config, suite in VERIFY_JOBS]


def _verify_job(config, suite):
    def action():
        return cli.run(cli.RunConfig(family=config, suite=suite, seed=VERIFY_SEED))

    def verdict(reports):
        check(reports, "no checks ran")
        bad = [f"{r.check_id}={r.status}" for r in reports if r.status != "pass"]
        check(not bad, f"checks not passing: {bad}")

    return (f"verify {config['family']} {suite}", action, verdict)
