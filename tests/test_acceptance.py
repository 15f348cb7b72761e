"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line and enforcing its stated tolerance and time budget.

Exact criteria use exact rational coefficients and assert literal equality;
Hilbert-space criteria use the 1e-9 tolerance fixed across the package.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from hecke_lab.pairs import BostConnesFamily, MatrixFamily, PadicFamily
from hecke_lab import adeles, autodil, dilate, grpalg, repspace, tower, xprod
from hecke_lab.autodil import chi_K, convolve, cylinder, embed_i, theta_star, theta_star_inv
from hecke_lab.dilate import Dilation, DilationVector, restrict_compress
from hecke_lab.grpalg import alpha, delta
from hecke_lab.repspace import SparseVector, random_vector, regular_covariant
from hecke_lab.tower import TruncatedElement, embed_j

TOL = 1e-9


@pytest.fixture(scope="module")
def bc():
    return BostConnesFamily()


@pytest.fixture(scope="module")
def rep(bc):
    return regular_covariant(bc)


@pytest.fixture(scope="module")
def dil(rep):
    return Dilation(rep)


def report(criterion, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def farey(max_den):
    out = {Fraction(0)}
    for d in range(1, max_den + 1):
        for k in range(d):
            out.add(Fraction(k, d))
    return sorted(out)


def test_criterion_1_convolution_homomorphism(bc):
    """Indicator convolution realizes the coset group exactly."""
    start = time.perf_counter()
    k = chi_K(bc)
    ok = convolve(k, k) == k
    gens = farey(24)
    for a in gens:
        ia = embed_i(delta(bc, a))
        for b in gens:
            if convolve(ia, embed_i(delta(bc, b))) != embed_i(delta(bc, bc.canon(a + b))):
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(
        "1 convolution homomorphism (denominators <= 24, exact)",
        ok and elapsed < 5.0,
        f"{len(gens)}^2 pairs in {elapsed:.2f}s",
    )


def test_criterion_2_intertwining(bc):
    """Embedding intertwines averaging with the rescaled action, exactly."""
    start = time.perf_counter()
    ok = True

    def run_family(fam, levels, gens):
        nonlocal ok
        for s in levels:
            for n in gens:
                d = delta(fam, n)
                if embed_i(alpha(s, d)) != theta_star(s, embed_i(d)):
                    ok = False
                    return

    run_family(bc, range(1, 13), farey(12))
    for p, lmax in ((2, 4), (3, 3)):
        fam = PadicFamily(p)
        gens = [Fraction(k, p**l) for l in range(0, 3) for k in range(p**l) if p**l <= 12]
        run_family(fam, range(0, lmax + 1), gens)
    mat = MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])
    mat_gens = [
        mat.canon(mat.psi_s((1, 0), (Fraction(1), Fraction(1)))),
        mat.canon(mat.psi_s((1, 1), (Fraction(1), Fraction(2)))),
        mat.canon(mat.psi_s((2, 0), (Fraction(3), Fraction(1)))),
    ]
    run_family(mat, [(m, n) for m in range(4) for n in range(4)], mat_gens)
    elapsed = time.perf_counter() - start
    report(
        "2 intertwining of embedding and rescaled action (three families, exact)",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_3_minimality_formula(bc):
    """Pulled-back generators are scaled cylinder indicators and span."""
    ok = True
    for s in (2, 3, 4, 6, 12):
        cosets = bc.coset_reps(s) + [
            bc.canon(Fraction(1, 5), s),
            bc.canon(Fraction(7, 3), s),
            bc.canon(Fraction(11, 4), s),
        ]
        for c in cosets:
            n = bc.canon(bc.psi_s(s, c))
            pulled = theta_star_inv(s, embed_i(delta(bc, n)))
            if pulled != cylinder(bc, s, c).scale(Fraction(bc.index(s))):
                ok = False
    report("3 minimality formula and cylinder span (levels 2,3,4,6,12, exact)", ok)


def test_criterion_4_dilation_covariance(bc, rep, dil):
    """The dilated pair is covariant; Gram matrices are positive."""
    start = time.perf_counter()
    rng = random.Random(2024)
    worst = 0.0
    for _ in range(100):
        s, t = rng.randint(1, 12), rng.randint(1, 12)
        g = Fraction(t, s)
        n = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        v = DilationVector.symbol(rng.choice([1, 2, 3, 4, 6]), random_vector(bc, rng))
        lhs = dil.apply_U(g, dil.apply_W(n, dil.apply_U(1 / g, v)))
        rhs = dil.apply_W(bc.psi(g, n), v)
        worst = max(worst, dil.distance(lhs, rhs))
    vecs = [
        DilationVector.symbol(rng.choice([1, 2, 3, 4, 6, 12]), random_vector(bc, rng))
        for _ in range(40)
    ]
    min_eig = dil.gram_min_eigenvalue(vecs)
    collision_worst = 0.0
    for _ in range(50):
        s, t = rng.randint(1, 6), rng.randint(2, 4)
        h = random_vector(bc, rng)
        n = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        a = DilationVector.symbol(s, h)
        b = DilationVector.symbol(t * s, rep.apply_V(t, h))
        collision_worst = max(collision_worst, dil.distance(a, b))
        collision_worst = max(
            collision_worst, dil.distance(dil.apply_W(n, a), dil.apply_W(n, b))
        )
    elapsed = time.perf_counter() - start
    ok = worst <= TOL and min_eig >= -TOL and collision_worst <= TOL and elapsed < 30.0
    report(
        "4 dilation covariance, Gram positivity, well-definedness",
        ok,
        f"cov {worst:.2e}, min eig {min_eig:.2e}, collisions {collision_worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_round_trip(bc, rep, dil):
    """Restriction-compression undoes the dilation."""
    rng = random.Random(11)
    truncation = [1, 2, 3, 4, 6, 12]
    basis = [SparseVector.basis(k) for k in (Fraction(0), Fraction(1, 2), Fraction(1, 3))]
    rc_rep = restrict_compress(dil, truncation, basis, tol=TOL)
    worst = 0.0
    for h in basis:
        for n in (Fraction(1, 2), Fraction(2, 3), Fraction(5, 12)):
            worst = max(
                worst,
                dil.distance(rc_rep.apply_Y(n, dil.embed(h)), dil.embed(rep.apply_Y(n, h))),
            )
        for s in truncation:
            worst = max(
                worst,
                dil.distance(rc_rep.apply_V(s, dil.embed(h)), dil.embed(rep.apply_V(s, h))),
            )
            worst = max(
                worst,
                dil.distance(
                    rc_rep.apply_Vstar(s, dil.embed(h)), dil.embed(rep.apply_Vstar(s, h))
                ),
            )
    rebuilt_worst = 0.0
    for _ in range(100):
        s = rng.choice(truncation)
        h = random_vector(bc, rng)
        n = Fraction(rng.randint(-8, 8), rng.randint(1, 12))
        rebuilt = dil.apply_Ustar(s, rc_rep.apply_Y(bc.canon(bc.psi_s(s, n)), dil.embed(h)))
        rebuilt_worst = max(
            rebuilt_worst, dil.distance(rebuilt, dil.apply_W(n, DilationVector.symbol(s, h)))
        )
    ok = worst <= TOL and rebuilt_worst <= TOL and not rc_rep.excess_residuals
    report(
        "5 dilation round trip recovers the covariant pair",
        ok,
        f"compression {worst:.2e}, rebuilt unitaries {rebuilt_worst:.2e}",
    )


def test_criterion_6_averaging_projection(bc, rep, dil):
    """Blockwise averaging is an orthogonal projection fixing the carrier."""
    rng = random.Random(31)
    worst = 0.0
    for s in (2, 3, 4, 6):
        for _ in range(6):
            h = random_vector(bc, rng)
            k = random_vector(bc, rng)
            v = DilationVector.symbol(s, h)
            w = DilationVector.symbol(s, k)
            pv = dil.project_fixed(v)
            worst = max(worst, dil.distance(dil.project_fixed(pv), pv))
            worst = max(worst, abs(dil.inner(pv, w) - dil.inner(v, dil.project_fixed(w))))
            embedded = DilationVector.symbol(s, rep.apply_V(s, h))
            worst = max(worst, dil.distance(dil.project_fixed(embedded), embedded))
    report("6 averaging projection (levels 2,3,4,6)", worst <= TOL, f"max dev {worst:.2e}")


def test_criterion_7_appendix_functors(bc, rep):
    """Corner identities, Gram preservation, induction vs dilation, inverse."""
    p = xprod.projection_p(bc)
    exact_ok = p * p == p
    for s in (1, 2, 3, 4, 6):
        vs = xprod.isom_v(bc, s)
        exact_ok = exact_ok and vs.star() * vs == p

    ind = xprod.x_ind(rep)
    dl = ind.dilation
    rng = random.Random(47)

    # Gram preservation on a 50-element spanning set.
    pairs = []
    for _ in range(50):
        s, t = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
        a = delta(bc, Fraction(rng.randint(0, 5), rng.randint(1, 6)))
        pairs.append((xprod.compose_corner(bc, s, a, t), random_vector(bc, rng, terms=2)))
    images = [xprod.theta_map(ind, d, h) for d, h in pairs]
    gram_worst = 0.0
    decompose_cache = {}
    for i, (d1, h1) in enumerate(pairs):
        for j in range(i, len(pairs)):
            d2, h2 = pairs[j]
            key = (j, i)
            tri = decompose_cache.get(key)
            if tri is None:
                tri = xprod.corner_decompose(d2.star() * d1)
                decompose_cache[key] = tri
            module_side = xprod.eval_corner(rep, tri, h1).inner(h2)
            image_side = dl.inner(images[i], images[j])
            gram_worst = max(gram_worst, abs(module_side - image_side))

    # Induction output matches the dilation operators under the
    # identification of tensors with symbols.
    ident_worst = 0.0
    for _ in range(20):
        s = rng.choice([1, 2, 3, 4])
        h = random_vector(bc, rng)
        vec = DilationVector.symbol(s, h)
        ident_worst = max(ident_worst, dl.distance(ind.act(p, vec), ind.rho_p(vec)))
        n = Fraction(rng.randint(0, 6), rng.randint(1, 6))
        lhs = ind.act(xprod.embed_algebra(delta(bc, n)), vec)
        rhs = dl.apply_W(n, ind.rho_p(vec))
        ident_worst = max(ident_worst, dl.distance(lhs, rhs))
        ident_worst = max(
            ident_worst,
            dl.distance(ind.act(xprod.isom_v(bc, s), ind.phi(h)), ind.phi(rep.apply_V(s, h))),
        )

    # Restriction-compression inverts induction on the embedded carrier.
    back = xprod.rc(ind)
    rc_worst = 0.0
    for _ in range(20):
        h = random_vector(bc, rng)
        phi_h = ind.phi(h)
        n = Fraction(rng.randint(0, 6), rng.randint(1, 6))
        rc_worst = max(rc_worst, dl.distance(back.apply_Y(n, phi_h), ind.phi(rep.apply_Y(n, h))))
        s = rng.choice([2, 3, 4])
        rc_worst = max(rc_worst, dl.distance(back.apply_V(s, phi_h), ind.phi(rep.apply_V(s, h))))
        rc_worst = max(
            rc_worst, dl.distance(back.apply_Vstar(s, phi_h), ind.phi(rep.apply_Vstar(s, h)))
        )

    ok = exact_ok and gram_worst <= TOL and ident_worst <= TOL and rc_worst <= TOL
    report(
        "7 corner functors: exact isometry relations, Gram preservation, inverse",
        ok,
        f"gram {gram_worst:.2e}, identification {ident_worst:.2e}, inverse {rc_worst:.2e}",
    )


def test_criterion_8_equivalence(bc, rep):
    """Extension to the completion restricts back to the dilated unitaries."""
    ext = xprod.extend_rep(rep)
    res = xprod.restrict_completion_rep(ext)
    dl = ext.dilation
    rng = random.Random(53)
    worst = 0.0
    for _ in range(100):
        n = Fraction(rng.randint(-10, 10), rng.randint(1, 10))
        vec = DilationVector.symbol(rng.choice([1, 2, 3, 4, 6]), random_vector(bc, rng))
        worst = max(worst, dl.distance(res.X(n, vec), dl.apply_W(n, vec)))
    m_worst = 0.0
    for m in (Fraction(1), Fraction(-5), Fraction(12)):
        vec = DilationVector.symbol(rng.choice([1, 2, 3]), random_vector(bc, rng))
        m_worst = max(m_worst, res.m_fixed_deviation(m, vec))
    unit_worst = 0.0
    for level in (2, 4):
        k_at = chi_K(bc).refine(level)
        vec = DilationVector.symbol(rng.choice([1, 2, 3]), random_vector(bc, rng))
        unit_worst = max(unit_worst, dl.distance(ext.rho(k_at, vec), ext.rho_p(vec)))
    ok = worst <= TOL and m_worst <= TOL and unit_worst <= TOL
    report(
        "8 restriction/extension equivalence with subgroup-generated range",
        ok,
        f"restricted unitaries {worst:.2e}, fixed-space {m_worst:.2e}, unit {unit_worst:.2e}",
    )


def test_criterion_9_crt(bc):
    """Residue splitting is a ring bijection at every level up to 5040."""
    start = time.perf_counter()
    bound = 5040
    spf = list(range(bound + 1))  # smallest prime factor sieve
    for p in range(2, int(bound**0.5) + 1):
        if spf[p] == p:
            for q in range(p * p, bound + 1, p):
                if spf[q] == q:
                    spf[q] = p
    ok = True
    for n in range(1, bound + 1):
        moduli = []
        m = n
        while m > 1:
            p = spf[m]
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            moduli.append(q)
        r = np.arange(n, dtype=np.int64)
        keys = np.zeros(n, dtype=np.int64)
        scale = 1
        for q in moduli:
            keys += (r % q) * scale
            scale *= q
        if np.unique(keys).size != n:
            ok = False
            break
        for sample in {0, n // 3, n - 1}:
            comps = adeles.crt_forward(TruncatedElement.make(bc, n, Fraction(sample)))
            # The sieve emits prime powers in increasing prime order, the
            # same order the splitting function uses.
            if [c.p**c.l for c in comps] != moduli or any(
                c.r != sample % (c.p**c.l) for c in comps
            ):
                ok = False
                break
        if not ok:
            break
    rng = random.Random(59)
    for _ in range(1000):
        n = rng.randint(2, 5040)
        a, b = rng.randrange(n), rng.randrange(n)
        fa = adeles.crt_forward(TruncatedElement.make(bc, n, Fraction(a)))
        fb = adeles.crt_forward(TruncatedElement.make(bc, n, Fraction(b)))
        fs = adeles.crt_forward(TruncatedElement.make(bc, n, Fraction((a + b) % n)))
        fp = adeles.crt_forward(TruncatedElement.make(bc, n, Fraction((a * b) % n)))
        for ca, cb, cs, cp in zip(fa, fb, fs, fp):
            q = ca.p**ca.l
            if cs.r != (ca.r + cb.r) % q or cp.r != (ca.r * cb.r) % q:
                ok = False
    for k in range(1, 101):
        comps = adeles.crt_forward(embed_j(bc, Fraction(k)).truncate(2520))
        if any(c.r != k % c.p**c.l for c in comps):
            ok = False
    elapsed = time.perf_counter() - start
    report(
        "9 residue splitting: exhaustive bijection to 5040, ring laws, integers",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_10_duality(bc):
    """Pairings: level independence, nondegeneracy, chart coherence."""
    rng = random.Random(61)
    ok = True
    for _ in range(500):
        dx, dy = rng.randint(1, 16), rng.randint(1, 16)
        x = embed_j(bc, Fraction(rng.randint(1, 50), dx))
        y = embed_j(bc, Fraction(rng.randint(1, 50), dy))
        base = adeles.pairing(x, y)
        lcm = (dx * dy) // math.gcd(dx, dy)
        if adeles.pairing(x, y, at_level=2 * lcm) != base:
            ok = False
    for n in range(2, 65):
        rows = set()
        for k in range(n):
            row = tuple(
                adeles.pairing(embed_j(bc, Fraction(k)), embed_j(bc, Fraction(r, n)))
                for r in range(n)
            )
            if row in rows:
                ok = False
            rows.add(row)
    for _ in range(200):
        n = rng.randint(1, 10)
        k = rng.randint(1, 6)
        level = rng.randint(1, 6)
        x = TruncatedElement.make(bc, level, Fraction(rng.randrange(1, n * level + 1), n))
        if not adeles.adele_equal(adeles.mu_m(x, n), adeles.mu_m(x, k * n), bc):
            ok = False
    mat = MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])
    tfam = mat.transpose_family()
    for _ in range(60):
        sx = (rng.randint(0, 2), rng.randint(0, 2))
        sy = (rng.randint(0, 2), rng.randint(0, 2))
        x = embed_j(mat, mat.psi_s(sx, tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))))
        y = embed_j(tfam, tfam.psi_s(sy, tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))))
        base = adeles.matrix_pairing(mat, x, y)
        tx = adeles.matrix_denominator_level(mat, x)
        ty = adeles.matrix_denominator_level(tfam, y)
        deeper = (max(tx[0], ty[0]) + 1, max(tx[1], ty[1]) + 1)
        if adeles.matrix_pairing(mat, x, y, at_level=deeper) != base:
            ok = False
    report("10 duality pairings: level independence, nondegeneracy, coherence", ok)


def test_criterion_11_matrix_indices():
    """Lattice-quotient enumeration equals the determinant power formula."""
    fam = MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])
    ok = True
    for m in range(5):
        for n in range(5):
            s = (m, n)
            expected = abs(fam.detF) ** m * abs(fam.detM) ** n
            if fam.enumeration_count(s) != expected:
                ok = False
            if expected <= 40_000:
                streamed = sum(1 for _ in fam.iter_coset_reps(s))
            else:
                streamed = fam.enumeration_count(s)
            if streamed != expected or fam.index(s) != expected:
                ok = False
    report("11 matrix family indices equal determinant powers (m, n <= 4, exact)", ok)
