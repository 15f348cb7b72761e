"""Crossed-product corner, induction, restriction-compression, and the
equivalence between subgroup-generated and completion representations.

The algebraic identities (projection, isometry relations, corner
decomposition) are exact, over rational coefficients; everything on the
dilation space is float with tolerance 1e-9.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hecke_lab.coeffs import QC
from hecke_lab.errors import ConfigError, LevelCapError, NotInCornerError
from hecke_lab.pairs import BostConnesFamily, MatrixFamily, PadicFamily
from hecke_lab import autodil, dilate, grpalg, repspace, tower, xprod
from hecke_lab.autodil import chi_K, cylinder, theta_star_g
from hecke_lab.dilate import DilationVector
from hecke_lab.grpalg import delta
from hecke_lab.repspace import SparseVector, random_vector, regular_covariant
from hecke_lab.xprod import (
    CrossedElement,
    compose_corner,
    corner_decompose,
    embed_algebra,
    eval_corner,
    in_corner,
    isom_v,
    projection_p,
    rc,
    theta_map,
    x_ind,
)
from test_repspace import summed_vector

TOL = 1e-9


@pytest.fixture(scope="module")
def bc():
    return BostConnesFamily()


@pytest.fixture(scope="module")
def rep(bc):
    return regular_covariant(bc)


@pytest.fixture(scope="module")
def ind(rep):
    return x_ind(rep)


def rand_crossed(fam, rng, terms=2):
    pairs = []
    for _ in range(terms):
        level = rng.choice([1, 2, 3])
        f = autodil.LocFun.build(
            fam,
            level,
            [
                (Fraction(rng.randint(-6, 6), rng.randint(1, 4)), Fraction(rng.randint(-2, 2)))
                for _ in range(2)
            ],
        )
        g = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2, 3]))
        pairs.append((f, g))
    return CrossedElement.build(fam, pairs)


# --- exact corner algebra -------------------------------------------------------


def test_projection_identities(bc):
    p = projection_p(bc)
    assert p * p == p
    assert p.star() == p


def test_isometry_relations_exact(bc):
    p = projection_p(bc)
    for s in (1, 2, 3, 4, 6):
        v = isom_v(bc, s)
        assert v.star() * v == p
        assert p * v == v  # u_s p lies in the corner on the left as well
    assert isom_v(bc, 2) * isom_v(bc, 3) == isom_v(bc, 6)


def test_product_law_associative(bc):
    rng = random.Random(3)
    for _ in range(10):
        a, b, c = (rand_crossed(bc, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_involution_antimultiplicative(bc):
    rng = random.Random(5)
    for _ in range(10):
        a, b = rand_crossed(bc, rng), rand_crossed(bc, rng)
        assert a.star().star() == a
        assert (a * b).star() == b.star() * a.star()


def test_covariance_inside_product(bc):
    # u_g f u_g^-1 = (rescaled action of g on f), read off the product law.
    rng = random.Random(7)
    for _ in range(10):
        f = autodil.LocFun.build(bc, 2, [(Fraction(rng.randint(0, 8), 2), 1)])
        g = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
        ug = CrossedElement.build(bc, [(theta_star_g(g, chi_K(bc)), g)])
        # For the unit-scaled implementing element: u_g p u_g^* has the
        # rescaled action applied to the projection.
        lhs = ug * ug.star()
        expected = CrossedElement.build(
            bc, [(autodil.convolve(theta_star_g(g, chi_K(bc)), theta_star_g(g, chi_K(bc))), bc.g_identity)]
        )
        assert lhs == expected


def test_corner_membership(bc):
    p = projection_p(bc)
    assert in_corner(p)
    assert in_corner(compose_corner(bc, 2, delta(bc, Fraction(1, 2)), 3))
    # A bare implementing unitary term is not in the corner.
    loose = CrossedElement.build(bc, [(cylinder(bc, 2, Fraction(1)), Fraction(2))])
    assert not in_corner(loose)
    with pytest.raises(NotInCornerError):
        corner_decompose(loose)


def test_corner_decompose_unit(bc):
    triples = corner_decompose(projection_p(bc))
    assert len(triples) == 1
    s, a, t = triples[0]
    assert s == 1 and t == 1
    assert a == grpalg.one(bc)


def test_corner_decompose_roundtrip(bc):
    rng = random.Random(11)
    for _ in range(12):
        s = rng.choice([1, 2, 3])
        t = rng.choice([1, 2, 3])
        a = grpalg.GroupAlgebraElement.build(
            bc,
            [
                (Fraction(rng.randint(0, 5), rng.randint(1, 6)), QC(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-1, 1))))
                for _ in range(2)
            ],
        )
        d = compose_corner(bc, s, a, t)
        rebuilt = CrossedElement(bc, {})
        for s2, a2, t2 in corner_decompose(d):
            rebuilt = rebuilt + compose_corner(bc, s2, a2, t2)
        assert rebuilt == d


def test_corner_decompose_sum_of_components(bc):
    d = compose_corner(bc, 2, delta(bc, Fraction(1, 2)), 3) + compose_corner(
        bc, 1, delta(bc, Fraction(1, 3)), 1
    )
    rebuilt = CrossedElement(bc, {})
    for s, a, t in corner_decompose(d):
        rebuilt = rebuilt + compose_corner(bc, s, a, t)
    assert rebuilt == d


def test_u2p_is_in_corner(bc):
    # u_2 p itself: p (u_2 p) p = u_2 p, decomposing as the (e, 1, 2) triple.
    v2 = isom_v(bc, 2)
    assert in_corner(v2)
    triples = corner_decompose(v2)
    rebuilt = CrossedElement(bc, {})
    for s, a, t in triples:
        rebuilt = rebuilt + compose_corner(bc, s, a, t)
    assert rebuilt == v2
    assert [(s, t) for s, _, t in triples] == [(1, 2)]
    assert triples[0][1] == grpalg.one(bc)


def test_corner_fullness_surrogate(bc):
    # index(l) * (cylinder over c at level l) u_g = (u_l^* gen u_l) p (chiK u_lg)
    p = projection_p(bc)
    for level in (2, 3, 6):
        c = Fraction(1, level) if level > 1 else Fraction(0)
        n = bc.canon(bc.psi_s(level, c))
        d1 = CrossedElement.build(
            bc,
            [(
                theta_star_g(Fraction(1, level), autodil.embed_i(delta(bc, n))),
                Fraction(1, level),
            )],
        )
        g = Fraction(2)
        d2 = CrossedElement.build(bc, [(chi_K(bc), Fraction(level) * g)])
        product = d1 * p * d2
        target = CrossedElement.build(
            bc, [(cylinder(bc, level, c).scale(Fraction(bc.index(level))), g)]
        )
        assert product == target


# --- evaluation and induction -----------------------------------------------------


def test_eval_corner_identities(rep, bc):
    rng = random.Random(13)
    p_tri = corner_decompose(projection_p(bc))
    for _ in range(5):
        v = random_vector(bc, rng)
        assert (eval_corner(rep, p_tri, v) - v).norm() < TOL
    v2_tri = corner_decompose(isom_v(bc, 2))
    for _ in range(5):
        v = random_vector(bc, rng)
        assert (eval_corner(rep, v2_tri, v) - rep.apply_V(2, v)).norm() < TOL


def test_eval_corner_multiplicative(rep, bc):
    rng = random.Random(17)
    for _ in range(8):
        s, t, u = (rng.choice([1, 2, 3]) for _ in range(3))
        a = delta(bc, Fraction(rng.randint(0, 3), 4))
        b = delta(bc, Fraction(rng.randint(0, 2), 3))
        d1 = compose_corner(bc, s, a, t)
        d2 = compose_corner(bc, t, b, u)
        t1, t2, t12 = corner_decompose(d1), corner_decompose(d2), corner_decompose(d1 * d2)
        for _ in range(3):
            v = random_vector(bc, rng)
            lhs = eval_corner(rep, t1, eval_corner(rep, t2, v))
            rhs = eval_corner(rep, t12, v)
            assert (lhs - rhs).norm() < TOL


def test_engine_reproduces_operators(ind, rep, bc):
    dil = ind.dilation
    rng = random.Random(19)
    p = projection_p(bc)
    for _ in range(10):
        h = random_vector(bc, rng)
        s = rng.choice([1, 2, 3, 4])
        vec = DilationVector.symbol(s, h)
        assert dil.distance(ind.act(p, vec), ind.rho_p(vec)) < TOL
        n = Fraction(rng.randint(0, 5), rng.randint(1, 6))
        lhs = ind.act(embed_algebra(delta(bc, n)), dil.embed(h))
        assert dil.distance(lhs, dil.embed(rep.apply_Y(n, h))) < TOL
        lhs = ind.act(isom_v(bc, s), dil.embed(h))
        assert dil.distance(lhs, dil.embed(rep.apply_V(s, h))) < TOL


def test_engine_is_multiplicative(ind, bc):
    dil = ind.dilation
    rng = random.Random(23)
    for _ in range(8):
        d1 = rand_crossed(bc, rng)
        d2 = rand_crossed(bc, rng)
        vec = DilationVector.symbol(rng.choice([1, 2, 3]), random_vector(bc, rng))
        lhs = ind.act(d1, ind.act(d2, vec))
        rhs = ind.act(d1 * d2, vec)
        assert dil.distance(lhs, rhs) < TOL


def test_phi_isometric_and_fixed(ind, bc):
    dil = ind.dilation
    rng = random.Random(29)
    for _ in range(10):
        h = random_vector(bc, rng)
        assert abs(dil.norm(ind.phi(h)) - h.norm()) < TOL
        assert dil.distance(ind.rho_p(ind.phi(h)), ind.phi(h)) < TOL


def test_x_ind_gram_against_module_side(ind, rep, bc):
    dil = ind.dilation
    rng = random.Random(31)
    data = []
    for _ in range(8):
        s, t = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
        a = delta(bc, Fraction(rng.randint(0, 3), rng.randint(1, 4)))
        h = random_vector(bc, rng)
        data.append((s, a, t, h))

    def tensor_vector(s, a, t, h):
        acc = SparseVector({})
        for n, c in a.values.items():
            acc = acc + rep.apply_Y(n, rep.apply_V(t, h)).scale(complex(c))
        return DilationVector.symbol(s, acc)

    for i, (s1, a1, t1, h1) in enumerate(data):
        v1 = tensor_vector(s1, a1, t1, h1)
        x1 = xprod.module_element(bc, s1, a1, t1)
        for s2, a2, t2, h2 in data[i:]:
            v2 = tensor_vector(s2, a2, t2, h2)
            x2 = xprod.module_element(bc, s2, a2, t2)
            module_side = eval_corner(rep, corner_decompose(x2.star() * x1), h1).inner(h2)
            dilation_side = dil.inner(v1, v2)
            assert abs(module_side - dilation_side) < TOL


def test_rc_after_induction_is_identity(ind, rep, bc):
    dil = ind.dilation
    back = rc(ind)
    rng = random.Random(37)
    for _ in range(8):
        h = random_vector(bc, rng)
        phi_h = ind.phi(h)
        for n in (Fraction(1, 2), Fraction(2, 3)):
            assert dil.distance(back.apply_Y(n, phi_h), ind.phi(rep.apply_Y(n, h))) < TOL
        for s in (2, 3, 4):
            assert dil.distance(back.apply_V(s, phi_h), ind.phi(rep.apply_V(s, h))) < TOL
            assert (
                dil.distance(back.apply_Vstar(s, phi_h), ind.phi(rep.apply_Vstar(s, h))) < TOL
            )


def test_rho_p_idempotent(ind, bc):
    dil = ind.dilation
    rng = random.Random(41)
    for _ in range(6):
        vec = DilationVector.symbol(rng.choice([2, 3, 4]), random_vector(bc, rng))
        once = ind.rho_p(vec)
        assert dil.distance(ind.rho_p(once), once) < TOL


def test_theta_map_preserves_gram(ind, rep, bc):
    dil = ind.dilation
    rng = random.Random(43)
    p = projection_p(bc)
    pairs = []
    for _ in range(8):
        s, t = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
        a = delta(bc, Fraction(rng.randint(0, 3), rng.randint(1, 4)))
        pairs.append((compose_corner(bc, s, a, t), random_vector(bc, rng)))
    images = [theta_map(ind, d, h) for d, h in pairs]
    for i, (d1, h1) in enumerate(pairs):
        for j in range(i, len(pairs)):
            d2, h2 = pairs[j]
            module_side = eval_corner(
                rep, corner_decompose((p * d2).star() * (p * d1)), h1
            ).inner(h2)
            image_side = dil.inner(images[i], images[j])
            assert abs(module_side - image_side) < TOL


def test_theta_map_naturality(rep, bc):
    rep2 = repspace.direct_sum(rep, rep)
    T = repspace.inclusion_intertwiner("a")
    ind1 = x_ind(rep)
    ind2 = x_ind(rep2)
    rng = random.Random(47)
    for _ in range(6):
        s, t = rng.choice([1, 2, 3]), rng.choice([1, 2, 3])
        a = delta(bc := rep.family, Fraction(rng.randint(0, 3), rng.randint(1, 4)))
        d = compose_corner(bc, s, a, t)
        h = random_vector(bc, rng)
        lhs = theta_map(ind2, d, T(h))
        rhs = theta_map(ind1, d, h).map_blocks(lambda _s, blk: T(blk))
        assert ind2.dilation.distance(lhs, rhs) < TOL


# --- extension and restriction ------------------------------------------------------


def test_extension_unit_acts_as_projection(ind, bc):
    dil = ind.dilation
    rng = random.Random(53)
    for level in (2, 4, 6):
        k_at_level = chi_K(bc).refine(level)
        for _ in range(3):
            vec = DilationVector.symbol(rng.choice([1, 2, 3]), random_vector(bc, rng))
            assert dil.distance(ind.rho(k_at_level, vec), ind.rho_p(vec)) < TOL


def test_extension_generator_action(ind, bc):
    # rho of a generator cylinder acts as the translation unitary after the
    # fixed-space cut.
    dil = ind.dilation
    rng = random.Random(59)
    for n in (Fraction(1, 2), Fraction(1, 3)):
        f = autodil.embed_i(delta(bc, n))
        for _ in range(3):
            vec = DilationVector.symbol(rng.choice([1, 2]), random_vector(bc, rng))
            lhs = ind.rho(f, vec)
            rhs = ind.W(tower.embed_j(bc, n), ind.rho_p(vec))
            assert dil.distance(lhs, rhs) < TOL


def test_extension_covariance(ind, bc):
    dil = ind.dilation
    rng = random.Random(61)
    for _ in range(8):
        level = rng.choice([1, 2])
        f = autodil.LocFun.build(
            bc, level, [(Fraction(rng.randint(0, 6), 3), Fraction(rng.randint(-2, 2)))]
        )
        g = Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2]))
        vec = DilationVector.symbol(rng.choice([1, 2]), random_vector(bc, rng))
        lhs = ind.rho(theta_star_g(g, f), vec)
        rhs = dil.apply_U(g, ind.rho(f, dil.apply_U(1 / g, vec)))
        assert dil.distance(lhs, rhs) < TOL


def test_restriction_recovers_dilated_unitaries(ind, bc):
    dil = ind.dilation
    rng = random.Random(67)
    for _ in range(100):
        n = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        vec = DilationVector.symbol(rng.choice([1, 2, 3, 4]), random_vector(bc, rng))
        assert dil.distance(ind.W(tower.embed_j(bc, n), vec), dil.apply_W(n, vec)) < TOL


def test_restriction_is_subgroup_generated(ind, bc):
    rng = random.Random(71)
    for m in (Fraction(1), Fraction(-3), Fraction(12)):
        vec = DilationVector.symbol(rng.choice([1, 2, 3]), random_vector(bc, rng))
        assert ind.m_fixed_deviation(m, vec) < TOL


def test_trivial_on_k_everything_fixed(ind, bc):
    # After the projection cut, translations by the subgroup fix every vector.
    rng = random.Random(73)
    vec = ind.rho_p(DilationVector.symbol(2, random_vector(bc, rng)))
    for m in (Fraction(2), Fraction(5)):
        assert ind.dilation.distance(ind.W(tower.embed_j(bc, m), vec), vec) < TOL


def test_w_truncated_precision_error(ind, bc):
    from hecke_lab.errors import PrecisionError

    x = tower.TruncatedElement.make(bc, 2, Fraction(1, 2))
    vec = DilationVector.symbol(3, SparseVector.basis(Fraction(0)))
    with pytest.raises(PrecisionError):
        ind.W(x, vec)


def rho_by_cylinders(ind, f, vec):
    """rho(f) by its definition in the ``xprod`` docstring, one cylinder at
    a time: index(a)^-1 U_a^* W(psi_a(y)) rho(p) U_a over the level-a
    cells y of f, built from the dilation's own operators."""
    fam = ind.family
    dil = ind.dilation
    a = f.level
    fixed = dil.project_fixed(dil.apply_Us(a, vec))
    w = 1.0 / fam.index(a)
    out = []
    for y, val in f.values.items():
        moved = dil.apply_W(fam.canon(fam.psi_s(a, y)), fixed)
        out.extend(dil.apply_Ustar(a, moved).scale(complex(val) * w).blocks.items())
    return DilationVector.build(out)


# (function levels, group elements, block levels) per family.
RHO_CASES = {
    "bost-connes": (
        BostConnesFamily,
        [1, 2, 3, 6],
        [Fraction(1), Fraction(2), Fraction(1, 3), Fraction(3, 2), Fraction(4, 3)],
        [1, 2, 3],
    ),
    "padic(3)": (lambda: PadicFamily(3), [0, 1, 2], [0, 1, -1, 2, -2], [0, 1, 2]),
    "matrix-diag": (
        lambda: MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]]),
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        [(0, 0), (1, 0), (0, 1), (1, -1), (-1, 1)],
        [(0, 0), (1, 0), (0, 1)],
    ),
}


@pytest.mark.parametrize("name", sorted(RHO_CASES))
def test_act_is_rho_after_u(name):
    # act(f u_g) = rho(f) U_g, with rho written by its cylinder definition.
    make, f_levels, gs, block_levels = RHO_CASES[name]
    fam = make()
    ind = x_ind(regular_covariant(fam))
    dil = ind.dilation
    rng = random.Random(89)
    moved = 0
    for _ in range(12):
        level = rng.choice(f_levels)
        f = autodil.LocFun.build(
            fam,
            level,
            [
                (fam.random_coset(rng, 2), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(3)
            ],
        )
        g = rng.choice(gs)
        vec = DilationVector.build(
            (s, random_vector(fam, rng, 2)) for s in rng.sample(block_levels, 2)
        )
        lhs = ind.act(CrossedElement.build(fam, [(f, g)]), vec)
        rhs = rho_by_cylinders(ind, f, dil.apply_U(g, vec))
        assert dil.distance(lhs, rhs) < TOL
        moved += dil.norm(rhs) > 0.05
    assert moved >= 10


def test_padic_corner_identities():
    fam = PadicFamily(3)
    p = projection_p(fam)
    assert p * p == p
    for s in (0, 1, 2):
        v = isom_v(fam, s)
        assert v.star() * v == p
    d = compose_corner(fam, 1, delta(fam, Fraction(1, 3)), 2)
    rebuilt = CrossedElement(fam, {})
    for s2, a2, t2 in corner_decompose(d):
        rebuilt = rebuilt + compose_corner(fam, s2, a2, t2)
    assert rebuilt == d


# Corner cases per family: (s, t) pairs within level (1, 1) for the matrix
# families, generator cosets, and a non-corner term (level, coset, g).  For
# the non-diagonal pair, (s, t) = ((1, 0), (0, 1)) has a probe of 245
# cylinders; ((1, 1), (1, 1)) is left out because its products take seconds.
F = Fraction
CORNER_CASES = {
    "bost-connes": (
        BostConnesFamily,
        [(2, 3), (6, 1), (4, 6)],
        [F(1, 2), F(2, 3), F(5, 6)],
        (2, F(1), F(2)),
    ),
    "padic(3)": (
        lambda: PadicFamily(3),
        [(1, 2), (0, 2), (2, 0), (2, 2)],
        [F(1, 3), F(2, 9), F(4)],
        (1, F(1, 3), 1),
    ),
    "matrix-diag": (
        lambda: MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]]),
        [((1, 0), (0, 1)), ((0, 1), (1, 1)), ((1, 1), (0, 0))],
        [(F(1, 2), F(0)), (F(0), F(1, 3)), (F(1, 5), F(2, 3))],
        ((1, 0), (F(1, 2), F(0)), (0, 1)),
    ),
    "matrix-skew": (
        lambda: MatrixFamily([[2, 1], [1, 3]], [[7, 0], [0, 7]]),
        [((1, 0), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (1, 0)), ((0, 1), (0, 0)),
         ((1, 0), (0, 1))],
        [(F(1, 5), F(2, 5)), (F(1, 7), F(0)), (F(3, 5), F(1, 7))],
        ((1, 0), (F(1, 5), F(0)), (1, 0)),
    ),
}


@pytest.fixture(scope="module", params=sorted(CORNER_CASES))
def corner_case(request):
    make, st, ns, loose = CORNER_CASES[request.param]
    return make(), st, ns, loose


def recompose(fam, triples):
    out = CrossedElement(fam, {})
    for s, a, t in triples:
        out = out + compose_corner(fam, s, a, t)
    return out


def test_corner_decompose_roundtrip_families(corner_case):
    fam, st, ns, _ = corner_case
    for i, (s, t) in enumerate(st):
        a = grpalg.GroupAlgebraElement.build(
            fam, [(ns[i % len(ns)], QC(F(1), F(-1))), (ns[(i + 1) % len(ns)], F(-2, 3))]
        )
        d = compose_corner(fam, s, a, t)
        assert recompose(fam, corner_decompose(d)) == d
    s0, t0 = st[0]
    s1, t1 = st[-1]
    d = compose_corner(fam, s0, delta(fam, ns[0]), t0) + compose_corner(
        fam, s1, delta(fam, ns[1], 3), t1
    )
    assert recompose(fam, corner_decompose(d)) == d


def product_corner(fam, s, a, t):
    """v_s^* i(a) v_t by its definition, multiplied out in the crossed
    product: the oracle for ``compose_corner``'s closed form."""
    return isom_v(fam, s).star() * embed_algebra(a) * isom_v(fam, t)


def _complex_element(fam, ns):
    return grpalg.GroupAlgebraElement.build(
        fam, [(ns[0], QC(F(1), F(-1))), (ns[1], F(-2, 3)), (ns[2 % len(ns)], QC(F(0), F(3, 2)))]
    )


def test_compose_corner_matches_product_definition(corner_case):
    # Exact equality, term by term at the join level, for every generator
    # and a multi-term complex element on each (s, t) pair of the case.
    fam, pairs, ns, _ = corner_case
    for s, t in pairs:
        g = fam.g_mul(fam.g_inv(fam.g_from_s(s)), fam.g_from_s(t))
        for a in [delta(fam, n) for n in ns] + [_complex_element(fam, ns)]:
            got = compose_corner(fam, s, a, t)
            assert set(got.terms) == {g}
            assert got == product_corner(fam, s, a, t)


# Pairs with a common factor per corner case: v_r^* i(delta_n) v_r =
# i(delta_(psi_r^-1(n))) moves them to their reduced pair.
NON_REDUCED = {
    "bost-connes": [(12, 8), (3, 3), (6, 6)],
    "padic(3)": [(1, 1), (2, 3)],
    "matrix-diag": [((1, 1), (1, 1)), ((1, 0), (1, 1))],
    "matrix-skew": [((0, 1), (0, 1)), ((1, 0), (1, 1))],
}


@pytest.mark.parametrize("name", sorted(CORNER_CASES))
def test_compose_corner_on_non_reduced_pairs_and_cancellation(name):
    make, _, ns, _ = CORNER_CASES[name]
    fam = make()
    for s, t in NON_REDUCED[name]:
        assert fam.s_meet(s, t) != fam.s_identity
        for a in (delta(fam, ns[0]), _complex_element(fam, ns)):
            assert compose_corner(fam, s, a, t) == product_corner(fam, s, a, t)
        # n and n + m with m in psi_(s t')(M) give the same translate
        # psi_s^-1(n) + psi_t'(M), so their difference is zero.
        tp = fam.g_reduce(fam.g_mul(fam.g_inv(fam.g_from_s(s)), fam.g_from_s(t)))[1]
        m = fam.solve_coset(fam.s_mul(s, tp), fam.n_identity)[1]
        n2 = fam.canon(fam.n_add(ns[0], m))
        assert n2 != fam.canon(ns[0])
        a = grpalg.GroupAlgebraElement.build(fam, [(ns[0], QC(F(1), F(2))), (n2, QC(F(-1), F(-2)))])
        assert compose_corner(fam, s, a, t).is_zero()
        assert product_corner(fam, s, a, t).is_zero()


_ORACLE_FAMILIES = {
    "bost-connes": (BostConnesFamily(), [1, 2, 3, 4, 6, 8, 12]),
    "padic(2)": (PadicFamily(2), [0, 1, 2, 3]),
    "padic(3)": (PadicFamily(3), [0, 1, 2]),
    "matrix-diag": (
        MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]]),
        [(0, 0), (1, 0), (0, 1), (1, 1)],
    ),
}


@st.composite
def corner_oracle_cases(draw):
    fam, levels = _ORACLE_FAMILIES[draw(st.sampled_from(sorted(_ORACLE_FAMILIES)))]
    s, t = draw(st.sampled_from(levels)), draw(st.sampled_from(levels))
    dim = 2 if fam.tag == "matrix" else 1
    coord = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 5, 6, 9, 10]))
    part = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
    terms = draw(st.lists(
        st.tuples(st.tuples(*[coord] * dim), st.builds(QC, part, part)), min_size=1, max_size=3
    ))
    pairs = [(n if dim > 1 else n[0], c) for n, c in terms]
    return fam, s, grpalg.GroupAlgebraElement.build(fam, pairs), t


@settings(max_examples=200, deadline=None)
@given(corner_oracle_cases())
def test_compose_corner_matches_product_on_random_cases(case):
    fam, s, a, t = case
    got = compose_corner(fam, s, a, t)
    assert got == product_corner(fam, s, a, t)
    assert recompose(fam, corner_decompose(got)) == got


# Families with a low cap: (family, levels on both sides of the cap, n).
CAPPED = {
    "bost-connes": (lambda: BostConnesFamily(level_cap=12), [1, 2, 3, 4, 6, 12, 24, 36], F(1, 2)),
    "padic(3)": (lambda: PadicFamily(3, index_cap=27), [0, 1, 2, 3, 4], F(1, 3)),
    "matrix-diag": (
        lambda: MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]], level_cap=(1, 1)),
        [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)],
        (F(1, 2), F(0)),
    ),
}


@pytest.mark.parametrize("name", sorted(CAPPED))
def test_compose_corner_level_cap_matches_product_definition(name):
    # Both routes raise LevelCapError for the same (s, t), exactly when s
    # exceeds the cap, and agree wherever neither raises.
    make, levels, n = CAPPED[name]
    fam = make()
    a = grpalg.GroupAlgebraElement.build(fam, [(n, QC(F(1), F(-1))), (fam.n_identity, F(2))])

    def outcome(route, s, t):
        try:
            return route(fam, s, a, t)
        except LevelCapError:
            return LevelCapError

    raised = 0
    for s in levels:
        for t in levels:
            got, want = outcome(compose_corner, s, t), outcome(product_corner, s, t)
            try:
                fam.require_level(s)
                over = False
            except LevelCapError:
                over = True
            assert (got is LevelCapError) == (want is LevelCapError) == over, (s, t)
            assert got is LevelCapError or got == want
            raised += over
    assert 0 < raised < len(levels) ** 2


def test_in_corner_iff_decomposes(corner_case):
    fam, st, ns, (level, c, g) = corner_case
    p = projection_p(fam)
    s, t = st[0]
    bare = CrossedElement.build(fam, [(cylinder(fam, level, c), g)])
    module = xprod.module_element(fam, s, delta(fam, ns[0]), t)
    probe = compose_corner(fam, s, delta(fam, ns[1]), t)
    # One finer cylinder inside the probe's own component: it breaks the
    # probe's constancy, so the read-off must reject it.
    (g_st, f_st), = probe.terms.items()
    finer = fam.s_mul(f_st.level, level)
    bump = cylinder(fam, finer, next(iter(f_st.refine(finer).values)))
    corner = [
        p,
        isom_v(fam, s),
        probe,
        bare * p,
        p * module,
    ]
    outside = [bare, p * bare, probe + CrossedElement.build(fam, [(bump, g_st)])]
    # u_s^* i(a) u_t p is cut on the right only; whether it lies in the
    # corner depends on the family and on (s, t).
    for d in corner + outside + [module]:
        try:
            corner_decompose(d)
            decomposes = True
        except NotInCornerError:
            decomposes = False
        assert in_corner(d) == decomposes
    assert all(in_corner(d) for d in corner)
    assert not any(in_corner(d) for d in outside)


# Regression shapes: products whose join level spreads each factor over
# hundreds of cosets.  Both took about 50 s when convolve refined its
# factors to the join level before pairing them.  The matrix factors are
# built by the product definition, which stores y at level (1, 1), so the
# g = e term of x * y holds 900 keys; compose_corner's closed form stores
# y at the identity level, and that term would hold 30.


def _check_product_by_second_route(x, y, d, points):
    """Check d == x * y per component g without convolve: its mass is the
    sum of mass(x_g1) * mass(y_g2) over g1 g2 = g (beta preserves mass and
    convolution multiplies it), and its value at each point z is the
    integral sum_c f(c) h(z - c) index(L)^-1 over the level-L cosets c of
    f = x_g1, with h = beta_g1(y_g2) and L the join of their levels."""
    fam = d.family
    parts = {}
    for g1, f in x.terms.items():
        for g2, f2 in y.terms.items():
            parts.setdefault(fam.g_mul(g1, g2), []).append((f, f2, theta_star_g(g1, f2)))
    assert set(d.terms) <= set(parts)
    for g, factors in parts.items():
        out = d.terms.get(g, autodil.zero(fam))
        assert out.mass() == sum((f.mass() * f2.mass() for f, f2, _ in factors), QC.of(0))
        for z in points + list(out.values)[:8]:
            want = QC.of(0)
            for f, _, h in factors:
                level = fam.s_join(f.level, h.level)
                w = QC.of(Fraction(1, fam.index(level)))
                for c, v in f.refine(level).values.items():
                    want = want + v * h.eval_at(fam.n_add(z, fam.n_neg(c))) * w
            assert out.eval_at(z) == want


def test_matrix_corner_product_at_join_one_one():
    fam = MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])
    a = grpalg.GroupAlgebraElement.build(
        fam, [((F(0), F(0)), QC(F(1), F(-1))), ((F(1, 2), F(1, 3)), F(2, 3))]
    )
    b = grpalg.GroupAlgebraElement.build(
        fam, [((F(1), F(0)), F(3, 2)), ((F(1, 2), F(2, 3)), QC(F(0), F(1)))]
    )
    x = product_corner(fam, (0, 0), a, (1, 1))
    y = product_corner(fam, (1, 1), b, (0, 0))
    assert compose_corner(fam, (0, 0), a, (1, 1)) == x
    assert compose_corner(fam, (1, 1), b, (0, 0)) == y
    start = time.perf_counter()
    d = x * y
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    assert not d.is_zero()
    points = [fam.psi_s((1, 1), (F(i), F(-j))) for i, j in ((0, 0), (1, 2), (7, 3), (4, 9))]
    _check_product_by_second_route(x, y, d, points)
    assert recompose(fam, corner_decompose(d)) == d


def test_matrix_corner_product_in_adjoint_order():
    """The adjoint-order product y* x* of the factors above pairs many more
    keys per convolution; it must equal (x y)* within the same budget."""
    fam = MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])
    a = grpalg.GroupAlgebraElement.build(
        fam, [((F(0), F(0)), QC(F(1), F(-1))), ((F(1, 2), F(1, 3)), F(2, 3))]
    )
    b = grpalg.GroupAlgebraElement.build(
        fam, [((F(1), F(0)), F(3, 2)), ((F(1, 2), F(2, 3)), QC(F(0), F(1)))]
    )
    x = product_corner(fam, (0, 0), a, (1, 1))
    y = product_corner(fam, (1, 1), b, (0, 0))
    assert compose_corner(fam, (0, 0), a, (1, 1)) == x
    assert compose_corner(fam, (1, 1), b, (0, 0)) == y
    ys, xs = y.star(), x.star()
    start = time.perf_counter()
    d = ys * xs
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    assert d == (x * y).star()


def test_padic_module_pairing_at_levels_three_and_zero():
    fam = PadicFamily(3)
    a = grpalg.GroupAlgebraElement.build(fam, [(F(1, 3), QC(F(1), F(-1))), (F(2), F(2, 3))])
    b = grpalg.GroupAlgebraElement.build(fam, [(F(2, 3), F(3, 2)), (F(-1), QC(F(0), F(1)))])
    x = xprod.module_element(fam, 3, b, 0).star()
    y = xprod.module_element(fam, 0, a, 3)
    start = time.perf_counter()
    d = x * y
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    assert not d.is_zero()
    points = [F(0), F(1, 3), F(5, 27), F(-13, 81), F(40, 729), F(1, 2187)]
    _check_product_by_second_route(x, y, d, points)


def test_serialization_roundtrip(bc):
    d = compose_corner(bc, 2, delta(bc, Fraction(1, 2)), 3)
    data = d.to_json()
    assert CrossedElement.from_json(bc, data) == d


@pytest.mark.parametrize("field", ["f", "g"])
def test_from_json_names_a_missing_field(bc, field):
    data = compose_corner(bc, 2, delta(bc, Fraction(1, 2)), 3).to_json()
    del data[0][field]
    with pytest.raises(ConfigError, match=f"'{field}'"):
        CrossedElement.from_json(bc, data)


def test_from_json_refuses_malformed_records(bc):
    for data in ({"f": {}, "g": "1"}, [["f", "g"]]):
        with pytest.raises(ConfigError):
            CrossedElement.from_json(bc, data)


# -- the induction engine against its per-cell route ---------------------------


def per_cell_act(ind, d, vec):
    """Reference route for ``InducedRep.act``: lift each block to the carrier
    V_(l t') h first, then translate that whole carrier by Y[psi_l(c)] once
    per cell c of the level-l function and merge everything.

    It keeps the convolution beta_s'(f) * beta_t'(p) that ``act`` drops by
    the invariance argument of the ``xprod`` docstring, so it shares no
    formula with ``act``.  ``ACT_CASES`` reach terms above the identity
    level with t' != identity on all three families."""
    fam = ind.family
    rep = ind.rep
    out = []
    for g, f in d.terms.items():
        for s, h in vec.blocks.items():
            sp, tp = fam.g_reduce(fam.g_mul(g, fam.g_inv(fam.g_from_s(s))))
            inner = autodil.convolve(autodil.theta_star(sp, f), autodil.theta_star(tp, chi_K(fam)))
            level = inner.level
            carrier = rep.apply_V(fam.s_mul(level, tp), h)
            w = 1.0 / fam.index(level)
            for c, val in inner.values.items():
                n = fam.canon(fam.psi_s(level, c))
                out.append((fam.s_mul(level, sp), rep.apply_Y(n, carrier).scale(complex(val) * w)))
    return DilationVector.build(out)


# (block levels, (s, t), cosets) per family; the blocks sit at every level.
ACT_CASES = {
    "bost-connes": (BostConnesFamily, [1, 2, 3], (2, 3), [F(1, 2), F(2, 3)]),
    "padic(3)": (lambda: PadicFamily(3), [0, 1, 2], (1, 2), [F(1, 3), F(2, 9)]),
    "matrix-diag": (
        lambda: MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]]),
        [(0, 0), (0, 1)],
        ((1, 0), (0, 1)),
        [(F(1, 2), F(0)), (F(0), F(1, 3))],
    ),
}


@pytest.mark.parametrize("summed", [False, True], ids=["regular", "direct-sum"])
@pytest.mark.parametrize("name", sorted(ACT_CASES))
def test_act_matches_per_cell_route(name, summed):
    make, levels, (s, t), ns = ACT_CASES[name]
    fam = make()
    rep = regular_covariant(fam)
    rng = random.Random(83)
    if summed:
        rep = repspace.direct_sum(rep, regular_covariant(fam, check=False))

        def draw():
            return summed_vector(fam, rng, 1)
    else:

        def draw():
            return random_vector(fam, rng, 2)

    ind = x_ind(rep)
    dil = ind.dilation
    a = grpalg.GroupAlgebraElement.build(fam, [(ns[0], QC(F(1), F(-1))), (ns[1], F(-2, 3))])
    elements = [
        projection_p(fam),
        isom_v(fam, s),
        isom_v(fam, t).star(),
        embed_algebra(delta(fam, ns[0])),
        compose_corner(fam, s, a, t),
        xprod.module_element(fam, s, a, t),
    ]
    moved = 0
    for d in elements:
        vec = DilationVector.build((lvl, draw()) for lvl in levels)
        got = ind.act(d, vec)
        ref = per_cell_act(ind, d, vec)
        assert dil.distance(got, ref) <= 1e-12
        moved += dil.norm(ref) > 0.1
    assert moved == len(elements)


def test_equality_needs_the_same_family():
    # Equal values over different families are different elements; equal
    # families built separately still give equal elements.
    assert grpalg.delta(PadicFamily(2), 0) != grpalg.delta(PadicFamily(3), 0)
    assert projection_p(PadicFamily(2)) != projection_p(PadicFamily(3))
    assert autodil.zero(BostConnesFamily()) != autodil.zero(PadicFamily(2))
    assert CrossedElement(PadicFamily(2), {}) != CrossedElement(PadicFamily(3), {})
    assert grpalg.delta(PadicFamily(3), 0) == grpalg.delta(PadicFamily(3), 0)
    assert projection_p(PadicFamily(2)) == projection_p(PadicFamily(2))
    assert autodil.zero(BostConnesFamily()) == autodil.zero(BostConnesFamily())
    assert CrossedElement(PadicFamily(2), {}) == CrossedElement(PadicFamily(2), {})


def _value_hash(f):
    return hash(frozenset(f.values.items()))


def test_equal_matrix_families_give_equal_elements():
    """Two equal matrix families build their keys' coordinates as distinct
    objects; elements built on each still compare equal and hash equal,
    whichever instance built them."""
    one, two = (MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]]) for _ in range(2))
    assert one == two and hash(one) == hash(two)

    def build(fam):
        a = delta(fam, fam.psi_s((1, 1), (Fraction(1), Fraction(2))), QC(Fraction(1), Fraction(-2)))
        f = autodil.theta_star((1, 1), autodil.embed_i(grpalg.alpha((1, 0), a)))
        return f, compose_corner(fam, (1, 0), a, (0, 1))

    (f1, x1), (f2, x2) = build(one), build(two)
    assert len(f1.values) == 180
    k1, k2 = (next(iter(sorted(f.values))) for f in (f1, f2))
    assert k1 == k2 and all(a is not b for a, b in zip(k1, k2))
    assert f1 == f2 and f2 == f1 and (f1 - f2).is_zero()
    assert _value_hash(f1) == _value_hash(f2)
    assert x1 == x2 and x2 == x1 and (x1 - x2).is_zero()
    assert x1.terms.keys() == x2.terms.keys()
    assert all(_value_hash(x1.terms[g]) == _value_hash(x2.terms[g]) for g in x1.terms)
