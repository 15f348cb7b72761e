"""Locally constant functions: refinement, convolution, embedding, and the
rescaled action.

The independent oracle here is pointwise evaluation: a function of level s
is a function on the group, and refinement/convolution must agree with
direct evaluation on sampled group elements.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hecke_lab.coeffs import QC, accumulate, code_complex, qc_code
from hecke_lab.errors import ConfigError, PrecisionError
from hecke_lab.pairs import BostConnesFamily, MatrixFamily, PadicFamily
from hecke_lab import autodil, grpalg
from hecke_lab.autodil import (
    LocFun,
    chi_K,
    convolve,
    cylinder,
    embed_i,
    theta_star,
    theta_star_g,
    theta_star_inv,
)
from hecke_lab.grpalg import delta
from test_pairs import ORACLE_FAMILIES, _fractions_built, n_elements


def oracle_convolve_eval(fam, f, g, z, level):
    """(f*g)(z) evaluated directly: average f(w) g(z-w) over level cosets.

    Runs over the supports of f at the common level; independent of the
    key-combination loop inside convolve.
    """
    fr = f.refine(level)
    gr = g.refine(level)
    total = QC.of(0)
    w = Fraction(1, fam.index(level))
    for c, val in fr.values.items():
        total = total + val * gr.eval_at(fam.n_add(z, fam.n_neg(c))) * QC.of(w)
    return total


@pytest.fixture(scope="module")
def bc():
    return BostConnesFamily()


def rand_locfun(fam, rng, levels, terms=3):
    pairs = []
    for _ in range(terms):
        den = rng.randint(1, 6)
        pairs.append(
            (Fraction(rng.randint(-10, 10), den), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        )
    return LocFun.build(fam, rng.choice(levels), pairs)


def test_chiK_refined_to_level_two(bc):
    r = chi_K(bc).refine(2)
    assert r.values == {Fraction(0): QC.of(1), Fraction(1): QC.of(1)}


def test_refine_identity_and_coherence(bc):
    f = LocFun.build(bc, 2, [(Fraction(1, 2), 1)])
    assert f.refine(2) is f
    assert f.refine(4).refine(12) == f.refine(12)
    with pytest.raises(PrecisionError):
        f.refine(3)


def test_refine_preserves_pointwise_values(bc):
    rng = random.Random(7)
    for _ in range(30):
        f = rand_locfun(bc, rng, [1, 2, 3])
        deeper = f.level * rng.randint(1, 8)
        g = f.refine(deeper)
        for _ in range(10):
            z = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
            assert f.eval_at(z) == g.eval_at(z)
        assert f == g


def test_convolution_of_subgroup_indicator(bc):
    k = chi_K(bc)
    assert convolve(k, k) == k
    assert k.star() == k
    # Mass: the compact subgroup has measure one at every level.
    assert k.mass() == 1
    assert k.refine(12).mass() == 1


def _meet_cases():
    """Four of the families below, each with two factor levels that are
    incomparable or unequal, and its sampler of N elements."""
    bc, p3, diag, _, skew = _shortcut_cases()
    return [
        (bc[0], 2, 3, bc[2]),
        (p3[0], 1, 4, p3[2]),
        (diag[0], (1, 0), (0, 1), diag[2]),
        (skew[0], (1, 1), (0, 2), skew[2]),
    ]


def rand_at(fam, level, sample, rng, terms=3):
    pairs = [
        (sample(rng), QC(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-2, 2))))
        for _ in range(terms)
    ]
    return LocFun.build(fam, level, pairs)


def join_route_convolve(f, g):
    """Convolution with both factors refined to the join level first: the
    formula convolve used before it paired the factors at the meet level."""
    fam = f.family
    t = fam.s_join(f.level, g.level)
    a, b = f.refine(t), g.refine(t)
    w = Fraction(1, fam.index(t))
    pairs = [
        (fam.n_add(ca, cb), va * vb * w)
        for ca, va in a.values.items()
        for cb, vb in b.values.items()
    ]
    return LocFun.build(fam, t, pairs)


def test_convolve_matches_pointwise_oracle(bc):
    rng = random.Random(13)
    for _ in range(15):
        f = rand_locfun(bc, rng, [1, 2])
        g = rand_locfun(bc, rng, [1, 3])
        out = convolve(f, g)
        level = out.level
        for _ in range(8):
            z = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
            assert out.refine(level).eval_at(z) == oracle_convolve_eval(bc, f, g, z, level)
    for fam, s, t, sample in _meet_cases():
        for _ in range(4):
            f = rand_at(fam, s, sample, rng)
            g = rand_at(fam, t, sample, rng)
            out = convolve(f, g)
            assert out.level == fam.s_join(s, t)
            points = [sample(rng) for _ in range(6)] + list(out.values)[:4]
            for z in points:
                assert out.eval_at(z) == oracle_convolve_eval(fam, f, g, z, out.level)


def qc_route_convolve(f, g):
    """Convolution as ``QC`` products merged by ``LocFun.build`` at the meet
    level and refined to the join: the route convolve took before it
    summed integer numerators, kept as the oracle for values and key
    order.  Its keys are Fraction sums reduced by ``canon``, not the
    integer codes convolve sums under."""
    fam = f.family
    m = fam.s_meet(f.level, g.level)
    w = Fraction(1, fam.index(fam.s_join(f.level, g.level)))
    pairs = [
        (fam.canon(fam.n_add(ca, cb), m), va * w * vb)
        for ca, va in f.values.items()
        for cb, vb in g.values.items()
    ]
    return LocFun.build(fam, m, pairs).refine(f.common_level(g))


def rand_mixed(fam, level, sample, rng, terms):
    """Complex values whose parts have unrelated denominators."""
    pairs = [
        (sample(rng), QC(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 10))))
        for _ in range(terms)
    ]
    return LocFun.build(fam, level, pairs)


def test_convolve_matches_qc_route_with_key_order():
    rng = random.Random(29)
    returned = set()
    for fam, s, t, sample in _meet_cases():
        levels = (fam.s_identity, s, t, fam.s_meet(s, t))
        for make in (rand_at, rand_mixed):
            for _ in range(5):
                f = make(fam, rng.choice(levels), sample, rng, terms=rng.randint(1, 5))
                g = make(fam, rng.choice(levels), sample, rng, terms=rng.randint(1, 5))
                got, want = convolve(f, g), qc_route_convolve(f, g)
                assert got.level == want.level
                assert list(got.values.items()) == list(want.values.items())
        # A cell that cancels and comes back: at the meet level m, key 0
        # gets 1, then -1 (its cell is deleted), then 1 again, appended
        # last; d and -d cancel for good.
        m = fam.s_meet(s, t)
        for _ in range(3):
            d = sample(rng)
            two = fam.n_add(d, d)
            zero, minus, minus2 = fam.n_identity, fam.n_neg(d), fam.n_neg(two)
            if len({fam.canon(x, m) for x in (zero, d, two, minus, minus2)}) < 5:
                continue
            f = LocFun.build(fam, m, [(zero, 1), (minus, -1), (minus2, 1)])
            g = LocFun.build(fam, m, [(x, QC(1, 1)) for x in (zero, d, two)])
            got = list(convolve(f, g).values.items())
            assert got == list(qc_route_convolve(f, g).values.items())
            assert [k for k, _ in got] == [fam.canon(x, m) for x in (two, minus2, zero)]
            returned.add(id(fam))
    assert len(returned) == len(_meet_cases())


def test_convolve_cell_that_cancels_and_returns(bc):
    """Key 1/2 gets 1, then -1 (its cell is deleted), then 2 (appended
    last); key 0 cancels for good."""
    f = LocFun.build(bc, 1, [(Fraction(0), 1), (Fraction(1, 2), -1), (Fraction(1, 4), 2)])
    g = LocFun.build(bc, 1, [(Fraction(0), 1), (Fraction(1, 2), 1), (Fraction(1, 4), 1)])
    got = list(convolve(f, g).values.items())
    assert got == list(qc_route_convolve(f, g).values.items())
    assert got == [(Fraction(1, 4), QC.of(3)), (Fraction(3, 4), QC.of(1)), (Fraction(1, 2), QC.of(2))]


def two_hash_build(fam, level, pairs):
    """``LocFun.build``'s merge written as a membership test and a store."""
    out = {}
    for n, c in pairs:
        key = fam.canon(n, level)
        c = QC.of(c)
        if key in out:
            c = out[key] + c
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def test_build_and_add_keep_the_merge_order(bc):
    x, y = Fraction(1, 2), Fraction(1, 3)
    pairs = [(x, 1), (x + 1, -1), (y, QC(1, 1)), (x, 2), (y - 2, 1)]
    got = list(LocFun.build(bc, 1, pairs).values.items())
    assert got == [(y, QC(2, 1)), (x, QC.of(2))] == list(two_hash_build(bc, 1, pairs).items())
    rng = random.Random(31)
    for fam, s, t, sample in _meet_cases():
        for _ in range(6):
            level = rng.choice((s, t))
            f = rand_at(fam, level, sample, rng, terms=4)
            keys = list(f.values)
            # Cancel some of f's keys, re-add one, and bring in new ones.
            pairs = [(k, -f.values[k]) for k in keys[::2]]
            pairs += [(sample(rng), 1), (keys[0], 3), (sample(rng), QC(0, 1))]
            g = LocFun.build(fam, level, pairs)
            assert list(g.values.items()) == list(two_hash_build(fam, level, pairs).items())
            want = two_hash_build(fam, level, [*f.values.items(), *g.values.items()])
            assert list((f + g).values.items()) == list(want.items())
            assert list((f + f).values.items()) == [(k, c * 2) for k, c in f.values.items()]


def test_injective_maps_match_build_route():
    """star, scale and theta_star_inv fill their dicts without ``build``;
    values and key order must be the ones ``build`` makes."""
    rng = random.Random(37)
    for fam, s, t, sample in _meet_cases():
        for level in (fam.s_identity, s, t):
            f = rand_mixed(fam, level, sample, rng, terms=5)
            star = [(fam.n_neg(k), c.conjugate()) for k, c in f.values.items()]
            assert list(f.star().values.items()) == list(LocFun.build(fam, level, star).values.items())
            q = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
            scaled = [(k, c * q) for k, c in f.values.items()]
            assert list(f.scale(q).values.items()) == list(LocFun.build(fam, level, scaled).values.items())
            assert f.scale(0).is_zero() and f.scale(Fraction(0)).is_zero()
            for u in (s, t) if level == fam.s_identity else (s,):
                idx = fam.index(u)
                pulled = [(fam.psi_s_inv(u, k), c * idx) for k, c in f.values.items()]
                want = LocFun.build(fam, fam.s_mul(level, u), pulled)
                got = theta_star_inv(u, f)
                assert got.level == want.level
                assert list(got.values.items()) == list(want.values.items())


def test_convolve_matches_join_route():
    rng = random.Random(17)
    for fam, s, t, sample in _meet_cases():
        levels = (fam.s_identity, s, t, fam.s_meet(s, t))
        for _ in range(6):
            f = rand_at(fam, rng.choice(levels), sample, rng, terms=rng.randint(1, 4))
            g = rand_at(fam, rng.choice(levels), sample, rng, terms=rng.randint(1, 4))
            got, want = convolve(f, g), join_route_convolve(f, g)
            assert got.level == want.level and got.values == want.values


def test_s_meet_is_the_level_of_the_subgroup_sum():
    """m = s_meet(s, t) divides s and t, so the level-m subgroup contains the
    sum of the level-s and level-t subgroups; that sum has index
    index(s) * index(t) / index(s v t), so the index identity makes the
    containment an equality.  m is also the greatest common divisor."""
    for fam, levels, _ in _shortcut_cases():
        for s in levels:
            for t in levels:
                m = fam.s_meet(s, t)
                assert fam.s_divide(s, m) is not None and fam.s_divide(t, m) is not None
                assert fam.index(s) * fam.index(t) == fam.index(m) * fam.index(fam.s_join(s, t))
                assert fam.s_meet(t, s) == m
                for d in levels:
                    if fam.s_divide(s, d) is not None and fam.s_divide(t, d) is not None:
                        assert fam.s_divide(m, d) is not None


def test_convolve_refinement_invariant(bc):
    rng = random.Random(19)
    for _ in range(10):
        f = rand_locfun(bc, rng, [1, 2])
        g = rand_locfun(bc, rng, [1, 2])
        base = convolve(f, g)
        deeper = convolve(f.refine(f.level * 3), g)
        assert base == deeper


def test_convolve_associative(bc):
    rng = random.Random(23)
    for _ in range(10):
        f, g, h = (rand_locfun(bc, rng, [1, 2, 3]) for _ in range(3))
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


def test_convolve_zero(bc):
    f = rand_locfun(bc, random.Random(2), [1, 2])
    z = autodil.zero(bc)
    assert convolve(f, z).is_zero()


def test_embed_examples(bc):
    assert embed_i(grpalg.one(bc)) == chi_K(bc)
    half = embed_i(delta(bc, Fraction(1, 2)))
    assert half.level == 1 and half.values == {Fraction(1, 2): QC.of(1)}


def test_embed_homomorphism_random(bc):
    rng = random.Random(29)
    for _ in range(50):
        da = rng.randint(1, 9)
        db = rng.randint(1, 9)
        a = delta(bc, Fraction(rng.randrange(da), da))
        b = delta(bc, Fraction(rng.randrange(db), db))
        assert convolve(embed_i(a), embed_i(b)) == embed_i(a * b)


def test_embed_unital_into_corner(bc):
    rng = random.Random(31)
    k = chi_K(bc)
    for _ in range(10):
        values = [
            (Fraction(rng.randint(0, 5), rng.randint(1, 6)), Fraction(rng.randint(-2, 2)))
            for _ in range(3)
        ]
        a = grpalg.GroupAlgebraElement.build(bc, values)
        fa = embed_i(a)
        assert convolve(k, fa) == fa
        assert convolve(fa, k) == fa


def test_embed_faithful(bc):
    a = delta(bc, Fraction(1, 5)) - delta(bc, Fraction(1, 5))
    assert embed_i(a).is_zero()
    b = delta(bc, Fraction(1, 5)) - delta(bc, Fraction(2, 5))
    assert not embed_i(b).is_zero()


def test_involution_laws(bc):
    rng = random.Random(37)
    for _ in range(10):
        f = rand_locfun(bc, rng, [1, 2, 3])
        assert f.star().star() == f
        assert embed_i(delta(bc, Fraction(1, 3))).star() == embed_i(delta(bc, Fraction(2, 3)))


def test_theta_star_intertwines(bc):
    for s in (1, 2, 3, 4, 6, 12):
        for num, den in ((0, 1), (1, 2), (1, 3), (5, 12)):
            d = delta(bc, Fraction(num, den))
            assert embed_i(grpalg.alpha(s, d)) == theta_star(s, embed_i(d))


def test_theta_star_intertwines_other_families():
    p2 = PadicFamily(2)
    for s in (0, 1, 2, 3):
        d = delta(p2, Fraction(1, 4))
        assert embed_i(grpalg.alpha(s, d)) == theta_star(s, embed_i(d))
    mat = MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])
    for s in ((0, 0), (1, 0), (1, 1)):
        d = delta(mat, (Fraction(1, 2), Fraction(1, 3)))
        assert embed_i(grpalg.alpha(s, d)) == theta_star(s, embed_i(d))


def test_theta_star_inverse_example(bc):
    pulled = theta_star_inv(2, embed_i(delta(bc, Fraction(0))))
    assert pulled.level == 2
    assert pulled.values == {Fraction(0): QC.of(2)}
    assert pulled == cylinder(bc, 2, Fraction(0)).scale(Fraction(2))


def test_theta_star_laws(bc):
    rng = random.Random(41)
    for _ in range(15):
        f = rand_locfun(bc, rng, [1, 2, 3])
        s = rng.choice([1, 2, 3, 4])
        t = rng.choice([1, 2, 3])
        assert theta_star(s, theta_star_inv(s, f)) == f
        assert theta_star_inv(s, theta_star(s, f)) == f
        assert theta_star(s, theta_star(t, f)) == theta_star(s * t, f)
        assert theta_star(1, f) == f


def test_theta_star_group_elements(bc):
    f = embed_i(delta(bc, Fraction(1, 2)))
    g = Fraction(2, 3)  # act by 3, undo 2
    out = theta_star_g(g, f)
    assert theta_star_g(Fraction(3, 2), out) == f


def test_minimality_cylinders_span(bc):
    for s in (2, 3, 4, 6, 12):
        for c in bc.coset_reps(s) + [bc.canon(Fraction(1, 5), s), bc.canon(Fraction(7, 3), s)]:
            n = bc.canon(bc.psi_s(s, c))
            pulled = theta_star_inv(s, embed_i(delta(bc, n)))
            assert pulled == cylinder(bc, s, c).scale(Fraction(bc.index(s)))


def test_locfun_equality_across_levels(bc):
    f = LocFun.build(bc, 1, [(Fraction(1, 2), Fraction(3, 4))])
    g = f.refine(6)
    assert f == g
    h = LocFun.build(bc, 6, dict(g.values).items())
    assert f == h


def test_serialization_roundtrip(bc):
    f = LocFun.build(bc, 6, [(Fraction(5, 2), QC(Fraction(1, 3), Fraction(2)))])
    data = f.to_json()
    assert data["level"] == 6
    assert LocFun.from_json(bc, data) == f


@pytest.mark.parametrize("field", ["level", "values", "coset", "re", "im"])
def test_from_json_names_a_missing_field(bc, field):
    data = LocFun.build(bc, 6, [(Fraction(5, 2), QC(Fraction(1, 3), Fraction(2)))]).to_json()
    del (data if field in data else data["values"][0])[field]
    with pytest.raises(ConfigError, match=f"'{field}'"):
        LocFun.from_json(bc, data)


def test_from_json_refuses_malformed_records(bc):
    for data in ([], {"level": 1, "values": 5}, {"level": 1, "values": [["0/1", "1/1", "0/1"]]}):
        with pytest.raises(ConfigError):
            LocFun.from_json(bc, data)


def _shortcut_cases():
    """Families with levels to average over and a sampler of N elements.

    Matrix elements are psi_s images of integer vectors, so they carry the
    denominators of both matrices.
    """
    diag = MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])
    skew = MatrixFamily([[2, 1], [1, 3]], [[3, 1], [1, 4]])
    skew_scalar = MatrixFamily([[2, 1], [1, 3]], [[7, 0], [0, 7]])

    def matrix_sampler(fam):
        return lambda rng: fam.psi_s(
            (rng.randint(0, 2), rng.randint(0, 1)), (rng.randint(-9, 9), rng.randint(-9, 9))
        )

    def rational_sampler(denominator):
        return lambda rng: Fraction(rng.randint(-27, 27), denominator(rng))

    mat_levels = ((0, 0), (1, 0), (0, 1), (1, 1))
    return [
        (BostConnesFamily(), (1, 2, 3, 6), rational_sampler(lambda rng: rng.randint(1, 12))),
        (PadicFamily(3), (0, 1, 2), rational_sampler(lambda rng: 3 ** rng.randint(0, 3))),
        (diag, mat_levels, matrix_sampler(diag)),
        (skew, mat_levels, matrix_sampler(skew)),
        (skew_scalar, mat_levels, matrix_sampler(skew_scalar)),
    ]


def test_alpha_and_embed_match_build_route():
    """alpha, embed_i and theta_star construct their results without
    ``build``; the dictionaries must equal the ones ``build`` makes from the
    Fraction route's pairs (translates by ``psi_reps``, not
    ``solve_coset``), with every key canonical at its level and every value
    non-zero.  theta_star is checked at the identity level and at the
    second listed level."""
    rng = random.Random(41)
    for fam, levels, sample in _shortcut_cases():
        for terms in (2, 3, 5):
            a = grpalg.GroupAlgebraElement.build(fam, [])
            while len(a.values) < terms:
                c = QC(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 3), 2))
                a = a + grpalg.delta(fam, sample(rng), c)
            for s in levels:
                w = Fraction(1, fam.index(s))
                old = grpalg.GroupAlgebraElement.build(
                    fam,
                    [(fam.n_add(fam.psi_s(s, n), pm), c * w)
                     for n, c in a.values.items() for pm in fam.psi_reps(s)],
                )
                got = grpalg.alpha(s, a)
                assert type(got) is grpalg.GroupAlgebraElement and got.values == old.values
                for b in (a, got):
                    e = embed_i(b)
                    ref = LocFun.build(fam, fam.s_identity, b.values.items())
                    assert type(e) is LocFun
                    assert e.level == ref.level and e.values == ref.values
                for k, c in got.values.items():
                    assert fam.canon(k) == k and fam.canon(k, fam.s_identity) == k
                    assert c != 0
            for f in (embed_i(a), embed_i(a).refine(levels[1])):
                b = f.level
                for s in levels:
                    w = Fraction(1, fam.index(s))
                    shifts = [pm if b == fam.s_identity else fam.psi_s_inv(b, pm)
                              for pm in fam.psi_reps(s)]
                    old = LocFun.build(
                        fam,
                        b,
                        [(fam.n_add(fam.psi_s(s, c), pm), v * w)
                         for c, v in f.values.items() for pm in shifts],
                    )
                    got = theta_star(s, f)
                    assert got.level == b and got.values == old.values
                    assert all(fam.canon(k, b) == k for k in got.values)


def test_build_accepts_only_the_exact_backend(bc):
    """The float backend is gone: ``build``'s fourth argument takes True only."""
    assert LocFun.build(bc, 2, [(Fraction(1, 2), 1)], True) == cylinder(bc, 2, Fraction(1, 2))
    with pytest.raises(ValueError):
        LocFun.build(bc, 2, [(Fraction(1, 2), 1)], False)


@pytest.mark.parametrize("fam", [
    BostConnesFamily(),
    PadicFamily(3),
    MatrixFamily([[2, 1], [1, 3]], [[3, 1], [1, 4]]),
], ids=lambda fam: fam.tag)
def test_group_algebra_unit_is_chi_K(fam):
    """The unit delta_0 of the group algebra is the identity-level function
    chi_K, and the embedding only re-tags it."""
    assert grpalg.one(fam) == chi_K(fam)
    assert embed_i(grpalg.one(fam)).values == chi_K(fam).values


# --- cell codes against the Fraction-keyed route -------------------------------


def _fraction_key(fam, k):
    """A canonical key with Fraction coordinates: canon keeps an int for an
    all-int input, and the coded route decodes every key to Fractions."""
    return tuple(map(Fraction, k)) if fam.tag == "matrix" else Fraction(k)


def _canon(fam, n, level):
    return _fraction_key(fam, fam.canon(n, level))


def ref_build(fam, level, pairs):
    return accumulate({}, ((_canon(fam, n, level), QC.of(c)) for n, c in pairs))


def ref_refine(fam, level, values, t):
    if t == level:
        return values
    splitters = [fam.psi_s_inv(level, m) for m in fam.coset_reps(fam.s_divide(t, level))]
    return {_canon(fam, fam.n_add(k, sp), t): v for k, v in values.items() for sp in splitters}


def ref_theta_star(fam, s, level, values):
    """The psi_reps route: the translates of psi_s(c) by psi_a^-1 of the
    level-s transversal's images."""
    w = Fraction(1, fam.index(s))
    shifts = [fam.psi_s_inv(level, pm) for pm in fam.psi_reps(s)]
    return {
        _canon(fam, fam.n_add(fam.psi_s(s, c), sh), level): v * w
        for c, v in values.items() for sh in shifts
    }


def ref_convolve(fam, f_level, f_values, g_level, g_values):
    m, j = fam.s_meet(f_level, g_level), fam.s_join(f_level, g_level)
    w = Fraction(1, fam.index(j))
    pairs = [(fam.n_add(x, y), u * v * w) for x, u in f_values.items() for y, v in g_values.items()]
    return j, ref_refine(fam, m, ref_build(fam, m, pairs), j)


def _same(f, level, want):
    """f holds exactly want at level: keys, key order, key types and values."""
    got = f.values
    assert f.level == level and got == want and list(got) == list(want)
    assert all(autodil._is_key(k) for k in got)


_COEFFS = st.builds(
    QC, st.fractions(min_value=-3, max_value=3, max_denominator=3), st.integers(-2, 2)
)


@st.composite
def locfun_cases(draw):
    fam, ss, levels = draw(st.sampled_from(ORACLE_FAMILIES))
    a, b, s = (draw(st.sampled_from(ss)) for _ in range(3))
    terms = st.lists(st.tuples(n_elements(fam, levels), _COEFFS), max_size=4)
    fpairs = draw(terms)
    # Repeated cosets make sums, and cancellations, in build.
    fpairs += draw(st.lists(st.sampled_from(fpairs), max_size=2)) if fpairs else []
    return fam, a, b, s, fpairs, draw(terms)


@given(locfun_cases())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_coded_operations_match_fraction_route(case):
    """build, refine, convolve, theta_star, theta_star_inv, star and + on
    cell codes equal the Fraction-keyed route (canon, n_add, psi_reps,
    psi_s_inv and accumulate on keys) in keys, key order and values, on
    the six oracle families of test_pairs."""
    fam, a, b, s, fpairs, gpairs = case
    f, g = LocFun.build(fam, a, fpairs), LocFun.build(fam, b, gpairs)
    fv, gv = ref_build(fam, a, fpairs), ref_build(fam, b, gpairs)
    _same(f, a, fv)
    _same(g, b, gv)
    t = fam.s_mul(a, s)
    _same(f.refine(t), t, ref_refine(fam, a, fv, t))
    _same(theta_star(s, f), a, ref_theta_star(fam, s, a, fv))
    idx = Fraction(fam.index(s))
    _same(theta_star_inv(s, f), t, {_canon(fam, fam.psi_s_inv(s, c), t): v * idx for c, v in fv.items()})
    _same(f.star(), a, {_canon(fam, fam.n_neg(k), a): v.conjugate() for k, v in fv.items()})
    j, want = ref_convolve(fam, a, fv, b, gv)
    _same(convolve(f, g), j, want)
    _same(f + g, j, accumulate(dict(ref_refine(fam, a, fv, j)), ref_refine(fam, b, gv, j).items()))
    assert theta_star(s, theta_star_inv(s, f)) == f
    assert LocFun(fam, a, fv) == f and f == LocFun(fam, a, fv)


def test_equality_across_denominators():
    """== refines to a common level and rescales to a common denominator:
    theta_star(s, theta_star_inv(s, f)) is f at level a*s over den *
    index(s), and equals both f and the same dict stored over its least
    denominator; changing, dropping or adding one key makes it unequal."""
    for fam, ss, levels in ORACLE_FAMILIES:
        rng = random.Random(fam.tag)
        s = ss[-1]
        n = fam.psi_s(levels[-1], fam.random_M(rng))
        f = LocFun.build(fam, fam.s_identity, [(n, QC(Fraction(1, 3), Fraction(2))), (fam.n_identity, 5)])
        g = theta_star(s, theta_star_inv(s, f))
        values = g.values
        least = LocFun(fam, g.level, values)
        assert g.level != f.level and g.den == f.den * fam.index(s) and least.den < g.den
        assert g == f and f == g and least == g and g == least and least == f
        key = next(iter(values))
        changed = dict(values)
        changed[key] = values[key] + QC.of(1)
        dropped = {k: v for k, v in values.items() if k != key}
        extra = dict(values)
        extra[_canon(fam, fam.psi_s(s, fam.psi_s(s, n)), g.level)] = QC.of(1)
        for other in (changed, dropped, extra):
            h = LocFun(fam, g.level, other)
            assert h != f and f != h and h != g and g != h


@pytest.mark.parametrize("fam", [fam for fam, _, _ in ORACLE_FAMILIES], ids=lambda fam: fam.tag)
def test_constructor_stores_any_dict_exactly(fam):
    """LocFun(family, level, values) stores its dict exactly, in order, with
    the very value objects: canonical keys as codes, and a dict with a
    non-canonical or int-typed key as given (den None), which reads back
    through ``values`` and ``keys``, compares by its dict, and is refused
    by the algebra's operations."""
    level = fam.sample_levels()[1]
    n = fam.psi_s(level, fam.random_M(random.Random(3)))
    f = LocFun.build(fam, level, [(n, QC(Fraction(1), Fraction(1, 2))), (fam.n_identity, 2)])
    values = f.values
    first = next(iter(values))
    shifted = tuple(x + 7 for x in first) if fam.tag == "matrix" else first + fam.index(level)
    tiny = (Fraction(1, 97),) * fam.dim if fam.tag == "matrix" else Fraction(1, 97)
    cases = [
        ({k: complex(v) for k, v in values.items()}, True),
        ({**values, tiny: QC.of(1)}, fam.tag != "matrix" or fam.canon(tiny, level) == tiny),
        ({shifted: values[first], **{k: v for k, v in values.items() if k != first}}, False),
        ({0 if fam.tag != "matrix" else (0,) * fam.dim: QC.of(1)}, False),
    ]
    for given, coded in cases:
        g = LocFun(fam, level, given)
        got = g.values
        assert list(got) == list(given) and [type(k) for k in got] == [type(k) for k in given]
        assert all(got[k] is v for k, v in given.items()) and g.keys() == list(given)
        assert (g.den is not None) == coded
        assert g == LocFun(fam, level, dict(given))
    raw = LocFun(fam, level, cases[2][0])
    assert raw != f and f != raw
    with pytest.raises((TypeError, AttributeError)):
        raw.refine(fam.s_mul(level, level))


def test_alpha_intertwining_builds_no_fraction_per_cell():
    """On warm caches, embed_i(alpha(9, a)) == theta_star(9, embed_i(a)) on
    padic(3), 19,683 cells per term, builds a few Fractions, not one per
    cell: both sides and the comparison run on cell codes."""
    fam = PadicFamily(3)
    a = grpalg.GroupAlgebraElement.build(
        fam, [(Fraction(1, 3), QC(Fraction(1), Fraction(1, 2))), (Fraction(5, 9), -1)]
    )
    assert autodil.embed_i(grpalg.alpha(9, a)) == theta_star(9, autodil.embed_i(a))
    with _fractions_built() as built:
        assert autodil.embed_i(grpalg.alpha(9, a)) == theta_star(9, autodil.embed_i(a))
    assert fam.index(9) == 19_683 and built[0] <= 10


# --- value codes ------------------------------------------------------------------


def _codes_canonical(f):
    """Every stored value is a value code: a tuple (a, b, d) of ints with
    d > 0, gcd 1 and a or b non-zero, read back as the QC of those fields,
    and converted to complex as that QC is."""
    values = f.values
    for v, q in zip(f.codes.values(), values.values()):
        assert type(v) is tuple and len(v) == 3 and all(type(x) is int for x in v)
        a, b, d = v
        assert d > 0 and math.gcd(a, b, d) == 1 and (a or b)
        assert type(q) is QC and (q.a, q.b, q.d) == v and code_complex(v) == complex(q)


@given(locfun_cases(), _COEFFS)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_value_codes_decode_to_the_qc_route(case, q):
    """Each operation stores canonical value codes that decode to the
    values of the QC route (QC arithmetic on Fraction keys), in key order:
    build, -, scale, +, -, star, theta_star, theta_star_inv and convolve;
    and eval_at, mass and to_json decode them."""
    fam, a, b, s, fpairs, gpairs = case
    f, g = LocFun.build(fam, a, fpairs), LocFun.build(fam, b, gpairs)
    fv, gv = ref_build(fam, a, fpairs), ref_build(fam, b, gpairs)
    t = fam.s_mul(a, s)
    idx = Fraction(fam.index(s))
    j, conv = ref_convolve(fam, a, fv, b, gv)
    fj, gj = ref_refine(fam, a, fv, j), ref_refine(fam, b, gv, j)
    cases = [
        (f, a, fv),
        (g, b, gv),
        (-f, a, {k: -v for k, v in fv.items()}),
        (f.scale(q), a, {k: v * q for k, v in fv.items()} if q else {}),
        (f.scale(-3), a, {k: v * -3 for k, v in fv.items()}),
        (f + g, j, accumulate(dict(fj), gj.items())),
        (f - g, j, accumulate(dict(fj), [(k, -v) for k, v in gj.items()])),
        (f.star(), a, {_canon(fam, fam.n_neg(k), a): v.conjugate() for k, v in fv.items()}),
        (theta_star(s, f), a, ref_theta_star(fam, s, a, fv)),
        (theta_star_inv(s, f), t, {_canon(fam, fam.psi_s_inv(s, c), t): v * idx for c, v in fv.items()}),
        (convolve(f, g), j, conv),
    ]
    for h, level, want in cases:
        _same(h, level, want)
        _codes_canonical(h)
    for k, v in fv.items():
        got = f.eval_at(k)
        assert type(got) is QC and got == v
    mass = f.mass()
    assert type(mass) is QC and mass == sum(fv.values(), QC.of(0)) * Fraction(1, fam.index(a))
    assert LocFun.from_json(fam, f.to_json()) == f


_ORACLE_IDS = [f"{fam.tag}-{i}" for i, (fam, _, _) in enumerate(ORACLE_FAMILIES)]


def _sample_function(fam, ss, levels):
    """A function at levels[1] with three cells and unrelated denominators."""
    rng = random.Random(repr(fam.tag) + repr(levels))
    level = levels[1]
    n, m = (fam.psi_s(levels[-1], fam.random_M(rng)) for _ in range(2))
    pairs = [(n, QC(Fraction(1, 3), Fraction(2))), (m, Fraction(-5, 6)), (fam.n_identity, 4)]
    return level, pairs, LocFun.build(fam, level, pairs)


@pytest.mark.parametrize("fam, ss, levels", ORACLE_FAMILIES, ids=_ORACLE_IDS)
def test_value_codes_compare_equal_across_routes(fam, ss, levels):
    """One function reached by different routes, and over different
    denominators, levels and coefficient types, compares equal both ways."""
    level, pairs, f = _sample_function(fam, ss, levels)
    s = ss[-1]
    typed = [(n, QC.of(c) if type(c) is not QC else QC(c.re, c.im)) for n, c in reversed(pairs)]
    routes = [
        LocFun.build(fam, level, typed),
        LocFun(fam, level, f.values),
        theta_star(s, theta_star_inv(s, f)),
        (f + f).scale(Fraction(1, 2)),
        f.scale(3) - f - f,
        -(-f),
        f.star().star(),
        f.refine(fam.s_mul(level, s)),
        LocFun.from_json(fam, f.to_json()),
    ]
    for h in routes:
        assert h == f and f == h
    as_given = LocFun(fam, level, {k: v.re if not v.im else v for k, v in f.values.items()})
    assert LocFun.from_json(fam, as_given.to_json()) == f
    assert (f - f).is_zero() and f - f == autodil.zero(fam)


@pytest.mark.parametrize("fam, ss, levels", ORACLE_FAMILIES, ids=_ORACLE_IDS)
def test_value_codes_one_cell_change_compares_unequal(fam, ss, levels):
    """Changing one cell's real part, imaginary part or denominator alone
    makes the function unequal, at its level and refined."""
    level, _, f = _sample_function(fam, ss, levels)
    deeper = f.refine(fam.s_mul(level, ss[-1]))
    values = f.values
    for key, value in values.items():
        a, b, d = qc_code(value)
        e = next(e for e in range(d + 1, d + 100) if math.gcd(a, b, e) == 1)
        assert (a, b, e) in LocFun(fam, level, {key: QC(Fraction(a, e), Fraction(b, e))}).codes.values()
        for x, y, z in ((a + 1, b, d), (a, b + 1, d), (a, b, e)):
            changed = LocFun(fam, level, {**values, key: QC(Fraction(x, z), Fraction(y, z))})
            assert changed != f and f != changed and changed != deeper and deeper != changed


def test_decoding_shares_one_qc_per_distinct_value():
    """values on padic(3) at level 9 decodes one QC per distinct value
    code, shared by the 19,683 cells of each theta_star spread."""
    fam = PadicFamily(3)
    a = grpalg.GroupAlgebraElement.build(
        fam, [(Fraction(1, 3), QC(Fraction(1), Fraction(1, 2))), (Fraction(5, 9), -1)]
    )
    f = theta_star(9, embed_i(a))
    values = f.values
    distinct = set(f.codes.values())
    assert len(values) == 2 * 19_683 and len(distinct) == 2
    assert len({id(v) for v in values.values()}) <= len(distinct)


@pytest.mark.parametrize("fam, ss, levels", ORACLE_FAMILIES, ids=_ORACLE_IDS)
def test_inexact_values_read_back_and_the_algebra_refuses_them(fam, ss, levels):
    """A dict of complex values on canonical keys is stored as given: it
    reads back and compares, and every operation on its values raises."""
    level, _, f = _sample_function(fam, ss, levels)
    given = {k: complex(v) for k, v in f.values.items()}
    g = LocFun(fam, level, given)
    assert g.values == given and g == LocFun(fam, level, dict(given)) and g != f and f != g
    s = ss[-1]
    for op in (
        lambda: theta_star(s, g),
        lambda: theta_star_inv(s, g),
        lambda: convolve(g, f),
        lambda: convolve(f, g),
        lambda: g.star(),
        lambda: -g,
        lambda: g.scale(2),
        lambda: g + f,
        lambda: f + g,
        lambda: g.mass(),
    ):
        with pytest.raises(TypeError):
            op()

