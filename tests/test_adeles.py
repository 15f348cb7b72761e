"""Residue splitting, adele charts, and the duality pairings.

Oracles: the inverse recombination is checked against exhaustive scans of
small residue systems, and pairings against directly computed products of
rational representatives.
"""

import random
from fractions import Fraction

import pytest

from hecke_lab.errors import ConfigError, LevelCapError, PrecisionError
from hecke_lab.pairs import BostConnesFamily, MatrixFamily
from hecke_lab import adeles
from hecke_lab.adeles import (
    AdeleTruncation,
    PadicComponent,
    adele_equal,
    crt_forward,
    crt_inverse,
    factor,
    matrix_pairing,
    mu_m,
    pairing,
)
from hecke_lab.tower import TruncatedElement, embed_j


@pytest.fixture(scope="module")
def bc():
    return BostConnesFamily()


def oracle_crt_scan(components):
    """Smallest nonnegative residue satisfying all congruences, by scanning."""
    modulus = 1
    for c in components:
        modulus *= c.p**c.l
    for r in range(modulus):
        if all(r % (c.p**c.l) == c.r for c in components):
            return r
    raise AssertionError("no solution found")


def test_factor():
    assert factor(1) == {}
    assert factor(12) == {2: 2, 3: 1}
    assert factor(5040) == {2: 4, 3: 2, 5: 1, 7: 1}


def test_crt_forward_examples(bc):
    x = TruncatedElement.make(bc, 6, Fraction(5))
    assert [(c.p, c.l, c.r) for c in crt_forward(x)] == [(2, 1, 1), (3, 1, 2)]
    y = TruncatedElement.make(bc, 12, Fraction(7))
    assert [(c.p, c.l, c.r) for c in crt_forward(y)] == [(2, 2, 3), (3, 1, 1)]


def test_crt_forward_requires_integral(bc):
    with pytest.raises(ConfigError):
        crt_forward(TruncatedElement.make(bc, 6, Fraction(1, 2)))


def test_crt_inverse_against_scan():
    cases = [
        [PadicComponent(2, 1, 1), PadicComponent(3, 1, 2)],
        [PadicComponent(2, 3, 5), PadicComponent(3, 2, 4), PadicComponent(5, 1, 3)],
        [PadicComponent(7, 2, 13)],
    ]
    for comps in cases:
        assert crt_inverse(comps) == oracle_crt_scan(comps)


def test_crt_frozen_example():
    assert crt_inverse([PadicComponent(2, 1, 1), PadicComponent(3, 1, 2)]) == 5
    assert crt_inverse([PadicComponent(7, 1, 4)]) == 4


def test_crt_bijection_exhaustive_60(bc):
    seen = set()
    for r in range(60):
        comps = crt_forward(TruncatedElement.make(bc, 60, Fraction(r)))
        key = tuple((c.p, c.l, c.r) for c in comps)
        assert key not in seen
        seen.add(key)
        assert crt_inverse(comps) == r
    assert len(seen) == 60


def test_crt_ring_homomorphism(bc):
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 360)
        a, b = rng.randrange(n), rng.randrange(n)
        fa = {(c.p, c.l): c.r for c in crt_forward(TruncatedElement.make(bc, n, Fraction(a)))}
        fb = {(c.p, c.l): c.r for c in crt_forward(TruncatedElement.make(bc, n, Fraction(b)))}
        fsum = {
            (c.p, c.l): c.r
            for c in crt_forward(TruncatedElement.make(bc, n, Fraction((a + b) % n)))
        }
        fprod = {
            (c.p, c.l): c.r
            for c in crt_forward(TruncatedElement.make(bc, n, Fraction((a * b) % n)))
        }
        for (p, l) in fsum:
            q = p**l
            assert fsum[(p, l)] == (fa[(p, l)] + fb[(p, l)]) % q
            assert fprod[(p, l)] == (fa[(p, l)] * fb[(p, l)]) % q


def test_integer_embedding_components(bc):
    for n in range(1, 101):
        comps = crt_forward(embed_j(bc, Fraction(n)).truncate(360))
        for c in comps:
            assert c.r == n % c.p**c.l


def test_component_precision_lowering():
    c = PadicComponent(3, 3, 22)
    assert c.lower(1).r == 22 % 3
    with pytest.raises(PrecisionError):
        c.lower(5)


def test_adele_truncation_roundtrip(bc):
    a = AdeleTruncation.build(3, [PadicComponent(2, 2, 3), PadicComponent(3, 2, 4)])
    x = a.to_tower(bc)
    assert x.level == 12  # 36 / 3
    z = crt_inverse(list(a.components))
    assert x.coset == Fraction(z, 3) % 12
    data = a.to_json()
    assert AdeleTruncation.from_json(data) == a


def _adele_json():
    return AdeleTruncation.build(3, [PadicComponent(2, 2, 3), PadicComponent(3, 2, 4)]).to_json()


@pytest.mark.parametrize("field", ["m", "components", "p", "l", "r"])
def test_from_json_names_a_missing_field(field):
    data = _adele_json()
    del (data if field in data else data["components"][0])[field]
    with pytest.raises(ConfigError, match=f"'{field}'"):
        AdeleTruncation.from_json(data)


@pytest.mark.parametrize(
    "field, bad",
    [("m", 2.9), ("m", True), ("m", "3"), ("l", 1.5), ("l", -1), ("p", 4), ("p", 1),
     ("p", 2.0), ("r", None), ("components", 5)],
)
def test_from_json_refuses_malformed_fields(field, bad):
    """No silent coercion: a float, bool or string is refused where int()
    would truncate it, as are a negative precision and a non-prime."""
    data = _adele_json()
    (data if field in data else data["components"][0])[field] = bad
    with pytest.raises(ConfigError, match=f"'{field}'"):
        AdeleTruncation.from_json(data)


def test_from_json_refuses_malformed_records():
    for data in ([], None, "x", {"m": 1, "components": [5]}):
        with pytest.raises(ConfigError):
            AdeleTruncation.from_json(data)


def test_mu_chart_and_equality(bc):
    x = TruncatedElement.make(bc, 4, Fraction(5, 3))
    a = mu_m(x, 3)
    assert a.m == 3
    back = a.to_tower(bc)
    assert back.project(4) == x.coset
    # Coherence: deeper charts agree.
    b = mu_m(x, 6)
    assert adele_equal(a, b, bc)


def test_mu_coherence_random(bc):
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 10)
        k = rng.randint(1, 6)
        level = rng.randint(1, 6)
        x = TruncatedElement.make(bc, level, Fraction(rng.randrange(1, n * level + 1), n))
        assert adele_equal(mu_m(x, n), mu_m(x, k * n), bc)


def test_mu_rejects_wrong_denominator(bc):
    x = TruncatedElement.make(bc, 4, Fraction(1, 3))
    with pytest.raises(ConfigError):
        mu_m(x, 2)


def test_pairing_frozen_examples(bc):
    assert pairing(embed_j(bc, Fraction(2)), embed_j(bc, Fraction(1, 3))) == Fraction(2, 3)
    assert pairing(embed_j(bc, Fraction(2)), embed_j(bc, Fraction(0))) == 0
    assert pairing(embed_j(bc, Fraction(1, 2)), embed_j(bc, Fraction(1, 2))) == Fraction(1, 4)


def test_pairing_oracle_products(bc):
    # Direct product of representatives at an admissible level.
    rng = random.Random(11)
    for _ in range(100):
        dx, dy = rng.randint(1, 10), rng.randint(1, 10)
        x = Fraction(rng.randint(1, 30), dx)
        y = Fraction(rng.randint(1, 30), dy)
        got = pairing(embed_j(bc, x), embed_j(bc, y))
        assert got == (x * y) % 1


def test_pairing_level_independence(bc):
    rng = random.Random(13)
    for _ in range(100):
        dx, dy = rng.randint(1, 12), rng.randint(1, 12)
        x = embed_j(bc, Fraction(rng.randint(1, 40), dx))
        y = embed_j(bc, Fraction(rng.randint(1, 40), dy))
        base = pairing(x, y)
        import math as _math

        lcm = (dx * dy) // _math.gcd(dx, dy)
        assert pairing(x, y, at_level=2 * lcm) == base
        assert pairing(x, y, at_level=3 * lcm) == base


def test_pairing_on_truncated_elements(bc):
    x = TruncatedElement.make(bc, 12, Fraction(7, 2))
    y = TruncatedElement.make(bc, 12, Fraction(5, 3))
    assert pairing(x, y, at_level=12) == (Fraction(7, 2) * Fraction(5, 3)) % 1
    shallow = TruncatedElement.make(bc, 2, Fraction(1, 2))
    with pytest.raises(Exception):
        pairing(shallow, TruncatedElement.make(bc, 2, Fraction(1, 3)))


def test_pairing_bi_additive(bc):
    xs = [Fraction(1, 2), Fraction(2, 3), Fraction(7)]
    y = embed_j(bc, Fraction(5, 12))
    lhs = pairing(embed_j(bc, xs[0] + xs[1]), y)
    rhs = (pairing(embed_j(bc, xs[0]), y) + pairing(embed_j(bc, xs[1]), y)) % 1
    assert lhs == rhs


def test_perfect_pairing_small_levels(bc):
    """The statement of the CLI check ``adeles.perfect-pairing``, on the
    pairwise route: the check builds its rows with ``pairing_rows``, so
    this test is its independent check."""
    for n in range(2, 33):
        rows = set()
        for k in range(n):
            row = tuple(
                pairing(embed_j(bc, Fraction(k)), embed_j(bc, Fraction(r, n)))
                for r in range(n)
            )
            assert row not in rows
            rows.add(row)


def _pairing_operands(bc):
    """Exact, truncated and adele elements whose denominators divide 12,
    all known at every level that divides 60."""
    rng = random.Random(17)
    dens = [1, 2, 3, 4, 6, 12]
    exact = [embed_j(bc, Fraction(rng.randint(-30, 30), rng.choice(dens))) for _ in range(6)]
    truncated = [
        TruncatedElement.make(bc, 720, Fraction(rng.randint(-30, 30), rng.choice(dens)))
        for _ in range(4)
    ]
    # m*x has components modulo 2^4, 3^2, 5 and 7: precision 5040, tower
    # level 5040/m, which 60 divides.
    adele_elements = [
        AdeleTruncation.build(m, [PadicComponent(2, 4, r), PadicComponent(3, 2, r + 1),
                                  PadicComponent(5, 1, r), PadicComponent(7, 1, 2 * r)])
        for m, r in ((1, 5), (4, 3), (6, 11), (12, 2))
    ]
    return exact + truncated + adele_elements


@pytest.mark.parametrize("at_level", [None, 12, 60])
def test_pairing_rows_match_pairwise(bc, at_level):
    """One projection per element at one level gives the pairwise values:
    every entry equals ``pairing`` of its pair, which projects at the lcm
    of the pair's own two denominators (or at at_level), and ``pairing`` is
    the 1x1 table."""
    ops = _pairing_operands(bc)
    xs, ys = ops[: len(ops) // 2 + 1], ops[len(ops) // 2 - 1 :]
    rows = adeles.pairing_rows(xs, ys, at_level=at_level)
    assert len(rows) == len(xs)
    for x, row in zip(xs, rows):
        assert type(row) is tuple and len(row) == len(ys)
        for y, got in zip(ys, row):
            assert type(got) is Fraction and 0 <= got < 1
            assert got == pairing(x, y)
            assert got == pairing(x, y, at_level=at_level)
            assert adeles.pairing_rows([x], [y], at_level=at_level) == [(got,)]


def test_pairing_rows_refuse_bad_levels(bc):
    x = embed_j(bc, Fraction(1, 4))
    ys = [embed_j(bc, Fraction(1, 3)), embed_j(bc, Fraction(5, 6))]
    # The table level must be a multiple of lcm(4, 3, 6) = 12.
    with pytest.raises(ConfigError):
        adeles.pairing_rows([x], ys, at_level=18)
    with pytest.raises(ConfigError):
        pairing(x, ys[0], at_level=8)
    assert adeles.pairing_rows([x], ys, at_level=24) == [(Fraction(1, 12), Fraction(5, 24))]
    # A truncation known only at level 2 cannot be projected to the table
    # level, 6 or 12 here.
    shallow = TruncatedElement.make(bc, 2, Fraction(1, 2))
    with pytest.raises(LevelCapError):
        adeles.pairing_rows([shallow], ys)
    with pytest.raises(LevelCapError):
        adeles.pairing_rows([x], [shallow, ys[0]])
    with pytest.raises(LevelCapError):
        pairing(shallow, TruncatedElement.make(bc, 2, Fraction(1, 3)))
    # Empty tables need no level.
    assert adeles.pairing_rows([], ys) == []
    assert adeles.pairing_rows([x], []) == [()]


def test_integral_pairing_vanishes(bc):
    for k in (1, 2, 7):
        for m in (1, 3, 10):
            assert pairing(embed_j(bc, Fraction(k)), embed_j(bc, Fraction(m))) == 0


@pytest.fixture(scope="module")
def mat():
    return MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])


def test_matrix_pairing_frozen(mat):
    tfam = mat.transpose_family()
    x = embed_j(mat, (Fraction(1, 2), Fraction(0)))
    y = embed_j(tfam, (Fraction(1), Fraction(0)))
    assert matrix_pairing(mat, x, y) == Fraction(1, 2)


def test_matrix_pairing_integral_vanishes(mat):
    tfam = mat.transpose_family()
    rng = random.Random(17)
    for _ in range(20):
        v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(2))
        w = tuple(Fraction(rng.randint(-5, 5)) for _ in range(2))
        assert matrix_pairing(mat, embed_j(mat, v), embed_j(tfam, w)) == 0


def test_matrix_pairing_stability(mat):
    tfam = mat.transpose_family()
    rng = random.Random(19)
    for _ in range(100):
        sx = (rng.randint(0, 2), rng.randint(0, 2))
        sy = (rng.randint(0, 2), rng.randint(0, 2))
        x = embed_j(mat, mat.psi_s(sx, tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))))
        y = embed_j(tfam, tfam.psi_s(sy, tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))))
        base = matrix_pairing(mat, x, y)
        tx = adeles.matrix_denominator_level(mat, x)
        ty = adeles.matrix_denominator_level(tfam, y)
        start = (max(tx[0], ty[0]), max(tx[1], ty[1]))
        for bump in ((1, 0), (0, 1), (2, 2)):
            assert matrix_pairing(mat, x, y, at_level=(start[0] + bump[0], start[1] + bump[1])) == base


def test_matrix_pairing_cached_transpose(mat):
    """The transpose family is built once per family, and pairings equal the
    ones made with a freshly built transpose family."""
    skew = MatrixFamily([[1, 1], [-1, 1]], [[2, 1], [-1, 2]])
    rng = random.Random(23)
    for fam in (mat, skew):
        tfam = fam.transpose_family()
        assert fam.transpose_family() is tfam and tfam.transpose_family() is fam
        fresh = MatrixFamily([list(r) for r in zip(*fam.F)], [list(r) for r in zip(*fam.Mmat)])
        assert (tfam.F, tfam.Mmat) == (fresh.F, fresh.Mmat)
        for _ in range(20):
            sx = (rng.randint(0, 2), rng.randint(0, 2))
            sy = (rng.randint(0, 2), rng.randint(0, 2))
            x = embed_j(fam, fam.psi_s(sx, tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))))
            y = embed_j(fresh, fresh.psi_s(sy, tuple(Fraction(rng.randint(-3, 3)) for _ in range(2))))
            tx = adeles.matrix_denominator_level(fam, x)
            ty = adeles.matrix_denominator_level(fresh, y)
            level = (max(tx[0], ty[0]), max(tx[1], ty[1]))
            expected = sum(a * b for a, b in zip(x.project(level), y.project(level))) % 1
            assert matrix_pairing(fam, x, y) == expected


def test_matrix_pairing_oracle(mat):
    # Direct dot product of representatives at a clearing level.
    tfam = mat.transpose_family()
    x = embed_j(mat, (Fraction(3, 10), Fraction(1, 3)))
    y = embed_j(tfam, (Fraction(1, 2), Fraction(2)))
    level = (3, 3)
    vx = x.truncate(level).coset
    vy = y.truncate(level).coset
    expected = (vx[0] * vy[0] + vx[1] * vy[1]) % 1
    assert matrix_pairing(mat, x, y) == expected


def test_self_transpose_towers_coincide():
    fam = MatrixFamily([[2, 1], [1, 3]], [[3, 1], [1, 4]])
    # F and M symmetric and commuting? verify commutation first.
    tfam = fam.transpose_family()
    assert tfam.F == fam.F and tfam.Mmat == fam.Mmat
    for s in ((1, 0), (0, 1), (1, 1)):
        assert fam.coset_reps(s) == tfam.coset_reps(s)


def test_denominator_threshold(mat):
    # Thresholds decouple into the two determinant directions.
    assert mat.denominator_level((Fraction(1, 2), Fraction(0))) == (1, 0)
    assert mat.denominator_level((Fraction(1, 10), Fraction(0))) == (1, 1)
    assert mat.denominator_level((Fraction(0), Fraction(1, 9))) == (2, 0)
    assert mat.denominator_level((Fraction(1), Fraction(2))) == (0, 0)


@pytest.mark.parametrize(
    "p, l, r, field",
    [(4, 1, 0, "'p'"), (1, 1, 0, "'p'"), (2, -1, 3, "'l'"), (2, 1.5, 1, "'l'"), (2, True, 1, "'l'"),
     (2, 1, 1.0, "'r'"), (2, 1, True, "'r'"), (2.0, 1, 1, "'p'"), (2, "1", 1, "'l'")],
)
def test_component_refuses_malformed_input(p, l, r, field):
    """A non-prime p, a negative l and a non-int or bool p, l or r are a
    ConfigError naming the field, by direct construction and through
    AdeleTruncation.build; none is coerced (l = -1 used to store r = 0.0)."""
    with pytest.raises(ConfigError, match=field):
        PadicComponent(p, l, r)
    with pytest.raises(ConfigError, match=field):
        AdeleTruncation.build(1, [PadicComponent(3, 1, 1), PadicComponent(p, l, r)])


def test_build_refuses_malformed_denominator_and_components():
    for m in (0, -2, 1.0, True, "2"):
        with pytest.raises(ConfigError):
            AdeleTruncation.build(m, [PadicComponent(2, 1, 1)])
    for comps in ([(2, 1, 1)], [None], [{"p": 2, "l": 1, "r": 1}]):
        with pytest.raises(ConfigError):
            AdeleTruncation.build(1, comps)
    c = PadicComponent(2, 0, 5)
    assert (c.l, c.r, type(c.r)) == (0, 0, int)
    assert AdeleTruncation.build(2, [PadicComponent(3, 1, 4), c]).components == (c, PadicComponent(3, 1, 1))
