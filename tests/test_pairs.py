"""Family arithmetic: Ore pairs, indices, transversals, solution cosets.

Derived values are frozen from independent brute-force oracles defined at
the top of this module; the oracles never call the code paths they check.
"""

import contextlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from hecke_lab import pairs
from hecke_lab.errors import ConfigError, LevelCapError
from hecke_lab.lattice import (
    box_image,
    hermite_normal_form,
    hnf_box_count,
    hnf_reduce,
    hnf_reduce_columns,
    int_det,
    iter_hnf_box,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_vec,
)
from hecke_lab.pairs import (
    BostConnesFamily,
    MatrixFamily,
    PadicFamily,
    SemidirectElement,
    family_from_config,
)


# --- oracles -----------------------------------------------------------------


def oracle_solve_coset_rationals(s, n, extra_den=1):
    """All r in [0,1) with s*r = n modulo 1, by scanning a fine grid."""
    den = s * n.denominator * extra_den
    out = []
    for k in range(den):
        r = Fraction(k, den)
        if (s * r - n) % 1 == 0:
            out.append(r)
    return out


def oracle_lattice_reps(mat, box=8):
    """Distinct classes of Z^2 modulo mat*Z^2 by scanning and pairwise
    deduplicating with the exact inverse (no normal forms involved)."""
    inv = mat_inv(mat)

    def same_class(u, v):
        w = mat_vec(inv, (u[0] - v[0], u[1] - v[1]))
        return all(x.denominator == 1 for x in w)

    reps = []
    for x in range(-box, box):
        for y in range(-box, box):
            v = (Fraction(x), Fraction(y))
            if not any(same_class(v, r) for r in reps):
                reps.append(v)
    return reps


def oracle_box_reduce(h, v):
    """Reduce v into the box prod [0, h_ii) by Fraction division and floor,
    top row first: the reduction route with no canonical-input shortcut."""
    x = [Fraction(c) for c in v]
    for i in range(len(x)):
        q = math.floor(x[i] / h[i][i])
        for r in range(i, len(x)):
            x[r] -= q * h[r][i]
    return tuple(x)


# --- fixtures ----------------------------------------------------------------


@pytest.fixture(scope="module")
def bc():
    return BostConnesFamily()


@pytest.fixture(scope="module")
def p3():
    return PadicFamily(3)


@pytest.fixture(scope="module")
def mat():
    return MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])


# --- ore pairs ---------------------------------------------------------------


def test_ore_pair_examples(bc, p3, mat):
    assert bc.ore_pair(2, 3) == (3, 2)
    assert p3.ore_pair(1, 3) == (2, 0)
    assert mat.ore_pair((1, 0), (0, 1)) == ((0, 1), (1, 0))


@given(st.integers(1, 60), st.integers(1, 60))
@settings(max_examples=80, derandomize=True)
def test_ore_pair_equation_bost_connes(s, t):
    fam = BostConnesFamily()
    u, v = fam.ore_pair(s, t)
    assert u * s == v * t == math.lcm(s, t)


@given(st.tuples(st.integers(0, 5), st.integers(0, 5)), st.tuples(st.integers(0, 5), st.integers(0, 5)))
@settings(max_examples=60, derandomize=True)
def test_ore_pair_equation_matrix(s, t):
    fam = MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])
    u, v = fam.ore_pair(s, t)
    assert fam.s_mul(u, s) == fam.s_mul(v, t)


# --- index and representatives ------------------------------------------------


def test_index_examples(bc, p3, mat):
    assert bc.index(6) == 6
    assert PadicFamily(2).index(3) == 8
    assert mat.index((1, 1)) == 30  # (det F)^1 (det M)^1


def test_index_matches_enumeration(bc, p3, mat):
    for fam, levels in (
        (bc, [1, 2, 3, 4, 6, 12]),
        (p3, [0, 1, 2, 3]),
        (mat, [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]),
    ):
        for s in levels:
            reps = fam.coset_reps(s)
            assert len(reps) == fam.index(s)
            assert len(set(reps)) == len(reps)


def test_index_multiplicative(bc, mat):
    for s in (2, 3, 4, 6):
        for t in (2, 3, 5):
            assert bc.index(s * t) == bc.index(s) * bc.index(t)
    for s in ((1, 0), (1, 1), (2, 0)):
        for t in ((0, 1), (1, 1)):
            assert mat.index(mat.s_mul(s, t)) == mat.index(s) * mat.index(t)


def test_coset_reps_examples(bc, p3):
    assert bc.coset_reps(4) == [Fraction(0), Fraction(1), Fraction(2), Fraction(3)]
    assert p3.coset_reps(1) == [Fraction(0), Fraction(1), Fraction(2)]


def test_matrix_reps_against_scan_oracle():
    fam = MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])
    for level, lattice in (((1, 0), fam.F), ((1, 1), [[10, 0], [0, 3]])):
        got = fam.coset_reps(level)
        expected = oracle_lattice_reps(lattice)
        assert len(got) == len(expected)
        inv = mat_inv(lattice)
        for g in got:
            matches = [
                e
                for e in expected
                if all(x.denominator == 1 for x in mat_vec(inv, (g[0] - e[0], g[1] - e[1])))
            ]
            assert len(matches) == 1


def test_diag21_block_reps():
    # A diag(2,1) block: the quotient has the two classes (0,0) and (1,0).
    fam = MatrixFamily([[2, 0], [0, 1]], [[5, 0], [0, 3]])
    got = set(fam.coset_reps((1, 0)))
    assert got == {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))}


def test_nontrivial_hermite_reduction():
    # F = [[2,1],[1,3]] has det 5; the companion needs a coprime determinant.
    fam = MatrixFamily([[2, 1], [1, 3]], [[7, 0], [0, 7]])
    reps = fam.coset_reps((1, 0))
    assert len(reps) == abs(int_det(fam.F)) == 5
    oracle = oracle_lattice_reps(fam.F)
    assert len(oracle) == 5
    canon = {fam.canon(tuple(map(Fraction, e)), (1, 0)) for e in oracle}
    assert canon == set(reps)


# --- solve_coset ---------------------------------------------------------------


def test_solve_coset_against_oracle(bc):
    cases = [(2, Fraction(0)), (3, Fraction(1, 2)), (4, Fraction(2, 3)), (6, Fraction(5, 12))]
    for s, n in cases:
        got = sorted(bc.solve_coset(s, n))
        assert got == oracle_solve_coset_rationals(s, n)


def test_solve_coset_frozen_examples(bc):
    assert sorted(bc.solve_coset(2, Fraction(0))) == [Fraction(0), Fraction(1, 2)]
    assert sorted(bc.solve_coset(3, Fraction(1, 2))) == [
        Fraction(1, 6),
        Fraction(1, 2),
        Fraction(5, 6),
    ]
    assert bc.solve_coset(1, Fraction(2, 7)) == [Fraction(2, 7)]


def test_solve_coset_partitions(bc):
    s = 4
    union = []
    for n in (Fraction(0), Fraction(1, 3), Fraction(2, 3)):
        block = bc.solve_coset(s, n)
        assert len(block) == bc.index(s)
        union.extend(block)
    assert len(union) == len(set(union))


def test_solve_coset_identity_level(bc, p3, mat):
    assert bc.solve_coset(1, Fraction(3, 7)) == [Fraction(3, 7)]
    assert p3.solve_coset(0, Fraction(1, 3)) == [Fraction(1, 3)]
    v = (Fraction(1, 2), Fraction(2, 3))
    assert mat.solve_coset((0, 0), v) == [mat.canon(v)]


@pytest.mark.parametrize("fam", [
    BostConnesFamily(),
    PadicFamily(3),
    MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]]),
    MatrixFamily([[2, 1], [1, 3]], [[7, 0], [0, 7]]),
], ids=["bost-connes", "padic-3", "diag", "skew-scalar"])
def test_solve_coset_at_zero_is_the_canonical_psi_image_of_the_transversal(fam):
    """The subgroup translations of a level-s block: ``solve_coset(s, 0)``
    lists canon(psi_s(m)) for m in the level-s transversal, in its order."""
    for s in fam.small_levels(2):
        want = [fam.canon(fam.psi_s(s, m)) for m in fam.coset_reps(s)]
        assert list(fam.solve_coset(s, fam.n_identity)) == want


# --- canonical forms -----------------------------------------------------------


def _near(bound, den):
    """Values around the boundary of [0, bound): negative, zero, the bound
    itself and just below it, as Fractions and as ints."""
    return st.one_of(
        st.fractions(min_value=-3 * bound, max_value=3 * bound, max_denominator=40),
        st.integers(-3 * bound, 3 * bound),
        st.sampled_from(
            [Fraction(0), Fraction(bound), Fraction(bound) - Fraction(1, den), Fraction(-1, den),
             Fraction(-bound), 0, bound, bound - 1, -1]
        ),
    )


@st.composite
def scalar_canon_cases(draw):
    fam = draw(st.sampled_from([BostConnesFamily(), PadicFamily(2), PadicFamily(3)]))
    levels = st.integers(1, 24) if fam.tag == "bost-connes" else st.integers(0, 4)
    s = draw(st.none() | levels)
    mod = 1 if s is None else fam.index(s)
    return fam, s, mod, draw(_near(mod, draw(st.integers(1, 40))))


@given(scalar_canon_cases())
@settings(max_examples=200, derandomize=True)
def test_canonical_idempotent_rationals(case):
    """canon equals n % modulus in value and type; a canonical Fraction is
    returned as the same object."""
    fam, s, mod, x = case
    got = fam.canon(x, s)
    want = x % mod
    assert got == want and type(got) is type(want)
    assert 0 <= got < mod
    if type(x) is Fraction and 0 <= x < mod:
        assert got is x
    again = fam.canon(got, s)
    assert again == got and type(again) is type(got)


@st.composite
def commuting_pairs(draw):
    """F and M as integer polynomials in one integer matrix A, so they
    commute, with |det| > 1 and coprime determinants."""
    dim = draw(st.sampled_from([2, 2, 3]))
    a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    eye = [[int(i == j) for j in range(dim)] for i in range(dim)]

    def poly():
        c0, c1 = draw(st.integers(-5, 5)), draw(st.sampled_from([-2, -1, 1, 2]))
        return [[c0 * eye[i][j] + c1 * a[i][j] for j in range(dim)] for i in range(dim)]

    F, M = poly(), poly()
    dF, dM = int_det(F), int_det(M)
    assume(abs(dF) > 1 and abs(dM) > 1 and math.gcd(dF, dM) == 1)
    return F, M


@st.composite
def matrix_canon_cases(draw):
    F, M = draw(commuting_pairs())
    s = draw(st.none() | st.tuples(st.integers(0, 2), st.integers(0, 2)))
    if s is None:
        h = [[int(i == j) for j in range(len(F))] for i in range(len(F))]
    else:
        h = hermite_normal_form(mat_mul(mat_pow(F, s[0]), mat_pow(M, s[1])))
    den = draw(st.integers(1, 40))
    v = tuple(draw(_near(h[i][i], den)) for i in range(len(F)))
    return MatrixFamily(F, M), s, h, v


@given(matrix_canon_cases())
@settings(max_examples=200, derandomize=True)
def test_canonical_idempotent_matrix(case):
    """canon equals coordinatewise % 1 modulo M and the plain box reduction
    at a level, in value and coordinate types; hnf_reduce equals the box
    reduction; a canonical tuple of Fractions is returned as the same object."""
    fam, s, h, v = case
    boxed = oracle_box_reduce(h, v)
    got = fam.canon(v, s)
    want = tuple(x % 1 for x in v) if s is None else boxed
    assert got == want and type(got) is tuple
    assert [type(x) for x in got] == [type(x) for x in want]
    reduced = hnf_reduce(h, v)
    assert reduced == boxed and all(type(x) is Fraction for x in reduced)
    in_box = all(type(x) is Fraction and 0 <= x < h[i][i] for i, x in enumerate(v))
    if in_box:
        assert got is v and reduced is v
    again = fam.canon(got, s)
    assert again == got and [type(x) for x in again] == [type(x) for x in got]


@st.composite
def column_batches(draw):
    """A 2x2 or 3x3 lower-triangular HNF with at least one nonzero entry
    below the diagonal, and a batch of integer vectors in column layout:
    negative, large, and on either side of the box bounds."""
    dim = draw(st.sampled_from([2, 3]))
    diag = [draw(st.integers(1, 12)) for _ in range(dim)]
    h = [[diag[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    for r in range(1, dim):
        for i in range(r):
            h[r][i] = draw(st.integers(0, diag[r] - 1))
    below = [(r, i) for r in range(1, dim) for i in range(r)]
    r, i = draw(st.sampled_from(below))
    h[r][i] = h[r][i] or draw(st.integers(1, max(1, diag[r] - 1)))
    size = draw(st.integers(0, 12))

    def entries(d):
        return st.one_of(
            st.integers(-10**30, 10**30),
            st.integers(-3 * d, 3 * d),
            st.sampled_from([0, -1, d, d - 1]),
        )

    cols = [draw(st.lists(entries(d), min_size=size, max_size=size)) for d in diag]
    return h, cols


def _lattice_coordinates(h, v):
    """z with h z = v, by forward substitution over Q: h is lower triangular."""
    z = []
    for i, row in enumerate(h):
        z.append(Fraction(v[i] - sum(row[k] * z[k] for k in range(i)), row[i]))
    return z


@given(column_batches(), st.integers(1, 6))
@settings(max_examples=300, derandomize=True)
def test_hnf_reduce_columns_lands_in_box_by_lattice_steps(case, den):
    """Each output vector lies in the box prod [0, h_ii), and its difference
    from the input vector is an integer combination of the columns of h,
    checked by an exact triangular solve; a batch of one equals
    hnf_reduce on the vector over any denominator.  The list passed in is
    consumed, its columns replaced by the reduced ones, and the columns it
    held are left unchanged."""
    h, cols = case
    before = [list(col) for col in cols]
    given = list(cols)
    out = hnf_reduce_columns(h, given)
    assert out is given and cols == before and len(out) == len(h)
    assert all(len(col) == len(cols[0]) for col in out)
    for y, r in zip(zip(*cols), zip(*out)):
        assert all(0 <= r[i] < h[i][i] for i in range(len(h)))
        z = _lattice_coordinates(h, [a - b for a, b in zip(y, r)])
        assert all(c.denominator == 1 for c in z)
        scaled = [[den * x for x in row] for row in h]
        one = hnf_reduce_columns(scaled, [[c] for c in y])
        assert hnf_reduce(h, tuple(Fraction(c, den) for c in y)) == tuple(Fraction(col[0], den) for col in one)


# Diagonal, skew and 3x3 families whose level HNFs box_image must cover.
BOX_FAMILIES = [
    ([[2, 0], [0, 3]], [[5, 0], [0, 1]]),
    ([[2, 1], [1, 3]], [[7, 0], [0, 7]]),
    # 2I + P and I + P, P the cyclic permutation matrix, as in _three_by_three.
    ([[2, 1, 0], [0, 2, 1], [1, 0, 2]], [[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
]
_BOX_LEVELS = [(a, b) for a in range(4) for b in range(4)]


@st.composite
def box_image_cases(draw):
    """The HNF of A_s = F^s0 M^s1 at a level of index at most 1,000, for a
    pair from commuting_pairs or one of BOX_FAMILIES, and a square matrix
    of the same size with int or Fraction entries, zeros (and a zero row)
    included."""
    F, M = draw(commuting_pairs() | st.sampled_from(BOX_FAMILIES))
    dim = len(F)
    dF, dM = abs(int_det(F)), abs(int_det(M))
    s = draw(st.sampled_from([(a, b) for a, b in _BOX_LEVELS if dF**a * dM**b <= 1000]))
    h = hermite_normal_form(mat_mul(mat_pow(F, s[0]), mat_pow(M, s[1])))
    entry = st.sampled_from([0, 0, 1, -2, 5]) | st.builds(
        Fraction, st.integers(-6, 6), st.integers(1, 4)
    )
    kind = draw(st.sampled_from(["int", "mixed", "A_s"]))
    if kind == "A_s":
        mat = mat_mul(mat_pow(F, s[0]), mat_pow(M, s[1]))
    else:
        ints = st.integers(-7, 7) if kind == "int" else entry
        mat = draw(st.lists(st.lists(ints, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    return mat, h


@given(box_image_cases())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_box_image_is_the_per_vector_image_in_columns(case):
    """box_image(mat, h) is [mat_vec(mat, m) for m in iter_hnf_box(h)]
    transposed into columns: the same values in the same order, with the
    same int or Fraction type entry by entry."""
    mat, h = case
    want = [list(col) for col in zip(*[mat_vec(mat, m) for m in iter_hnf_box(h)])]
    got = box_image(mat, h)
    assert got == want and len(got[0]) == hnf_box_count(h)
    assert [list(map(type, col)) for col in got] == [list(map(type, col)) for col in want]


# --- semidirect product ---------------------------------------------------------


def test_semidirect_product_law(bc):
    a = SemidirectElement(Fraction(1, 2), Fraction(2))
    b = SemidirectElement(Fraction(1, 3), Fraction(3, 2))
    ab = a.mul(bc, b)
    # (m, g)(n, h) = (m + g^-1 n, g h) for this action.
    assert ab.n == Fraction(1, 2) + Fraction(1, 3) / 2
    assert ab.g == Fraction(3)


@given(
    st.fractions(min_value=-5, max_value=5),
    st.fractions(min_value=-5, max_value=5),
    st.fractions(min_value=-5, max_value=5),
)
@settings(max_examples=40, derandomize=True)
def test_semidirect_associative(x, y, z):
    fam = BostConnesFamily()
    gs = [Fraction(2), Fraction(3, 2), Fraction(1, 3)]
    a, b, c = (SemidirectElement(n, g) for n, g in zip((x, y, z), gs))
    assert a.mul(fam, b).mul(fam, c) == a.mul(fam, b.mul(fam, c))
    e = a.mul(fam, a.inv(fam))
    assert e.n == 0 and e.g == 1


# --- invariants of the family data ---------------------------------------------


def test_level_subgroup_nesting(bc, p3, mat):
    # The level subgroup sits inside the distinguished subgroup.
    for fam, levels, samples in (
        (bc, [2, 6], [Fraction(4), Fraction(-6)]),
        (p3, [1, 2], [Fraction(9), Fraction(27)]),
        (mat, [(1, 0), (1, 1)], [(Fraction(10), Fraction(3)), (Fraction(30), Fraction(9))]),
    ):
        for s in levels:
            for m in fam.coset_reps(s):
                assert fam.in_M(m)
            for n in samples:
                if fam.in_level_subgroup(n, s):
                    assert fam.in_M(n)


def test_separating_levels(bc, p3, mat):
    for fam, samples in (
        (bc, [Fraction(1, 2), Fraction(3), Fraction(-7)]),
        (p3, [Fraction(1, 3), Fraction(9), Fraction(2)]),
        (mat, [(Fraction(1, 2), Fraction(0)), (Fraction(4), Fraction(6))]),
    ):
        for n in samples:
            s = fam.separating_level(n)
            assert not fam.in_level_subgroup(n, s)


def test_matrix_family_validation():
    with pytest.raises(ConfigError):
        MatrixFamily([[1, 0], [0, 1]], [[5, 0], [0, 1]])  # |det F| = 1
    with pytest.raises(ConfigError):
        MatrixFamily([[2, 0], [0, 2]], [[6, 0], [0, 1]])  # shared factor 2
    with pytest.raises(ConfigError):
        MatrixFamily([[0, 2], [3, 0]], [[5, 1], [0, 5]])  # does not commute


def test_matrix_family_rejects_non_integer_entries():
    for F in ([[2.5, 0], [0, 3]], [[2.0, 0], [0, 3]], [[True, 0], [0, 3]], [["2", 0], [0, 3]], 5):
        with pytest.raises(ConfigError):
            MatrixFamily(F, [[5, 0], [0, 1]])


def test_validate_s_rejects_bool(bc, p3, mat):
    for fam, bad in ((bc, True), (p3, False), (p3, True), (mat, (True, 0)), (mat, (0, False))):
        with pytest.raises(ConfigError):
            fam.validate_s(bad)
    bc.validate_s(1)
    p3.validate_s(0)
    mat.validate_s((1, 0))


@pytest.mark.parametrize("raw", ["-3", "0", "4,0", "x"])
def test_level_cap_env_must_be_positive(raw, monkeypatch):
    monkeypatch.setenv("HECKE_LAB_LEVEL_CAP", raw)
    with pytest.raises(ConfigError):
        BostConnesFamily()
    with pytest.raises(ConfigError):
        PadicFamily(3)
    with pytest.raises(ConfigError):
        MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])


@pytest.mark.parametrize("raw", ["3,5", "3,5,7"])
def test_level_cap_env_part_count(raw, monkeypatch):
    """A scalar family's cap is one integer and a matrix family's one or
    two; extra parts are refused, not dropped."""
    monkeypatch.setenv("HECKE_LAB_LEVEL_CAP", raw)
    with pytest.raises(ConfigError):
        BostConnesFamily()
    with pytest.raises(ConfigError):
        PadicFamily(3)
    if raw == "3,5,7":
        with pytest.raises(ConfigError):
            MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])
    else:
        assert MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]]).level_cap == (3, 5)
    monkeypatch.setenv("HECKE_LAB_LEVEL_CAP", "3")
    assert BostConnesFamily().level_cap == PadicFamily(3).index_cap == 3
    assert MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]]).level_cap == (3, 3)


def test_enumeration_cap(mat):
    with pytest.raises(LevelCapError):
        mat.coset_reps((12, 12))


def test_family_config_round_trip(bc, p3, mat):
    for fam in (bc, p3, mat):
        clone = family_from_config(fam.to_config())
        assert clone.tag == fam.tag
    parsed = family_from_config({"family": "matrix", "F": [[2, 0], [0, 3]], "M": [[5, 0], [0, 1]]})
    assert parsed.index((1, 1)) == 30
    with pytest.raises(ConfigError):
        family_from_config({"family": "unknown"})
    with pytest.raises(ConfigError):
        family_from_config({"family": "padic"})


def test_element_serialization(bc, mat):
    n = Fraction(5, 12)
    assert bc.n_from_json(bc.n_to_json(n)) == n
    assert bc.n_to_json(n) == "5/12"
    v = (Fraction(1, 2), Fraction(-3))
    assert mat.n_from_json(mat.n_to_json(v)) == v
    assert mat.s_from_json(mat.s_to_json((2, 1))) == (2, 1)
    # A matrix coset is a list of exactly dim rationals: one coordinate is
    # not a shorter key, and three or a bare number are not a crash.
    for bad in (["1/2"], ["1/2", "0", "1"], [], 5, "1/2", {"0": "1/2"}, ["1/2", 1.5]):
        with pytest.raises(ConfigError):
            mat.n_from_json(bad)
    assert mat.n_from_json(("1/2", 3)) == (Fraction(1, 2), Fraction(3))


def test_non_integer_parameters_are_config_errors(bc, p3, mat):
    """No silent int() coercion: a float, bool or string prime, level or
    group element is refused, where int() would truncate or raise a bare
    ValueError."""
    for p in (3.7, 3.0, "x", "3", True, None):
        with pytest.raises(ConfigError):
            family_from_config({"family": "padic", "p": p})
        with pytest.raises(ConfigError):
            PadicFamily(p)
    assert family_from_config({"family": "padic", "p": 3}).index(2) == 9
    for fam, bad in ((bc, 2.5), (bc, "2"), (bc, True), (p3, 1.0), (p3, False),
                     (mat, [1.5, 0]), (mat, [0, True]), (mat, ["1", 0]), (mat, [1]), (mat, 3)):
        with pytest.raises(ConfigError):
            fam.s_from_json(bad)
        if fam is not bc:  # a bost-connes group element is a rational
            with pytest.raises(ConfigError):
                fam.g_from_json(bad)
    assert p3.g_from_json(-2) == -2 and mat.g_from_json([-1, 2]) == (-1, 2)
    for bad in ("x", "1/0", "1.5", 2.5, True):
        with pytest.raises(ConfigError):
            bc.n_from_json(bad)
        with pytest.raises(ConfigError):
            bc.g_from_json(bad)


# --- integer-coded translation against the Fraction route -----------------------


def _three_by_three():
    # A = the cyclic permutation matrix has det(c*I + A) = c^3 + 1.
    a = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    F = [[2 * (i == j) + a[i][j] for j in range(3)] for i in range(3)]  # det 9
    M = [[(i == j) + a[i][j] for j in range(3)] for i in range(3)]  # det 2
    return MatrixFamily(F, M)


_MAT_LEVELS = [(0, 0), (1, 0), (0, 1), (1, 1)]
ORACLE_FAMILIES = [
    (BostConnesFamily(), [1, 2, 3, 6], [1, 2, 4, 6, 12]),
    (PadicFamily(2), [0, 1, 2, 3], [0, 1, 2, 3]),
    (PadicFamily(3), [0, 1, 2], [0, 1, 2]),
    (MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]]), _MAT_LEVELS, _MAT_LEVELS + [(2, 1)]),
    (MatrixFamily([[2, 1], [1, 3]], [[7, 0], [0, 7]]), _MAT_LEVELS, _MAT_LEVELS + [(2, 0)]),
    (_three_by_three(), [(0, 0), (1, 0), (0, 1)], _MAT_LEVELS),
]


@st.composite
def n_elements(draw, fam, levels):
    """An element of N: psi_t of an integer (vector) at a level t, so it
    is negative or non-canonical as often as not, and sometimes int-typed:
    a plain int, or a matrix vector with int coordinates, some or all."""
    t = draw(st.sampled_from(levels))
    size = 3 * fam.index(t) if fam.tag != "matrix" else 12
    if fam.tag != "matrix":
        v = draw(st.integers(-size, size))
        return draw(st.sampled_from([v, fam.psi_s(t, v)]))
    v = tuple(draw(st.integers(-size, size)) for _ in range(fam.dim))
    mixed = tuple(c if i % 2 else Fraction(c) for i, c in enumerate(v))
    return draw(st.sampled_from([v, mixed, fam.psi_s(t, v)]))


@st.composite
def oracle_cases(draw):
    fam, ss, levels = draw(st.sampled_from(ORACLE_FAMILIES))
    level = draw(st.sampled_from([None] + levels))
    return fam, draw(st.sampled_from(ss)), level, draw(n_elements(fam, levels))


def _types(xs):
    return [tuple(map(type, x)) if type(x) is tuple else type(x) for x in xs]


def _fraction_coded(fam, xs):
    return all(type(x) is (tuple if fam.tag == "matrix" else Fraction) for x in xs) and all(
        type(c) is Fraction for x in xs for c in (x if type(x) is tuple else (x,))
    )


def _solve_route(fam, s, n, level):
    """The level-a solutions of n by psi_reps + n_add + canon."""
    a = fam.s_identity if level is None else level
    base = fam.psi_s(s, fam.canon(n, level))
    return [fam.canon(fam.n_add(base, fam.psi_s_inv(a, pm)), level) for pm in fam.psi_reps(s)]


@given(oracle_cases(), st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_solve_coset_matches_fraction_route(case, data):
    """solve_coset at any level equals psi_reps + n_add + canon, the route
    it replaced, in values, coordinate types and transversal order; so
    does each block of one ``cell_solve`` batch of 1-6 keys, the kernel
    that ``theta_star`` and the corner closed form run."""
    fam, s, level, n = case
    a = fam.s_identity if level is None else level
    want = _solve_route(fam, s, n, level)
    got = fam.solve_coset(s, n, level)
    assert got == want
    assert _types(got) == _types(want) and _fraction_coded(fam, got)
    # canon shares the HNF reduction with solve_coset; psi_s^-1 of each
    # solution must also lie in n's coset by a membership test.
    assert all(fam.in_level_subgroup(fam.n_add(fam.psi_s_inv(s, m), fam.n_neg(n)), a) for m in got)
    if level is None:
        assert fam.solve_coset(s, n, fam.s_identity) == got
    levels = next(lv for f, _, lv in ORACLE_FAMILIES if f is fam)
    keys = data.draw(st.lists(n_elements(fam, levels), min_size=1, max_size=6))
    den, codes = fam.cell_codes(keys, level)
    out, blocks = fam.cell_solve(s, level, den, codes)
    assert out == den * fam.index(s) and len(blocks) == len(keys)
    for k, block in zip(keys, blocks):
        block = list(block)
        assert all(type(c) is int for c in block)
        assert fam.cell_keys(level, out, block) == _solve_route(fam, s, k, level)


def _check_codes(fam, level, den, codes, want):
    """The cell-code contract: ``cell_keys`` gives the Fraction route's
    keys in order, coded as Fractions, on the whole batch and on any
    selection of codes; codes are ints, equal codes go with equal keys and
    only with them, and ``cell_codes`` of the keys, rescaled to den, gives
    the same codes."""
    codes = list(codes)
    got = fam.cell_keys(level, den, codes)
    assert got == want and _fraction_coded(fam, got)
    assert len(codes) == len(want) and all(type(c) is int for c in codes)
    for i, j in itertools.product(range(len(codes)), repeat=2):
        assert (codes[i] == codes[j]) == (want[i] == want[j])
    distinct = list(dict.fromkeys(codes))
    assert fam.cell_keys(level, den, distinct) == list(dict.fromkeys(want))
    backwards = fam.cell_keys(level, den, reversed(distinct))
    assert backwards == list(reversed(fam.cell_keys(level, den, distinct)))
    least, again = fam.cell_codes(want, level)
    assert den % least == 0 and fam.cell_rescale(level, least, again, den) == codes
    return got


@given(oracle_cases(), st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_translate_matches_fraction_route(case, data):
    """cell_codes equals canon(k, level) key by key, and sum_codes, on
    batches of several rows with the left operand canonical at a finer
    level, equals canon(n_add(x, y), level) pair by pair, x outer and y
    inner, coding every output coordinate as a Fraction.  (canon keeps an
    int for an all-int input, as test_canonical_idempotent_* pin; the
    outputs are keys, and keys are Fractions.)"""
    fam, _, level, x = case
    levels = next(lv for f, _, lv in ORACLE_FAMILIES if f is fam)
    keys = data.draw(st.lists(n_elements(fam, levels), max_size=6))
    den, codes = fam.cell_codes(keys, level)
    assert den == math.lcm(*(c.denominator for k in keys for c in (k if type(k) is tuple else (k,))))
    got = _check_codes(fam, level, den, codes, [fam.canon(k, level) for k in keys])
    assert [fam.canon(k, level) for k in got] == got
    a = fam.s_identity if level is None else level
    finer = fam.s_join(a, data.draw(st.sampled_from(levels)))
    xs = [x] + data.draw(st.lists(n_elements(fam, levels), max_size=3))
    # Repeats make equal sums from distinct pairs.
    ys = keys + data.draw(st.lists(st.sampled_from(keys), max_size=3)) if keys else keys
    x_batch, y_batch = (finer, *fam.cell_codes(xs, finer)), (level, *fam.cell_codes(ys, level))
    den, codes = fam.sum_codes(x_batch, y_batch, level)
    assert den == math.lcm(x_batch[1], y_batch[1])
    want = [fam.canon(fam.n_add(p, q), level) for p in xs for q in ys]
    got = _check_codes(fam, level, den, codes, want)
    # canon reduces through the same HNF steps as the kernel, so check the
    # cosets apart from it: key - (x + y) lies in the level subgroup.
    sums = [fam.n_add(p, q) for p in xs for q in ys]
    assert all(fam.in_level_subgroup(fam.n_add(k, fam.n_neg(z)), a) for k, z in zip(got, sums))
    for x_part, y_part in (((finer, 1, []), y_batch), (x_batch, (level, 1, []))):
        assert list(fam.sum_codes(x_part, y_part, level)[1]) == []


def _translated(fam, x, keys, level):
    """[canon(k + x, level) for k in keys], through ``sum_codes``."""
    x_batch, k_batch = (level, *fam.cell_codes([x], level)), (level, *fam.cell_codes(keys, level))
    return fam.cell_keys(level, *fam.sum_codes(x_batch, k_batch, level))


# --- exact matrix keys on the Fraction route ---------------------------------


@pytest.mark.parametrize(
    "F, M",
    [
        ([[2, 0], [0, 3]], [[5, 0], [0, 1]]),
        ([[2, 1], [1, 3]], [[7, 0], [0, 7]]),
    ],
)
def test_matrix_solve_and_sum_codes_give_the_fraction_route_keys(F, M):
    """solve_coset and sum_codes build exact Fraction coordinates, equal to
    the psi_reps + n_add + canon route, and equal across repeated calls."""
    fam = MatrixFamily(F, M)
    n = fam.canon(fam.psi_s((1, 1), (Fraction(1), Fraction(2))))
    x = fam.psi_s((1, 0), (Fraction(3), Fraction(-1)))
    for level in (None, (1, 0), (1, 1)):
        for s in ((1, 0), (0, 1), (1, 1)):
            want = _solve_route(fam, s, n, level)
            got, again = fam.solve_coset(s, n, level), fam.solve_coset(s, n, level)
            assert got == want == again and _fraction_coded(fam, got)
            moved, moved_again = _translated(fam, x, got, level), _translated(fam, x, got, level)
            assert moved == [fam.canon(fam.n_add(k, x), level) for k in got] == moved_again
            assert _fraction_coded(fam, moved)


# --- carrier codes against the Fraction route ----------------------------------


@contextlib.contextmanager
def _fractions_built():
    """Count the Fractions constructed inside the block, in ``count[0]``."""
    count = [0]
    original = vars(Fraction)["__new__"]
    new = original.__func__ if isinstance(original, staticmethod) else original

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        yield count
    finally:
        Fraction.__new__ = original


@given(oracle_cases(), st.data())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_carrier_codes_match_fraction_route(case, data):
    """``encode`` and ``decode`` round-trip keys, int-typed coordinates
    included, and decode to Fractions; equal keys have equal codes and only
    they do.  ``code_add``, ``code_solve`` and ``code_psi_inv`` decode to
    the Fraction routes canon(n_add(k, n)), ``solve_coset`` and
    canon(psi_s_inv(s, k)), in order, and give the codes that ``encode``
    gives those keys; ``cell_psi_inv`` on the cell codes of a batch keeps
    the cell-code contract against canon(psi_s_inv(s, k)), also for an
    empty batch.  Neither the codes nor the kernels build a Fraction once
    the family's caches are warm."""
    fam, s, _, n = case
    levels = next(lv for f, _, lv in ORACLE_FAMILIES if f is fam)
    keys = data.draw(st.lists(n_elements(fam, levels), max_size=6))
    keys += data.draw(st.lists(st.sampled_from(keys), max_size=2)) if keys else []
    keys += [fam.canon(k) for k in keys]
    codes = fam.encode(keys)
    den, cells = fam.cell_codes(keys)

    def kernels():
        return [
            fam.code_add(n, codes), fam.code_solve(s, codes), fam.code_psi_inv(s, codes),
            fam.cell_psi_inv(s, None, den, cells),
        ]

    outputs = kernels()
    # Again on the family's warm caches (powers of A_s, transversals).
    with _fractions_built() as built:
        assert fam.encode(keys) == codes and fam.cell_codes(keys) == (den, cells)
        assert kernels() == outputs
    assert built[0] == 0
    with _fractions_built() as built:
        Fraction(1, 2)
    assert built[0] == 1
    back = fam.decode(codes)
    assert back == keys and _fraction_coded(fam, back)
    assert all(type(c) is int for code in codes for c in code)
    for i, j in itertools.product(range(len(keys)), repeat=2):
        assert (codes[i] == codes[j]) == (keys[i] == keys[j])
    wants = [
        [fam.canon(fam.n_add(k, n)) for k in keys],
        [m for k in keys for m in fam.solve_coset(s, k)],
        [fam.canon(fam.psi_s_inv(s, k)) for k in keys],
    ]
    for out, want in zip(outputs, wants):
        got = fam.decode(out)
        assert got == want and _fraction_coded(fam, got)
        assert out == fam.encode(want)
    got = _check_codes(fam, None, den, outputs[3], wants[2])
    assert [fam.canon(k) for k in got] == got
    assert fam.cell_psi_inv(s, None, 1, []) == []


# --- column-form transversals -------------------------------------------------


@contextlib.contextmanager
def _calls(name):
    """Count the calls of the pairs-module function name inside the block,
    in ``count[0]``."""
    count = [0]
    original = getattr(pairs, name)

    def counting(*args):
        count[0] += 1
        return original(*args)

    setattr(pairs, name, counting)
    try:
        yield count
    finally:
        setattr(pairs, name, original)


@pytest.mark.parametrize("F, M", BOX_FAMILIES)
def test_transversal_caches_fill_by_columns(F, M):
    """A cold ``_solve_shifts`` or ``_splitters`` fill calls no
    ``mat_vec`` and equals the per-coset route, mat_vec of every box
    vector, transposed, in values, order and types; one ``code_solve``
    batch calls ``_lowest`` once and equals the per-key batches joined."""
    fam = MatrixFamily(F, M)
    levels = [(0, 0), (1, 0), (0, 1), (1, 1)]
    with _calls("mat_vec") as made:
        shifts = {(s, a): fam._solve_shifts(s, a) for s in levels for a in (None, (1, 0))}
        splits = {(s, r): fam._splitters(s, r) for s in levels for r in levels}
    assert made[0] == 0

    def per_vector(mat, r):
        return [list(col) for col in zip(*[mat_vec(mat, m) for m in iter_hnf_box(fam._hnf(r))])]

    def typed(cols):
        return [[(type(c), c) for c in col] for col in cols]

    for (s, a), (adj, got) in shifts.items():
        lift = adj if a is None else mat_mul(adj, fam._matrix_power(a))
        assert typed(got) == typed(per_vector(lift, s))
    for (s, r), got in splits.items():
        assert typed(got) == typed(per_vector(fam._matrix_power(s), r))
    # The wrapper does see a call.
    with _calls("mat_vec") as made:
        fam.psi((1, 0), fam.n_identity)
    assert made[0] == 1

    keys = [fam.psi_s((1, 1), (Fraction(i), Fraction(3 - 2 * i))) for i in range(5)]
    codes = fam.encode(keys + [fam.n_identity, keys[0]])
    for s in levels:
        with _calls("_lowest") as made:
            batch = fam.code_solve(s, codes)
        assert made[0] == 1
        assert batch == [m for c in codes for m in fam.code_solve(s, [c])]
        assert all(type(x) is int for code in batch for x in code)
        assert fam.decode(batch) == [m for k in fam.decode(codes) for m in fam.solve_coset(s, k)]


@pytest.mark.parametrize("F, M", BOX_FAMILIES)
def test_matrix_random_coset_matches_fraction_route(F, M):
    """``random_coset`` draws canon(psi_s(v)) with integer kernels: over
    3,000 draws it returns the Fraction route's tuples, Fractions only, and
    makes the same rng calls, so two generators seeded alike end equal."""
    fam = MatrixFamily(F, M)
    ref_rng, rng = random.Random(41), random.Random(41)
    for _ in range(3000):
        s = (ref_rng.randint(0, 2), ref_rng.randint(0, 2))
        v = tuple(Fraction(ref_rng.randint(-4, 4)) for _ in range(fam.dim))
        got = fam.random_coset(rng, 3)
        assert got == fam.canon(fam.psi_s(s, v))
        assert all(type(x) is Fraction for x in got)
    assert rng.getstate() == ref_rng.getstate()
