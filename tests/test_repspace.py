"""Covariant representations on sparse vectors.

Frozen expectations come from hand expansion of the defining formulas:
V_2 xi_0 = (xi_0 + xi_half)/sqrt(2), and conjugating a translation by V_2
averages the two square roots of the translating coset.
"""

import math
import random
from fractions import Fraction

import pytest

from hecke_lab.errors import ConfigError
from hecke_lab.pairs import BostConnesFamily, MatrixFamily, PadicFamily
from hecke_lab import repspace
from hecke_lab.repspace import (
    CovariantRep,
    SparseVector,
    average_projection,
    direct_sum,
    inclusion_intertwiner,
    random_vector,
    regular_covariant,
    verify_covariance,
)

TOL = 1e-9


@pytest.fixture(scope="module")
def bc():
    return BostConnesFamily()


@pytest.fixture(scope="module")
def rep(bc):
    return regular_covariant(bc)


def test_sparse_vector_inner():
    v = SparseVector.build([(Fraction(0), 1 + 1j), (Fraction(1, 2), 2)])
    w = SparseVector.build([(Fraction(0), 1j)])
    assert abs(v.inner(w) - (1 + 1j) * (-1j)) < 1e-15
    assert abs(v.norm() - math.sqrt(abs(1 + 1j) ** 2 + 4)) < 1e-15
    assert abs(v.inner(w) - w.inner(v).conjugate()) < 1e-15


def test_regular_v_example(rep):
    out = rep.apply_V(2, SparseVector.basis(Fraction(0)))
    expected = {Fraction(0): 1 / math.sqrt(2), Fraction(1, 2): 1 / math.sqrt(2)}
    assert set(out.values) == set(expected)
    for k, c in expected.items():
        assert abs(out.values[k] - c) < 1e-15


def test_regular_isometry_random(rep, bc):
    rng = random.Random(3)
    for _ in range(100):
        s = rng.choice([1, 2, 3, 4, 6, 12])
        v = random_vector(bc, rng)
        assert abs(rep.apply_V(s, v).norm() - v.norm()) < TOL
        assert (rep.apply_Vstar(s, rep.apply_V(s, v)) - v).norm() < TOL


def test_v_semigroup_law(rep, bc):
    rng = random.Random(5)
    for _ in range(40):
        s, t = rng.choice([1, 2, 3, 4]), rng.choice([1, 2, 3])
        v = random_vector(bc, rng)
        lhs = rep.apply_V(s, rep.apply_V(t, v))
        assert (lhs - rep.apply_V(s * t, v)).norm() < TOL


def test_y_unitary(rep, bc):
    rng = random.Random(7)
    for _ in range(50):
        n = Fraction(rng.randint(0, 11), rng.randint(1, 12))
        v = random_vector(bc, rng)
        moved = rep.apply_Y(n, v)
        assert abs(moved.norm() - v.norm()) < TOL
        back = rep.apply_Y(bc.n_neg(n), moved)
        assert (back - v).norm() < TOL


def test_covariance_example_frozen(rep):
    # Conjugating the half-translation by the 2-isometry spreads onto the
    # quarter translations.
    out = rep.apply_V(2, rep.apply_Y(Fraction(1, 2), rep.apply_Vstar(2, SparseVector.basis(Fraction(0)))))
    assert set(out.values) == {Fraction(1, 4), Fraction(3, 4)}
    for c in out.values.values():
        assert abs(c - 0.5) < 1e-15


def test_covariance_random(rep, bc):
    rng = random.Random(11)
    worst = 0.0
    for _ in range(200):
        s = rng.choice([1, 2, 3, 4, 6, 12])
        n = Fraction(rng.randint(0, 11), rng.randint(1, 12))
        v = random_vector(bc, rng)
        worst = max(worst, verify_covariance(rep, s, n, v))
    assert worst < 1e-12


def test_covariance_identity_is_exact(rep, bc):
    v = random_vector(bc, random.Random(13))
    assert verify_covariance(rep, 1, Fraction(1, 3), v) == 0.0


def test_corrupted_rep_detected(bc, rep):
    def bad_V(s, v):
        out = rep.apply_V(s, v)
        return out.scale(1.01) if s == 2 else out

    bad = CovariantRep(bc, rep.apply_Y, bad_V, rep.apply_Vstar, label="corrupted")
    dev = verify_covariance(bad, 2, Fraction(1, 2), SparseVector.basis(Fraction(0)))
    assert dev > 1e-3


def test_construction_self_check_rejects_corruption(bc):
    with pytest.raises(ConfigError):
        rep = regular_covariant(bc, check=False)

        def bad_V(s, v):
            return rep.apply_V(s, v).scale(1.01 if s != 1 else 1.0)

        broken = CovariantRep(bc, rep.apply_Y, bad_V, rep.apply_Vstar)
        # Re-run the construction-time check by hand.
        for s in (2, 3):
            if verify_covariance(broken, s, Fraction(0), SparseVector.basis(Fraction(0))) > 1e-9:
                raise ConfigError("covariance self-check failed")


def test_average_projection_swap():
    # Z/2 swap on two basis vectors: the average projects on the diagonal.
    def ident(v):
        return v

    def swap(v):
        return SparseVector.build(
            ((Fraction(1) - k, c) for k, c in v.values.items())
        )

    v = SparseVector.basis(Fraction(0))
    out = average_projection([ident, swap], v)
    assert abs(out.values[Fraction(0)] - 0.5) < 1e-15
    assert abs(out.values[Fraction(1)] - 0.5) < 1e-15
    fixed = SparseVector.build([(Fraction(0), 1), (Fraction(1), 1)])
    assert (average_projection([ident, swap], fixed) - fixed).norm() < 1e-15


def test_average_projection_trivial_group(rep, bc):
    v = random_vector(bc, random.Random(17))
    assert (average_projection([lambda x: x], v) - v).norm() == 0.0


def test_average_projection_translation_block(rep, bc):
    # Averaging the level-2 translations of the identity block.
    maps = [
        (lambda m: (lambda v: rep.apply_Y(bc.canon(bc.psi_s(2, m)), v)))(m)
        for m in bc.coset_reps(2)
    ]
    out = average_projection(maps, SparseVector.basis(Fraction(0)))
    assert set(out.values) == {Fraction(0), Fraction(1, 2)}
    for c in out.values.values():
        assert abs(c - 0.5) < 1e-15


def test_average_projection_is_projection(rep, bc):
    rng = random.Random(19)
    for s in (2, 3, 4, 6):
        maps = [
            (lambda m: (lambda v: rep.apply_Y(bc.canon(bc.psi_s(s, m)), v)))(m)
            for m in bc.coset_reps(s)
        ]
        for _ in range(5):
            v = random_vector(bc, rng)
            w = random_vector(bc, rng)
            pv = average_projection(maps, v)
            ppv = average_projection(maps, pv)
            assert (ppv - pv).norm() < TOL
            pw = average_projection(maps, w)
            assert abs(pv.inner(w) - v.inner(pw)) < TOL


def test_other_families_covariant():
    for fam in (PadicFamily(2), MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])):
        rep = regular_covariant(fam)
        rng = random.Random(23)
        v = random_vector(fam, rng)
        s = 2 if fam.tag == "padic" else (1, 1)
        assert abs(rep.apply_V(s, v).norm() - v.norm()) < TOL


def test_direct_sum_and_intertwiner(bc, rep):
    two = direct_sum(rep, rep)
    T = inclusion_intertwiner("a")
    rng = random.Random(29)
    v = random_vector(bc, rng)
    for s in (2, 3):
        assert (two.apply_V(s, T(v)) - T(rep.apply_V(s, v))).norm() < TOL
    n = Fraction(1, 3)
    assert (two.apply_Y(n, T(v)) - T(rep.apply_Y(n, v))).norm() < TOL


def test_direct_sum_over_equal_family_instances():
    one = regular_covariant(BostConnesFamily())
    two = direct_sum(one, regular_covariant(BostConnesFamily()))
    T = inclusion_intertwiner("b")
    v = random_vector(one.family, random.Random(31))
    assert (two.apply_V(2, T(v)) - T(one.apply_V(2, v))).norm() < TOL
    with pytest.raises(ConfigError):
        direct_sum(regular_covariant(BostConnesFamily()), regular_covariant(PadicFamily(2)))
