"""Inverse-system elements, level projections, and the completion action."""

import random
from fractions import Fraction

import pytest

from hecke_lab.errors import PrecisionError
from hecke_lab.pairs import BostConnesFamily, MatrixFamily, PadicFamily
from hecke_lab import tower
from hecke_lab.tower import ExactElement, TruncatedElement, embed_j, theta_apply, theta_inv_apply


@pytest.fixture(scope="module")
def bc():
    return BostConnesFamily()


@pytest.fixture(scope="module")
def p2():
    return PadicFamily(2)


def test_projection_examples(bc, p2):
    x = embed_j(p2, Fraction(3))
    assert x.at(2) == Fraction(3)  # 3 mod 4
    y = embed_j(bc, Fraction(1, 3))
    assert y.at(6) == Fraction(1, 3)
    t = TruncatedElement.make(bc, 12, Fraction(7, 3))
    assert t.project(12) == t.coset


def test_projection_requires_divisor(bc):
    t = TruncatedElement.make(bc, 6, Fraction(1, 2))
    assert t.project(3) == Fraction(1, 2)
    assert t.project(2) == Fraction(1, 2)
    with pytest.raises(PrecisionError):
        t.project(4)
    with pytest.raises(PrecisionError):
        t.project(12)


def test_projection_coherence_random(bc):
    rng = random.Random(11)
    for _ in range(200):
        s = rng.randint(1, 12)
        r = rng.randint(1, 12)
        level = s * r
        n = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        x = TruncatedElement.make(bc, level, n)
        # Project directly versus through the intermediate level.
        assert bc.canon(x.project(level), s) == x.project(s)
        assert bc.canon(x.project(s * 1), s) == x.project(s)


def test_theta_examples(bc, p2):
    x = embed_j(bc, Fraction(1, 3)).truncate(6)
    y = theta_apply(2, x)
    assert (y.level, y.coset) == (3, Fraction(1, 6))

    z = embed_j(p2, Fraction(1)).truncate(3)
    w = theta_apply(1, z)
    assert (w.level, w.coset) == (2, Fraction(1, 2))

    # Identity level: theta at the identity does nothing.
    t = TruncatedElement.make(bc, 4, Fraction(3, 2))
    assert theta_apply(1, t) == t


def test_theta_inverse_example(bc):
    x = embed_j(bc, Fraction(1, 6)).truncate(3)
    y = theta_inv_apply(2, x)
    assert (y.level, y.coset) == (6, Fraction(1, 3))
    assert y == embed_j(bc, Fraction(1, 3)).truncate(6)


def test_theta_roundtrip_random(bc):
    rng = random.Random(5)
    for _ in range(100):
        s = rng.randint(1, 8)
        t = rng.randint(1, 8)
        n = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
        x = TruncatedElement.make(bc, s, n)
        assert theta_apply(t, theta_inv_apply(t, x)) == x


def test_theta_intertwines_embedding(bc, p2):
    for fam, levels in ((bc, [1, 2, 3, 4]), (p2, [0, 1, 2])):
        for t in levels:
            for s in levels:
                for num in (-3, 1, 5):
                    n = Fraction(num, 2)
                    deep = fam.s_mul(s, t)
                    lhs = theta_apply(t, embed_j(fam, n).truncate(deep))
                    rhs = embed_j(fam, fam.psi_s(t, n)).truncate(s)
                    assert lhs == rhs


def test_theta_needs_factoring_level(bc):
    x = TruncatedElement.make(bc, 6, Fraction(1, 3))
    with pytest.raises(PrecisionError):
        theta_apply(4, x)


def test_k_membership(bc):
    assert TruncatedElement.make(bc, 6, Fraction(4)).in_K()
    assert not TruncatedElement.make(bc, 6, Fraction(1, 2)).in_K()
    assert embed_j(bc, Fraction(7)).in_K()


def test_theta_preserves_k_conditionally(bc):
    # Membership of the image in the compact part detects the preimage level.
    for t in (2, 3):
        for num in (1, 2, 5):
            x = TruncatedElement.make(bc, 6 * t, Fraction(num, t))
            moved = theta_apply(t, x)
            assert moved.in_K() == bc.in_M(bc.psi_s(t, x.coset))


def test_theta_k_image_counts(bc):
    # The image of the compact subgroup splits into index(s)*index(t) classes.
    for s in (1, 2, 3):
        for t in (1, 2, 4):
            image = tower.theta_image_of_k_reps(bc, s, t)
            assert len(image) == bc.index(s) * bc.index(t)


def test_k_closure_under_addition(bc):
    reps = bc.coset_reps(6)
    for a in reps:
        for b in reps:
            assert TruncatedElement.make(bc, 6, a + b).in_K()


def test_exact_vs_truncated_consistency():
    fam = MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]])
    v = (Fraction(1, 2), Fraction(2, 3))
    x = embed_j(fam, v)
    for s in ((0, 0), (1, 0), (1, 1), (2, 2)):
        assert x.truncate(s).project(s) == fam.canon(v, s)
    moved = theta_apply((1, 0), x.truncate((2, 1)))
    assert moved.level == (1, 1)
    assert moved.coset == fam.canon(fam.psi_s((1, 0), v), (1, 1))


def test_truncated_addition(bc):
    a = TruncatedElement.make(bc, 6, Fraction(5, 2))
    b = TruncatedElement.make(bc, 12, Fraction(7, 3))
    out = a.add(b)
    assert out.level == 6
    assert out.coset == bc.canon(Fraction(5, 2) + Fraction(7, 3), 6)
    with pytest.raises(PrecisionError):
        TruncatedElement.make(bc, 4, Fraction(1)).add(TruncatedElement.make(bc, 9, Fraction(1)))


def test_serialization_roundtrip(bc):
    x = TruncatedElement.make(bc, 12, Fraction(17, 3))
    data = x.to_json()
    assert data == {"level": 12, "coset": bc.n_to_json(x.coset)}
    assert TruncatedElement.from_json(bc, data) == x


def test_separation_witnesses(bc, p2):
    # Nonidentity samples escape some level subgroup.
    for fam, samples in ((bc, [Fraction(1, 2), Fraction(5)]), (p2, [Fraction(3, 4), Fraction(8)])):
        for n in samples:
            s = fam.separating_level(n)
            assert not fam.in_level_subgroup(n, s)


def test_elements_from_equal_family_instances_are_equal():
    x = TruncatedElement.make(BostConnesFamily(), 6, Fraction(1, 2))
    y = TruncatedElement.make(BostConnesFamily(), 6, Fraction(1, 2))
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert embed_j(PadicFamily(3), Fraction(1, 3)) == embed_j(PadicFamily(3), Fraction(1, 3))
    assert embed_j(PadicFamily(3), Fraction(1, 3)) != embed_j(PadicFamily(2), Fraction(1, 3))
    diag = ([[2, 0], [0, 3]], [[5, 0], [0, 1]])
    assert MatrixFamily(*diag) == MatrixFamily(*diag)
    assert hash(MatrixFamily(*diag)) == hash(MatrixFamily(*diag))
    assert MatrixFamily(*diag) != MatrixFamily([[2, 1], [1, 3]], [[7, 0], [0, 7]])
    assert BostConnesFamily() != PadicFamily(2)
