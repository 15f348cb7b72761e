"""Covariant representations on sparse vectors.

Frozen expectations come from hand expansion of the defining formulas:
V_2 xi_0 = (xi_0 + xi_half)/sqrt(2), and conjugating a translation by V_2
averages the two square roots of the translating coset.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hecke_lab.coeffs import QC
from hecke_lab.errors import ConfigError
from hecke_lab.grpalg import GroupAlgebraElement
from hecke_lab.pairs import BostConnesFamily, MatrixFamily, PadicFamily
from hecke_lab import repspace
from hecke_lab.repspace import (
    CovariantRep,
    SparseVector,
    average_projection,
    direct_sum,
    inclusion_intertwiner,
    random_cosets,
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


# -- linear-time sums -----------------------------------------------------


def pairwise_sum(vectors) -> SparseVector:
    """Reference route for every sum of vectors: ``total = total + x`` with
    each step rebuilding the whole dict through ``build``."""
    total = SparseVector({})
    for x in vectors:
        total = SparseVector.build(list(total.values.items()) + list(x.values.items()))
    return total


def _cancelling_vectors(rng, count, keys=6):
    """Vectors on a few shared keys with values in a small set closed under
    negation, so that partial sums cancel exactly and keys drop out and
    come back."""
    vals = (1 + 0j, -1 + 0j, 0.5j, -0.5j, 0.25 - 0.75j, -0.25 + 0.75j)
    out = []
    for _ in range(count):
        ks = rng.sample(range(keys), rng.randint(1, keys))
        out.append(SparseVector.build((Fraction(k, keys), rng.choice(vals)) for k in ks))
    return out


def _same(got: SparseVector, ref: SparseVector):
    assert list(got.values.items()) == list(ref.values.items())
    assert all(type(c) is complex and c != 0 for c in got.values.values())


def test_sums_match_pairwise_route_with_cancellations():
    rng = random.Random(43)
    cancelled = 0
    for _ in range(300):
        vs = _cancelling_vectors(rng, rng.randint(1, 6))
        ref = pairwise_sum(vs)
        cancelled += any(k not in ref.values for v in vs for k in v.values)
        _same(SparseVector.build(kc for v in vs for kc in v.values.items()), ref)
        _same(SparseVector.merge(kc for v in vs for kc in v.values.items()), ref)
        total = SparseVector({})
        for v in vs:
            total = total + v
        _same(total, ref)
        _same(pairwise_sum([vs[0], vs[-1].scale(-1)]), vs[0] - vs[-1])
    assert cancelled > 50


def test_accumulators_match_pairwise_route(rep):
    rng = random.Random(47)
    for _ in range(40):
        v = _cancelling_vectors(rng, 1)[0]
        maps = [
            (lambda m: (lambda x: rep.apply_Y(Fraction(m, 6), x)))(m)
            for m in rng.sample(range(6), rng.randint(1, 4))
        ]
        w = 1.0 / len(maps)
        _same(average_projection(maps, v), pairwise_sum(u(v).scale(w) for u in maps))
        a = GroupAlgebraElement.build(
            rep.family, [(Fraction(m, 6), QC.of(rng.choice((1, -1, 2)))) for m in range(4)]
        )
        _same(
            repspace.apply_algebra(rep, a, v),
            pairwise_sum(rep.apply_Y(n, v).scale(complex(c)) for n, c in a.values.items()),
        )


FAMILY_IDS = ["bost-connes", "padic3", "matrix-diag", "matrix-skew"]


def _four_families():
    return [
        BostConnesFamily(),
        PadicFamily(3),
        MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]]),
        MatrixFamily([[2, 1], [1, 3]], [[7, 0], [0, 7]]),
    ]


@pytest.mark.parametrize("fam", _four_families(), ids=FAMILY_IDS)
def test_apply_y_and_v_match_build_route(fam):
    """apply_Y and apply_V fill their dicts without ``build``; the result
    must equal, key order included, what ``build`` makes from the same pairs."""
    rep = regular_covariant(fam)
    rng = random.Random(53)
    for _ in range(6):
        v = random_vector(fam, rng, terms=4)
        n = random_cosets(fam, rng, 1)[0]
        ref = SparseVector.build(
            (fam.canon(fam.n_add(fam.canon(n), k)), c) for k, c in v.values.items()
        )
        _same(rep.apply_Y(n, v), ref)
        for s in fam.sample_levels():
            w = 1.0 / math.sqrt(fam.index(s))
            ref = SparseVector.build(
                (m, c * w) for k, c in v.values.items() for m in fam.solve_coset(s, k)
            )
            got = rep.apply_V(s, v)
            _same(got, ref)
            assert all(fam.canon(k) == k for k in got.values)


@pytest.mark.parametrize("fam", _four_families(), ids=FAMILY_IDS)
def test_vstar_sums_a_solution_set_onto_one_key(fam):
    """V_s^* is many-to-one: it sends the index(s) solutions of n onto n,
    so it maps their sum to sqrt(index(s)) xi_n, not to one term."""
    rep = regular_covariant(fam, check=False)
    rng = random.Random(59)
    for n in random_cosets(fam, rng, 3):
        for s in fam.sample_levels():
            spread = SparseVector.build((m, 1) for m in fam.solve_coset(s, n))
            out = rep.apply_Vstar(s, spread)
            assert list(out.values) == [fam.canon(n)]
            root = math.sqrt(fam.index(s))
            assert abs(out.values[fam.canon(n)] - root) < TOL * root


def vstar_by_fractions(fam, s, v: SparseVector) -> SparseVector:
    """V_s^* as a merge keyed by the Fraction route canon(psi_s_inv(s, k)),
    the reference for apply_Vstar's integer codes."""
    w = 1.0 / math.sqrt(fam.index(s))
    return SparseVector.merge((fam.canon(fam.psi_s_inv(s, k)), c * w) for k, c in v.values.items())


def _bits(v: SparseVector):
    return [(k, c.real.hex(), c.imag.hex()) for k, c in v.values.items()]


def _colliding_vector(fam, rng, s, tags=(None,)) -> SparseVector:
    """Solution sets of a few cosets at level s, so that V_s^* sends many
    keys onto one.  The first set starts with x and -x, so its image
    cancels; the rest is shuffled, so a later key of that set brings the
    image back behind others.  Keys are (tag, coset) pairs for a
    ``direct_sum`` carrier."""
    vals = (1 + 0j, -1 + 0j, 0.5j, -0.5j, 0.25 - 0.75j, -0.25 + 0.75j)
    pairs = []
    for tag in tags:
        sols = [fam.solve_coset(s, n) for n in dict.fromkeys(random_cosets(fam, rng, 3))]
        x = rng.choice(vals)
        head = list(zip(sols[0], (x, -x)))
        rest = [(m, rng.choice(vals)) for sol in sols for m in sol][len(head):]
        rng.shuffle(rest)
        pairs += [(m if tag is None else (tag, m), c) for m, c in head + rest]
    return SparseVector.merge(pairs)


@pytest.mark.parametrize("fam", _four_families()[:3], ids=FAMILY_IDS[:3])
def test_apply_vstar_matches_fraction_route(fam):
    """apply_Vstar sums under integer codes and decodes once; it must give
    the Fraction-keyed merge's keys, in its order, with the same complex
    bits, on the regular pair and on a direct sum."""
    rep = regular_covariant(fam, check=False)
    two = direct_sum(rep, rep)
    rng = random.Random(71)
    returned = 0
    for _ in range(4):
        for s in fam.sample_levels():
            v = _colliding_vector(fam, rng, s)
            want = vstar_by_fractions(fam, s, v)
            assert _bits(rep.apply_Vstar(s, v)) == _bits(want)
            first = fam.canon(fam.psi_s_inv(s, next(iter(v.values))))
            returned += list(want.values).index(first) > 0 if first in want.values else 0
            both = _colliding_vector(fam, rng, s, tags="ab")
            parts = [
                vstar_by_fractions(fam, s, SparseVector(
                    {k: c for (t, k), c in both.values.items() if t == tag}
                ))
                for tag in "ab"
            ]
            want = SparseVector(
                {(tag, k): c for tag, part in zip("ab", parts) for k, c in part.values.items()}
            )
            assert _bits(two.apply_Vstar(s, both)) == _bits(want)
    assert returned > 0


def test_random_cosets_are_canonical():
    rng = random.Random(61)
    for fam in _four_families():
        for s in fam.sample_levels():
            fam.validate_s(s)
        for n in random_cosets(fam, rng, 20):
            assert fam.canon(n) == n


def summed_vector(fam, rng, terms=3) -> SparseVector:
    """A random vector on a ``direct_sum`` carrier, with parts in both summands."""
    return SparseVector.build(
        ((tag, k), c) for tag in "ab" for k, c in random_vector(fam, rng, terms).values.items()
    )


@pytest.mark.parametrize("fam", _four_families(), ids=FAMILY_IDS)
def test_lift_commutes_with_translation(fam):
    """The un-averaged covariance relation V_s Y_n = Y_[psi_s(n)] V_s, on the
    regular representation and on a direct sum."""
    rep = regular_covariant(fam, check=False)
    two = direct_sum(rep, rep)
    rng = random.Random(67)
    for _ in range(3):
        v = random_vector(fam, rng)
        both = summed_vector(fam, rng)
        for n in random_cosets(fam, rng, 2):
            for s in fam.sample_levels():
                m = fam.canon(fam.psi_s(s, n))
                for r, x in ((rep, v), (two, both)):
                    lhs = r.apply_V(s, r.apply_Y(n, x))
                    assert lhs.values
                    assert (lhs - r.apply_Y(m, r.apply_V(s, x))).norm() < TOL


# -- carrier codes against the Fraction-keyed route ----------------------------


def y_by_fractions(fam, n, v: SparseVector) -> SparseVector:
    """Y_n on Fraction keys: ``translate``, filled directly."""
    return SparseVector(dict(zip(fam.translate(n, list(v.values)), v.values.values())))


def v_by_fractions(fam, s, v: SparseVector) -> SparseVector:
    """V_s on Fraction keys: ``solve_coset`` per key, filled directly."""
    w = 1.0 / math.sqrt(fam.index(s))
    return SparseVector(
        {m: x for k, c in v.values.items() if (x := c * w) for m in fam.solve_coset(s, k)}
    )


def vstar_by_keys(fam, s, v: SparseVector) -> SparseVector:
    """V_s^* on Fraction keys: one ``psi_inv_keys`` batch, merged."""
    w = 1.0 / math.sqrt(fam.index(s))
    keys = fam.psi_inv_keys(s, list(v.values))
    return SparseVector.merge(zip(keys, [c * w for c in v.values.values()]))


def _plain(v: SparseVector) -> SparseVector:
    """The same vector stored under its decoded keys."""
    return SparseVector(dict(v.values))


def _hex(z: complex):
    return z.real.hex(), z.imag.hex()


def _check_mixed_operands(vectors):
    """+, -, inner and distance give the same keys, order and bits whether
    each operand is stored coded or plain, with the all-plain result as the
    reference; a sum's ``values`` are decoded once and then cached."""
    for a, b in itertools.product(vectors, repeat=2):
        pa, pb = _plain(a), _plain(b)
        for x, y in ((a, b), (a, pb), (pa, b)):
            total = x + y
            assert _bits(total) == _bits(pa + pb) and total.values is total.values
            assert _bits(x - y) == _bits(pa - pb)
            assert _hex(x.inner(y)) == _hex(pa.inner(pb))
            assert x.distance(y).hex() == pa.distance(pb).hex()


@pytest.mark.parametrize("fam", _four_families(), ids=FAMILY_IDS)
def test_regular_pair_on_codes_matches_fraction_route(fam):
    """The regular pair and its ``direct_sum`` work on carrier codes; decoded,
    their outputs are the Fraction-keyed ``translate``, ``solve_coset`` and
    ``psi_inv_keys`` routes' keys, in order, with the same bits.  Coded and
    plain operands mix in +, -, inner and distance without changing a bit."""
    rep = regular_covariant(fam, check=False)
    two = direct_sum(rep, rep)
    T = inclusion_intertwiner("b")
    rng = random.Random(79)
    for _ in range(3):
        v = random_vector(fam, rng, terms=4)  # coded
        both = summed_vector(fam, rng)  # plain
        parts = [
            SparseVector({k: c for (t, k), c in both.values.items() if t == tag}) for tag in "ab"
        ]
        n = random_cosets(fam, rng, 1)[0]
        y = rep.apply_Y(n, v)
        assert _bits(y) == _bits(y_by_fractions(fam, n, v))
        for s in fam.sample_levels()[:3]:
            outs = [y]
            for op, ref in (
                (lambda x: rep.apply_Y(n, x), lambda x: y_by_fractions(fam, n, x)),
                (lambda x: rep.apply_V(s, x), lambda x: v_by_fractions(fam, s, x)),
                (
                    lambda x: rep.apply_Vstar(s, rep.apply_V(s, x) + x),
                    lambda x: vstar_by_keys(fam, s, v_by_fractions(fam, s, x) + x),
                ),
            ):
                # A plain input, and a coded one.
                assert _bits(op(_plain(v))) == _bits(ref(v))
                outs.append(op(y))
                assert _bits(outs[-1]) == _bits(ref(_plain(y)))
            lifted = two.apply_V(s, both)
            want = {
                (tag, k): c
                for tag, part in zip("ab", parts)
                for k, c in v_by_fractions(fam, s, part).values.items()
            }
            assert _bits(lifted) == _bits(SparseVector(want))
            back = two.apply_Vstar(s, lifted)
            want = {
                (tag, k): c
                for tag, part in zip("ab", parts)
                for k, c in vstar_by_keys(fam, s, v_by_fractions(fam, s, part)).values.items()
            }
            assert _bits(back) == _bits(SparseVector(want))
            _check_mixed_operands(outs + [v])
            _check_mixed_operands([lifted, back, two.apply_Y(n, both), T(outs[1]), both])


# -- hashing and accumulation semantics ---------------------------------------


class CountedKey:
    """A basis key that counts the calls of its ``__hash__``."""

    hashes = 0

    def __init__(self, k):
        self.k = k

    def __hash__(self):
        CountedKey.hashes += 1
        return hash(self.k)

    def __eq__(self, other):
        return isinstance(other, CountedKey) and self.k == other.k

    def __repr__(self):
        return f"CountedKey({self.k!r})"


def _hashes(fn):
    CountedKey.hashes = 0
    out = fn()
    return out, CountedKey.hashes


def test_sparse_operations_hash_each_key_once():
    keys = [CountedKey(i) for i in range(10)]
    a, count = _hashes(lambda: SparseVector.build((k, 1 + 1j) for k in keys[:6]))
    assert count == 6
    assert _hashes(a.norm)[1] == 0
    b = SparseVector.build((k, 2.0) for k in keys[6:])
    diff, count = _hashes(lambda: a - b)
    assert count == len(b.values)
    assert list(diff.values) == keys
    # distance looks other's keys up again only when some are unmatched.
    a2 = a.scale(2)
    assert _hashes(lambda: a.distance(a2))[1] == len(a.values)
    assert _hashes(lambda: a.distance(b))[1] == len(a.values) + len(b.values)


def test_norm_is_bit_for_bit_the_inner_product(bc):
    rng = random.Random(73)
    for _ in range(100):
        v = random_vector(bc, rng, terms=20)
        assert v.norm() == math.sqrt(v.inner(v).real)


def test_accumulation_edge_cases():
    a, b, c = (CountedKey(i) for i in range(3))
    # A zero contribution for a new key is not stored.
    assert SparseVector.build([(a, 0), (b, 1)]).values == {b: 1}
    # v + v, with the same complex objects on both sides, doubles every value.
    v = SparseVector.build([(a, 1 + 2j), (b, -0.5j)])
    assert (v + v).values == {a: 2 + 4j, b: -1j}
    # A key that cancels and comes back moves to the end.
    back = SparseVector.build([(a, 1), (b, 1), (c, 1), (a, -1), (a, 3j)])
    assert list(back.values.items()) == [(b, 1), (c, 1), (a, 3j)]
    assert list((back - SparseVector.build([(b, 1)])).values) == [c, a]


def test_subtraction_matches_adding_the_negative():
    from hecke_lab.dilate import DilationVector

    rng = random.Random(71)
    for _ in range(200):
        a, b = _cancelling_vectors(rng, 2)
        _same(a - b, a + b.scale(-1))
        _same(a - a, SparseVector({}))
        assert (a - b).norm() == math.sqrt(max((a - b).inner(a - b).real, 0.0))
        x, y = (
            DilationVector.build(
                (rng.choice([1, 2, 3]), h) for h in _cancelling_vectors(rng, rng.randint(1, 3))
            )
            for _ in range(2)
        )
        got, ref = x - y, x + y.scale(-1)
        assert list(got.blocks) == list(ref.blocks)
        for s, h in ref.blocks.items():
            _same(got.blocks[s], h)
        assert not (x - x).blocks


_FINITE = st.floats(min_value=-4, max_value=4)
_VALUES = st.builds(complex, _FINITE, _FINITE)
_KEY_POOLS = (
    [Fraction(k, 4) for k in range(8)],
    [(tag, Fraction(k, 2)) for tag in "ab" for k in range(4)],  # direct_sum keys
)


@st.composite
def _vector_pairs(draw):
    """Two vectors over one key pool, with shared, disjoint and exactly
    cancelling keys: the second copies some of the first's values."""
    keys = draw(st.sampled_from(_KEY_POOLS))
    a = draw(st.dictionaries(st.sampled_from(keys), _VALUES, max_size=len(keys)))
    b = draw(st.dictionaries(st.sampled_from(keys), _VALUES, max_size=len(keys)))
    if a:
        b.update((k, a[k]) for k in draw(st.sets(st.sampled_from(list(a)))))
    order = draw(st.permutations(list(b)))
    return SparseVector.build(a.items()), SparseVector.build((k, b[k]) for k in order)


_X, _Y = Fraction(0), Fraction(1, 2)


@settings(max_examples=200, derandomize=True)
@given(_vector_pairs())
@example((SparseVector({}), SparseVector({})))
@example((SparseVector({}), SparseVector({_X: 1 + 2j})))
@example((SparseVector({_X: 0.1 + 0.2j, _Y: 3j}), SparseVector({_X: 0.1 + 0.2j, _Y: 3j})))
@example((SparseVector({_X: 0.1 + 0j}), SparseVector({_Y: -0.3j})))
@example((SparseVector({("a", _X): 1e-3 + 1j}), SparseVector({("b", _X): 1 + 0j, ("a", _X): 2j})))
def test_distance_is_bit_for_bit_the_norm_of_the_difference(pair):
    a, b = pair
    assert a.distance(b) == (a - b).norm()
    assert b.distance(a) == (b - a).norm()
