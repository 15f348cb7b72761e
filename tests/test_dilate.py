"""The symbolic unitary dilation: pairing, unitaries, translation unitaries,
and restriction-compression.

Frozen inner products are recomputed by expanding the isometries by hand:
<(2, xi_0), (3, xi_0)> pairs V_3 xi_0 against V_2 xi_0, whose supports
overlap only at the zero coset, giving 1/sqrt(6).
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hecke_lab.errors import ConfigError
from hecke_lab.pairs import BostConnesFamily, MatrixFamily, PadicFamily
from hecke_lab import dilate
from hecke_lab.dilate import (
    Dilation,
    DilationVector,
    _hermitian_eigenvalues,
    _ldl_pivoted,
    _ldl_solve,
    restrict_compress,
)
from hecke_lab.repspace import (
    SparseVector,
    direct_sum,
    inclusion_intertwiner,
    random_vector,
    regular_covariant,
)
from test_repspace import _cancelling_vectors, pairwise_sum

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


def sym(s, h):
    return DilationVector.symbol(s, h)


def xi(k):
    return SparseVector.basis(k)


def test_inner_block_isometry(dil, bc):
    rng = random.Random(3)
    for _ in range(30):
        s = rng.choice([1, 2, 3, 4, 6])
        h = random_vector(bc, rng)
        v = sym(s, h)
        assert abs(dil.inner(v, v).real - h.inner(h).real) < TOL
        assert abs(dil.norm(v) - h.norm()) < TOL


def test_inner_cross_level_frozen(dil):
    got = dil.inner(sym(2, xi(Fraction(0))), sym(3, xi(Fraction(0))))
    assert abs(got - 1 / math.sqrt(6)) < 1e-14


def test_inner_ore_independence(dil, rep, bc):
    rng = random.Random(5)
    for _ in range(40):
        s, t, r = (rng.choice([1, 2, 3, 4]) for _ in range(3))
        h, k = random_vector(bc, rng), random_vector(bc, rng)
        u, v = bc.ore_pair(s, t)
        base = rep.apply_V(u, h).inner(rep.apply_V(v, k))
        alt = rep.apply_V(r * u, h).inner(rep.apply_V(r * v, k))
        assert abs(base - alt) < TOL
        assert abs(dil.inner(sym(s, h), sym(t, k)) - base) < TOL


FORM_FAMILIES = [
    BostConnesFamily(),
    PadicFamily(3),
    MatrixFamily([[2, 0], [0, 3]], [[5, 0], [0, 1]]),
    MatrixFamily([[2, 1], [1, 3]], [[7, 0], [0, 7]]),
]


@pytest.mark.parametrize("summed", [False, True], ids=["regular", "direct-sum"])
@pytest.mark.parametrize("fam", FORM_FAMILIES, ids=["bost-connes", "padic3", "diag", "7I"])
def test_inner_equals_lift_route(fam, summed):
    """inner takes <V_v* h, V_u* k> for the least pair u*s = v*t; lifting
    both vectors, <V_u h, V_v k>, is the independent route it replaced."""
    rep = regular_covariant(fam)
    if summed:
        rep = direct_sum(rep, rep)
    dil = Dilation(rep)
    rng = random.Random(97)

    def vector():
        h = random_vector(fam, rng)
        if summed:
            h = inclusion_intertwiner("a")(h) + inclusion_intertwiner("b")(random_vector(fam, rng))
        return h

    levels = fam.sample_levels()
    for _ in range(12):
        v, w = (
            DilationVector.build((s, vector()) for s in rng.sample(levels, rng.randint(1, 2)))
            for _ in range(2)
        )
        want = 0j
        for s, h in v.blocks.items():
            for t, k in w.blocks.items():
                u, vv = fam.ore_pair(s, t)
                want += rep.apply_V(u, h).inner(rep.apply_V(vv, k))
        assert abs(dil.inner(v, w) - want) < 1e-12


def test_identification_collapses(dil, rep, bc):
    rng = random.Random(7)
    for _ in range(40):
        s, t = rng.choice([1, 2, 3, 4]), rng.choice([1, 2, 3, 4])
        h = random_vector(bc, rng)
        assert dil.distance(sym(s, h), sym(t * s, rep.apply_V(t, h))) < TOL


def test_gram_psd(dil, bc):
    rng = random.Random(9)
    vecs = [sym(rng.choice([1, 2, 3, 4, 6]), random_vector(bc, rng)) for _ in range(15)]
    assert dil.gram_min_eigenvalue(vecs) > -TOL


def test_apply_ustar_symbol_rule(dil, bc):
    h = xi(Fraction(0))
    out = dil.apply_Ustar(2, sym(3, h))
    assert list(out.blocks) == [6]
    assert (out.blocks[6] - h).norm() == 0.0


def test_apply_u_cancels_ustar(dil, bc):
    rng = random.Random(11)
    for _ in range(30):
        r = rng.choice([2, 3, 4])
        h = random_vector(bc, rng)
        out = dil.apply_Us(r, sym(r, h))
        assert dil.distance(out, dil.embed(h)) < TOL


def test_u_unitary(dil, bc):
    rng = random.Random(13)
    for _ in range(60):
        s, t = rng.choice([1, 2, 3, 4, 6]), rng.choice([1, 2, 3, 4, 6])
        g = Fraction(t, s)
        v = sym(rng.choice([1, 2, 3]), random_vector(bc, rng))
        moved = dil.apply_U(g, v)
        assert abs(dil.norm(moved) - dil.norm(v)) < TOL
        assert dil.distance(dil.apply_U(1 / g, moved), v) < TOL


def test_w_formula_frozen(dil, bc):
    h = xi(Fraction(0))
    out = dil.apply_W(Fraction(1, 3), sym(2, h))
    assert list(out.blocks) == [2]
    assert set(out.blocks[2].values) == {Fraction(1, 6)}


def test_w_fixes_embedded_carrier_on_subgroup(dil, bc):
    rng = random.Random(17)
    for m in (Fraction(1), Fraction(-4), Fraction(9)):
        h = random_vector(bc, rng)
        assert dil.distance(dil.apply_W(m, dil.embed(h)), dil.embed(h)) < TOL


def test_w_multiplicative(dil, bc):
    rng = random.Random(19)
    for _ in range(30):
        m = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        n = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        v = sym(rng.choice([1, 2, 3, 6]), random_vector(bc, rng))
        lhs = dil.apply_W(m, dil.apply_W(n, v))
        rhs = dil.apply_W(m + n, v)
        assert dil.distance(lhs, rhs) < TOL


def test_w_well_defined_on_collisions(dil, rep, bc):
    rng = random.Random(23)
    for _ in range(50):
        s, t = rng.choice([1, 2, 3, 4]), rng.choice([2, 3])
        h = random_vector(bc, rng)
        n = Fraction(rng.randint(-6, 6), rng.randint(1, 8))
        a = sym(s, h)
        b = sym(t * s, rep.apply_V(t, h))
        assert dil.distance(a, b) < TOL
        assert dil.distance(dil.apply_W(n, a), dil.apply_W(n, b)) < TOL


def test_dilated_covariance(dil, bc):
    rng = random.Random(29)
    for _ in range(60):
        s, t = rng.choice([1, 2, 3, 4, 6]), rng.choice([1, 2, 3, 4, 6])
        g = Fraction(t, s)
        n = Fraction(rng.randint(-6, 6), rng.randint(1, 8))
        v = sym(rng.choice([1, 2, 3]), random_vector(bc, rng))
        lhs = dil.apply_U(g, dil.apply_W(n, dil.apply_U(1 / g, v)))
        rhs = dil.apply_W(n / g, v)  # psi_g(n) = n / g for this family
        assert dil.distance(lhs, rhs) < TOL


def test_w_recovers_translations(dil, rep, bc):
    rng = random.Random(31)
    for _ in range(20):
        n = Fraction(rng.randint(0, 11), rng.randint(1, 12))
        h = random_vector(bc, rng)
        assert dil.distance(dil.apply_W(n, dil.embed(h)), dil.embed(rep.apply_Y(n, h))) < TOL


def test_projection_blocks(dil, rep, bc):
    # Averaging the subgroup translations projects each block onto the
    # fixed space; embedded carrier vectors are already fixed.
    rng = random.Random(37)
    for s in (2, 3, 4, 6):
        h = random_vector(bc, rng)
        fixed = dil.project_fixed(sym(s, rep.apply_V(s, h)))
        assert dil.distance(fixed, dil.embed(h)) < TOL
        v = sym(s, h)
        p1 = dil.project_fixed(v)
        p2 = dil.project_fixed(p1)
        assert dil.distance(p1, p2) < TOL
        w = sym(s, random_vector(bc, rng))
        assert abs(dil.inner(p1, w) - dil.inner(v, dil.project_fixed(w))) < TOL


def test_projection_equals_compressed_adjoint(dil, rep, bc):
    # P_s applied to (s, h) agrees with embedding V_s^* h.
    rng = random.Random(41)
    for s in (2, 3, 4, 6):
        h = random_vector(bc, rng)
        lhs = dil.project_fixed(sym(s, h))
        rhs = dil.embed(rep.apply_Vstar(s, h))
        assert dil.distance(lhs, rhs) < TOL


def test_restrict_compress_roundtrip(dil, rep, bc):
    truncation = [1, 2, 3, 4, 6, 12]
    basis = [xi(Fraction(0)), xi(Fraction(1, 2)), xi(Fraction(1, 3))]
    rc = restrict_compress(dil, truncation, basis, tol=TOL)
    assert not rc.excess_residuals  # fixed space equals the embedded carrier
    for h in basis:
        for n in (Fraction(1, 2), Fraction(2, 3)):
            assert dil.distance(rc.apply_Y(n, dil.embed(h)), dil.embed(rep.apply_Y(n, h))) < TOL
        for s in truncation:
            assert dil.distance(rc.apply_V(s, dil.embed(h)), dil.embed(rep.apply_V(s, h))) < TOL
            assert (
                dil.distance(rc.apply_Vstar(s, dil.embed(h)), dil.embed(rep.apply_Vstar(s, h)))
                < TOL
            )


def test_rebuilt_dilation_matches(dil, rep, bc):
    # Re-running the dilation construction on the compressed pair gives the
    # same translation unitaries on symbols.
    rng = random.Random(43)
    truncation = [1, 2, 3, 4, 6, 12]
    basis = [xi(Fraction(0)), xi(Fraction(1, 2))]
    rc = restrict_compress(dil, truncation, basis, tol=TOL)
    for _ in range(30):
        s = rng.choice(truncation)
        h = random_vector(bc, rng)
        n = Fraction(rng.randint(-6, 6), rng.randint(1, 12))
        # Forward construction from the compressed pair, through the
        # identification of (s, h) with U_s^* h.
        rebuilt = dil.apply_Ustar(s, rc.apply_Y(bc.canon(bc.psi_s(s, n)), dil.embed(h)))
        direct = dil.apply_W(n, sym(s, h))
        assert dil.distance(rebuilt, direct) < TOL


def test_padic_dilation():
    fam = PadicFamily(2)
    rep = regular_covariant(fam)
    dil = Dilation(rep)
    rng = random.Random(47)
    h = random_vector(fam, rng)
    assert dil.distance(sym(1, h), sym(3, rep.apply_V(2, h))) < TOL
    out = dil.apply_W(Fraction(1, 2), sym(1, SparseVector.basis(Fraction(0))))
    assert set(out.blocks[1].values) == {Fraction(1, 4)}


# -- linear-time sums against the pairwise route ------------------------------


def pairwise_dilation_sum(vectors) -> DilationVector:
    """Reference route: ``total = total + x`` where each step merges a
    level's blocks with the pairwise ``SparseVector`` sum and drops empty
    levels."""
    total = DilationVector({})
    for x in vectors:
        blocks = dict(total.blocks)
        for s, h in x.blocks.items():
            blocks[s] = pairwise_sum([blocks[s], h]) if s in blocks else h
        total = DilationVector({s: h for s, h in blocks.items() if h.values})
    return total


def _same_blocks(got: DilationVector, ref: DilationVector):
    # Level order is not compared: a level whose blocks cancel exactly
    # part-way through a sum keeps its first position in ``build`` but moves
    # to the end in the pairwise route.
    assert set(got.blocks) == set(ref.blocks)
    for s, h in ref.blocks.items():
        assert list(got.blocks[s].values.items()) == list(h.values.items())


def test_dilation_sums_match_pairwise_route():
    rng = random.Random(71)
    for _ in range(200):
        vs = [
            DilationVector.build(
                (rng.choice([1, 2, 3]), h) for h in _cancelling_vectors(rng, rng.randint(1, 3))
            )
            for _ in range(rng.randint(1, 5))
        ]
        ref = pairwise_dilation_sum(vs)
        _same_blocks(DilationVector.build(b for v in vs for b in v.blocks.items()), ref)
        total = DilationVector({})
        for v in vs:
            total = total + v
        _same_blocks(total, ref)


def test_projection_and_raising_match_pairwise_route(dil, rep, bc):
    """The projection, computed as V_s V_s* h, has the key set of the
    pairwise average of the translations of h by psi_s(M) and its values
    to 1e-12: the two routes sum the same terms in a different order and
    scaling.  Raising blocks matches its pairwise sum exactly."""
    rng = random.Random(73)
    for _ in range(20):
        v = DilationVector.build(
            (s, random_vector(bc, rng)) for s in rng.sample([1, 2, 3, 4, 6], rng.randint(1, 3))
        )
        ref = pairwise_dilation_sum(
            sym(s, pairwise_sum(
                rep.apply_Y(bc.canon(bc.psi_s(s, m)), h).scale(1.0 / bc.index(s))
                for m in bc.coset_reps(s)
            ))
            for s, h in v.blocks.items()
        )
        got = dil.project_fixed(v)
        assert set(got.blocks) == set(ref.blocks)
        for s, h in ref.blocks.items():
            assert set(got.blocks[s].values) == set(h.values)
            assert all(abs(got.blocks[s].values[k] - x) < 1e-12 for k, x in h.values.items())
        raised = dil.raise_blocks(v)
        if len(v.blocks) > 1:
            (top, h), = raised.blocks.items()
            ref = pairwise_sum(rep.apply_V(bc.s_divide(top, s), k) for s, k in v.blocks.items())
            assert list(h.values.items()) == list(ref.values.items())


def test_gram_equals_pairwise_inner(dil, bc):
    """gram shares each V_u* h across the pairs of one call; its entries
    must still equal ``inner`` exactly."""
    rng = random.Random(79)
    vecs = [
        DilationVector.build(
            (s, random_vector(bc, rng)) for s in rng.sample([1, 2, 3, 4, 6], rng.randint(1, 3))
        )
        for _ in range(8)
    ]
    vecs.append(vecs[0])
    g = dil.gram(vecs)
    for i, v in enumerate(vecs):
        for j in range(i, len(vecs)):
            val = dil.inner(v, vecs[j])
            assert g[i][j] == val
            if j != i:
                assert g[j][i] == val.conjugate()


def test_distance_is_bit_for_bit_the_norm_of_the_difference(dil):
    """One block at one level takes ``SparseVector.distance``; every other
    pair goes through ``raise_blocks``.  Both equal ``norm(v - w)`` exactly."""
    rng = random.Random(89)
    one_level = 0
    for _ in range(100):
        levels = rng.sample([1, 2, 3, 4, 6], rng.randint(1, 2))
        v, w = (
            DilationVector.build(
                (rng.choice(levels), h) for h in _cancelling_vectors(rng, rng.randint(1, 3))
            )
            for _ in range(2)
        )
        one_level += len(v.blocks) == 1 and v.blocks.keys() == w.blocks.keys()
        assert dil.distance(v, w) == dil.norm(v - w)
        assert dil.distance(v, v) == 0.0
    assert 10 < one_level < 90


# -- the dense routines against numpy ------------------------------------------


def _complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _test_matrix(kind, n, rng):
    if kind == "full-rank":
        x = _complex_normal(rng, n, n)
        return x @ x.conj().T
    if kind == "rank-deficient":
        x = _complex_normal(rng, n, n // 2)
        return x @ x.conj().T
    if kind == "indefinite":
        x = _complex_normal(rng, n, n)
        return (x + x.conj().T) / 2
    return np.diag(rng.normal(size=n)).astype(complex)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
@pytest.mark.parametrize("kind", ["full-rank", "rank-deficient", "indefinite", "diagonal"])
def test_jacobi_eigenvalues_match_eigvalsh(kind, n):
    """Cyclic Jacobi agrees with LAPACK to 1e-10 * ||A|| on seeded
    Hermitian matrices, including singular and indefinite ones."""
    rng = np.random.default_rng([n, len(kind)])
    a = _test_matrix(kind, n, rng)
    got = _hermitian_eigenvalues(a.tolist())
    want = np.linalg.eigvalsh(a)
    assert len(got) == n
    assert np.max(np.abs(np.array(got) - want)) <= 1e-10 * max(1.0, np.linalg.norm(a, 2))


def test_jacobi_empty_matrix():
    assert _hermitian_eigenvalues([]) == []


def _deficient_gram(rng, n, rank):
    """The Gram matrix G[i][k] = <v_i, v_k> of n vectors in C^8 spanning
    rank dimensions: a zero vector first, then a repeat and rescaled
    copies, so an unpivoted elimination meets a zero pivot at once."""
    basis = _complex_normal(rng, rank, 8)
    rows = [np.zeros(8, dtype=complex), basis[0], basis[0], 1e-3 * basis[0]]
    rows += list(basis[1:])
    while len(rows) < n:
        rows.append(_complex_normal(rng, rank) @ basis)
    v = np.array(rows[:n])
    return v, v @ v.conj().T


@pytest.mark.parametrize("n,rank", [(4, 1), (9, 4), (20, 6), (40, 8)])
def test_pivoted_solve_on_rank_deficient_grams(n, rank):
    """The normal equations of restrict_compress, sum_i x_i <v_i, v_k> =
    <f, v_k>: the pivoted LDL^H solve reproduces the right-hand side to
    rounding, and its projection sum_i x_i v_i is lstsq's."""
    rng = np.random.default_rng([n, rank])
    v, g = _deficient_gram(rng, n, rank)
    factor = _ldl_pivoted(g.T.tolist())
    assert len(factor[2]) == rank
    for _ in range(3):
        f = _complex_normal(rng, 8)
        b = v.conj() @ f  # b_k = <f, v_k>
        x = np.array(_ldl_solve(factor, b.tolist()))
        scale = np.linalg.norm(g, 2) * max(1.0, np.max(np.abs(x)))
        assert np.max(np.abs(g.T @ x - b)) <= 1e-12 * scale
        ref, *_ = np.linalg.lstsq(g.T, b, rcond=None)
        assert np.max(np.abs(x @ v - ref @ v)) <= 1e-10 * np.linalg.norm(f)


def test_pivoted_solve_of_empty_system():
    assert _ldl_solve(_ldl_pivoted([]), []) == []


def test_gram_min_eigenvalue_caps_the_vector_count(dil):
    vecs = [sym(1, xi(Fraction(k, 70))) for k in range(65)]
    with pytest.raises(ConfigError, match="64"):
        dil.gram_min_eigenvalue(vecs)
