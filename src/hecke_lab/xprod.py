"""Finite-level crossed product of the completion algebra by the group,
its distinguished corner, and the induction / restriction-compression
functors between covariant representations of the two systems.

A ``CrossedElement`` is a finite sum of terms f * u_g with f a locally
constant function and u the implementing unitaries:

    (f u_g)(f' u_g') = (f * beta_g(f')) u_(g g'),
    (f u_g)^*        = beta_(g^-1)(f^*) u_(g^-1),

where beta is the rescaled action on functions.  The projection p is the
indicator of the compact subgroup; v_s = u_s p gives the isometries of the
corner copy of the semigroup crossed product.

Corner elements have a closed form.  For g = s^-1 t and (s', t') =
``g_reduce(g)``,

    v_s^* i(delta_n) v_t = index(t')^-1 1[psi_s^-1(n) + psi_t'(M)] u_g,

one term, whose function is the identity-level indicator of the index(t')
M-cosets in psi_s^-1(n) + psi_t'(M) (psi_t'(M) contains M).  With
beta_g(1_A) = Delta(g) 1[psi_g(A)], Delta(s) = index(s)^-1, the product is
p beta_(s^-1)(i(delta_n)) beta_g(p) u_g, and the cylinder identity of
``autodil.convolve`` evaluates it in two lines:

* p * index(s) 1[psi_s^-1(n) + psi_s^-1(M)] = 1[psi_s^-1(n) + M], since
  M meets psi_s^-1(M) in psi_s^-1(M), of mass index(s)^-1;
* 1[x + M] * Delta(g) 1[psi_g(M)] = index(t')^-1 1[x + psi_t'(M)], since
  for the coprime pair s', t' the subgroups M and psi_g(M) meet in
  psi_s'^-1(M), of mass index(s')^-1 = index(t')^-1 / Delta(g), and sum
  to psi_t'(M).

The first line holds for every s, so a common factor r of s and t only
moves the translate: v_r^* i(delta_n) v_r = i(delta_(psi_r^-1(n))).  For
reduced pairs this is the generator formula of the Hecke algebra, compare
mu_n^* e(gamma) mu_n = e(n gamma) in Bost-Connes.  ``compose_corner``
builds its elements from it, and the product definition
isom_v(s).star() * embed_algebra(a) * isom_v(t) is the tests' oracle.

The corner p (A x| G) p is identified with the semigroup crossed product
by writing each of its elements as a sum of v_s^* i(a) v_t triples
(``corner_decompose``), one per group component g = s^-1 t with s, t
reduced.  The probes, the g-terms of v_s^* i(delta_n) v_t, are then
translates of one subgroup psi_t(M), so two probes are equal or disjoint,
and the coefficients are read off.  The exact rebuild is the certificate:
v_s^* i(a) v_t is linear in a, so a component that the read-off
coefficients rebuild exactly, as sum_n a_n * probe_n, is a sum of corner
triples.  No separate p d p == d test is needed; ``in_corner`` keeps that
definition as a predicate.

The crossed product acts on the dilation space of a covariant pair by one
representation rho x U (``InducedRep``): U is the dilated unitary group,
and rho, the function representation, is defined on cylinder indicators by

    rho(level-a cylinder over y) = index(a)^-1 U_a^* W(psi_a(y)) rho(p) U_a,

with rho(p) the blockwise fixed-space projection and W(x) the unitary of a
completion element x, acting on the block (s, h) as Y[psi_s(x_s)], x_s
the level-s coset of x.  Restricted to the totally disconnected group,
rho x U is the pair (W, U), generated by the fixed space of W on the
compact subgroup (``m_fixed_deviation``).  ``act`` never forms the
cylinder product: it computes rho(f) U_g in one pass, and the tests check
it against this definition.

The induction engine rewrites (f u_g) applied to a dilation block (s, h),
with g s^-1 = s'^-1 t', through the cylinder identity

    chi(level-l cylinder over c) = index(l)^-1 u_l^* delta-generator(psi_l(c)) u_l,

which turns it into a combination of blocks (l*s', Y[psi_l(c)] V_(l*t') h)
over the cells c of a level-l function f'.  The covariance relation
Y[psi_u(m)] V_u = V_u Y_m (see ``repspace``) with u = l*t' and
m = psi_t'^-1(c) moves the lift out of the sum, so each term and block
give the one block

    (l*s', V_(l*t') sum_c index(l)^-1 f'(c) Y[psi_t'^-1(c)] h).

The function part of (f u_g) u_s^* p is the convolution of beta_s'(f)
with beta_t'(p), but f' = beta_s'(f), at f's level l, gives the same
block.  beta_t'(p) is index(t')^-1 times the indicator of psi_t'(M) + K,
of total mass one, so convolving with it only averages beta_s'(f) over
translates by psi_t'(M), which contains M.  The cell vector
Y[psi_t'^-1(c)] h does not change under those translates, since
psi_t'^-1 maps psi_t'(M) onto M and cosets are taken mod M; and the
index(l)^-1-weighted cell sum is a Haar integral, so averaging its
integrand first changes nothing.  h is translated once per cell of f'
and lifted once.  Restriction-compression goes the other way by cutting
with the projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import autodil, grpalg
from .autodil import LocFun
from .coeffs import accumulate_codes, code_complex, code_scale, qc_decode
from .dilate import CompressedRep, Dilation, DilationVector
from .errors import NotInCornerError, PrecisionError
from .pairs import PairFamily, json_field, json_list
from .repspace import CovariantRep, SparseVector, apply_algebra


@dataclass(frozen=True, eq=False)
class CrossedElement:
    """Finite sum of f * u_g terms, stored per group element."""

    family: PairFamily
    terms: dict = field(default_factory=dict)  # g -> LocFun

    @staticmethod
    def build(family: PairFamily, pairs) -> "CrossedElement":
        out: dict = {}
        for f, g in pairs:
            if g in out:
                out[g] = out[g] + f
            else:
                out[g] = f
        return CrossedElement(family, {g: f for g, f in out.items() if not f.is_zero()})

    @staticmethod
    def from_locfun(f: LocFun) -> "CrossedElement":
        return CrossedElement.build(f.family, [(f, f.family.g_identity)])

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        return CrossedElement.build(
            self.family,
            [(f, g) for g, f in self.terms.items()]
            + [(f, g) for g, f in other.terms.items()],
        )

    def __neg__(self):
        return CrossedElement(self.family, {g: -f for g, f in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "CrossedElement") -> "CrossedElement":
        fam = self.family
        pairs = []
        for g, f in self.terms.items():
            for g2, f2 in other.terms.items():
                pairs.append((autodil.convolve(f, autodil.theta_star_g(g, f2)), fam.g_mul(g, g2)))
        return CrossedElement.build(fam, pairs)

    def star(self) -> "CrossedElement":
        fam = self.family
        pairs = []
        for g, f in self.terms.items():
            gi = fam.g_inv(g)
            pairs.append((autodil.theta_star_g(gi, f.star()), gi))
        return CrossedElement.build(fam, pairs)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, CrossedElement):
            return NotImplemented
        if self.family is not other.family and self.family != other.family:
            return False
        keys = set(self.terms) | set(other.terms)
        for g in keys:
            a = self.terms.get(g)
            b = other.terms.get(g)
            if a is None or b is None:
                missing = a if b is None else b
                if not missing.is_zero():
                    return False
            elif a != b:
                return False
        return True

    def to_json(self):
        fam = self.family
        return [
            {"f": f.to_json(), "g": fam.g_to_json(g)}
            for g, f in sorted(self.terms.items(), key=lambda kv: str(kv[0]))
        ]

    @staticmethod
    def from_json(family: PairFamily, data) -> "CrossedElement":
        return CrossedElement.build(
            family,
            [
                (
                    LocFun.from_json(family, json_field(rec, "f", "a crossed-product term")),
                    family.g_from_json(json_field(rec, "g", "a crossed-product term")),
                )
                for rec in json_list(data, "a crossed-product element")
            ],
        )


def projection_p(family: PairFamily) -> CrossedElement:
    """The image of the algebra unit: the indicator of the compact subgroup."""
    return CrossedElement.from_locfun(autodil.chi_K(family))


def isom_v(family: PairFamily, s) -> CrossedElement:
    """The isometry v_s = u_s p = beta_s(p) u_s of the corner."""
    family.validate_s(s)
    f = autodil.theta_star(s, autodil.chi_K(family))
    return CrossedElement.build(family, [(f, family.g_from_s(s))])


def embed_algebra(a: grpalg.GroupAlgebraElement) -> CrossedElement:
    """i(a) as a crossed-product element concentrated at the group identity."""
    return CrossedElement.from_locfun(autodil.embed_i(a))


def compose_corner(family: PairFamily, s, a: grpalg.GroupAlgebraElement, t) -> CrossedElement:
    """The corner element v_s^* i(a) v_t, in the closed form of the module
    docstring: one term at g = s^-1 t, at the identity level.

    With (s', t') = ``g_reduce(g)``, each a_n / index(t') sits on the
    cosets of psi_s^-1(n) + psi_t'(M): the level-t' solutions at 0
    translated by psi_s^-1(n), all in one ``sum_codes`` batch of the
    ``cell_psi_inv`` images of a's codes and the ``cell_solve`` codes of
    those solutions.  Terms of a on one coset of psi_t'(M) merge by code
    through ``coeffs.accumulate_codes``, no key is built, and an element that
    cancels is empty.  It raises LevelCapError when s exceeds the cap, as
    the product definition does through ``theta_star_inv``."""
    family.validate_s(s)
    family.validate_s(t)
    g = family.g_mul(family.g_inv(family.g_from_s(s)), family.g_from_s(t))
    return CrossedElement.build(family, [(_corner_term(family, s, a, family.g_reduce(g)[1]), g)])


def _corner_term(fam: PairFamily, s, a: grpalg.GroupAlgebraElement, tp) -> LocFun:
    """The function of v_s^* i(a) v_t, for t' = tp the reduced right factor
    of s^-1 t: a_n / index(t') on each coset of psi_s^-1(n) + psi_t'(M)."""
    fam.require_level(s)
    e = fam.s_identity
    cden, (cosets,) = fam.cell_solve(tp, e, 1, [0])
    q = fam.index(tp)
    weighted = [code_scale(c, 1, q) for c in a.codes.values()]
    images = fam.cell_psi_inv(s, e, a.den, a.codes, e)
    den, codes = fam.sum_codes((e, a.den, images), (e, cden, cosets), e)
    count = len(cosets)
    sums = accumulate_codes({}, zip(codes, (v for v in weighted for _ in range(count))))
    return LocFun._make(fam, e, den, sums)


def module_element(family: PairFamily, s, a: grpalg.GroupAlgebraElement, t) -> CrossedElement:
    """The module element u_s^* i(a) u_t p.

    Unlike the corner element v_s^* i(a) v_t it is not cut by the projection
    on the left; these are the spanning vectors of the induction bimodule,
    and their pairings land in the corner.
    """
    gi = family.g_inv(family.g_from_s(s))
    left = CrossedElement.build(
        family, [(autodil.theta_star_g(gi, autodil.embed_i(a)), gi)]
    )
    return left * isom_v(family, t)


def in_corner(d: CrossedElement) -> bool:
    """Corner membership by its definition: p d p == d."""
    p = projection_p(d.family)
    return p * d * p == d


def corner_decompose(d: CrossedElement):
    """Write a corner element exactly as a sum of v_s^* i(a) v_t triples.

    Works per group component f at g = s^-1 t (s, t from ``g_reduce``).
    By the closed form, the probe of delta_n, the g-term of
    v_s^* i(delta_n) v_t, is index(t)^-1 times the indicator of
    psi_s^-1(n) + psi_t(M).  ``base``, the probe of delta_0 (the level-t
    solutions at 0) refined to f's level, is the subgroup psi_t(M), and
    every probe is a translate of it, so probes are equal or disjoint.
    The coefficients are read off: for the first cell c of f not yet
    covered, n = canon(psi_s(c)) has psi_s^-1(n) in c + psi_s^-1(M), inside
    c + psi_t(M), so c's probe is ``base`` translated by c;
    a_n = index(t) f(c), and f must equal f(c) on every cell of that probe,
    which is then removed from f.  Nothing is multiplied out: values are
    compared as value codes, and only the read-off a_n are decoded, to
    build a.

    The exact rebuild is the membership certificate: compose_corner is
    linear in a, so when the probes cover f exactly the read-off a gives
    d = sum_g v_s^* i(a_g) v_t, which lies in the corner.  A cell where f
    and the probe disagree raises NotInCornerError; ``in_corner`` stays
    the definition-level predicate p d p == d.  Like ``compose_corner``, it
    raises LevelCapError when s exceeds the cap.
    """
    fam = d.family
    triples = []
    for g, f in d.terms.items():
        s, t = fam.g_reduce(g)
        level = f.level
        probe = _corner_term(fam, s, grpalg.one(fam), t).refine(level)
        den = math.lcm(f.den, probe.den)
        base = list(probe.codes_over(den))
        scale = fam.index(t)
        rest = dict(f.codes_over(den))
        coeffs = []
        while rest:
            c = next(iter(rest))
            value = rest[c]
            for code in fam.sum_codes((level, den, [c]), (level, den, base), level)[1]:
                if rest.pop(code, None) != value:
                    raise NotInCornerError(
                        f"not in the corner: component {g!r} differs from its read-off "
                        f"at coset {fam.cell_keys(level, den, [code])[0]!r}"
                    )
            cell = fam.cell_keys(level, den, [c])[0]
            coeffs.append((fam.canon(fam.psi_s(s, cell)), qc_decode(value) * scale))
        triples.append((s, grpalg.GroupAlgebraElement.build(fam, coeffs), t))
    return triples


def eval_corner(rep: CovariantRep, triples, v: SparseVector) -> SparseVector:
    """Evaluate a sum of v_s^* i(a) v_t triples as V_s^* pi(a) V_t."""
    return SparseVector.sum(
        rep.apply_Vstar(s, apply_algebra(rep, a, rep.apply_V(t, v))) for s, a, t in triples
    )


class InducedRep:
    """The representation rho x U of the crossed product on the dilation
    space of a covariant pair, with blocks (s, h) playing the role of
    u_s^* p (x) h; ``W`` restricts it to the completion group."""

    def __init__(self, rep: CovariantRep):
        self.rep = rep
        self.family = rep.family
        self.dilation = Dilation(rep)

    def phi(self, h: SparseVector) -> DilationVector:
        """The isometric embedding of the original carrier."""
        return self.dilation.embed(h)

    def act(self, d: CrossedElement, vec: DilationVector) -> DilationVector:
        """Apply sum f u_g through the cylinder rewriting: each term and
        block (s, h) give the one block (l*s', V_(l*t') sum_c index(l)^-1
        f'(c) Y[psi_t'^-1(c)] h) of the module docstring, with f' the
        level-l function ``inner`` = beta_s'(f).  The module docstring's
        invariance argument drops the averaging factor beta_t'(p): each
        cell's vector is fixed by the translates it averages over.  The
        cells psi_t'^-1(c) come from one ``cell_psi_inv`` batch on the
        codes of ``inner``, and only they are decoded; h is
        translated once per cell and lifted once."""
        fam = self.family
        out = []
        for g, f in d.terms.items():
            for s, h in vec.blocks.items():
                gs = fam.g_mul(g, fam.g_inv(fam.g_from_s(s)))
                sp, tp = fam.g_reduce(gs)
                inner = autodil.theta_star(sp, f)
                level = inner.level
                weight = 1.0 / fam.index(level)
                target_s = fam.s_mul(level, sp)
                fam.require_level(target_s)
                codes = fam.cell_psi_inv(tp, level, inner.den, inner.codes)
                moved = SparseVector.combine(
                    (code_complex(val) * weight, self.rep.apply_Y(n, h))
                    for n, val in zip(fam.cell_keys(None, inner.den, codes), inner.codes.values())
                )
                lifted = self.rep.apply_V(fam.s_mul(level, tp), moved)
                out.append((target_s, lifted))
        return DilationVector.build(out)

    def rho(self, f: LocFun, vec: DilationVector) -> DilationVector:
        """The function representation: ``act`` of the one term f u_e."""
        return self.act(CrossedElement.from_locfun(f), vec)

    def rho_p(self, vec: DilationVector) -> DilationVector:
        """rho of the distinguished projection: blockwise averaging."""
        return self.dilation.project_fixed(vec)

    def W(self, x, vec: DilationVector) -> DilationVector:
        """The unitary of a (truncated or exact) completion element."""
        fam = self.family
        out = []
        for s, h in vec.blocks.items():
            try:
                coset = x.project(s)
            except PrecisionError as exc:
                raise PrecisionError(
                    f"completion unitary needs level {s!r} data: {exc}"
                ) from exc
            n = fam.canon(fam.psi_s(s, coset))
            out.append((s, self.rep.apply_Y(n, h)))
        return DilationVector.build(out)

    def m_fixed_deviation(self, m, vec: DilationVector) -> float:
        """How far the subgroup unitaries move a projected vector; zero
        certifies that the restriction is generated by fixed vectors."""
        if not self.family.in_M(m):
            raise ValueError(f"{m!r} is not in the distinguished subgroup")
        fixed = self.rho_p(vec)
        return self.dilation.distance(self.dilation.apply_W(m, fixed), fixed)


def x_ind(rep: CovariantRep) -> InducedRep:
    """Induction from the covariant pair to the crossed product."""
    return InducedRep(rep)


def theta_map(induced: InducedRep, d: CrossedElement, h: SparseVector) -> DilationVector:
    """The intertwiner sending (p d) (x) h to the vector (rho x U)(p d) h."""
    pd = projection_p(induced.family) * d
    return induced.act(pd, induced.phi(h))


def rc(induced) -> CompressedRep:
    """Restriction-compression: inverse of the induction functor."""
    return CompressedRep(induced.dilation)
