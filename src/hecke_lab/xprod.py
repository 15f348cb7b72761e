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

from dataclasses import dataclass, field
from fractions import Fraction

from . import autodil, grpalg, tower
from .autodil import LocFun
from .coeffs import accumulate
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

    def scale(self, q) -> "CrossedElement":
        return CrossedElement.build(
            self.family, [(f.scale(q), g) for g, f in self.terms.items()]
        )

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
    cosets of psi_s^-1(n) + psi_t'(M): ``translate`` of the level-t'
    solutions at 0 by psi_s^-1(n), the translates taken from one
    ``psi_inv_keys`` batch.  Terms of a on one coset of psi_t'(M) merge
    through ``coeffs.accumulate``, and an element that cancels is empty.
    It raises LevelCapError when s exceeds the cap, as the product
    definition does through ``theta_star_inv``."""
    family.validate_s(s)
    family.validate_s(t)
    g = family.g_mul(family.g_inv(family.g_from_s(s)), family.g_from_s(t))
    return CrossedElement.build(family, [(_corner_term(family, s, a, family.g_reduce(g)[1]), g)])


def _corner_term(fam: PairFamily, s, a: grpalg.GroupAlgebraElement, tp) -> LocFun:
    """The function of v_s^* i(a) v_t, for t' = tp the reduced right factor
    of s^-1 t: a_n / index(t') on each coset of psi_s^-1(n) + psi_t'(M)."""
    fam.require_level(s)
    cosets = fam.solve_coset(tp, fam.n_identity)
    w = Fraction(1, fam.index(tp))
    weighted = [c * w for c in a.values.values()]
    return LocFun(fam, fam.s_identity, accumulate({}, (
        (key, v)
        for x, v in zip(fam.psi_inv_keys(s, a.values), weighted)
        for key in fam.translate(x, cosets)
    )))


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
    which is then removed from f.  Nothing is multiplied out.

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
        base = _corner_term(fam, s, grpalg.one(fam), t).refine(level).values
        scale = fam.index(t)
        rest = dict(f.values)
        coeffs = []
        while rest:
            c = next(iter(rest))
            value = rest[c]
            for key in fam.translate(c, base, level):
                if rest.pop(key, None) != value:
                    raise NotInCornerError(
                        f"not in the corner: component {g!r} differs from "
                        f"its read-off at coset {key!r}"
                    )
            coeffs.append((fam.canon(fam.psi_s(s, c)), value * scale))
        triples.append((s, grpalg.GroupAlgebraElement.build(fam, coeffs), t))
    return triples


def eval_corner(rep: CovariantRep, triples, v: SparseVector) -> SparseVector:
    """Evaluate a sum of v_s^* i(a) v_t triples as V_s^* pi(a) V_t."""
    return SparseVector.merge(
        kc
        for s, a, t in triples
        for kc in rep.apply_Vstar(s, apply_algebra(rep, a, rep.apply_V(t, v))).values.items()
    )


class InducedRep:
    """The representation of the crossed product on the dilation space of a
    covariant pair, with blocks (s, h) playing the role of u_s^* p (x) h."""

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
        cells psi_t'^-1(c) come from one ``psi_inv_keys`` batch, and h is
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
                pairs = []
                cells = fam.psi_inv_keys(tp, inner.values)
                for n, val in zip(cells, inner.values.values()):
                    coeff = complex(val) * weight
                    moved = self.rep.apply_Y(n, h)
                    pairs.extend((k, x * coeff) for k, x in moved.values.items())
                lifted = self.rep.apply_V(fam.s_mul(level, tp), SparseVector.merge(pairs))
                out.append((target_s, lifted))
        return DilationVector.build(out)

    def rho_p(self, vec: DilationVector) -> DilationVector:
        """rho of the distinguished projection: blockwise averaging."""
        return self.dilation.project_fixed(vec)


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


class ExtendedRep:
    """Extension of a dilated pair to the completion crossed product.

    The function representation is defined on cylinder indicators by

        rho(cylinder at level a over y)
            = index(a)^-1 U_a^* W(psi_a(y)) rho(p) U_a,

    with rho(p) the blockwise fixed-space projection; W acts on finite-
    precision completion elements through their level projections.
    """

    def __init__(self, rep: CovariantRep):
        self.rep = rep
        self.family = rep.family
        self.dilation = Dilation(rep)

    def rho_p(self, vec: DilationVector) -> DilationVector:
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

    def U(self, g, vec: DilationVector) -> DilationVector:
        return self.dilation.apply_U(g, vec)

    def rho_cylinder(self, level, y, vec: DilationVector) -> DilationVector:
        fam = self.family
        n = fam.canon(fam.psi_s(level, y))
        moved = self.dilation.apply_Us(level, vec)
        fixed = self.rho_p(moved)
        translated = self.W(tower.embed_j(fam, n), fixed)
        back = self.dilation.apply_Ustar(level, translated)
        return back.scale(1.0 / fam.index(level))

    def rho(self, f: LocFun, vec: DilationVector) -> DilationVector:
        return DilationVector.build(
            block
            for c, val in f.values.items()
            for block in self.rho_cylinder(f.level, c, vec).scale(complex(val)).blocks.items()
        )


def extend_rep(rep: CovariantRep) -> ExtendedRep:
    """Extend a covariant pair, through its dilation, to the completion."""
    return ExtendedRep(rep)


@dataclass(frozen=True)
class RestrictedRep:
    """Restriction of a completion representation to the dense subgroup."""

    extension: ExtendedRep

    def X(self, n, vec: DilationVector) -> DilationVector:
        fam = self.extension.family
        return self.extension.W(tower.embed_j(fam, n), vec)

    def U(self, g, vec: DilationVector) -> DilationVector:
        return self.extension.U(g, vec)

    def m_fixed_deviation(self, m, vec: DilationVector) -> float:
        """How far the subgroup unitaries move a projected vector; zero
        certifies that the restriction is generated by fixed vectors."""
        fam = self.extension.family
        if not fam.in_M(m):
            raise ValueError(f"{m!r} is not in the distinguished subgroup")
        fixed = self.extension.rho_p(vec)
        moved = self.X(m, fixed)
        return self.extension.dilation.distance(moved, fixed)


def restrict_completion_rep(ext: ExtendedRep) -> RestrictedRep:
    return RestrictedRep(ext)
