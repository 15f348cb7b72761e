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

The corner p (A x| G) p is identified with the semigroup crossed product
by writing each of its elements as a sum of v_s^* i(a) v_t triples
(``corner_decompose``), one per group component g = s^-1 t.  Two facts
make this cheap:

* translation identity: the g-term of v_s^* i(delta_n) v_t is the g-term
  of v_s^* v_t translated by psi_s^-1(n), because beta, convolution and
  the embedding i all commute with translations of N;
* certificate: v_s^* i(a) v_t is linear in a, so an exact solution of
  "component = sum_n a_n * probe_n" for every component exhibits the
  element as a sum of corner triples.  No separate p d p == d test is
  needed; ``in_corner`` keeps that definition as a predicate.

The induction engine rewrites (f u_g) applied to a dilation block (s, h)
through the cylinder identity

    chi(level-l cylinder over c) = index(l)^-1 u_l^* delta-generator(psi_l(c)) u_l,

which turns every application into a combination of blocks
(l*s', Y[psi_l(c)] V_(l*t') h); restriction-compression goes the other way
by cutting with the projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import autodil, grpalg, tower
from .autodil import LocFun
from .coeffs import QC, QC_ZERO
from .dilate import CompressedRep, Dilation, DilationVector
from .errors import NotInCornerError, PrecisionError
from .pairs import PairFamily
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
                (LocFun.from_json(family, rec["f"]), family.g_from_json(rec["g"]))
                for rec in data
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
    """The corner element v_s^* i(a) v_t."""
    return isom_v(family, s).star() * embed_algebra(a) * isom_v(family, t)


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

    Works per group component g = s^-1 t (s, t from ``g_reduce``).  Every
    probe v_s^* i(delta_n) v_t has its single term at g, and that term is
    the g-term of v_s^* v_t translated by psi_s^-1(n) (see ``_translate``),
    so only v_s^* v_t is multiplied out, once per component; it is refined
    to the component's level first, since translation commutes with
    refinement.  Exact rational elimination then writes the component as
    a combination of the candidate probes.

    A consistent solve is the membership certificate: compose_corner is
    linear in a, so the solved coefficients a_g give
    d = sum_g v_s^* i(a_g) v_t, which lies in the corner.  When some
    component has no solution, NotInCornerError is raised; ``in_corner``
    stays the definition-level predicate p d p == d.
    """
    fam = d.family
    triples = []
    for g, f in d.terms.items():
        s, t = fam.g_reduce(g)
        candidates = _candidate_generators(fam, s, t, f)
        base = compose_corner(fam, s, grpalg.one(fam), t).terms[g]
        base = base.refine(fam.s_join(base.level, f.level))
        probes = [_translate(base, fam.psi_s_inv(s, n)) for n in candidates]
        coeffs = _solve_exact(probes, f)
        if coeffs is None:
            raise NotInCornerError(
                "no exact corner decomposition: the element is not in the corner, "
                "or the candidate generators do not span it"
            )
        a = grpalg.GroupAlgebraElement.build(
            fam, [(n, c) for n, c in zip(candidates, coeffs)]
        )
        triples.append((s, a, t))
    return triples


def _translate(f: LocFun, x) -> LocFun:
    """The function f(. - x), at f's level.

    Translation maps level cosets bijectively onto level cosets, so keys
    stay distinct and values are unchanged.
    """
    fam = f.family
    values = dict(zip(fam.translate(x, f.values, f.level), f.values.values()))
    return f._with(values)


def _candidate_generators(fam: PairFamily, s, t, f: LocFun):
    """Cosets that can appear in a generator sum whose corner image touches
    the support of f."""
    out = []
    seen = set()
    shifts = [fam.n_neg(fam.n_add(fam.psi_s(s, m), fam.psi_s(t, r)))
              for m in fam.coset_reps(s) for r in fam.coset_reps(t)]
    for c in f.values:
        for n in fam.translate(fam.psi_s(s, c), shifts):
            if n not in seen:
                seen.add(n)
                out.append(n)
    return out


def _solve_exact(probes, target: LocFun):
    """Solve sum_j x_j probe_j = target over exact complex rationals."""
    fam = target.family
    level = target.level
    for pr in probes:
        level = fam.s_join(level, pr.level)
    cols = [pr.refine(level).values for pr in probes]
    rhs = dict(target.refine(level).values)
    support = sorted(set().union(rhs, *cols), key=str)
    rows = [[QC.of(col.get(c, 0)) for col in cols] for c in support]
    b = [QC.of(rhs.get(c, 0)) for c in support]
    n_unknowns = len(probes)
    # Gaussian elimination over Q(i).
    pivot_rows = []
    pivot_cols = []
    rowset = list(range(len(rows)))
    for j in range(n_unknowns):
        pivot = next((i for i in rowset if rows[i][j]), None)
        if pivot is None:
            continue
        rowset.remove(pivot)
        pivot_rows.append(pivot)
        pivot_cols.append(j)
        inv = rows[pivot][j].inverse()
        rows[pivot] = [x * inv for x in rows[pivot]]
        b[pivot] = b[pivot] * inv
        for i in range(len(rows)):
            if i != pivot and rows[i][j]:
                factor = rows[i][j]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[pivot])]
                b[i] = b[i] - factor * b[pivot]
    x = [QC_ZERO] * n_unknowns
    for i, j in zip(pivot_rows, pivot_cols):
        x[j] = b[i]
    for i in rowset:
        if b[i]:
            return None  # inconsistent
    return x


def eval_corner(rep: CovariantRep, triples, v: SparseVector) -> SparseVector:
    """Evaluate a sum of v_s^* i(a) v_t triples as V_s^* pi(a) V_t."""
    return SparseVector.build(
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
        """Apply sum f u_g through the cylinder rewriting."""
        fam = self.family
        levels: dict = {}
        for g, f in d.terms.items():
            for s, h in vec.blocks.items():
                gs = fam.g_mul(g, fam.g_inv(fam.g_from_s(s)))
                sp, tp = fam.g_reduce(gs)
                inner = autodil.convolve(
                    autodil.theta_star(sp, f),
                    autodil.theta_star(tp, autodil.chi_K(fam)),
                )
                level = inner.level
                weight = Fraction(1, fam.index(level))
                target_s = fam.s_mul(level, sp)
                fam.require_level(target_s)
                carrier = self.rep.apply_V(fam.s_mul(level, tp), h)
                for c, val in inner.values.items():
                    n = fam.canon(fam.psi_s(level, c))
                    coeff = complex(val) * float(weight)
                    moved = self.rep.apply_Y(n, carrier).values
                    if moved:
                        levels.setdefault(target_s, []).extend(
                            (k, x * coeff) for k, x in moved.items()
                        )
        return DilationVector.build((s, SparseVector.build(p)) for s, p in levels.items())

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
