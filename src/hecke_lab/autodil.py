"""Locally constant, compactly supported functions on the completion group.

A ``LocFun`` is a level s together with finitely many (coset, value) pairs:
the function taking those values on the corresponding level-s cylinder sets.
The normalization gives the compact subgroup K total mass 1, so a level-s
coset carries mass index(s)^-1; that constant is baked into convolution.

Key operations:

* ``refine``      - re-express a function at a deeper level (same function);
* ``convolve``    - Haar-weighted convolution (also spelled ``f * g``),
                    paired at the meet level by the cylinder identity
                    1_{x+H} * 1_{y+K} = mu(H cap K) 1_{x+y+H+K};
* ``embed_i``     - the unital embedding of the N/M group algebra onto the
                    level-identity functions, sending a generator to the
                    indicator of its cylinder;
* ``theta_star``  - the rescaled action index(s)^-1 * (f o theta_s^-1), and
  ``theta_star_inv`` its inverse, which transports a level-a cylinder to the
  single level-(a*s) cylinder over its preimage, scaled by index(s).

Everything is exact with the rational backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coeffs import QC, coerce, is_zero, scale
from .errors import PrecisionError
from .pairs import PairFamily, frac_to_str, frac_from_json
from . import grpalg


@dataclass(frozen=True, eq=False)
class LocFun:
    """A level s and the values of the function on level-s cylinders.

    Invariant: every key is canonical at the element's level (a fixed
    point of ``family.canon(., level)``) and every value is non-zero.
    ``build`` establishes it from arbitrary pairs; code that constructs a
    ``LocFun`` directly must already hold it.
    """

    family: PairFamily
    level: object
    values: dict = field(default_factory=dict)
    exact: bool = True
    # Refinement cache; idempotent fill keeps concurrent reads safe.
    _refined: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def build(family: PairFamily, level, pairs, exact: bool = True) -> "LocFun":
        family.validate_s(level)
        out = {}
        for n, c in pairs:
            key = family.canon(n, level)
            c = coerce(c, exact)
            if key in out:
                c = out[key] + c
            if is_zero(c):
                out.pop(key, None)
            else:
                out[key] = c
        return LocFun(family, level, out, exact)

    def refine(self, t) -> "LocFun":
        """The same function, stored on the finer level-t cosets."""
        fam = self.family
        if t == self.level:
            return self
        cached = self._refined.get(t)
        if cached is not None:
            return cached
        r = fam.s_divide(t, self.level)
        if r is None:
            raise PrecisionError(
                f"cannot refine from level {self.level!r} to non-multiple {t!r}"
            )
        fam.require_level(t)
        splitters = [fam.psi_s_inv(self.level, m) for m in fam.coset_reps(r)]
        pairs = []
        for c, v in self.values.items():
            for w in splitters:
                pairs.append((fam.n_add(c, w), v))
        out = LocFun.build(fam, t, pairs, self.exact)
        self._refined[t] = out
        return out

    def common_level(self, other: "LocFun"):
        return self.family.s_join(self.level, other.level)

    def __add__(self, other: "LocFun") -> "LocFun":
        t = self.common_level(other)
        a, b = self.refine(t), other.refine(t)
        merged = dict(a.values)
        for k, c in b.values.items():
            c = merged.get(k, 0) + c
            if is_zero(c):
                merged.pop(k, None)
            else:
                merged[k] = c
        return LocFun(self.family, t, merged, self.exact and other.exact)

    def __neg__(self):
        return LocFun(
            self.family, self.level, {k: -c for k, c in self.values.items()}, self.exact
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "LocFun") -> "LocFun":
        return convolve(self, other)

    def scale(self, q: Fraction) -> "LocFun":
        return LocFun.build(
            self.family,
            self.level,
            ((k, scale(c, q)) for k, c in self.values.items()),
            self.exact,
        )

    def star(self) -> "LocFun":
        """Involution: conjugate values on inverted cosets (unimodular, so
        no modular correction)."""
        fam = self.family
        return LocFun.build(
            fam,
            self.level,
            ((fam.n_neg(k), c.conjugate()) for k, c in self.values.items()),
            self.exact,
        )

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other):
        if not isinstance(other, LocFun):
            return NotImplemented
        t = self.common_level(other)
        return self.refine(t).values == other.refine(t).values

    def eval_at(self, n):
        """Pointwise value at a group element (useful as an oracle)."""
        return self.values.get(self.family.canon(n, self.level), 0)

    def mass(self):
        """Total integral: each level-s coset weighs index(s)^-1."""
        total = 0
        w = Fraction(1, self.family.index(self.level))
        for c in self.values.values():
            total = total + scale(c, w)
        return total

    def to_json(self):
        fam = self.family
        recs = []
        for k in sorted(self.values):
            c = self.values[k]
            qc = QC.of(c) if self.exact else None
            recs.append(
                {
                    "coset": fam.n_to_json(k),
                    "re": frac_to_str(qc.re) if qc else complex(c).real,
                    "im": frac_to_str(qc.im) if qc else complex(c).imag,
                }
            )
        return {"level": fam.s_to_json(self.level), "values": recs}

    @staticmethod
    def from_json(family: PairFamily, data, exact: bool = True) -> "LocFun":
        level = family.s_from_json(data["level"])
        pairs = []
        for rec in data["values"]:
            if exact:
                c = QC(frac_from_json(rec["re"]), frac_from_json(rec["im"]))
            else:
                c = complex(rec["re"], rec["im"])
            pairs.append((family.n_from_json(rec["coset"]), c))
        return LocFun.build(family, level, pairs, exact)


def zero(family: PairFamily, exact: bool = True) -> LocFun:
    return LocFun(family, family.s_identity, {}, exact)


def chi_K(family: PairFamily, exact: bool = True) -> LocFun:
    """The indicator of the compact subgroup: the distinguished projection."""
    return LocFun.build(family, family.s_identity, [(family.n_identity, 1)], exact)


def cylinder(family: PairFamily, level, n, coeff=1, exact: bool = True) -> LocFun:
    """The indicator of a single level-s cylinder set."""
    return LocFun.build(family, level, [(n, coeff)], exact)


def convolve(f: LocFun, g: LocFun) -> LocFun:
    """Haar-weighted convolution, returned at the join level j of the
    factor levels s, t.

    On an abelian group, 1_{x+H} * 1_{y+K} = mu(H cap K) 1_{x+y+H+K} for
    open compact H, K.  Level subgroups meet at level j, of mass
    index(j)^-1, and sum to the level of the meet m = ``s_meet(s, t)``:
    gcd for ``bost-connes``, min for ``padic``, componentwise min for
    ``matrix`` (coprime determinants give F^a M^b Z^d + F^a' M^b' Z^d =
    F^min M^min Z^d).  So the factors' own keys pair at level m, and the
    product is refined to j: the pointwise-oracle test and the benchmark's
    convolution check pin the output level, so returning level m would need
    both changed.
    """
    fam = f.family
    t = f.common_level(g)
    w = Fraction(1, fam.index(t))
    pairs = []
    for ca, va in f.values.items():
        va = scale(va, w)
        for cb, vb in g.values.items():
            pairs.append((fam.n_add(ca, cb), va * vb))
    m = fam.s_meet(f.level, g.level)
    return LocFun.build(fam, m, pairs, f.exact and g.exact).refine(t)


def embed_i(a: grpalg.GroupAlgebraElement) -> LocFun:
    """Send each group-algebra generator to the indicator of its cylinder
    at the identity level."""
    fam = a.family
    # Keys canonical modulo M are canonical at the identity level, since
    # canon(n) == canon(n, s_identity); build would only copy them.
    return LocFun(fam, fam.s_identity, dict(a.values), a.exact)


def theta_star(s, f: LocFun) -> LocFun:
    """The rescaled push-forward along theta_s; stays at f's level.

    On a level-a cylinder over c it spreads mass index(s)^-1 over the
    index(s) level-a cylinders whose theta_s-preimage is the one over c;
    those are the translates of psi_s(c) by the (level-adjusted) images of
    the transversal.  The spreads of distinct level-a cosets c are
    disjoint, since each target cylinder has one preimage, and the
    index(s) targets of one c are distinct.  So the keys need ``canon``
    (a translate is not canonical by construction when the HNF is not
    diagonal) but no merging or zero test: skip ``build``.
    """
    fam = f.family
    fam.validate_s(s)
    if s == fam.s_identity:
        return f
    a = f.level
    w = Fraction(1, fam.index(s))
    if a == fam.s_identity:
        shifts = fam.psi_reps(s)
    else:
        shifts = [fam.psi_s_inv(a, pm) for pm in fam.psi_reps(s)]
    out = {}
    for c, v in f.values.items():
        spread = scale(v, w)
        if is_zero(spread):  # a float coefficient can underflow to zero
            continue
        base = fam.psi_s(s, c)
        for pm in shifts:
            out[fam.canon(fam.n_add(base, pm), a)] = spread
    return LocFun(fam, a, out, f.exact)


def theta_star_inv(s, f: LocFun) -> LocFun:
    """Inverse of ``theta_star(s, .)``; moves level a to a*s.

    A level-a cylinder over c goes to index(s) times the level-(a*s)
    cylinder over the preimage of c.
    """
    fam = f.family
    fam.validate_s(s)
    if s == fam.s_identity:
        return f
    a = f.level
    deeper = fam.s_mul(a, s)
    fam.require_level(deeper)
    idx = Fraction(fam.index(s))
    pairs = []
    for c, v in f.values.items():
        pairs.append((fam.psi_s_inv(s, c), scale(v, idx)))
    return LocFun.build(fam, deeper, pairs, f.exact)


def theta_star_g(g, f: LocFun) -> LocFun:
    """The rescaled action for a general group element g = s^-1 t."""
    fam = f.family
    s, t = fam.g_reduce(g)
    out = f
    if t != fam.s_identity:
        out = theta_star(t, out)
    if s != fam.s_identity:
        out = theta_star_inv(s, out)
    return out
