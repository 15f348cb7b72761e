"""The *-algebra spanned by unitary generators indexed by N/M cosets,
together with the averaging endomorphisms of the semigroup.

Elements are finitely supported maps from canonical N/M representatives to
coefficients.  The product is convolution of generators, the involution
conjugates coefficients and inverts cosets, and

    alpha_s(delta_n) = index(s)^-1 * sum of delta_m over the cosets m
                       with psi_s^-1(m) = n modulo M.

With the exact backend every identity in this module is a literal equality
of dictionaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coeffs import QC, coerce, is_zero, scale
from .pairs import PairFamily, frac_to_str, frac_from_json


@dataclass(frozen=True, eq=False)
class GroupAlgebraElement:
    """A finitely supported map from N/M cosets to coefficients.

    Invariant: every key is canonical modulo M (a fixed point of
    ``family.canon``) and every value is non-zero.  ``build`` establishes
    it from arbitrary pairs; code that constructs an element directly must
    already hold it.
    """

    family: PairFamily
    values: dict = field(default_factory=dict)
    exact: bool = True

    @staticmethod
    def build(family: PairFamily, pairs, exact: bool = True) -> "GroupAlgebraElement":
        """Normalize (coset, coefficient) pairs: canonical keys, no zeros."""
        out = {}
        for n, c in pairs:
            key = family.canon(n)
            c = coerce(c, exact)
            if key in out:
                c = out[key] + c
            if is_zero(c):
                out.pop(key, None)
            else:
                out[key] = c
        return GroupAlgebraElement(family, out, exact)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        merged = dict(self.values)
        for k, c in other.values.items():
            c = merged.get(k, 0) + c
            if is_zero(c):
                merged.pop(k, None)
            else:
                merged[k] = c
        return GroupAlgebraElement(self.family, merged, self.exact and other.exact)

    def __neg__(self):
        return GroupAlgebraElement(
            self.family, {k: -c for k, c in self.values.items()}, self.exact
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        fam = self.family
        pairs = []
        for a, ca in self.values.items():
            for key, cb in zip(fam.translate(a, other.values), other.values.values()):
                pairs.append((key, ca * cb))
        return GroupAlgebraElement.build(fam, pairs, self.exact and other.exact)

    def scale(self, q: Fraction) -> "GroupAlgebraElement":
        return GroupAlgebraElement.build(
            self.family, ((k, scale(c, q)) for k, c in self.values.items()), self.exact
        )

    def star(self) -> "GroupAlgebraElement":
        fam = self.family
        return GroupAlgebraElement.build(
            fam,
            ((fam.n_neg(k), c.conjugate()) for k, c in self.values.items()),
            self.exact,
        )

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self.values == other.values

    def to_json(self):
        fam = self.family
        out = []
        for k in sorted(self.values):
            c = self.values[k]
            qc = QC.of(c) if self.exact else None
            out.append(
                {
                    "coset": fam.n_to_json(k),
                    "re": frac_to_str(qc.re) if qc else complex(c).real,
                    "im": frac_to_str(qc.im) if qc else complex(c).imag,
                }
            )
        return out

    @staticmethod
    def from_json(family: PairFamily, data, exact: bool = True) -> "GroupAlgebraElement":
        pairs = []
        for rec in data:
            if exact:
                c = QC(frac_from_json(rec["re"]), frac_from_json(rec["im"]))
            else:
                c = complex(rec["re"], rec["im"])
            pairs.append((family.n_from_json(rec["coset"]), c))
        return GroupAlgebraElement.build(family, pairs, exact)


def delta(family: PairFamily, n, coeff=1, exact: bool = True) -> GroupAlgebraElement:
    """The unitary generator attached to the coset of n."""
    return GroupAlgebraElement.build(family, [(n, coeff)], exact)


def one(family: PairFamily, exact: bool = True) -> GroupAlgebraElement:
    return delta(family, family.n_identity, exact=exact)


def alpha(s, a: GroupAlgebraElement) -> GroupAlgebraElement:
    """The injective endomorphism of the algebra attached to s."""
    fam = a.family
    fam.validate_s(s)
    inv_index = Fraction(1, fam.index(s))
    # solve_coset returns distinct canonical reps, disjoint across distinct
    # n, so the pairs need neither canonicalising nor merging: skip build.
    out = {}
    for n, c in a.values.items():
        spread = scale(c, inv_index)
        if is_zero(spread):  # a float coefficient can underflow to zero
            continue
        for m in fam.solve_coset(s, n):
            out[m] = spread
    return GroupAlgebraElement(fam, out, a.exact)
