"""The *-algebra spanned by unitary generators indexed by N/M cosets,
together with the averaging endomorphisms of the semigroup.

The embedding i sends the generator delta_n to the indicator of n's
identity-level cylinder, so a group-algebra element is a locally constant
function at the identity level: ``GroupAlgebraElement`` is an
``autodil.LocFun`` pinned there.  Its sum, involution, scaling and
equality are the function algebra's, its product is convolution (Haar
weight index(identity)^-1 = 1), and

    alpha_s(delta_n) = index(s)^-1 * sum of delta_m over the cosets m
                       with psi_s^-1(m) = n modulo M

is the rescaled action ``theta_star(s, .)`` at the identity level; this
holds because canon(n) == canon(n, s_identity).  Every identity in this
module is a literal equality of dictionaries.
"""

from __future__ import annotations

from . import autodil
from .autodil import LocFun
from .pairs import PairFamily


class GroupAlgebraElement(LocFun):
    """A finitely supported map from N/M cosets to coefficients: the
    identity-level ``LocFun`` with the same codes and values.

    Invariant: every key is canonical modulo M (a fixed point of
    ``family.canon``) and every value is non-zero.  ``build`` establishes
    it from arbitrary pairs; the constructor stores a dict as given, as
    ``LocFun``'s does.
    """

    __slots__ = ()

    def __init__(self, family: PairFamily, values=None):
        super().__init__(family, family.s_identity, values)

    @staticmethod
    def build(family: PairFamily, pairs) -> "GroupAlgebraElement":
        """Normalize (coset, coefficient) pairs: canonical keys, no zeros."""
        f = LocFun.build(family, family.s_identity, pairs)
        return GroupAlgebraElement._make(family, f.level, f.den, f.codes)

    def __mul__(self, other: LocFun) -> LocFun:
        """Convolution; a product of two group-algebra elements stays one."""
        out = autodil.convolve(self, other)
        return self._with(out.den, out.codes) if out.level == self.level else out

    def to_json(self):
        return super().to_json()["values"]

    @staticmethod
    def from_json(family: PairFamily, data) -> "GroupAlgebraElement":
        level = family.s_to_json(family.s_identity)
        f = LocFun.from_json(family, {"level": level, "values": data})
        return GroupAlgebraElement._make(family, f.level, f.den, f.codes)


def delta(family: PairFamily, n, coeff=1) -> GroupAlgebraElement:
    """The unitary generator attached to the coset of n."""
    return GroupAlgebraElement.build(family, [(n, coeff)])


def one(family: PairFamily) -> GroupAlgebraElement:
    return delta(family, family.n_identity)


def alpha(s, a: GroupAlgebraElement) -> GroupAlgebraElement:
    """The injective endomorphism of the algebra attached to s."""
    return autodil.theta_star(s, a)
