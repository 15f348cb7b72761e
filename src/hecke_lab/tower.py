"""Finite-precision elements of the completion group and the induced action.

The quotients N / psi_s^-1(M) form an inverse system over the divisibility
direction on S.  An element of the inverse limit is stored to a single
deepest level: every shallower coset is determined by reduction, so a
(level, coset) pair is a faithful finite-precision model.  The compact
subgroup K consists of the elements whose representative lies in M.

The semigroup acts by theta_t, characterised by
``theta_t(x).project(s) = psi_t(x.project(s*t))``; its inverse moves data
to deeper levels and is always available.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PrecisionError
from .pairs import PairFamily, json_field


@dataclass(frozen=True)
class TruncatedElement:
    """A coset of psi_level^-1(M) in N: one element of the limit group,
    known to finite precision."""

    family: PairFamily
    level: object
    coset: object

    @staticmethod
    def make(family: PairFamily, level, n) -> "TruncatedElement":
        family.validate_s(level)
        return TruncatedElement(family, level, family.canon(n, level))

    def project(self, s):
        """The coset of psi_s^-1(M) determined by this element."""
        if self.family.s_divide(self.level, s) is None:
            raise PrecisionError(
                f"level {s!r} is not determined by data stored at level {self.level!r}"
            )
        return self.family.canon(self.coset, s)

    def project_to(self, s) -> "TruncatedElement":
        return TruncatedElement(self.family, s, self.project(s))

    def in_K(self) -> bool:
        """Whether this element lies in the truncation of K."""
        return self.family.in_M(self.coset)

    def add(self, other: "TruncatedElement") -> "TruncatedElement":
        fam = self.family
        if other.level != self.level:
            # Addition is only determined down to the shallower level.
            if fam.s_divide(self.level, other.level) is not None:
                return self.project_to(other.level).add(other)
            if fam.s_divide(other.level, self.level) is not None:
                return self.add(other.project_to(self.level))
            raise PrecisionError(
                f"cannot add elements at incomparable levels {self.level!r}, {other.level!r}"
            )
        return TruncatedElement(
            fam, self.level, fam.canon(fam.n_add(self.coset, other.coset), self.level)
        )

    def to_json(self):
        return {
            "level": self.family.s_to_json(self.level),
            "coset": self.family.n_to_json(self.coset),
        }

    @staticmethod
    def from_json(family: PairFamily, data) -> "TruncatedElement":
        level = family.s_from_json(json_field(data, "level", "a truncated element"))
        coset = family.n_from_json(json_field(data, "coset", "a truncated element"))
        return TruncatedElement.make(family, level, coset)


@dataclass(frozen=True)
class ExactElement:
    """An element of the limit group known at every level, e.g. the image
    j(n) of a group element."""

    family: PairFamily
    value: object

    def at(self, s):
        return self.family.canon(self.value, s)

    def truncate(self, s) -> TruncatedElement:
        return TruncatedElement(self.family, s, self.at(s))

    def project(self, s):
        return self.at(s)

    def in_K(self) -> bool:
        return self.family.in_M(self.value)


def embed_j(family: PairFamily, n) -> ExactElement:
    """The canonical embedding of N into its completion."""
    return ExactElement(family, n)


def theta_apply(t, x: TruncatedElement) -> TruncatedElement:
    """theta_t on data known at level s*t, returning data at level s."""
    fam = x.family
    if isinstance(x, ExactElement):
        return ExactElement(fam, fam.psi_s(t, x.value))
    s = fam.s_divide(x.level, t)
    if s is None:
        raise PrecisionError(
            f"level {x.level!r} does not factor through {t!r}; theta needs s*t data"
        )
    return TruncatedElement(fam, s, fam.canon(fam.psi_s(t, x.coset), s))


def theta_inv_apply(t, x) -> TruncatedElement:
    """Inverse of theta_t; deepens level s to s*t."""
    fam = x.family
    if isinstance(x, ExactElement):
        return ExactElement(fam, fam.psi_s_inv(t, x.value))
    deeper = fam.s_mul(x.level, t)
    fam.require_level(deeper)
    return TruncatedElement(fam, deeper, fam.canon(fam.psi_s_inv(t, x.coset), deeper))


def theta_image_of_k_reps(family: PairFamily, s, t):
    """Representatives of the level-t truncation of theta_s(K).

    These are the classes psi_s(m) mod psi_t^-1(M) with m running over
    M / psi_(t*s)^-1(M); there are index(s) * index(t) of them.  As M lies
    in psi_s(M), the image psi_s(M) / psi_t^-1(M) is the level-t
    refinement of psi_s(M) / M, the level-e solutions at 0: computed as
    ``cell_solve(s, e, 1, [0])``, ``cell_refine`` from e to t and
    ``cell_keys``, with no Fraction built before the keys.
    """
    e = family.s_identity
    den, (cells,) = family.cell_solve(s, e, 1, [0])
    return set(family.cell_keys(t, den, family.cell_refine(e, den, cells, t)))
