"""Covariant representations of the semigroup system on sparse vectors.

The carrier is the complex span of basis vectors indexed by canonical N/M
cosets (a dense-free model of little-l2 of N/M).  The regular covariant
representation acts by

    Y_n xi_k   = xi_(n+k)
    V_s xi_n   = index(s)^(-1/2) * sum of xi_m over the solution cosets of
                 psi_s^-1(m) = n
    V_s* xi_k  = index(s)^(-1/2) * xi_(psi_s^-1(k))

so each Y is unitary, each V_s is a genuine non-unitary isometry, and the
covariance relation  V_s Y_n V_s* = index(s)^-1 * sum Y_m  holds on the
nose.  Inner products are linear in the first slot.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import ConfigError
from .pairs import PairFamily


@dataclass(frozen=True, eq=False)
class SparseVector:
    """Finitely supported complex vector over hashable basis keys."""

    values: dict = field(default_factory=dict)

    @staticmethod
    def basis(key) -> "SparseVector":
        return SparseVector({key: 1.0 + 0.0j})

    @staticmethod
    def build(pairs) -> "SparseVector":
        out = {}
        for k, c in pairs:
            c = complex(c)
            if k in out:
                c = out[k] + c
            if c == 0:
                out.pop(k, None)
            else:
                out[k] = c
        return SparseVector(out)

    def __add__(self, other):
        return SparseVector.build(list(self.values.items()) + list(other.values.items()))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "SparseVector":
        c = complex(c)
        if c == 0:
            return SparseVector({})
        return SparseVector({k: v * c for k, v in self.values.items()})

    def inner(self, other: "SparseVector") -> complex:
        if len(other.values) < len(self.values):
            return other.inner(self).conjugate()
        total = 0j
        for k, v in self.values.items():
            w = other.values.get(k)
            if w is not None:
                total += v * w.conjugate()
        return total

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self).real, 0.0))

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(v) <= tol for v in self.values.values())

    def to_json(self, family: PairFamily):
        return [
            {"coset": family.n_to_json(k), "re": complex(v).real, "im": complex(v).imag}
            for k, v in sorted(self.values.items())
        ]


@dataclass(frozen=True)
class CovariantRep:
    """A covariant pair: unitaries over N/M and an isometric semigroup part."""

    family: PairFamily
    apply_Y: Callable
    apply_V: Callable
    apply_Vstar: Callable
    label: str = "regular"


def regular_covariant(
    family: PairFamily,
    check: bool = True,
    tol: float = 1e-9,
    seed: int = 7,
) -> CovariantRep:
    """The translation representation; construction self-checks covariance."""

    def apply_Y(n, v: SparseVector) -> SparseVector:
        n = family.canon(n)
        return SparseVector.build(
            (family.canon(family.n_add(n, k)), c) for k, c in v.values.items()
        )

    def apply_V(s, v: SparseVector) -> SparseVector:
        family.validate_s(s)
        w = 1.0 / math.sqrt(family.index(s))
        pairs = []
        for k, c in v.values.items():
            for m in family.solve_coset(s, k):
                pairs.append((m, c * w))
        return SparseVector.build(pairs)

    def apply_Vstar(s, v: SparseVector) -> SparseVector:
        family.validate_s(s)
        w = 1.0 / math.sqrt(family.index(s))
        return SparseVector.build(
            (family.canon(family.psi_s_inv(s, k)), c * w) for k, c in v.values.items()
        )

    rep = CovariantRep(family, apply_Y, apply_V, apply_Vstar)
    if check:
        rng = random.Random(seed)
        for s, n, v in _covariance_samples(family, rng, trials=8):
            dev = verify_covariance(rep, s, n, v)
            if dev > tol:
                raise ConfigError(
                    f"covariance self-check failed: deviation {dev} at s={s!r}, n={n!r}"
                )
    return rep


def verify_covariance(rep: CovariantRep, s, n, v: SparseVector) -> float:
    """Norm of (V_s Y_n V_s* - averaged translations) applied to v."""
    fam = rep.family
    lhs = rep.apply_V(s, rep.apply_Y(n, rep.apply_Vstar(s, v)))
    w = 1.0 / fam.index(s)
    rhs = SparseVector({})
    for m in fam.solve_coset(s, n):
        rhs = rhs + rep.apply_Y(m, v).scale(w)
    return (lhs - rhs).norm()


def average_projection(unitaries, v: SparseVector) -> SparseVector:
    """Average of finitely many unitaries: the projection onto the vectors
    they all fix, whenever the maps close into a finite group."""
    if not unitaries:
        raise ConfigError("cannot average an empty family")
    total = SparseVector({})
    w = 1.0 / len(unitaries)
    for u in unitaries:
        total = total + u(v).scale(w)
    return total


def direct_sum(rep_a: CovariantRep, rep_b: CovariantRep) -> CovariantRep:
    """Direct sum on vectors with ('a', coset) / ('b', coset) keys."""
    if rep_a.family != rep_b.family:
        raise ConfigError("direct sums need a common family")

    def split(v: SparseVector):
        a = SparseVector({k[1]: c for k, c in v.values.items() if k[0] == "a"})
        b = SparseVector({k[1]: c for k, c in v.values.items() if k[0] == "b"})
        return a, b

    def join(a: SparseVector, b: SparseVector) -> SparseVector:
        out = {("a", k): c for k, c in a.values.items()}
        out.update({("b", k): c for k, c in b.values.items()})
        return SparseVector(out)

    def lift(op_a, op_b):
        def apply(x, v):
            a, b = split(v)
            return join(op_a(x, a), op_b(x, b))

        return apply

    return CovariantRep(
        rep_a.family,
        lift(rep_a.apply_Y, rep_b.apply_Y),
        lift(rep_a.apply_V, rep_b.apply_V),
        lift(rep_a.apply_Vstar, rep_b.apply_Vstar),
        label=f"{rep_a.label}(+){rep_b.label}",
    )


def inclusion_intertwiner(tag: str = "a"):
    """The isometry into one summand of a direct sum; intertwines a rep
    with the sum of itself and anything else."""

    def T(v: SparseVector) -> SparseVector:
        return SparseVector({(tag, k): c for k, c in v.values.items()})

    return T


def random_cosets(family: PairFamily, rng: random.Random, count: int, depth: int = 12):
    """Sample canonical N/M cosets reachable at small levels."""
    out = []
    tag = family.tag
    for _ in range(count):
        if tag == "bost-connes":
            den = rng.randint(1, depth)
            num = rng.randrange(den)
            out.append(family.canon(Fraction(num, den)))
        elif tag == "padic":
            l = rng.randint(0, 3)
            out.append(family.canon(Fraction(rng.randrange(family.p**l), family.p**l)))
        else:
            s = (rng.randint(0, 2), rng.randint(0, 2))
            v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(family.dim))
            out.append(family.canon(family.psi_s(s, v)))
    return out


def random_vector(
    family: PairFamily, rng: random.Random, terms: int = 3, depth: int = 12
) -> SparseVector:
    pairs = []
    for k in random_cosets(family, rng, terms, depth):
        pairs.append((k, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
    return SparseVector.build(pairs)


def _covariance_samples(family: PairFamily, rng: random.Random, trials: int):
    samples = []
    small = _small_s(family)
    for _ in range(trials):
        s = rng.choice(small)
        n = random_cosets(family, rng, 1)[0]
        samples.append((s, n, random_vector(family, rng)))
    return samples


def _small_s(family: PairFamily):
    tag = family.tag
    if tag == "bost-connes":
        return [1, 2, 3, 4, 6]
    if tag == "padic":
        return [0, 1, 2]
    return [(0, 0), (1, 0), (0, 1), (1, 1)]
