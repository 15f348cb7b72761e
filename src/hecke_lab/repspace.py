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

Every covariant pair also satisfies the un-averaged relation

    Y_(psi_s(n)) V_s = V_s Y_n.

Multiply the averaged relation on the right by V_s: V_s Y_n is the
average of the Y_m V_s over the index(s) solutions m = psi_s(n + k),
k in M, of psi_s^-1(m) = n modulo M.  At n = 0 an average of isometries
equals the isometry V_s, which forces each Y_(psi_s(k)) V_s to equal V_s;
so every term of the average is Y_(psi_s(n)) V_s.

Every covariant pair is also Nica covariant: V_u* V_v = V_v V_u* for the
least pair (u, v) of an Ore equation u*s = v*t.  Such u and v have the
identity as greatest common S-divisor (``s_meet``), so their least common
multiple ``s_join`` is u*v.

* At n = 0 covariance reads V_u V_u* = P_u, the average of the Y_m over m
  in psi_u(M) modulo M.
* The level groups form a lattice: psi_u(M) + psi_v(M) = psi_(u*v)(M).
  For ``matrix``, multiply by A_(u*v): A_v Z^d + A_u Z^d = Z^d by the
  coprime-determinant argument that ``MatrixFamily.s_meet`` cites.
* An average over one finite group of cosets times an average over
  another is the average over their sum, so P_u P_v = P_(u*v).

Then, with V_u* V_(u*v) = V_v and V_(u*v)* V_v = V_u*,

    V_u* V_v = V_u* P_u P_v V_v = V_u* V_(u*v) V_(u*v)* V_v = V_v V_u*.

Hence <V_u h, V_v k> = <V_v* V_u h, k> = <V_v* h, V_u* k>, the form that
``dilate.Dilation`` computes, and V_s V_s* h = P_s h is its fixed-space
projection of a block (s, h).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from .coeffs import accumulate
from .errors import ConfigError
from .pairs import PairFamily


@dataclass(frozen=True, eq=False)
class SparseVector:
    """Finitely supported complex vector over hashable basis keys.

    Invariant: keys are canonical N/M cosets (fixed points of ``canon``;
    on a ``direct_sum`` carrier, (summand tag, canonical coset) pairs) and
    values are non-zero ``complex``.  ``build``, ``merge`` and ``+`` sum a
    key's contributions left to right, in the order they are given, so a
    sum written as one ``build`` equals, value for value, the same sum
    written as ``total = total + x``.  Code that constructs a vector
    directly must keep the invariant itself.
    """

    values: dict = field(default_factory=dict)

    @staticmethod
    def basis(key) -> "SparseVector":
        return SparseVector({key: 1.0 + 0.0j})

    @staticmethod
    def build(pairs) -> "SparseVector":
        """Sum (key, number) pairs, each value converted by ``complex()``."""
        return SparseVector.merge((k, complex(c)) for k, c in pairs)

    @staticmethod
    def merge(pairs) -> "SparseVector":
        """``build`` for values that are ``complex`` already, as in the
        package's own sums: the same merge without the conversion, whose
        extra generator step per pair costs a ``dilation`` pass a few per
        cent."""
        return SparseVector(accumulate({}, pairs))

    def __add__(self, other):
        # The copy reuses the stored hashes of the left operand's keys.
        return SparseVector(accumulate(dict(self.values), other.values.items()))

    def __sub__(self, other):
        return SparseVector(
            accumulate(dict(self.values), ((k, -v) for k, v in other.values.items()))
        )

    def scale(self, c) -> "SparseVector":
        c = complex(c)
        if c == 0:
            return SparseVector({})
        return SparseVector({k: x for k, v in self.values.items() if (x := v * c)})

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
        """sqrt(<v, v>) without dict lookups.  The loop adds the same terms
        in the same order as ``inner(self).real`` and so is bit for bit
        equal to it (``sum`` of floats may round differently)."""
        total = 0.0
        for v in self.values.values():
            total += v.real * v.real + v.imag * v.imag
        return math.sqrt(total)

    def distance(self, other: "SparseVector") -> float:
        """``(self - other).norm()`` without building the difference: the
        same terms x + -y, added in the same key order (self's keys, then
        other's keys that self lacks), so bit for bit equal to it.  A key
        whose difference is zero adds 0.0 where the difference drops it.
        other's keys are looked up again only when some are unmatched."""
        theirs = other.values
        total = 0.0
        matched = 0
        for k, x in self.values.items():
            y = theirs.get(k)
            if y is not None:
                matched += 1
                x = x + -y
            total += x.real * x.real + x.imag * x.imag
        if matched < len(theirs):
            for k, y in theirs.items():
                if k not in self.values:
                    total += y.real * y.real + y.imag * y.imag
        return math.sqrt(total)

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
) -> CovariantRep:
    """The translation representation; construction self-checks covariance."""

    def apply_Y(n, v: SparseVector) -> SparseVector:
        """Translation by n is a bijection of N/M: distinct keys go to
        distinct keys, so the dict is filled directly."""
        return SparseVector(dict(zip(family.translate(n, v.values), v.values.values())))

    def apply_V(s, v: SparseVector) -> SparseVector:
        """Each key spreads over its ``solve_coset`` solutions; the solution
        sets of distinct keys are disjoint, so the dict is filled directly.
        A product that underflows to zero is dropped."""
        family.validate_s(s)
        w = 1.0 / math.sqrt(family.index(s))
        out = {}
        for k, c in v.values.items():
            x = c * w
            if x:
                for m in family.solve_coset(s, k):
                    out[m] = x
        return SparseVector(out)

    def apply_Vstar(s, v: SparseVector) -> SparseVector:
        """Many-to-one: the index(s) keys of one ``solve_coset`` set all go
        to the same key, so their values are summed by ``accumulate``, the
        merge of ``SparseVector.merge``.  The keys are moved as one
        ``psi_inv_codes`` batch, summed by code, and only the codes that
        survive are decoded into keys."""
        family.validate_s(s)
        w = 1.0 / math.sqrt(family.index(s))
        codes, decode = family.psi_inv_codes(s, v.values)
        sums = accumulate({}, zip(codes, [c * w for c in v.values.values()]))
        return SparseVector(dict(zip(decode(sums), sums.values())))

    rep = CovariantRep(family, apply_Y, apply_V, apply_Vstar)
    if check:
        rng = random.Random(7)
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
    w = complex(1.0 / fam.index(s))
    rhs = SparseVector.merge(
        (k, x * w) for m in fam.solve_coset(s, n) for k, x in rep.apply_Y(m, v).values.items()
    )
    return lhs.distance(rhs)


def average_projection(unitaries, v: SparseVector) -> SparseVector:
    """Average of finitely many unitaries: the projection onto the vectors
    they all fix, whenever the maps close into a finite group."""
    if not unitaries:
        raise ConfigError("cannot average an empty family")
    w = complex(1.0 / len(unitaries))
    return SparseVector.merge((k, x * w) for u in unitaries for k, x in u(v).values.items())


def apply_algebra(rep: CovariantRep, a, v: SparseVector) -> SparseVector:
    """pi(a) v = sum of c_n Y_n v for a group-algebra element a = sum c_n delta_n."""
    pairs = []
    for n, c in a.values.items():
        c = complex(c)
        if c:
            pairs.extend((k, x * c) for k, x in rep.apply_Y(n, v).values.items())
    return SparseVector.merge(pairs)


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
    return [family.random_coset(rng, depth) for _ in range(count)]


def random_vector(
    family: PairFamily, rng: random.Random, terms: int = 3, depth: int = 12
) -> SparseVector:
    pairs = []
    for k in random_cosets(family, rng, terms, depth):
        pairs.append((k, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
    return SparseVector.merge(pairs)


def _covariance_samples(family: PairFamily, rng: random.Random, trials: int):
    samples = []
    small = family.sample_levels()
    for _ in range(trials):
        s = rng.choice(small)
        n = random_cosets(family, rng, 1)[0]
        samples.append((s, n, random_vector(family, rng)))
    return samples
