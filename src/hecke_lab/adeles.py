"""Residue towers, integer adeles, and the self-duality pairings.

For the rationals-over-integers family the compact subgroup at level n is
Z/nZ, and splitting n into prime powers identifies the limit over all n
with the product of the p-adic integer rings; the inverse identification
is the Chinese Remainder Theorem.  Scaling by denominators extends this to
the full completion (the finite adeles), one denominator at a time.

Pairings are stored as exact rationals modulo 1: the character value is
exp(2 pi i * value), but no complex number is ever formed, so equalities
like level-independence are literal.  ``pairing_rows`` computes a whole
table from one projection per element, all at one level, with integer
products; level independence makes each entry the pairwise value, and
``pairing`` is its 1x1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, LevelCapError, PrecisionError
from .pairs import (
    BostConnesFamily,
    MatrixFamily,
    PairFamily,
    _int_from_json,
    _is_int,
    _is_prime,
    json_field,
    json_list,
)
from .tower import ExactElement, TruncatedElement


def factor(n: int) -> dict:
    """Prime factorization as {p: exponent}."""
    if n < 1:
        raise ConfigError(f"cannot factor {n}")
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class PadicComponent:
    """A residue modulo p^l: one coordinate of an integer adele.

    p must be a prime, l an int at least 0 and r an int (bools are not
    ints here); anything else is a ConfigError, never a coercion."""

    p: int
    l: int
    r: int

    def __post_init__(self):
        for name in ("p", "l", "r"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(
                    f"an adele component's {name!r} must be an integer, got {getattr(self, name)!r}"
                )
        if not _is_prime(self.p):
            raise ConfigError(f"an adele component's 'p' must be a prime, got {self.p}")
        if self.l < 0:
            raise ConfigError(f"an adele component's 'l' must be at least 0, got {self.l}")
        object.__setattr__(self, "r", self.r % self.p**self.l)

    def lower(self, l: int) -> "PadicComponent":
        if l > self.l:
            raise PrecisionError(f"component only known mod {self.p}^{self.l}")
        return PadicComponent(self.p, l, self.r % self.p**l)


def crt_forward(x: TruncatedElement) -> list:
    """Split a level-n residue into its prime-power components."""
    if not isinstance(x.family, BostConnesFamily):
        raise ConfigError("residue splitting lives over the rationals family")
    if not x.in_K():
        raise ConfigError("residue splitting needs an integral representative")
    n = x.level
    r = int(x.coset)
    return [PadicComponent(p, l, r % p**l) for p, l in sorted(factor(n).items())]


def crt_inverse(components) -> int:
    """The unique residue modulo the product of the component moduli."""
    primes = [c.p for c in components]
    if len(set(primes)) != len(primes):
        raise ConfigError("components must have pairwise distinct primes")
    residue, modulus = 0, 1
    for c in components:
        q = c.p**c.l
        # Solve residue' = residue (mod modulus), = c.r (mod q).
        inv = pow(modulus % q, -1, q) if q > 1 else 0
        step = ((c.r - residue) * inv) % q
        residue += modulus * step
        modulus *= q
    return residue % modulus


def crt_modulus(components) -> int:
    out = 1
    for c in components:
        out *= c.p**c.l
    return out


@dataclass(frozen=True)
class AdeleTruncation:
    """A finite-precision adele: an integer adele scaled by 1/m.

    The components describe the integral element m*x; all coordinates not
    listed are understood to be integral (zero precision retained).
    """

    m: int
    components: tuple

    @staticmethod
    def build(m: int, components) -> "AdeleTruncation":
        if not _is_int(m) or m < 1:
            raise ConfigError(f"the scaling denominator must be a positive integer, got {m!r}")
        comps = tuple(components)
        if not all(isinstance(c, PadicComponent) for c in comps):
            raise ConfigError("adele components must be PadicComponent values")
        comps = tuple(sorted(comps, key=lambda c: c.p))
        primes = [c.p for c in comps]
        if len(set(primes)) != len(primes):
            raise ConfigError("components must have pairwise distinct primes")
        return AdeleTruncation(m, comps)

    def to_tower(self, family: BostConnesFamily) -> TruncatedElement:
        """Back to a residue-tower element: divide the CRT lift by m."""
        n0 = crt_modulus(self.components)
        if n0 % self.m != 0:
            raise PrecisionError(
                f"precision {n0} is not divisible by the denominator {self.m}"
            )
        z = crt_inverse(self.components)
        return TruncatedElement.make(family, n0 // self.m, Fraction(z, self.m))

    def to_json(self):
        return {
            "m": self.m,
            "components": [{"p": c.p, "l": c.l, "r": c.r} for c in self.components],
        }

    @staticmethod
    def from_json(data) -> "AdeleTruncation":
        def field(rec, name, what):
            return _int_from_json(json_field(rec, name, what), f"{what}'s {name!r}")

        comps = []
        for rec in json_list(json_field(data, "components", "an adele"), "an adele's 'components'"):
            p, l, r = (field(rec, name, "an adele component") for name in ("p", "l", "r"))
            comps.append(PadicComponent(p, l, r))
        return AdeleTruncation.build(field(data, "m", "an adele"), comps)


def mu_m(x: TruncatedElement, m: int) -> AdeleTruncation:
    """The denominator-m chart: scale into the compact subgroup and split."""
    fam = x.family
    if not isinstance(fam, BostConnesFamily):
        raise ConfigError("adele charts live over the rationals family")
    scaled = Fraction(m) * x.coset
    if scaled.denominator != 1:
        raise ConfigError(f"element is not in (1/{m}) times the compact subgroup")
    level = m * x.level
    comps = [
        PadicComponent(p, l, int(scaled) % p**l) for p, l in sorted(factor(level).items())
    ]
    return AdeleTruncation.build(m, comps)


def adele_equal(a: AdeleTruncation, b: AdeleTruncation, family: BostConnesFamily) -> bool:
    """Equality as completion elements: agreement at the common level."""
    xa = a.to_tower(family)
    xb = b.to_tower(family)
    common = math.gcd(xa.level, xb.level)
    return xa.project(common) == xb.project(common)


def pairing(x, y, at_level: int | None = None) -> Fraction:
    """The duality pairing: the exact rational t in [0,1) whose character
    value is exp(2 pi i t).

    Defined whenever a level divisible by both denominators is available;
    independent of the admissible level chosen.  This is the 1x1 table of
    ``pairing_rows``, which projects each argument once.
    """
    return pairing_rows([x], [y], at_level)[0][0]


def pairing_rows(xs, ys, at_level: int | None = None) -> list:
    """The table of pairings: one tuple per x, holding pairing(x, y) for
    every y, in order.

    Every element is projected once, all at one level n: the lcm of the
    identity-level denominators of all the elements, or at_level, which
    that lcm must divide.  Reduction modulo an integer keeps a rational's
    denominator, so the identity-level denominator is read from the
    stored representative.  With a/b and c/d the level-n representatives
    in lowest terms, the entry is (a*c mod b*d) / (b*d).  The pairing does
    not depend on the admissible level, so each entry equals the pairwise
    value, computed at the lcm of its own two denominators.  An element
    not known at level n raises LevelCapError.
    """
    xs = [_as_tower_element(x) for x in xs]
    ys = [_as_tower_element(y) for y in ys]
    stored = (x.coset if isinstance(x, TruncatedElement) else x.value for x in xs + ys)
    needed = math.lcm(*(v.denominator for v in stored))
    n = needed if at_level is None else at_level
    if n % needed != 0:
        raise ConfigError(f"level {n} is not divisible by the denominators' lcm {needed}")
    try:
        vxs = [(v.numerator, v.denominator) for v in (x.project(n) for x in xs)]
        vys = [(v.numerator, v.denominator) for v in (y.project(n) for y in ys)]
    except PrecisionError as exc:
        raise LevelCapError(f"no admissible level for the pairing: {exc}") from exc
    return [tuple(Fraction(a * c % (b * d), b * d) for c, d in vys) for a, b in vxs]


def _as_tower_element(x):
    if isinstance(x, (TruncatedElement, ExactElement)):
        return x
    if isinstance(x, AdeleTruncation):
        return x.to_tower(BostConnesFamily())
    raise ConfigError(f"cannot interpret {x!r} as a completion element")


def matrix_denominator_level(family: MatrixFamily, x):
    """Componentwise-least level clearing the denominators of x mod Z^d."""
    rep = family.canon(x.coset if isinstance(x, TruncatedElement) else x.value)
    return family.denominator_level(rep)


def matrix_pairing(family: MatrixFamily, x, y, at_level=None) -> Fraction:
    """Dot-product pairing between the tower of (F, M) and the tower of the
    transposes, constant once the level clears both denominators."""
    tx = matrix_denominator_level(family, x)
    ty = matrix_denominator_level(family.transpose_family(), y)
    needed = (max(tx[0], ty[0]), max(tx[1], ty[1]))
    level = needed if at_level is None else at_level
    if not (level[0] >= needed[0] and level[1] >= needed[1]):
        raise ConfigError(f"level {level} does not clear the denominators {needed}")
    try:
        vx = x.project(level)
        vy = y.project(level)
    except PrecisionError as exc:
        raise LevelCapError(f"no admissible level for the pairing: {exc}") from exc
    return sum((a * b for a, b in zip(vx, vy)), Fraction(0)) % 1
