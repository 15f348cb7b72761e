"""Coefficient backends: exact rational complex numbers and float helpers.

Algebraic identities that are rational on paper stay rational here: group
algebra elements and locally constant functions default to `QC`
coefficients, so equality tests are exact.  A `QC` is coded as three
plain ints (a, b, d) standing for (a + b*i)/d, with d > 0 and
gcd(a, b, d) == 1.  That form is unique, so equality and hashing compare
ints, and every operation is a few integer products normalised by one
``math.gcd``.  The Hilbert-space side (representations, dilation vectors)
uses ordinary `complex`, because isometries introduce square roots of
indices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_new = object.__new__


class QC:
    """An exact complex rational (a + b*i)/d.

    Invariant: a, b and d are ints, d > 0 and gcd(a, b, d) == 1, so zero
    is (0, 0, 1) and equal numbers have equal fields.  Instances are
    immutable by convention.  ``QC(re, im)`` takes ints or Fractions;
    ``re`` and ``im`` are computed, exact Fractions, because callers (JSON
    output, the benchmark's checks) need the parts as Fractions while the
    arithmetic needs one common denominator.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        if p is None or r is None:
            raise TypeError(
                f"cannot build exact coefficient from {type(re).__name__}, {type(im).__name__}"
            )
        z = _norm(p * s, r * q, q * s)
        self.a, self.b, self.d = z.a, z.b, z.d

    @staticmethod
    def of(x) -> "QC":
        if type(x) is QC:
            return x
        p, q = _ratio(x)
        if p is None:
            raise TypeError(f"cannot build exact coefficient from {type(x).__name__}")
        return _qc(p, 0, q)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __eq__(self, other):
        if type(other) is QC:
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):
        # A real QC equals the int or Fraction of its value, so it must
        # hash like it.
        if not self.b:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __add__(self, other):
        a, b, d = self.a, self.b, self.d
        if type(other) is QC:
            e = other.d
            return _norm(a * e + other.a * d, b * e + other.b * d, d * e)
        p, q = _ratio(other)
        if p is None:
            return NotImplemented
        return _norm(a * q + p * d, b * q, d * q)

    __radd__ = __add__

    def __neg__(self):
        return _qc(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-QC.of(other))

    def __mul__(self, other):
        a, b, d = self.a, self.b, self.d
        if type(other) is QC:
            x, y = other.a, other.b
            return _norm(a * x - b * y, a * y + b * x, d * other.d)
        p, q = _ratio(other)
        if p is None:
            return NotImplemented
        return _norm(a * p, b * p, d * q)

    __rmul__ = __mul__

    def inverse(self) -> "QC":
        """1/z = d*(a - b*i)/(a^2 + b^2); raises ZeroDivisionError at zero."""
        a, b, d = self.a, self.b, self.d
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("QC zero has no inverse")
        return _norm(d * a, -d * b, norm)

    def conjugate(self) -> "QC":
        return _qc(self.a, -self.b, self.d)

    def __bool__(self):
        return bool(self.a or self.b)

    def __complex__(self):
        # int / int is correctly rounded, so this equals
        # complex(float(self.re), float(self.im)) bit for bit.
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"QC({self.re}, {self.im})"


def _qc(a: int, b: int, d: int) -> QC:
    """A QC from fields already in canonical form, skipping ``__init__``."""
    z = _new(QC)
    z.a = a
    z.b = b
    z.d = d
    return z


def _norm(a: int, b: int, d: int) -> QC:
    """A QC from any fields with d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    return _qc(a // g, b // g, d // g)


def _ratio(x):
    """(numerator, denominator) of an int or a Fraction, else (None, None)."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    return None, None


QC_ZERO = _qc(0, 0, 1)
QC_ONE = _qc(1, 0, 1)


def coerce(c, exact: bool):
    """Normalize a scalar into the chosen backend."""
    if exact:
        return QC.of(c)
    return complex(c)


def scale(c, q: Fraction):
    """Multiply a coefficient by an exact rational, staying in its backend."""
    if isinstance(c, QC):
        return c * q
    return c * float(q)


def is_zero(c) -> bool:
    """Exact-zero test; float backends drop only literal zeros."""
    if isinstance(c, QC):
        return not c
    return c == 0
