"""Exact rational complex coefficients.

Algebraic identities that are rational on paper stay rational here: group
algebra elements and locally constant functions carry `QC` coefficients,
so equality tests are exact.  A `QC` is coded as three plain ints
(a, b, d) standing for (a + b*i)/d, with d > 0 and gcd(a, b, d) == 1.
That form is unique, so equality and hashing compare ints, and every
operation is a few integer products normalised by one ``math.gcd``.  A
long sum of products skips the per-term gcd: ``qc_numerators`` writes each
factor's values over one common denominator, the caller adds integer
numerators, and ``qc_from_ints`` normalises the total once.  ``accumulate``
is the keyed merge that sums of ``QC`` values and of ``complex`` vectors
share.  The Hilbert-space side (representations, dilation vectors) uses
ordinary `complex`, because isometries introduce square roots of indices.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

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
        z = qc_from_ints(p * s, r * q, q * s)
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
            return qc_from_ints(a * e + other.a * d, b * e + other.b * d, d * e)
        p, q = _ratio(other)
        if p is None:
            return NotImplemented
        return qc_from_ints(a * q + p * d, b * q, d * q)

    __radd__ = __add__

    def __neg__(self):
        return _qc(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-QC.of(other))

    def __mul__(self, other):
        a, b, d = self.a, self.b, self.d
        if type(other) is QC:
            x, y = other.a, other.b
            return qc_from_ints(a * x - b * y, a * y + b * x, d * other.d)
        p, q = _ratio(other)
        if p is None:
            return NotImplemented
        return qc_from_ints(a * p, b * p, d * q)

    __rmul__ = __mul__

    def inverse(self) -> "QC":
        """1/z = d*(a - b*i)/(a^2 + b^2); raises ZeroDivisionError at zero."""
        a, b, d = self.a, self.b, self.d
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("QC zero has no inverse")
        return qc_from_ints(d * a, -d * b, norm)

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


def qc_from_ints(a: int, b: int, d: int) -> QC:
    """The QC (a + b*i)/d from any ints with d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    return _qc(a // g, b // g, d // g)


def qc_numerators(values):
    """(D, [(a, b), ...]): each QC of ``values``, in order, as (a + b*i)/D
    over D, the least common denominator of them all (1 when there are
    none).  Products of two such lists then need no gcd until the end."""
    values = list(values)
    den = lcm(*(z.d for z in values))
    return den, [(z.a * (den // z.d), z.b * (den // z.d)) for z in values]


def accumulate(out: dict, pairs) -> dict:
    """Add each (key, value) into ``out`` in order and return ``out``.

    A key whose sum is zero is dropped; a dropped key that comes back
    starts again from its value, at the end of the key order.  Values are
    stored as given, with no conversion, so this serves exact ``QC`` sums
    and ``complex`` vectors alike: the caller converts at its boundary.

    One ``setdefault`` per pair looks the key up and inserts a new one, so
    a new key is hashed once.  Whether the key was new is read off the
    dict's size, not off ``prev is c``: the same object can be added twice
    under one key (``v + v``).
    """
    setdefault = out.setdefault
    for k, c in pairs:
        size = len(out)
        prev = setdefault(k, c)
        if len(out) == size:
            c = prev + c
            if c:
                out[k] = c
            else:
                del out[k]
        elif not c:
            del out[k]
    return out


def _ratio(x):
    """(numerator, denominator) of an int or a Fraction, else (None, None)."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    return None, None


QC_ZERO = _qc(0, 0, 1)
QC_ONE = _qc(1, 0, 1)

