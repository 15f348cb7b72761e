"""Coefficient backends: exact rational complex numbers and float helpers.

Algebraic identities that are rational on paper stay rational here: group
algebra elements and locally constant functions default to `QC` coefficients
(a pair of `Fraction`s), so equality tests are exact.  The Hilbert-space
side (representations, dilation vectors) uses ordinary `complex`, because
isometries introduce square roots of indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, eq=False)
class QC:
    """A complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(x) -> "QC":
        if isinstance(x, QC):
            return x
        if isinstance(x, (int, Fraction)):
            return QC(Fraction(x), Fraction(0))
        raise TypeError(f"cannot build exact coefficient from {type(x).__name__}")

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QC.of(other)
        if isinstance(other, QC):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = QC.of(other)
        return QC(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QC(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QC.of(other))

    def __mul__(self, other):
        other = QC.of(other)
        return QC(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "QC":
        return QC(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QC({self.re}, {self.im})"


QC_ZERO = QC(Fraction(0), Fraction(0))
QC_ONE = QC(Fraction(1), Fraction(0))


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


def to_complex(c) -> complex:
    return complex(c)
