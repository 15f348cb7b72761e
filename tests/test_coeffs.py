"""Exact coefficients: the integer-coded QC against a pair-of-Fractions oracle.

The oracle keeps a complex rational as (re, im), two Fractions, and does its
arithmetic with Fraction operators only; it never touches QC's fields.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hecke_lab.autodil import LocFun
from hecke_lab.coeffs import (
    QC,
    QC_ONE,
    QC_ZERO,
    accumulate,
    accumulate_codes,
    code_complex,
    code_from_ints,
    code_mul,
    code_numerators,
    code_scale,
    qc_code,
    qc_decode,
)
from hecke_lab.pairs import BostConnesFamily, frac_to_str


# --- oracle --------------------------------------------------------------------


def o_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def o_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def o_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def o_inv(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def parts(q):
    """The oracle pair of a QC, read through its public Fraction parts."""
    return (q.re, q.im)


# --- strategies ----------------------------------------------------------------

# Numerators and denominators of both signs, zero numerators included, with
# an occasional large value so that float conversion has to round.
_ints = st.one_of(st.integers(-60, 60), st.integers(-10**30, 10**30))
_dens = st.one_of(st.integers(-40, 40), st.integers(-10**20, 10**20)).filter(bool)
rationals = st.one_of(st.builds(Fraction, _ints, _dens), st.integers(-60, 60))


@st.composite
def pairs(draw):
    """An oracle pair and the QC built from it."""
    re, im = draw(rationals), draw(rationals)
    return (Fraction(re), Fraction(im)), QC(re, im)


def canonical(q):
    return type(q.a) is int and type(q.b) is int and type(q.d) is int \
        and q.d > 0 and math.gcd(q.a, q.b, q.d) == 1


# --- properties ----------------------------------------------------------------


@given(pairs(), pairs())
@settings(max_examples=200, derandomize=True)
def test_arithmetic_matches_oracle(xp, yp):
    (x, qx), (y, qy) = xp, yp
    for got, want in (
        (qx + qy, o_add(x, y)),
        (qx - qy, o_sub(x, y)),
        (qx * qy, o_mul(x, y)),
        (-qx, o_sub((Fraction(0), Fraction(0)), x)),
        (qx.conjugate(), (x[0], -x[1])),
    ):
        assert canonical(got)
        assert parts(got) == want
    if any(x):
        inv = qx.inverse()
        assert canonical(inv)
        assert parts(inv) == o_inv(x)
        assert qx * inv == QC_ONE
    else:
        with pytest.raises(ZeroDivisionError):
            qx.inverse()


@given(pairs(), rationals)
@settings(max_examples=200, derandomize=True)
def test_mixed_arithmetic_with_ints_and_fractions(xp, r):
    x, qx = xp
    rr = (Fraction(r), Fraction(0))
    for got, want in (
        (qx + r, o_add(x, rr)),
        (r + qx, o_add(rr, x)),
        (qx - r, o_sub(x, rr)),
        (qx * r, o_mul(x, rr)),
        (r * qx, o_mul(rr, x)),
    ):
        assert type(got) is QC and canonical(got)
        assert parts(got) == want


@given(pairs(), pairs(), rationals)
@settings(max_examples=200, derandomize=True)
def test_equality_and_truth_match_oracle(xp, yp, r):
    (x, qx), (y, qy) = xp, yp
    assert (qx == qy) == (x == y)
    assert (qx != qy) == (x != y)
    real = x[1] == 0 and x[0] == r
    assert (qx == r) == real and (r == qx) == real
    assert (qx != r) == (not real)
    assert bool(qx) == any(x)
    assert (qx == QC_ZERO) == (not any(x))
    assert qx != complex(1, 1) and qx != "1"


@given(pairs(), pairs())
@settings(max_examples=200, derandomize=True)
def test_form_is_canonical_and_equal_values_have_equal_fields(xp, yp):
    (x, qx), (y, qy) = xp, yp
    assert canonical(qx)
    # One value reached along different routes has the same three fields.
    routes = [qx, (qx + qy) - qy, qy + (qx - qy), QC(*x), QC.of(x[0]) + QC(0, x[1])]
    if any(y):
        routes.append((qx * qy) * qy.inverse())
    for q in routes:
        assert canonical(q)
        assert (q.a, q.b, q.d) == (qx.a, qx.b, qx.d)
        assert hash(q) == hash(qx)
    if x == y:
        assert (qx.a, qx.b, qx.d) == (qy.a, qy.b, qy.d)


@given(pairs())
@settings(max_examples=200, derandomize=True)
def test_parts_are_exact_fractions(xp):
    x, qx = xp
    assert type(qx.re) is Fraction and type(qx.im) is Fraction
    assert (qx.re, qx.im) == x
    assert QC(qx.re, qx.im) == qx


@given(pairs())
@settings(max_examples=200, derandomize=True)
def test_complex_matches_float_parts_bit_for_bit(xp):
    x, qx = xp
    got, want = complex(qx), complex(float(x[0]), float(x[1]))
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


@given(st.lists(st.tuples(st.integers(0, 11), pairs()), min_size=1, max_size=8))
@settings(max_examples=100, derandomize=True)
def test_json_round_trip_through_locfun(entries):
    bc = BostConnesFamily()
    level = 6
    f = LocFun.build(bc, level, [(Fraction(k, 2), q) for k, (_, q) in entries])
    data = json.loads(json.dumps(f.to_json()))
    for rec in data["values"]:
        c = f.values[bc.n_from_json(rec["coset"])]
        assert (rec["re"], rec["im"]) == (frac_to_str(c.re), frac_to_str(c.im))
    back = LocFun.from_json(bc, data)
    assert back == f
    assert [(k, (c.a, c.b, c.d)) for k, c in back.values.items()] == \
        [(k, (c.a, c.b, c.d)) for k, c in sorted(f.values.items())]


# --- value codes -----------------------------------------------------------------


def _fields(q):
    return (q.a, q.b, q.d)


@given(pairs(), pairs(), st.integers(-30, 30), st.integers(1, 30))
@settings(max_examples=200, derandomize=True)
def test_value_code_kernels_match_qc_arithmetic(xp, yp, p, q):
    """A value code is the fields of its QC, and each kernel gives the
    fields of the QC operation it replaces."""
    (_, qx), (_, qy) = xp, yp
    x, y = qc_code(qx), qc_code(qy)
    assert x == _fields(qx) and qc_decode(x) == qx and type(qc_decode(x)) is QC
    assert code_mul(x, y) == _fields(qx * qy)
    assert code_scale(x, p, q) == _fields(qx * Fraction(p, q))
    assert code_from_ints(*x) == x
    got, want = code_complex(x), complex(qx)
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    den, nums = code_numerators([x, y])
    assert [QC(Fraction(a, den), Fraction(b, den)) for a, b in nums] == [qx, qy]
    assert den == math.lcm(qx.d, qy.d) and code_numerators([]) == (1, [])


def test_qc_code_takes_ints_fractions_and_qc_only():
    assert qc_code(3) == (3, 0, 1) and qc_code(Fraction(-4, 6)) == (-2, 0, 3)
    assert qc_code(QC(Fraction(1, 2), Fraction(1, 3))) == (3, 2, 6)
    for bad in (0.5, "1", complex(1, 0), None, (1, 0, 1)):
        with pytest.raises(TypeError):
            qc_code(bad)


@given(st.lists(st.tuples(st.integers(0, 4), pairs()), max_size=12), st.data())
@settings(max_examples=100, derandomize=True)
def test_accumulate_codes_keeps_the_merge_of_accumulate(entries, data):
    """Sums, dropped zeros and the key order of a key that comes back are
    those of ``accumulate`` over QC values; cancelling pairs are drawn in."""
    pairs_ = [(k, q) for k, (_, q) in entries]
    for k, q in list(pairs_):
        if data.draw(st.booleans()):
            pairs_.append((k, -q))
    want = accumulate({}, pairs_)
    got = accumulate_codes({}, [(k, qc_code(q)) for k, q in pairs_])
    assert list(got) == list(want)
    assert list(got.values()) == [_fields(q) for q in want.values()]


# --- the hash/eq contract ----------------------------------------------------------


@pytest.mark.parametrize("value", [0, 1, -7, Fraction(1, 2), Fraction(-5, 3)])
def test_real_qc_hashes_like_the_number_it_equals(value):
    q = QC.of(value)
    assert q == value and value == q
    assert hash(q) == hash(value)
    assert len({q, value}) == 1
    assert {value: "x"}[q] == "x"


def test_constructor_and_of_take_ints_and_fractions_only():
    assert QC(1, Fraction(1, 2)) == QC(Fraction(2, 2), Fraction(-1, -2))
    assert QC() == QC_ZERO and QC(True) == QC_ONE
    for bad in (0.5, "1", complex(1, 0), None):
        with pytest.raises(TypeError):
            QC(bad, 0)
        with pytest.raises(TypeError):
            QC(0, bad)
        with pytest.raises(TypeError):
            QC.of(bad)
    assert QC.of(QC_ONE) is QC_ONE
    assert repr(QC(Fraction(1, 2), -3)) == "QC(1/2, -3)"
