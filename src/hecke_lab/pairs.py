"""Concrete Hecke-pair families (N, M, S, G, psi) with exact arithmetic.

Three families ship:

* ``bost-connes``: S = positive integers under multiplication, G = positive
  rationals, N = Q, psi_g(r) = r/g, M = Z.
* ``padic(p)``: S = naturals under addition, G = Z, N = Z[1/p],
  psi_n(r) = r/p^n, M = Z.
* ``matrix(F, M)``: S = N^2, G = Z^2, N = union of F^-m M^-n Z^d inside Q^d,
  psi_(m,n) = F^-m M^-n, subgroup Z^d.

Every operation is pure; elements are plain hashable Python values
(Fractions, ints, tuples), canonicalized before they are used as keys.
S carries the right-invariant direction s <= t iff t is an S-multiple of s,
which is a lattice order for all three families, so Ore pairs are computed
from deterministic least upper bounds.

Coset translation runs on integers.  Keys are Fractions (tuples of them
for ``matrix``) at the API, but the kernels below write their inputs as
integer numerators over one denominator and compute integer codes,
instead of adding and reducing Fractions per coset.  ``matrix`` handles a
whole batch of keys in column layout, one list of numerators per
coordinate, reduced together by ``lattice.hnf_reduce_columns``; where it
builds keys it reads each coordinate from a per-family table of Fractions
for its denominator, so a repeated coordinate is built once and is the
same object wherever it recurs.

* ``solve_coset(s, n, a)`` for the scalar families, with n = p/q canonical
  at level a: the solutions are (p + k*q*index(a)) / (q*index(s)) for k in
  range(index(s)).  Each lies in [0, index(a)), so it is canonical at
  level a as it stands: no modular reduction is needed.
* ``solve_coset(s, n, a)`` for ``matrix``, with n = v/q and D = index(s):
  the numerators over L = q*D of the solutions are adj(A_s)(v + q*A_a m)
  for m in the level-s transversal, where A_s = F^s0 M^s1 and
  adj(A_s) = D*A_s^-1.  They are reduced together, column by column, by
  the integer HNF of A_a scaled by L, which at the identity level is a
  mod L per coordinate.
* Cell codes, the storage of ``autodil.LocFun``: at a level a and over a
  denominator L, a key x canonical at level a is one int, x*L for the
  scalar families, and for ``matrix`` the numerators x*L packed in mixed
  radix by the diagonal of A_a's HNF scaled by L.  ``cell_codes`` codes
  canon(k, a) for any keys over their least common denominator, and
  ``cell_keys`` decodes.  The kernels map codes to codes, with no key
  built: ``cell_rescale`` (to a multiple of L), ``sum_codes`` (canon(x + y)
  for every pair of two batches, for ``convolve`` and the corner
  closed form), ``cell_refine`` (the level-t cells below each level-s
  cell), ``cell_solve`` (``solve_coset`` for a batch, over L*index(s):
  range(c, L*index(s), L) at the identity level of the scalar families),
  ``cell_psi_inv`` (canon(psi_s^-1(x)) at the identity or at a*s) and
  ``cell_neg`` (canon(-x, a)).
* ``encode(keys)`` gives each N/M key one carrier code that does not
  depend on the batch: (p, q), the key p/q in lowest terms, for the scalar
  families, and (n_1, ..., n_d, L) with L the least common denominator
  for ``matrix``; ``decode`` turns codes back into keys.
  ``repspace.SparseVector`` keeps the regular pair's vectors under these
  codes, and ``code_add``, ``code_solve`` and ``code_psi_inv`` (Y_n, V_s
  and V_s^*) map codes to codes with no Fraction built or hashed.  The
  solutions of p/q are (p + k*q, q*index(s)); ``matrix`` solves with the
  ``_solve_shifts`` columns mod q*index(s), translates and applies A_s
  mod each key's L.  Each output is put in lowest terms by one gcd.

``psi_reps`` with ``n_add`` and ``canon``, and ``psi_s_inv`` with
``canon``, are the Fraction routes that the tests compare these against.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul

from .errors import ConfigError, LevelCapError
from .lattice import (
    hermite_normal_form,
    hnf_box_count,
    hnf_reduce,
    hnf_reduce_columns,
    in_hnf_box,
    int_det,
    iter_hnf_box,
    mat_inv,
    mat_mul,
    mat_pow,
    mat_vec,
)

ENV_LEVEL_CAP = "HECKE_LAB_LEVEL_CAP"

# Enumeration refuses to materialize quotients larger than this.
ENUMERATION_CAP = 2_000_000


def _env_cap():
    raw = os.environ.get(ENV_LEVEL_CAP)
    if raw is None:
        return None
    try:
        parts = [int(x) for x in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {ENV_LEVEL_CAP}={raw!r}") from exc
    if any(x < 1 for x in parts):
        raise ConfigError(f"{ENV_LEVEL_CAP} must be positive, got {raw!r}")
    return parts


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class PairFamily:
    """Shared surface of the shipped families.

    Subclasses fix the element domains and implement the primitive
    arithmetic; everything downstream (towers, algebras, dilations) only
    goes through this interface.
    """

    tag: str

    @functools.cached_property
    def _value_key(self):
        """``to_config()`` as a string, computed once: families compare and
        hash by value, and ``TruncatedElement`` hashes and compares them."""
        return json.dumps(self.to_config(), sort_keys=True)

    def __eq__(self, other):
        if not isinstance(other, PairFamily):
            return NotImplemented
        return self is other or self._value_key == other._value_key

    def __hash__(self):
        return hash(self._value_key)

    # -- S as a directed monoid -------------------------------------------

    @property
    def s_identity(self):
        raise NotImplementedError

    def s_mul(self, s, t):
        raise NotImplementedError

    def s_divide(self, t, s):
        """Return r with t = r * s, or None when s does not divide t."""
        raise NotImplementedError

    def s_join(self, s, t):
        raise NotImplementedError

    def s_meet(self, s, t):
        """The greatest common S-divisor m of s and t.  Its level subgroup is
        the sum of theirs (s_join's is the intersection), so
        index(s) * index(t) = index(m) * index(s_join(s, t))."""
        raise NotImplementedError

    def ore_pair(self, s, t):
        """Deterministic (u, v) with u*s = v*t, via the least upper bound."""
        j = self.s_join(s, t)
        u = self.s_divide(j, s)
        v = self.s_divide(j, t)
        if u is None or v is None:
            raise ConfigError(f"join {j!r} is not a common multiple of {s!r}, {t!r}")
        return u, v

    def validate_s(self, s):
        raise NotImplementedError

    # -- G as the enveloping group ----------------------------------------

    @property
    def g_identity(self):
        raise NotImplementedError

    def g_from_s(self, s):
        raise NotImplementedError

    def g_mul(self, g, h):
        raise NotImplementedError

    def g_inv(self, g):
        raise NotImplementedError

    def g_reduce(self, g):
        """Write g = s^-1 t with s, t in S sharing no common S-factor."""
        raise NotImplementedError

    # -- N and the action --------------------------------------------------

    @property
    def n_identity(self):
        raise NotImplementedError

    def n_add(self, a, b):
        raise NotImplementedError

    def n_neg(self, a):
        raise NotImplementedError

    def psi(self, g, n):
        raise NotImplementedError

    def psi_s(self, s, n):
        return self.psi(self.g_from_s(s), n)

    def psi_s_inv(self, s, n):
        return self.psi(self.g_inv(self.g_from_s(s)), n)

    def in_M(self, n) -> bool:
        raise NotImplementedError

    def in_level_subgroup(self, n, s) -> bool:
        """Membership in psi_s^-1(M)."""
        return self.in_M(self.psi_s(s, n))

    # -- quotients ----------------------------------------------------------

    def canon(self, n, s=None):
        """Canonical representative of n modulo psi_s^-1(M); s=None means M.

        Canonical input that already has the output's types (a Fraction, or
        a tuple of Fractions for ``matrix``) is returned unchanged, the same
        object, after integer comparisons only; every other input is reduced.
        """
        raise NotImplementedError

    def index(self, s) -> int:
        """The subgroup index of psi_s^-1(M) in M."""
        raise NotImplementedError

    def iter_coset_reps(self, s):
        """Stream the canonical representatives of M / psi_s^-1(M)."""
        raise NotImplementedError

    def _enumerable_index(self, s) -> int:
        """index(s), or LevelCapError when that many cosets may not be listed."""
        count = self.index(s)
        if count > ENUMERATION_CAP:
            raise LevelCapError(
                f"{self.tag}: quotient of size {count} exceeds the enumeration cap"
            )
        return count

    def coset_reps(self, s):
        self._enumerable_index(s)
        return list(self.iter_coset_reps(s))

    def psi_reps(self, s):
        """Cached images psi_s(m) of the level-s transversal.

        The reference route: the Fraction translates n_add(psi_s(n), pm),
        reduced by ``canon``, are what ``solve_coset`` computes in integers,
        and the tests compare the two."""
        cache = getattr(self, "_psi_reps_cache", None)
        if cache is None:
            cache = {}
            self._psi_reps_cache = cache
        out = cache.get(s)
        if out is None:
            self._enumerable_index(s)
            out = tuple(self.psi_s(s, m) for m in self.iter_coset_reps(s))
            cache[s] = out
        return out

    def solve_coset(self, s, n, level=None):
        """The level-a cosets m with psi_s^-1(m) = n modulo psi_a^-1(M), as
        canonical level-a reps in transversal order; level=None is a = the
        identity, cosets modulo M.

        The action is additive, so the solutions are the translates of
        psi_s(n) by psi_a^-1(psi_s(m)) for m in the level-s transversal, and
        distinct transversal classes give distinct solutions.  Since
        psi_s^-1 maps the level-a subgroup into itself, n that are distinct
        at level a have disjoint solution sets.

        In integers, with n = p/q canonical at level a: the scalar families'
        solutions are (p + k*q*index(a)) / (q*index(s)) for k in
        range(index(s)), already in [0, index(a)) and so canonical without
        reduction.  For ``matrix``, with n = v/q, the solutions' numerators
        over L = q*index(s) are adj(A_s)(v + q*A_a m).  They are built as
        one batch in column layout, coordinate i of every solution in one
        list, and reduced together by the HNF of A_a scaled by L, which at
        the identity level is a mod L per coordinate.

        The Fraction route through ``psi_reps`` is the reference the tests
        compare against.
        """
        count = self._enumerable_index(s)
        return self._solve(s, self.canon(n, level), level, count)

    def _solve(self, s, n, level, count):
        """``solve_coset`` for n already canonical at level; count = index(s)."""
        raise NotImplementedError

    # -- cell codes: level-a keys as ints over one denominator ---------------
    #
    # A level (None: the identity) and a denominator L fix the code of every
    # key canonical at that level: one int, x*L for the scalar families, and
    # for ``matrix`` the numerators x*L packed in mixed radix by the level's
    # HNF diagonal scaled by L.  Inputs must be canonical at their level.

    def cell_codes(self, keys, level=None):
        """(L, codes): the cell codes of canon(k, level) for the keys, in
        order, over L, the least common denominator of the keys."""
        raise NotImplementedError

    def cell_keys(self, level, den, codes):
        """The keys of cell codes over den, in order: Fractions, tuples of
        them for ``matrix``."""
        raise NotImplementedError

    def cell_rescale(self, level, den, codes, new):
        """The same keys' codes over new, a multiple of den."""
        raise NotImplementedError

    def sum_codes(self, x, y, level=None):
        """(L, codes): the codes of canon(a + b, level) for every pair, a of
        x outer and b of y inner, over L, the lcm of their denominators;
        codes may be read once.  x and y are (level, den, codes) batches at
        levels whose subgroups lie in the output level's.  Equal codes are
        equal keys, so a sum over the pairs can be grouped by code, with no
        key built."""
        raise NotImplementedError

    def cell_refine(self, s, den, codes, t):
        """The level-t cells below each level-s cell, cells outer and, inner,
        the translates by psi_s^-1 of the level-(t/s) transversal; same den."""
        raise NotImplementedError

    def cell_solve(self, s, level, den, codes):
        """(den * index(s), blocks): for each key n, the block of codes of
        ``solve_coset(s, n, level)``, in transversal order."""
        raise NotImplementedError

    def cell_psi_inv(self, s, level, den, codes, out=None):
        """The codes of canon(psi_s_inv(s, k), out), same den; out is the
        identity or a level whose subgroup contains psi_s^-1 of level's."""
        raise NotImplementedError

    def cell_neg(self, level, den, codes):
        """The codes of canon(-k, level), same den."""
        raise NotImplementedError

    # -- carrier codes: N/M keys as tuples of ints ----------------------------

    def encode(self, keys):
        """The carrier code of each key, in order: (p, q) for the key p/q in
        lowest terms in the scalar families, and (n_1, ..., n_d, L) for the
        key (n_1/L, ..., n_d/L) of ``matrix``, L the least common
        denominator.  Unlike ``sum_codes``'s, a code does not depend on the
        batch: equal keys have equal codes, int-typed coordinates
        included, and only equal keys do.  No Fraction is built."""
        raise NotImplementedError

    def decode(self, codes):
        """The keys of carrier codes, in order: Fractions, tuples of them
        for ``matrix``."""
        raise NotImplementedError

    def code_add(self, n, codes):
        """The codes of canon(k + n), for the keys k of codes, in order:
        the regular pair's Y_n."""
        raise NotImplementedError

    def code_solve(self, s, codes):
        """The codes of ``solve_coset(s, k)`` for the keys k of codes, one
        block of index(s) codes per key, in transversal order: the regular
        pair's V_s.  s is checked once."""
        raise NotImplementedError

    def code_psi_inv(self, s, codes):
        """The codes of canon(psi_s_inv(s, k)), for the keys k of codes, in
        order: the regular pair's V_s^*."""
        raise NotImplementedError

    # -- caps ----------------------------------------------------------------

    def require_level(self, s):
        """Raise LevelCapError when s exceeds the configured cap."""
        raise NotImplementedError

    def separating_level(self, n):
        """Some s with n outside psi_s^-1(M), witnessing trivial intersection."""
        raise NotImplementedError

    # -- sampling for randomised checks ---------------------------------------

    def random_coset(self, rng, depth: int):
        """A canonical N/M coset reachable at a small level, drawn from rng;
        ``depth`` bounds the denominators where the family has a use for it."""
        raise NotImplementedError

    def sample_levels(self):
        """A few small levels for randomised self-checks."""
        raise NotImplementedError

    def small_levels(self, depth: int):
        """The levels the ``verify`` checks range over at a given depth."""
        raise NotImplementedError

    def random_M(self, rng):
        """An element of M, drawn from rng with small coordinates."""
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError

    # -- element serialization ------------------------------------------------

    def n_to_json(self, n):
        raise NotImplementedError

    def n_from_json(self, data):
        raise NotImplementedError

    def s_to_json(self, s):
        raise NotImplementedError

    def s_from_json(self, data):
        raise NotImplementedError

    def g_to_json(self, g):
        raise NotImplementedError

    def g_from_json(self, data):
        raise NotImplementedError


def frac_to_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def frac_from_json(data) -> Fraction:
    if isinstance(data, str):
        num, _, den = data.partition("/")
        try:
            return Fraction(int(num), int(den) if den else 1)
        except (ValueError, ZeroDivisionError):
            pass
    elif _is_int(data):
        return Fraction(data)
    raise ConfigError(f"cannot parse rational from {data!r}")


def json_field(data, name: str, what: str):
    """data[name] for a JSON object data; a missing field, or data that is
    not an object, is a ConfigError naming the field."""
    if not isinstance(data, dict) or name not in data:
        raise ConfigError(f"{what} needs a {name!r} field, got {data!r}")
    return data[name]


def json_list(data, what: str) -> list:
    if not isinstance(data, list):
        raise ConfigError(f"{what} must be a list, got {data!r}")
    return data


def _int_from_json(data, what: str) -> int:
    """An int read from JSON; anything else (a float, a bool, a string) is
    a ConfigError rather than a silent int() coercion."""
    if not _is_int(data):
        raise ConfigError(f"{what} must be an integer, got {data!r}")
    return data


class _RationalFamily(PairFamily):
    """The families with N inside Q and M = Z, whose level-s subgroup is
    index(s)*Z: their shared group law and serialization, and the integer
    coding of ``solve_coset`` and of the cell and carrier codes.
    ``canon`` stays per family, because it is hot and ``index`` validates
    its argument.  Subclasses alias ``n_add`` and ``iter_coset_reps`` into
    their own namespace, where per-family instrumentation
    (bench/tracing.py) wraps them."""

    n_identity = property(lambda self: Fraction(0))

    def n_add(self, a, b):
        return a + b

    def n_neg(self, a):
        return -a

    def in_M(self, n) -> bool:
        return n.denominator == 1

    def iter_coset_reps(self, s):
        for k in range(self.index(s)):
            yield Fraction(k)

    def n_to_json(self, n):
        return frac_to_str(n)

    def n_from_json(self, data):
        return frac_from_json(data)

    def s_to_json(self, s):
        return s

    def _modulus(self, level):
        return 1 if level is None else self.index(level)

    def _solve(self, s, n, level, count):
        # n = p/q lies in [0, index(a)), so (p + k*q*index(a)) / (q*index(s))
        # does too for k < index(s): canonical without reduction.
        p, q = n.numerator, n.denominator
        step, den = q * self._modulus(level), q * count
        return [Fraction(p + k * step, den) for k in range(count)]

    def cell_codes(self, keys, level=None):
        keys = list(keys)
        den = math.lcm(*(k.denominator for k in keys))
        wrap = self._modulus(level) * den
        return den, [k.numerator * (den // k.denominator) % wrap for k in keys]

    def cell_keys(self, level, den, codes):
        return [Fraction(c, den) for c in codes]

    def cell_rescale(self, level, den, codes, new):
        k = new // den
        return [c * k for c in codes]

    def sum_codes(self, x, y, level=None):
        (_, xden, xs), (_, yden, ys) = x, y
        den = math.lcm(xden, yden)
        wrap, kx, ky = self._modulus(level) * den, den // xden, den // yden
        ys = [b * ky for b in ys]
        return den, [(a + b) % wrap for a in (a * kx for a in xs) for b in ys]

    def cell_refine(self, s, den, codes, t):
        # The level-t subgroup is index(t)*Z inside index(s)*Z: a code c in
        # [0, index(s)*L) splits into c + j*index(s)*L, already in
        # [0, index(t)*L).
        step, top = self.index(s) * den, self.index(t) * den
        return [m for c in codes for m in range(c, top, step)]

    def cell_solve(self, s, level, den, codes):
        # _solve over the new den = den*index(s): n = c/den gives the
        # numerators c + k*den*index(a), k < index(s), canonical as they are.
        count = self._enumerable_index(s)
        step = self._modulus(level) * den
        return den * count, [range(c, step * count, step) for c in codes]

    def cell_psi_inv(self, s, level, den, codes, out=None):
        scale, wrap = self.index(s), self._modulus(out) * den
        return [c * scale % wrap for c in codes]

    def cell_neg(self, level, den, codes):
        wrap = self._modulus(level) * den
        return [-c % wrap for c in codes]

    def encode(self, keys):
        return [(k.numerator, k.denominator) for k in keys]

    def decode(self, codes):
        return [Fraction(p, q) for p, q in codes]

    def code_add(self, n, codes):
        # p/q + a/b = (p*b + a*q) / (q*b), mod 1, then one gcd.
        a, b = n.numerator, n.denominator
        return [
            (r // g, den // g)
            for p, q in codes
            for den in (q * b,)
            for r in ((p * b + a * q) % den,)
            for g in (math.gcd(r, den),)
        ]

    def code_solve(self, s, codes):
        # The solutions of p/q are (p + k*q) / (q*index(s)), k < index(s),
        # as in _solve at the identity level; p % q makes p/q canonical.
        count = self._enumerable_index(s)
        return [
            (m // g, den // g)
            for p, q in codes
            for den in (q * count,)
            for m in range(p % q, den, q)
            for g in (math.gcd(m, den),)
        ]

    def code_psi_inv(self, s, codes):
        scale = self.index(s)
        return [
            (r // g, q // g)
            for p, q in codes
            for r in (p * scale % q,)
            for g in (math.gcd(r, q),)
        ]

    def random_M(self, rng):
        return Fraction(rng.randint(-20, 20))


class BostConnesFamily(_RationalFamily):
    """N = Q, M = Z, S = positive integers, psi_s(r) = r/s."""

    tag = "bost-connes"

    def __init__(self, level_cap: int = 5040):
        env = _env_cap()
        self.level_cap = env[0] if env else level_cap

    s_identity = property(lambda self: 1)
    g_identity = property(lambda self: Fraction(1))
    n_add = _RationalFamily.n_add
    iter_coset_reps = _RationalFamily.iter_coset_reps

    def validate_s(self, s):
        if not _is_int(s) or s < 1:
            raise ConfigError(f"bost-connes semigroup elements are positive ints, got {s!r}")

    def s_mul(self, s, t):
        return s * t

    def s_divide(self, t, s):
        return t // s if t % s == 0 else None

    def s_join(self, s, t):
        return s * t // math.gcd(s, t)

    s_meet = staticmethod(math.gcd)

    def g_from_s(self, s):
        return Fraction(s)

    def g_mul(self, g, h):
        return g * h

    def g_inv(self, g):
        return 1 / g

    def g_reduce(self, g):
        return g.denominator, g.numerator

    def psi(self, g, n):
        return n / g

    def canon(self, n, s=None):
        return _reduce_mod(n, 1 if s is None else s)

    def index(self, s) -> int:
        self.validate_s(s)
        return s

    def require_level(self, s):
        if s > self.level_cap:
            raise LevelCapError(f"bost-connes level {s} exceeds cap {self.level_cap}")

    def separating_level(self, n):
        if n.denominator > 1:
            return 1
        if n == 0:
            raise ConfigError("the identity lies in every level subgroup")
        return abs(n.numerator) + 1

    def random_coset(self, rng, depth: int):
        den = rng.randint(1, depth)
        return self.canon(Fraction(rng.randrange(den), den))

    def sample_levels(self):
        return [1, 2, 3, 4, 6]

    def small_levels(self, depth: int):
        return list(range(1, depth + 2)) + [6, 12][: max(0, depth - 1)]

    def to_config(self):
        return {"family": self.tag}

    def s_from_json(self, data):
        return _int_from_json(data, "a bost-connes level")

    # G = Q^* and N = Q: both are written as rationals.
    g_to_json = _RationalFamily.n_to_json
    g_from_json = _RationalFamily.n_from_json


class PadicFamily(_RationalFamily):
    """N = Z[1/p], M = Z, S = naturals under addition, psi_l(r) = r/p^l."""

    tag = "padic"

    def __init__(self, p: int, index_cap: int = 5040):
        if not _is_int(p):
            raise ConfigError(f"padic family needs an integer prime, got {p!r}")
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ConfigError(f"padic family needs a prime, got {p}")
        self.p = p
        env = _env_cap()
        self.index_cap = env[0] if env else index_cap

    s_identity = property(lambda self: 0)
    g_identity = property(lambda self: 0)
    n_add = _RationalFamily.n_add
    iter_coset_reps = _RationalFamily.iter_coset_reps

    def validate_s(self, s):
        if not _is_int(s) or s < 0:
            raise ConfigError(f"padic semigroup elements are naturals, got {s!r}")

    def s_mul(self, s, t):
        return s + t

    def s_divide(self, t, s):
        return t - s if t >= s else None

    def s_join(self, s, t):
        return max(s, t)

    s_meet = staticmethod(min)

    def g_from_s(self, s):
        return s

    def g_mul(self, g, h):
        return g + h

    def g_inv(self, g):
        return -g

    def g_reduce(self, g):
        return (-g, 0) if g < 0 else (0, g)

    def psi(self, g, n):
        return n / Fraction(self.p) ** g

    def canon(self, n, s=None):
        return _reduce_mod(n, 1 if s is None else self.p**s)

    def index(self, s) -> int:
        self.validate_s(s)
        return self.p**s

    def require_level(self, s):
        if self.p**s > self.index_cap:
            raise LevelCapError(
                f"padic level {s} has index {self.p**s} above cap {self.index_cap}"
            )

    def separating_level(self, n):
        if n.denominator > 1:
            return 0
        if n == 0:
            raise ConfigError("the identity lies in every level subgroup")
        k = abs(n.numerator)
        l = 0
        while k % self.p == 0:
            k //= self.p
            l += 1
        return l + 1

    def random_coset(self, rng, depth: int):
        q = self.p ** rng.randint(0, 3)
        return self.canon(Fraction(rng.randrange(q), q))

    def sample_levels(self):
        return [0, 1, 2]

    def small_levels(self, depth: int):
        return list(range(0, min(depth, 3) + 1))

    def to_config(self):
        return {"family": self.tag, "p": self.p}

    def s_from_json(self, data):
        return _int_from_json(data, "a padic exponent")

    g_to_json = _RationalFamily.s_to_json
    g_from_json = s_from_json


def _reduce_mod(n, mod):
    """n modulo the integer mod; a Fraction already in [0, mod) is returned as is."""
    if type(n) is Fraction and 0 <= n.numerator < mod * n.denominator:
        return n
    return n % mod


class _FractionTable(dict):
    """{c: Fraction(c, den)} for one denominator den, filled on a miss."""

    __slots__ = ("den",)

    def __init__(self, den):
        super().__init__()
        self.den = den

    def __missing__(self, c):
        x = self[c] = Fraction(c, self.den)
        return x


def _numerators(keys, den):
    """The keys' coordinates as integer numerators over den, in column
    layout: one list per coordinate."""
    return [[c.numerator * (den // c.denominator) for c in col] for col in zip(*keys)]


def _lowest(cols, dens):
    """The carrier codes (n_1, ..., n_d, L) of numerator vectors over the
    denominators dens, the vectors given in column layout: each reduced to
    lowest terms by one gcd."""
    return [
        code if (g := math.gcd(*code)) == 1 else tuple([x // g for x in code])
        for code in zip(*cols, dens)
    ]


def _int_matrix(rows):
    """A copy of a matrix given as a list of lists of integers."""
    if not isinstance(rows, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) and all(_is_int(x) for x in row) for row in rows
    ):
        raise ConfigError(f"matrix family needs lists of integer rows, got {rows!r}")
    return [list(row) for row in rows]


class MatrixFamily(PairFamily):
    """N spanned by backward orbits of two commuting integer matrices.

    Standing hypotheses, checked at construction: |det F| > 1, |det Mmat| > 1,
    gcd(det F, det Mmat) = 1, and F * Mmat = Mmat * F.
    """

    tag = "matrix"

    def __init__(self, F, Mmat, level_cap=(4, 4)):
        self.F = _int_matrix(F)
        self.Mmat = _int_matrix(Mmat)
        self.dim = len(self.F)
        if any(len(row) != self.dim for row in self.F) or len(self.Mmat) != self.dim \
                or any(len(row) != self.dim for row in self.Mmat):
            raise ConfigError("matrix family needs two square matrices of equal size")
        self.detF = int_det(self.F)
        self.detM = int_det(self.Mmat)
        if abs(self.detF) <= 1 or abs(self.detM) <= 1:
            raise ConfigError("matrix family needs |det| > 1 for both matrices")
        if math.gcd(self.detF, self.detM) != 1:
            raise ConfigError("matrix family needs coprime determinants")
        if mat_mul(self.F, self.Mmat) != mat_mul(self.Mmat, self.F):
            raise ConfigError("matrix family needs commuting matrices")
        env = _env_cap()
        if env:
            self.level_cap = tuple(env) if len(env) == 2 else (env[0], env[0])
        else:
            self.level_cap = tuple(level_cap)
        self._pow_cache = {}
        self._hnf_cache = {}
        self._solve_cache = {}
        self._split_cache = {}
        self._fraction_cache = {}
        self._scaled_hnf_cache = {}
        # M = Z^d has the identity as its HNF; its box [0, 1)^d is canonical mod M.
        self._unit = [[int(i == j) for j in range(self.dim)] for i in range(self.dim)]
        self._transpose = None

    s_identity = property(lambda self: (0, 0))
    g_identity = property(lambda self: (0, 0))

    @property
    def n_identity(self):
        return tuple(Fraction(0) for _ in range(self.dim))

    def validate_s(self, s):
        if (
            not isinstance(s, tuple)
            or len(s) != 2
            or not all(_is_int(c) and c >= 0 for c in s)
        ):
            raise ConfigError(f"matrix semigroup elements are pairs of naturals, got {s!r}")

    def s_mul(self, s, t):
        return (s[0] + t[0], s[1] + t[1])

    def s_divide(self, t, s):
        d = (t[0] - s[0], t[1] - s[1])
        return d if d[0] >= 0 and d[1] >= 0 else None

    def s_join(self, s, t):
        return (max(s[0], t[0]), max(s[1], t[1]))

    def s_meet(self, s, t):
        # F^a M^b Z^d + F^a' M^b' Z^d = F^min M^min Z^d, as det F, det M are coprime.
        return (min(s[0], t[0]), min(s[1], t[1]))

    def g_from_s(self, s):
        return s

    def g_mul(self, g, h):
        return (g[0] + h[0], g[1] + h[1])

    def g_inv(self, g):
        return (-g[0], -g[1])

    def g_reduce(self, g):
        s = (max(-g[0], 0), max(-g[1], 0))
        t = (g[0] + s[0], g[1] + s[1])
        return s, t

    def n_add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def n_neg(self, a):
        return tuple(-x for x in a)

    def _matrix_power(self, g):
        """F^a M^b for integer exponents, as an exact rational matrix."""
        key = g
        cached = self._pow_cache.get(key)
        if cached is not None:
            return cached
        a, b = g
        fa = mat_pow(self.F, abs(a)) if a >= 0 else None
        if a < 0:
            fa = mat_inv(mat_pow(self.F, -a))
        mb = mat_pow(self.Mmat, abs(b)) if b >= 0 else None
        if b < 0:
            mb = mat_inv(mat_pow(self.Mmat, -b))
        out = mat_mul(fa, mb)
        self._pow_cache[key] = out
        return out

    def psi(self, g, n):
        # psi_(a,b) = F^-a M^-b
        return mat_vec(self._matrix_power((-g[0], -g[1])), n)

    def in_M(self, n) -> bool:
        return all(x.denominator == 1 for x in n)

    def _hnf(self, s):
        cached = self._hnf_cache.get(s)
        if cached is None:
            cached = hermite_normal_form(mat_mul(mat_pow(self.F, s[0]), mat_pow(self.Mmat, s[1])))
            self._hnf_cache[s] = cached
        return cached

    def canon(self, n, s=None):
        h = self._unit if s is None else self._hnf(s)
        if in_hnf_box(h, n):
            return n
        if s is None:
            return tuple(x % 1 for x in n)
        return hnf_reduce(h, n)

    def _reduce(self, level, den, cols):
        """The integer numerators over den of canon(y/den, level), for each
        vector y of the batch cols, in column layout (cols[i] lists
        coordinate i of every vector): ``hnf_reduce_columns`` by the
        level's HNF scaled by den, cached per (level, den) in
        ``_scaled_hnf_cache``."""
        scaled = self._scaled_hnf_cache.get((level, den))
        if scaled is None:
            h = self._unit if level is None else self._hnf(level)
            scaled = self._scaled_hnf_cache[level, den] = [[den * x for x in row] for row in h]
        return hnf_reduce_columns(scaled, cols)

    def _decode(self, den, cols):
        """The keys of reduced numerators over den in column layout, as
        tuples of Fractions in the batch's order.

        Each coordinate c/den is read through ``map`` from the table for
        den in ``_fraction_cache``, a ``_FractionTable`` that builds
        Fraction(c, den) on first use, and ``zip`` puts the columns
        together into keys.  A repeated code then builds no Fraction, and
        equal coordinates from one den are one object, which dict lookups
        and ``==`` on keys match by identity before calling
        ``Fraction.__eq__``.  The fill is idempotent: a racing second fill
        stores an equal Fraction, which costs only the sharing.
        Coordinates repeat across keys, so the tables stay small: 27,000
        keys of a level-(3, 3) ``alpha`` share about a thousand codes.  The
        scalar families keep no such table, because each of their keys is
        one Fraction: the table would keep every key alive."""
        table = self._fraction_cache.get(den)
        if table is None:
            table = self._fraction_cache[den] = _FractionTable(den)
        read = table.__getitem__
        return list(zip(*[map(read, col) for col in cols]))

    def _radices(self, level, den):
        """The mixed radix of cell codes over den at level: den*h_ii for
        every coordinate but the last, h the level's HNF."""
        h = self._unit if level is None else self._hnf(level)
        return [den * h[i][i] for i in range(self.dim - 1)]

    def _pack(self, level, den, cols):
        """The cell codes of reduced numerators over den, given in column
        layout: n_0 + R_0*(n_1 + R_1*(...)), so L*n_1 + n_0 at the identity
        level of a plane family.  An iterator, made as it is read, so that
        a large ``sum_codes`` batch holds its numerators only in columns."""
        *low, acc = cols
        for col, r in zip(reversed(low), reversed(self._radices(level, den))):
            acc = map(add, map(mul, acc, itertools.repeat(r)), col)
        return iter(acc)

    def _unpack(self, level, den, codes, scale=1):
        """The numerators over den*scale of cell codes over den, in column
        layout: ``_pack`` undone, times scale."""
        cols, rest = [], codes
        for r in self._radices(level, den):
            cols.append([c % r for c in rest])
            rest = [c // r for c in rest]
        cols.append(list(rest))
        return cols if scale == 1 else [[c * scale for c in col] for col in cols]

    def _solve_shifts(self, s, level):
        """adj(A_s) = index(s)*A_s^-1 and the integer vectors adj(A_s) A_a m
        for m in the level-s transversal, in column layout, cached per
        (s, a)."""
        key = (s, level)
        cached = self._solve_cache.get(key)
        if cached is None:
            D = self.index(s)
            adj = [[int(x * D) for x in row] for row in self._matrix_power((-s[0], -s[1]))]
            lift = adj if level is None else mat_mul(adj, self._matrix_power(level))
            shifts = [mat_vec(lift, m) for m in iter_hnf_box(self._hnf(s))]
            cached = self._solve_cache[key] = (adj, [list(col) for col in zip(*shifts)])
        return cached

    def _solve_columns(self, s, level, q, v, count):
        """The reduced numerators over q*count of the solutions of v/q, in
        column layout: adj(A_s)(v + q*A_a m) over the level-s transversal."""
        adj, shifts = self._solve_shifts(s, level)
        base = [sum(a * b for a, b in zip(row, v)) for row in adj]
        cols = [[b + q * c for c in col] for b, col in zip(base, shifts)]
        return self._reduce(level, q * count, cols)

    def _solve(self, s, n, level, count):
        q = math.lcm(*(x.denominator for x in n))
        v = [x.numerator * (q // x.denominator) for x in n]
        return self._decode(q * count, self._solve_columns(s, level, q, v, count))

    def _splitters(self, s, r):
        """psi_s^-1 = A_s of the level-r transversal, integer vectors in
        column layout, cached per (s, r)."""
        cached = self._split_cache.get((s, r))
        if cached is None:
            a_s = self._matrix_power(s)
            vecs = [mat_vec(a_s, m) for m in iter_hnf_box(self._hnf(r))]
            cached = self._split_cache[s, r] = [list(col) for col in zip(*vecs)]
        return cached

    def _image(self, mat, cols):
        """The integer matrix mat applied to vectors in column layout."""
        out = []
        for row in mat:
            acc = [0] * len(cols[0])
            for a, col in zip(row, cols):
                if a:
                    acc = [x + a * c for x, c in zip(acc, col)]
            out.append(acc)
        return out

    def cell_codes(self, keys, level=None):
        keys = list(keys)
        den = math.lcm(*(c.denominator for k in keys for c in k))
        if not keys:
            return den, []
        return den, list(self._pack(level, den, self._reduce(level, den, _numerators(keys, den))))

    def cell_keys(self, level, den, codes):
        return self._decode(den, self._unpack(level, den, list(codes)))

    def cell_rescale(self, level, den, codes, new):
        return list(self._pack(level, new, self._unpack(level, den, codes, new // den)))

    def sum_codes(self, x, y, level=None):
        (xl, xden, xs), (yl, yden, ys) = x, y
        den = math.lcm(xden, yden)
        xcols = self._unpack(xl, xden, xs, den // xden)
        ycols = self._unpack(yl, yden, ys, den // yden)
        cols = [[a + b for a in xc for b in yc] for xc, yc in zip(xcols, ycols)]
        return den, self._pack(level, den, self._reduce(level, den, cols))

    def cell_refine(self, s, den, codes, t):
        split = [[den * c for c in col] for col in self._splitters(s, self.s_divide(t, s))]
        cells = self._unpack(s, den, codes)
        cols = [[a + b for a in xc for b in sc] for xc, sc in zip(cells, split)]
        return list(self._pack(t, den, self._reduce(t, den, cols)))

    def cell_solve(self, s, level, den, codes):
        count = self._enumerable_index(s)
        return den * count, [
            list(self._pack(level, den * count, self._solve_columns(s, level, den, v, count)))
            for v in zip(*self._unpack(level, den, codes))
        ]

    def cell_psi_inv(self, s, level, den, codes, out=None):
        self.validate_s(s)
        image = self._image(self._matrix_power(s), self._unpack(level, den, codes))
        return list(self._pack(out, den, self._reduce(out, den, image)))

    def cell_neg(self, level, den, codes):
        cols = [[-c for c in col] for col in self._unpack(level, den, codes)]
        return list(self._pack(level, den, self._reduce(level, den, cols)))

    def encode(self, keys):
        # Over the least common denominator the numerators have gcd 1.
        out = []
        for k in keys:
            den = math.lcm(*(c.denominator for c in k))
            out.append((*(c.numerator * (den // c.denominator) for c in k), den))
        return out

    def decode(self, codes):
        """Coordinates are read from ``_fraction_cache``'s tables, as in
        ``_decode``, so equal coordinates are one object."""
        tables = self._fraction_cache
        out = []
        for *nums, den in codes:
            table = tables.get(den)
            if table is None:
                table = tables[den] = _FractionTable(den)
            out.append(tuple(map(table.__getitem__, nums)))
        return out

    def code_add(self, n, codes):
        # k/L + a/b = (k*b + a*L) / (L*b) per coordinate, mod 1.
        b = math.lcm(*(c.denominator for c in n))
        shift = [c.numerator * (b // c.denominator) for c in n]
        if not codes:
            return []
        *cols, dens = zip(*codes)
        moved = [den * b for den in dens]
        cols = [
            [(k * b + a * den) % m for k, den, m in zip(col, dens, moved)]
            for a, col in zip(shift, cols)
        ]
        return _lowest(cols, moved)

    def code_solve(self, s, codes):
        # _solve at the identity level, where the HNF reduction by the
        # scaled unit matrix is a mod den per coordinate; v % q makes v/q
        # canonical, as solve_coset's canon does.
        count = self._enumerable_index(s)
        adj, shifts = self._solve_shifts(s, None)
        out = []
        for *v, q in codes:
            v = [x % q for x in v]
            den = q * count
            base = [sum(a * x for a, x in zip(row, v)) for row in adj]
            cols = [[(b + q * c) % den for c in col] for b, col in zip(base, shifts)]
            out += _lowest(cols, itertools.repeat(den))
        return out

    def code_psi_inv(self, s, codes):
        # A_s times the numerators, mod each key's L.
        self.validate_s(s)
        if not codes:
            return []
        *cols, dens = zip(*codes)
        image = [
            [x % den for x, den in zip(acc, dens)] for acc in self._image(self._matrix_power(s), cols)
        ]
        return _lowest(image, dens)

    def index(self, s) -> int:
        self.validate_s(s)
        return abs(self.detF) ** s[0] * abs(self.detM) ** s[1]

    def iter_coset_reps(self, s):
        for v in iter_hnf_box(self._hnf(s)):
            yield tuple(Fraction(c) for c in v)

    def enumeration_count(self, s) -> int:
        """Size of the canonical-box enumeration, without materializing it."""
        return hnf_box_count(self._hnf(s))

    def require_level(self, s):
        if s[0] > self.level_cap[0] or s[1] > self.level_cap[1]:
            raise LevelCapError(f"matrix level {s} exceeds cap {self.level_cap}")

    def denominator_level(self, n):
        """Componentwise-least (a, b) with F^a M^b n integral.

        Coprimality of the determinants decouples the two exponents, so the
        minimum exists.
        """
        def clears(mat_primes, vec):
            return all(math.gcd(x.denominator, mat_primes) == 1 for x in vec)

        a = 0
        vec = n
        while not clears(self.detF, vec):
            vec = mat_vec(self.F, vec)
            a += 1
            if a > 64:
                raise ConfigError(f"{n!r} does not lie in the inductive limit group")
        b = 0
        vec = n
        while not clears(self.detM, vec):
            vec = mat_vec(self.Mmat, vec)
            b += 1
            if b > 64:
                raise ConfigError(f"{n!r} does not lie in the inductive limit group")
        if not self.in_M(self.psi((-a, -b), n)):
            raise ConfigError(f"{n!r} has denominators outside the family's primes")
        return (a, b)

    def separating_level(self, n):
        if all(x == 0 for x in n):
            raise ConfigError("the identity lies in every level subgroup")
        for k in range(64):
            s = (k, k)
            if not self.in_level_subgroup(n, s):
                return s
        raise ConfigError(f"no separating level below 64 for {n!r}")

    def random_coset(self, rng, depth: int):
        s = (rng.randint(0, 2), rng.randint(0, 2))
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(self.dim))
        return self.canon(self.psi_s(s, v))

    def sample_levels(self):
        return [(0, 0), (1, 0), (0, 1), (1, 1)]

    def small_levels(self, depth: int):
        # Keep component sums small: dilation paths multiply levels, and the
        # quotient sizes grow exponentially in each component.
        d = min(depth, 2)
        out = [(a, b) for a in range(d + 1) for b in range(d + 1) if a + b <= d]
        out.sort(key=self.index)
        return out

    def random_M(self, rng):
        return tuple(Fraction(rng.randint(-6, 6)) for _ in range(self.dim))

    def to_config(self):
        return {"family": self.tag, "F": self.F, "M": self.Mmat}

    def transpose_family(self) -> "MatrixFamily":
        """The family of the transposed matrices, built once, so that its
        HNF and power caches persist; its own transpose is this family."""
        if self._transpose is None:
            ft = [[self.F[j][i] for j in range(self.dim)] for i in range(self.dim)]
            mt = [[self.Mmat[j][i] for j in range(self.dim)] for i in range(self.dim)]
            self._transpose = MatrixFamily(ft, mt, level_cap=self.level_cap)
            self._transpose._transpose = self
        return self._transpose

    def n_to_json(self, n):
        return [frac_to_str(x) for x in n]

    def n_from_json(self, data):
        if not isinstance(data, (list, tuple)) or len(data) != self.dim:
            raise ConfigError(f"a matrix coset is a list of {self.dim} rationals, got {data!r}")
        return tuple(frac_from_json(x) for x in data)

    def s_to_json(self, s):
        return list(s)

    def s_from_json(self, data):
        if not isinstance(data, (list, tuple)) or len(data) != 2:
            raise ConfigError(f"a matrix level is a pair of integers, got {data!r}")
        return tuple(_int_from_json(x, "a matrix level coordinate") for x in data)

    g_to_json = s_to_json
    g_from_json = s_from_json


@dataclass(frozen=True)
class SemidirectElement:
    """An element (n, g) of the semidirect product N x| G."""

    n: object
    g: object

    def mul(self, family: PairFamily, other: "SemidirectElement") -> "SemidirectElement":
        return SemidirectElement(
            family.n_add(self.n, family.psi(self.g, other.n)),
            family.g_mul(self.g, other.g),
        )

    def inv(self, family: PairFamily) -> "SemidirectElement":
        gi = family.g_inv(self.g)
        return SemidirectElement(family.psi(gi, family.n_neg(self.n)), gi)


def family_from_config(config: dict) -> PairFamily:
    """Build a family from a descriptor like {"family": "matrix", "F": ..., "M": ...}."""
    if not isinstance(config, dict) or "family" not in config:
        raise ConfigError(f"family descriptor must be a dict with a 'family' key: {config!r}")
    tag = config["family"]
    if tag == "bost-connes":
        return BostConnesFamily()
    if tag == "padic":
        if "p" not in config:
            raise ConfigError("padic family descriptor needs a prime 'p'")
        return PadicFamily(config["p"])
    if tag == "matrix":
        if "F" not in config or "M" not in config:
            raise ConfigError("matrix family descriptor needs integer matrices 'F' and 'M'")
        return MatrixFamily(config["F"], config["M"])
    raise ConfigError(f"unknown family tag {tag!r}")


SHIPPED_FAMILIES = ("bost-connes", "padic", "matrix")
