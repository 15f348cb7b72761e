"""Locally constant, compactly supported functions on the completion group.

A ``LocFun`` is a level s together with finitely many (coset, value) pairs:
the function taking those values on the corresponding level-s cylinder sets.
The normalization gives the compact subgroup K total mass 1, so a level-s
coset carries mass index(s)^-1; that constant is baked into convolution.

Key operations:

* ``refine``      - re-express a function at a deeper level (same function);
* ``convolve``    - Haar-weighted convolution, paired at the meet level by
                    the cylinder identity
                    1_{x+H} * 1_{y+K} = mu(H cap K) 1_{x+y+H+K}, and summed
                    in integer numerators, one value code per output key;
* ``embed_i``     - the unital embedding of the N/M group algebra onto the
                    level-identity functions, sending a generator to the
                    indicator of its cylinder;
* ``theta_star``  - the rescaled action index(s)^-1 * (f o theta_s^-1), and
  ``theta_star_inv`` its inverse, which transports a level-a cylinder to the
  single level-(a*s) cylinder over its preimage, scaled by index(s).

The group algebra of N/M is the identity level of this algebra:
``grpalg.GroupAlgebraElement`` is a ``LocFun`` pinned there.  Values are
exact Gaussian rationals throughout.

Storage.  A ``LocFun`` keeps its level, one common denominator L (``den``)
and a dict ``codes`` from one int per key to one value code per key.  The
key's int is the cell code of ``PairFamily.cell_codes``: x*L for the
scalar families, and the numerators of x over L packed in mixed radix for
``matrix``.  The value code is the tuple (a, b, d) of ints for
(a + b*i)/d, d > 0 and gcd 1 (``coeffs``); the form is unique, so equal
values are equal tuples.  Every operation above runs code to code:

* keys through the family's cell kernels (``cell_refine``, ``sum_codes``,
  ``cell_solve``, ``cell_psi_inv``, ``cell_neg``), so no Fraction is built
  or hashed.  ``theta_star`` writes its outputs over L * index(s), and at
  the identity level the solutions of x = c/L are the codes
  range(c, L * index(s), L);
* values through the ``code_*`` kernels of ``coeffs``, one value code per
  input cell for the spreads (``theta_star`` shares it across the cell's
  index(s) targets), and integer numerators for ``convolve``.

``==`` refines both sides to a common level, rescales both to the lcm of
their denominators and compares the dicts: one dict compare of ints and
int tuples, in C.

``QC`` objects appear only at the boundary.  ``build`` codes its
coefficients, and ``values``, the Fraction-keyed dict, decodes the keys in
stored order and one ``QC`` per distinct value code, shared by the cells
that hold it; ``eval_at``, ``mass`` and ``to_json`` decode too.  ``values``
is not cached: a cached copy would sit next to the codes for the life of
the object, and at the largest levels (padic(3) level 9, matrix level
(3, 3)) each copy is megabytes, while the benchmark's checks read both
sides of an identity one after the other.  In the package only output
(``to_json``, the CLI) reads it.

Sums of values go through ``coeffs.accumulate_codes``, the merge rule of
``coeffs.accumulate``: each key's code is hashed once, a key whose sum is
zero is dropped, and one that comes back is appended at the end, so key
order is a function of the order of the summands.  Maps that are injective
on cosets (``star``, ``scale``, ``theta_star``, ``theta_star_inv``,
``refine``) fill their dict directly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .coeffs import (
    QC,
    accumulate_codes,
    code_from_ints,
    code_mul,
    code_numerators,
    code_scale,
    qc_code,
    qc_decode,
    qc_from_ints,
)
from .errors import PrecisionError
from .pairs import PairFamily, frac_to_str, frac_from_json, json_field, json_list


def _is_key(k) -> bool:
    """Whether k has a cell key's type: a Fraction, or a tuple of them."""
    return type(k) is Fraction or (type(k) is tuple and all(type(c) is Fraction for c in k))


class LocFun:
    """A level s and the values of the function on level-s cylinders.

    Storage: ``codes``, a dict from the cell code of each key (one int,
    ``PairFamily.cell_codes``) over the common denominator ``den`` to the
    value code (a, b, d) of its value (``coeffs``).  Invariant: every key
    is canonical at the element's level (a fixed point of
    ``family.canon(., level)``) and every value is non-zero.  ``build``
    establishes it from arbitrary pairs; code that constructs a ``LocFun``
    from codes (``_make``) must already hold it.

    ``values``, the key-to-value dict, is decoded in stored key order on
    each read and not kept: a decoded copy would double the memory of a
    large function while its codes stay alive.

    The constructor ``LocFun(family, level, values)`` keeps the dict it is
    given, as a plain ``SparseVector`` does: ``values`` and ``keys`` read
    back its very keys and value objects, so it must not be changed in
    place.  Beside it, keys that are canonical Fractions (tuples of them)
    are coded, with exact values (int, Fraction, ``QC``) as value codes and
    inexact ones (``complex``) as given; a dict with any other key is kept
    as given, with ``den`` None.  A function with an inexact value or an
    uncoded key only reads back and compares, and the algebra's
    operations refuse it.
    """

    __slots__ = ("family", "level", "den", "codes", "_refined", "_values")

    def __init__(self, family: PairFamily, level, values=None):
        values = {} if values is None else values
        keys = list(values)
        den = None
        if all(map(_is_key, keys)):
            try:
                den, codes = family.cell_codes(keys, level)
            except (AttributeError, TypeError):  # a key of another family's shape
                pass
            else:
                if family.cell_keys(level, den, codes) != keys:
                    den = None
        self.family, self.level, self.den, self._refined = family, level, den, None
        self._values = values
        if den is None:
            self.codes = dict(values)
            return
        try:
            coded = list(map(qc_code, values.values()))
        except TypeError:  # an inexact value: kept as given
            coded = values.values()
        self.codes = dict(zip(codes, coded))

    @classmethod
    def _make(cls, family: PairFamily, level, den, codes: dict) -> "LocFun":
        """The function with these cell codes over den; they must hold the
        invariant.  Codes dicts are shared, never changed in place."""
        f = object.__new__(cls)
        f.family, f.level, f.den, f.codes = family, level, den, codes
        f._refined = f._values = None
        return f

    def keys(self) -> list:
        """The keys of the cells, decoded, in stored order."""
        if self._values is not None:
            return list(self._values)
        return self.family.cell_keys(self.level, self.den, self.codes)

    @property
    def values(self) -> dict:
        """The key-to-value dict, decoded afresh on each read: one ``QC``
        per distinct value code, shared by the cells that hold it."""
        if self._values is not None:
            return dict(self._values)
        codes = self.codes.values()
        shared = {v: qc_decode(v) for v in set(codes)}
        return dict(zip(self.keys(), map(shared.__getitem__, codes)))

    def __repr__(self):
        return f"{type(self).__name__}(level={self.level!r}, values={self.values!r})"

    @staticmethod
    def build(family: PairFamily, level, pairs, exact=True) -> "LocFun":
        """Normalize (coset, coefficient) pairs: canonical keys, no zeros.

        One ``cell_codes`` batch codes canon(n, level) for every coset,
        each coefficient is made a value code (``coeffs.qc_code``), and
        ``coeffs.accumulate_codes`` sums them left to right with one hash
        per pair, drops keys whose sum is zero and re-appends a key that
        comes back.  ``exact`` outlives the removed float backend only
        because wrappers of ``build`` (bench/tracing.py) pass it
        positionally: True only."""
        if exact is not True:
            raise ValueError("LocFun coefficients are exact QC values; exact must be True")
        family.validate_s(level)
        pairs = list(pairs)
        den, codes = family.cell_codes([n for n, _ in pairs], level)
        values = [qc_code(c) for _, c in pairs]
        return LocFun._make(family, level, den, accumulate_codes({}, zip(codes, values)))

    def _with(self, den, codes) -> "LocFun":
        """Same family, level and class; the codes must hold the invariant."""
        return type(self)._make(self.family, self.level, den, codes)

    def codes_over(self, den) -> dict:
        """The codes dict over den, a multiple of ``self.den``."""
        if den == self.den:
            return self.codes
        codes = self.family.cell_rescale(self.level, self.den, self.codes, den)
        return dict(zip(codes, self.codes.values()))

    def refine(self, t) -> "LocFun":
        """The same function, stored on the finer level-t cosets."""
        fam = self.family
        if t == self.level:
            return self
        if self._refined is not None and t in self._refined:
            return self._refined[t]
        if fam.s_divide(t, self.level) is None:
            raise PrecisionError(
                f"cannot refine from level {self.level!r} to non-multiple {t!r}"
            )
        fam.require_level(t)
        # The level-t cosets below one level-s coset are disjoint from those
        # below another, so the dict is filled directly, cells outer and
        # their index(t)/index(s) subcells inner.
        count = fam.index(t) // fam.index(self.level)
        codes = fam.cell_refine(self.level, self.den, self.codes, t)
        spread = [v for v in self.codes.values() for _ in range(count)]
        out = LocFun._make(fam, t, self.den, dict(zip(codes, spread)))
        if self._refined is None:
            self._refined = {}
        self._refined[t] = out
        return out

    def common_level(self, other: "LocFun"):
        return self.family.s_join(self.level, other.level)

    def __add__(self, other: "LocFun") -> "LocFun":
        t = self.common_level(other)
        a, b = self.refine(t), other.refine(t)
        den = math.lcm(a.den, b.den)
        # The copy reuses the stored hashes of the left operand's keys.
        return a._with(den, accumulate_codes(dict(a.codes_over(den)), b.codes_over(den).items()))

    def __neg__(self):
        return self._with(self.den, {k: (-a, -b, d) for k, (a, b, d) in self.codes.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, q) -> "LocFun":
        """The keys stay canonical and distinct, and q = 0 is the only
        scalar that makes a value zero."""
        if not q:
            return self._with(self.den, {})
        q = qc_code(q)
        return self._with(self.den, {k: code_mul(c, q) for k, c in self.codes.items()})

    def star(self) -> "LocFun":
        """Involution: conjugate values on inverted cosets (unimodular, so
        no modular correction).  n -> -n permutes the level cosets, so
        distinct codes stay distinct; ``cell_neg`` brings -n back into the
        canonical box."""
        fam, den = self.family, self.den
        codes = fam.cell_neg(self.level, den, self.codes)
        return self._with(den, dict(zip(codes, [(a, -b, d) for a, b, d in self.codes.values()])))

    def is_zero(self) -> bool:
        return not self.codes

    def __eq__(self, other):
        if not isinstance(other, LocFun):
            return NotImplemented
        if self.family is not other.family and self.family != other.family:
            return False
        if self.den is None or other.den is None:
            return self.level == other.level and self.values == other.values
        t = self.common_level(other)
        a, b = self.refine(t), other.refine(t)
        if len(a.codes) != len(b.codes):
            return False
        den = math.lcm(a.den, b.den)
        return a.codes_over(den) == b.codes_over(den)

    def eval_at(self, n):
        """Pointwise value at a group element (useful as an oracle).  The
        key of n has n's denominators, so it is a key of this function
        only if they divide ``den``."""
        fam, level = self.family, self.level
        den, codes = fam.cell_codes([n], level)
        if self.den % den:
            return 0
        value = self.codes.get(fam.cell_rescale(level, den, codes, self.den)[0])
        return 0 if value is None else qc_decode(value)

    def mass(self) -> QC:
        """Total integral: each level-s coset weighs index(s)^-1."""
        den, nums = code_numerators(self.codes.values())
        re, im = sum(a for a, _ in nums), sum(b for _, b in nums)
        return qc_from_ints(re, im, den * self.family.index(self.level))

    def to_json(self):
        fam = self.family
        recs = [
            {"coset": fam.n_to_json(k), "re": frac_to_str(Fraction(a, d)),
             "im": frac_to_str(Fraction(b, d))}
            for k, (a, b, d) in sorted(zip(self.keys(), self.codes.values()))
        ]
        return {"level": fam.s_to_json(self.level), "values": recs}

    @staticmethod
    def from_json(family: PairFamily, data) -> "LocFun":
        level = family.s_from_json(json_field(data, "level", "a LocFun"))
        pairs = []
        for rec in json_list(json_field(data, "values", "a LocFun"), "a LocFun's values"):
            re, im = (frac_from_json(json_field(rec, k, "a LocFun value")) for k in ("re", "im"))
            pairs.append((family.n_from_json(json_field(rec, "coset", "a LocFun value")), QC(re, im)))
        return LocFun.build(family, level, pairs)


def zero(family: PairFamily) -> LocFun:
    return LocFun._make(family, family.s_identity, 1, {})


def chi_K(family: PairFamily) -> LocFun:
    """The indicator of the compact subgroup: the distinguished projection."""
    return LocFun.build(family, family.s_identity, [(family.n_identity, 1)])


def cylinder(family: PairFamily, level, n, coeff=1) -> LocFun:
    """The indicator of a single level-s cylinder set."""
    return LocFun.build(family, level, [(n, coeff)])


def convolve(f: LocFun, g: LocFun) -> LocFun:
    """Haar-weighted convolution, returned at the join level j of the
    factor levels s, t.

    On an abelian group, 1_{x+H} * 1_{y+K} = mu(H cap K) 1_{x+y+H+K} for
    open compact H, K.  Level subgroups meet at level j, of mass
    index(j)^-1, and sum to the level of the meet m = ``s_meet(s, t)``:
    gcd for ``bost-connes``, min for ``padic``, componentwise min for
    ``matrix`` (coprime determinants give F^a M^b Z^d + F^a' M^b' Z^d =
    F^min M^min Z^d).  So the factors' own keys pair at level m, and the
    product is refined to j: the pointwise-oracle test and the benchmark's
    convolution check pin the output level, so returning level m would need
    both changed.

    The sum is taken in integers.  Each factor's value codes are written
    over one common denominator D_f, D_g (``coeffs.code_numerators``), and one
    ``sum_codes`` batch codes the level-m coset of every pair of cells.
    Each pair adds its product's two integer numerators into a [re, im]
    cell for its code, found with one ``setdefault``.  A cell that returns
    to (0, 0) is deleted, so a code that comes back is appended at the end,
    as ``LocFun.build`` orders a merge; equal codes are equal keys, so that
    is the key order of a merge over keys.  Each surviving cell is
    normalised once, over D_f * D_g * index(j), into one value code: values
    and key order equal those of ``build`` over the products, and no key or
    ``QC`` is built.
    """
    fam = f.family
    t = f.common_level(g)
    m = fam.s_meet(f.level, g.level)
    df, f_nums = code_numerators(f.codes.values())
    dg, g_nums = code_numerators(g.codes.values())
    den, codes = fam.sum_codes((f.level, f.den, f.codes), (g.level, g.den, g.codes), m)
    codes = iter(codes)
    cells = {}
    setdefault = cells.setdefault
    for a, b in f_nums:
        # g_nums comes first, so the row ends without consuming a code.
        for (c, d), code in zip(g_nums, codes):
            cell = setdefault(code, [0, 0])
            cell[0] += a * c - b * d
            cell[1] += a * d + b * c
            if not (cell[0] or cell[1]):
                del cells[code]
    scale = df * dg * fam.index(t)
    out = {code: code_from_ints(re, im, scale) for code, (re, im) in cells.items()}
    return LocFun._make(fam, m, den, out).refine(t)


def embed_i(a: LocFun) -> LocFun:
    """Send each group-algebra generator to the indicator of its cylinder
    at the identity level: a group-algebra element already is that
    function, so this re-tags it as a plain ``LocFun`` on the same codes."""
    return LocFun._make(a.family, a.level, a.den, a.codes)


def theta_star(s, f: LocFun) -> LocFun:
    """The rescaled push-forward along theta_s: the level-a solve, at f's
    level a.

    On a level-a cylinder over c it spreads mass index(s)^-1 over the
    index(s) level-a cylinders whose theta_s-preimage is the one over c,
    that is over ``solve_coset(s, c, a)``, coded by one ``cell_solve``
    batch over den * index(s).  The spreads of distinct level-a cosets c
    are disjoint, since each target cylinder has one preimage, and the
    index(s) targets of one c are distinct and canonical, so no merging or
    zero test is needed: skip ``build``.  One value code per cell of f is
    shared by its index(s) targets.  The result has f's class, so at the
    identity level it is ``grpalg.alpha``.
    """
    fam = f.family
    fam.validate_s(s)
    if s == fam.s_identity:
        return f
    den, blocks = fam.cell_solve(s, f.level, f.den, f.codes)
    q = fam.index(s)
    out = {}
    for block, v in zip(blocks, f.codes.values()):
        out.update(dict.fromkeys(block, code_scale(v, 1, q)))
    return f._with(den, out)


def theta_star_inv(s, f: LocFun) -> LocFun:
    """Inverse of ``theta_star(s, .)``; moves level a to a*s.

    A level-a cylinder over c goes to index(s) times the level-(a*s)
    cylinder over the preimage of c.  psi_s^-1 maps the level-a subgroup
    onto the level-(a*s) one, so distinct keys go to distinct cosets and
    the dict is filled directly; ``cell_psi_inv`` reduces at level a*s,
    because for a non-diagonal HNF the preimage can leave the canonical box.
    """
    fam = f.family
    fam.validate_s(s)
    if s == fam.s_identity:
        return f
    deeper = fam.s_mul(f.level, s)
    fam.require_level(deeper)
    codes = fam.cell_psi_inv(s, f.level, f.den, f.codes, deeper)
    idx = fam.index(s)
    values = [code_scale(v, idx, 1) for v in f.codes.values()]
    return LocFun._make(fam, deeper, f.den, dict(zip(codes, values)))


def theta_star_g(g, f: LocFun) -> LocFun:
    """The rescaled action for a general group element g = s^-1 t."""
    fam = f.family
    s, t = fam.g_reduce(g)
    out = f
    if t != fam.s_identity:
        out = theta_star(t, out)
    if s != fam.s_identity:
        out = theta_star_inv(s, out)
    return out
