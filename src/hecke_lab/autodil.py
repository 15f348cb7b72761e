"""Locally constant, compactly supported functions on the completion group.

A ``LocFun`` is a level s together with finitely many (coset, value) pairs:
the function taking those values on the corresponding level-s cylinder sets.
The normalization gives the compact subgroup K total mass 1, so a level-s
coset carries mass index(s)^-1; that constant is baked into convolution.

Key operations:

* ``refine``      - re-express a function at a deeper level (same function);
* ``convolve``    - Haar-weighted convolution (also spelled ``f * g``),
                    paired at the meet level by the cylinder identity
                    1_{x+H} * 1_{y+K} = mu(H cap K) 1_{x+y+H+K}, and summed
                    in integer numerators, one ``QC`` per output key;
* ``embed_i``     - the unital embedding of the N/M group algebra onto the
                    level-identity functions, sending a generator to the
                    indicator of its cylinder;
* ``theta_star``  - the rescaled action index(s)^-1 * (f o theta_s^-1), and
  ``theta_star_inv`` its inverse, which transports a level-a cylinder to the
  single level-(a*s) cylinder over its preimage, scaled by index(s).

The group algebra of N/M is the identity level of this algebra:
``grpalg.GroupAlgebraElement`` is a ``LocFun`` pinned there.  Values are
exact ``QC`` coefficients throughout.  Sums of values go through
``coeffs.accumulate``, the merge the float vectors of ``repspace`` use:
each key is hashed once, a key whose sum is zero is dropped, and one that
comes back is appended at the end, so key order is a function of the
order of the summands.  Maps that are injective on cosets (``star``,
``scale``, ``theta_star``, ``theta_star_inv``, ``refine``) fill their
dict directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .coeffs import QC, accumulate, qc_from_ints, qc_numerators
from .errors import PrecisionError
from .pairs import PairFamily, frac_to_str, frac_from_json, json_field, json_list


@dataclass(frozen=True, eq=False)
class LocFun:
    """A level s and the values of the function on level-s cylinders.

    Invariant: every key is canonical at the element's level (a fixed
    point of ``family.canon(., level)``) and every value is non-zero.
    ``build`` establishes it from arbitrary pairs; code that constructs a
    ``LocFun`` directly must already hold it.
    """

    family: PairFamily
    level: object
    values: dict = field(default_factory=dict)
    # Refinement cache; idempotent fill keeps concurrent reads safe.
    _refined: dict = field(default_factory=dict, repr=False, compare=False)

    @staticmethod
    def build(family: PairFamily, level, pairs, exact=True) -> "LocFun":
        """Normalize (coset, coefficient) pairs: canonical keys, no zeros.

        Each coset is reduced by ``canon`` and each coefficient made a
        ``QC``; ``coeffs.accumulate`` then sums them left to right with one
        hash per pair, drops keys whose sum is zero and re-appends a key
        that comes back.  ``exact`` outlives the removed float backend only
        because wrappers of ``build`` (bench/tracing.py) pass it
        positionally: True only."""
        if exact is not True:
            raise ValueError("LocFun coefficients are exact QC values; exact must be True")
        family.validate_s(level)
        canon, of = family.canon, QC.of
        return LocFun(family, level, accumulate({}, ((canon(n, level), of(c)) for n, c in pairs)))

    def _with(self, values) -> "LocFun":
        """Same family, level and class; the values must hold the invariant."""
        return LocFun(self.family, self.level, values)

    def refine(self, t) -> "LocFun":
        """The same function, stored on the finer level-t cosets."""
        fam = self.family
        if t == self.level:
            return self
        cached = self._refined.get(t)
        if cached is not None:
            return cached
        r = fam.s_divide(t, self.level)
        if r is None:
            raise PrecisionError(
                f"cannot refine from level {self.level!r} to non-multiple {t!r}"
            )
        fam.require_level(t)
        # The level-t cosets below one level-s coset are disjoint from those
        # below another, so the dict is filled directly, from one
        # ``sum_codes`` batch, cells outer and splitters inner.
        splitters = [fam.psi_s_inv(self.level, m) for m in fam.coset_reps(r)]
        codes, decode = fam.sum_codes(self.values, splitters, t)
        spread = [v for v in self.values.values() for _ in splitters]
        out = LocFun(fam, t, dict(zip(decode(codes), spread)))
        self._refined[t] = out
        return out

    def common_level(self, other: "LocFun"):
        return self.family.s_join(self.level, other.level)

    def __add__(self, other: "LocFun") -> "LocFun":
        t = self.common_level(other)
        a, b = self.refine(t), other.refine(t)
        # The copy reuses the stored hashes of the left operand's keys.
        return a._with(accumulate(dict(a.values), b.values.items()))

    def __neg__(self):
        return self._with({k: -c for k, c in self.values.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "LocFun") -> "LocFun":
        return convolve(self, other)

    def scale(self, q: Fraction) -> "LocFun":
        """The keys stay canonical and distinct, and q = 0 is the only
        scalar that makes a value zero."""
        if not q:
            return self._with({})
        return self._with({k: c * q for k, c in self.values.items()})

    def star(self) -> "LocFun":
        """Involution: conjugate values on inverted cosets (unimodular, so
        no modular correction).  n -> -n permutes the level cosets, so
        distinct keys stay distinct; only ``canon`` is needed, to bring -n
        back into the canonical box."""
        fam, level = self.family, self.level
        return self._with(
            {fam.canon(fam.n_neg(k), level): c.conjugate() for k, c in self.values.items()}
        )

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other):
        if not isinstance(other, LocFun):
            return NotImplemented
        if self.family is not other.family and self.family != other.family:
            return False
        t = self.common_level(other)
        return self.refine(t).values == other.refine(t).values

    def eval_at(self, n):
        """Pointwise value at a group element (useful as an oracle)."""
        return self.values.get(self.family.canon(n, self.level), 0)

    def mass(self):
        """Total integral: each level-s coset weighs index(s)^-1."""
        total = 0
        w = Fraction(1, self.family.index(self.level))
        for c in self.values.values():
            total = total + c * w
        return total

    def to_json(self):
        fam = self.family
        recs = [
            {"coset": fam.n_to_json(k), "re": frac_to_str(c.re), "im": frac_to_str(c.im)}
            for k, c in sorted(self.values.items())
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
    return LocFun(family, family.s_identity, {})


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

    The sum is taken in integers.  Each factor's values are written over
    one common denominator D_f, D_g (``coeffs.qc_numerators``), and one
    ``sum_codes`` batch codes the level-m coset of every pair of keys.
    Each pair adds its product's two integer numerators into a [re, im]
    cell for its code, found with one ``setdefault``, so no key is built
    or hashed per pair.  A cell that returns to (0, 0) is deleted, so a
    code that comes back is appended at the end, as ``LocFun.build``
    orders a merge; equal codes are equal keys, so that is the key order
    of a merge over keys.  Only the surviving codes are decoded, and each
    cell is normalised once, over D_f * D_g * index(j), into one ``QC``:
    values and key order equal those of ``build`` over the ``QC``
    products.
    """
    fam = f.family
    t = f.common_level(g)
    m = fam.s_meet(f.level, g.level)
    df, f_nums = qc_numerators(f.values.values())
    dg, g_nums = qc_numerators(g.values.values())
    codes, decode = fam.sum_codes(f.values, g.values, m)
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
    den = df * dg * fam.index(t)
    out = {
        key: qc_from_ints(re, im, den) for key, (re, im) in zip(decode(cells), cells.values())
    }
    return LocFun(fam, m, out).refine(t)


def embed_i(a: LocFun) -> LocFun:
    """Send each group-algebra generator to the indicator of its cylinder
    at the identity level: a group-algebra element already is that
    function, so this re-tags it as a plain ``LocFun``."""
    return LocFun(a.family, a.level, dict(a.values))


def theta_star(s, f: LocFun) -> LocFun:
    """The rescaled push-forward along theta_s: the level-a solve, at f's
    level a.

    On a level-a cylinder over c it spreads mass index(s)^-1 over the
    index(s) level-a cylinders whose theta_s-preimage is the one over c,
    that is over ``solve_coset(s, c, a)``.  The spreads of distinct
    level-a cosets c are disjoint, since each target cylinder has one
    preimage, and the index(s) targets of one c are distinct and
    canonical, so no merging or zero test is needed: skip ``build``.
    The result has f's class, so at the identity level it is ``grpalg.alpha``.
    """
    fam = f.family
    fam.validate_s(s)
    if s == fam.s_identity:
        return f
    a = f.level
    w = Fraction(1, fam.index(s))
    out = {}
    for c, v in f.values.items():
        spread = v * w
        for m in fam.solve_coset(s, c, a):
            out[m] = spread
    return f._with(out)


def theta_star_inv(s, f: LocFun) -> LocFun:
    """Inverse of ``theta_star(s, .)``; moves level a to a*s.

    A level-a cylinder over c goes to index(s) times the level-(a*s)
    cylinder over the preimage of c.  psi_s^-1 maps the level-a subgroup
    onto the level-(a*s) one, so distinct keys go to distinct cosets and
    the dict is filled directly; ``canon`` stays, because for a
    non-diagonal HNF the preimage can leave the canonical box.
    """
    fam = f.family
    fam.validate_s(s)
    if s == fam.s_identity:
        return f
    a = f.level
    deeper = fam.s_mul(a, s)
    fam.require_level(deeper)
    idx = Fraction(fam.index(s))
    values = {fam.canon(fam.psi_s_inv(s, c), deeper): v * idx for c, v in f.values.items()}
    return LocFun(fam, deeper, values)


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
