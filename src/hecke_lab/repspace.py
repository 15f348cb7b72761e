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

The regular pair's vectors store their keys as carrier codes, the tuples
of ints of ``PairFamily.encode``: the operators compute images code to
code (``code_add``, ``code_solve``, ``code_psi_inv``), and sums, inner
products and distances compare codes, so no Fraction is hashed.
``SparseVector.values``, the Fraction-keyed dict, is decoded once, when
it is first read.

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
from dataclasses import dataclass
from itertools import chain
from typing import Callable

from .coeffs import accumulate
from .errors import ConfigError
from .pairs import PairFamily


class SparseVector:
    """Finitely supported complex vector over hashable basis keys.

    Invariant: keys are canonical N/M cosets (fixed points of ``canon``;
    on a ``direct_sum`` carrier, (summand tag, canonical coset) pairs) and
    values are non-zero ``complex``.  ``build``, ``merge`` and ``+`` sum a
    key's contributions left to right, in the order they are given, so a
    sum written as one ``build`` equals, value for value, the same sum
    written as ``total = total + x``.  Code that constructs a vector
    directly must keep the invariant itself.

    Storage: one dict of stored keys.  A vector built from a dict, or by
    ``build`` and ``merge``, stores the keys it is given ("plain").  The
    regular pair's operators store carrier codes instead ("coded"): the
    family's ``encode`` of each key, a tuple of ints, tagged by summand on
    a ``direct_sum`` carrier, so that no operator hashes a Fraction.  The
    public ``values`` is the key-to-value dict: for a coded vector it is
    decoded on first read and cached, with the keys, key order and values
    of the plain dict.  Arithmetic, ``inner``, ``norm`` and ``distance``
    run on the stored dicts and never decode; a plain operand that meets a
    coded one is encoded, which builds no Fraction, and keeps the codes, so
    it is encoded only once (its ``values`` stays the dict it was built
    from).  Codes are injective,
    so keys match, and are visited, exactly as they would be in plain
    dicts, and every float sum is the same bit for bit.  ``values`` must
    not be changed in place.
    """

    __slots__ = ("_data", "_codec", "_values")

    def __init__(self, values=None):
        self._data = self._values = {} if values is None else values
        self._codec = None

    @staticmethod
    def _make(data: dict, codec) -> "SparseVector":
        """A vector that stores data, coded by codec (None: plain keys)."""
        v = object.__new__(SparseVector)
        v._data, v._codec = data, codec
        v._values = data if codec is None else None
        return v

    @property
    def values(self) -> dict:
        out = self._values
        if out is None:
            data = self._data
            out = self._values = dict(zip(self._codec.decode(data), data.values()))
        return out

    def __len__(self):
        """The number of stored keys; a vector is false when it is zero."""
        return len(self._data)

    def __repr__(self):
        return f"SparseVector({self.values!r})"

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

    @staticmethod
    def combine(terms) -> "SparseVector":
        """The sum of c*v over (c, v) terms, merged key by key in order as
        ``merge`` does; c None adds v as it is, without a product."""
        terms = list(terms)
        codec, dicts = _align([v for _, v in terms])
        pairs = [
            d.items() if c is None else [(k, x * c) for k, x in d.items()]
            for (c, _), d in zip(terms, dicts)
        ]
        return SparseVector._make(accumulate({}, chain.from_iterable(pairs)), codec)

    @staticmethod
    def sum(vectors) -> "SparseVector":
        return SparseVector.combine((None, v) for v in vectors)

    def __add__(self, other):
        # The copy reuses the stored hashes of the left operand's keys.
        codec, (a, b) = _align((self, other))
        return SparseVector._make(accumulate(dict(a), b.items()), codec)

    def __sub__(self, other):
        codec, (a, b) = _align((self, other))
        return SparseVector._make(accumulate(dict(a), ((k, -v) for k, v in b.items())), codec)

    def scale(self, c) -> "SparseVector":
        c = complex(c)
        if c == 0:
            return SparseVector({})
        return SparseVector._make(
            {k: x for k, v in self._data.items() if (x := v * c)}, self._codec
        )

    def inner(self, other: "SparseVector") -> complex:
        _, (a, b) = _align((self, other))
        if len(b) < len(a):
            return _inner(b, a).conjugate()
        return _inner(a, b)

    def norm(self) -> float:
        """sqrt(<v, v>) without dict lookups.  The loop adds the same terms
        in the same order as ``inner(self).real`` and so is bit for bit
        equal to it (``sum`` of floats may round differently)."""
        total = 0.0
        for v in self._data.values():
            total += v.real * v.real + v.imag * v.imag
        return math.sqrt(total)

    def distance(self, other: "SparseVector") -> float:
        """``(self - other).norm()`` without building the difference: the
        same terms x + -y, added in the same key order (self's keys, then
        other's keys that self lacks), so bit for bit equal to it.  A key
        whose difference is zero adds 0.0 where the difference drops it.
        other's keys are looked up again only when some are unmatched."""
        _, (mine, theirs) = _align((self, other))
        total = 0.0
        matched = 0
        for k, x in mine.items():
            y = theirs.get(k)
            if y is not None:
                matched += 1
                x = x + -y
            total += x.real * x.real + x.imag * x.imag
        if matched < len(theirs):
            for k, y in theirs.items():
                if k not in mine:
                    total += y.real * y.real + y.imag * y.imag
        return math.sqrt(total)

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(v) <= tol for v in self._data.values())

    def to_json(self, family: PairFamily):
        return [
            {"coset": family.n_to_json(k), "re": complex(v).real, "im": complex(v).imag}
            for k, v in sorted(self.values.items())
        ]


def _inner(a: dict, b: dict) -> complex:
    total = 0j
    for k, v in a.items():
        w = b.get(k)
        if w is not None:
            total += v * w.conjugate()
    return total


def _encoded(codec, data: dict) -> dict:
    return dict(zip(codec.encode(data), data.values()))


def _adopt(v: SparseVector, codec) -> dict:
    """Encode the plain v under codec once and for all: v keeps the codes
    as its stored dict, and ``values`` stays the very dict v was built
    from, so a plain vector met again by an operator is not encoded again."""
    data = v._data
    if data:
        v._data, v._codec = _encoded(codec, data), codec
    return v._data


def _stored(v: SparseVector, codec) -> dict:
    """v's stored dict, keyed by codec's codes."""
    if v._codec is codec or v._codec == codec:
        return v._data
    if v._codec is None:
        return _adopt(v, codec)
    return _encoded(codec, v.values)


def _align(vectors):
    """(codec, dicts): the stored dicts of vectors in one key space.  Plain
    operands take the codec of the coded ones (``_adopt``); vectors coded
    by unequal codecs are all read through ``values``, plain."""
    codec = None
    for v in vectors:
        if v._data and v._codec is not None and v._codec is not codec:
            if codec is None:
                codec = v._codec
            elif v._codec != codec:
                return None, [v.values for v in vectors]
    if codec is None:
        return None, [v._data for v in vectors]
    return codec, [_adopt(v, codec) if v._codec is None else v._data for v in vectors]


@dataclass(frozen=True)
class _Tagged:
    """The codec of a ``direct_sum`` carrier: the key (tag, k) has the
    code (tag, code of k) under the summands' codec."""

    inner: object

    def encode(self, keys):
        keys = list(keys)
        return list(zip([t for t, _ in keys], self.inner.encode([k for _, k in keys])))

    def decode(self, codes):
        codes = list(codes)
        return list(zip([t for t, _ in codes], self.inner.decode([c for _, c in codes])))


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
        d = _stored(v, family)
        return SparseVector._make(dict(zip(family.code_add(n, d), d.values())), family)

    def apply_V(s, v: SparseVector) -> SparseVector:
        """Each key spreads over its ``solve_coset`` solutions, made as
        codes by one ``code_solve`` batch; the solution sets of distinct
        keys are disjoint, so the dict is filled directly.  A product that
        underflows to zero is dropped."""
        count = family.index(s)
        w = 1.0 / math.sqrt(count)
        kept = [(k, x) for k, c in _stored(v, family).items() if (x := c * w)]
        codes = family.code_solve(s, [k for k, _ in kept])
        return SparseVector._make(
            dict(zip(codes, [x for _, x in kept for _ in range(count)])), family
        )

    def apply_Vstar(s, v: SparseVector) -> SparseVector:
        """Many-to-one: the index(s) keys of one ``solve_coset`` set all go
        to the same key, so their values are summed by ``accumulate``, the
        merge of ``SparseVector.merge``, under the codes of one
        ``code_psi_inv`` batch."""
        w = 1.0 / math.sqrt(family.index(s))
        d = _stored(v, family)
        codes = family.code_psi_inv(s, d)
        return SparseVector._make(accumulate({}, zip(codes, [c * w for c in d.values()])), family)

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
    rhs = SparseVector.combine((w, rep.apply_Y(m, v)) for m in fam.solve_coset(s, n))
    return lhs.distance(rhs)


def average_projection(unitaries, v: SparseVector) -> SparseVector:
    """Average of finitely many unitaries: the projection onto the vectors
    they all fix, whenever the maps close into a finite group."""
    if not unitaries:
        raise ConfigError("cannot average an empty family")
    w = complex(1.0 / len(unitaries))
    return SparseVector.combine((w, u(v)) for u in unitaries)


def apply_algebra(rep: CovariantRep, a, v: SparseVector) -> SparseVector:
    """pi(a) v = sum of c_n Y_n v for a group-algebra element a = sum c_n delta_n."""
    terms = []
    for n, c in a.values.items():
        c = complex(c)
        if c:
            terms.append((c, rep.apply_Y(n, v)))
    return SparseVector.combine(terms)


def direct_sum(rep_a: CovariantRep, rep_b: CovariantRep) -> CovariantRep:
    """Direct sum on vectors with ('a', coset) / ('b', coset) keys.  A
    vector coded by the summands' codec splits and joins on its tagged
    codes, without decoding."""
    if rep_a.family != rep_b.family:
        raise ConfigError("direct sums need a common family")

    def split(v: SparseVector):
        if type(v._codec) is _Tagged:
            data, codec = v._data, v._codec.inner
        else:
            data, codec = v.values, None
        return tuple(
            SparseVector._make({k[1]: c for k, c in data.items() if k[0] == tag}, codec)
            for tag in "ab"
        )

    def join(a: SparseVector, b: SparseVector) -> SparseVector:
        codec, (da, db) = _align((a, b))
        out = {("a", k): c for k, c in da.items()}
        out.update({("b", k): c for k, c in db.items()})
        return SparseVector._make(out, None if codec is None else _Tagged(codec))

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
        codec = None if v._codec is None else _Tagged(v._codec)
        return SparseVector._make({(tag, k): c for k, c in v._data.items()}, codec)

    return T


def random_cosets(family: PairFamily, rng: random.Random, count: int, depth: int = 12):
    """Sample canonical N/M cosets reachable at small levels."""
    return [family.random_coset(rng, depth) for _ in range(count)]


def random_vector(
    family: PairFamily, rng: random.Random, terms: int = 3, depth: int = 12
) -> SparseVector:
    """A coded vector on random cosets, so that the operators it meets need
    not encode it; a repeated coset sums its values, as in ``merge``."""
    keys = random_cosets(family, rng, terms, depth)
    values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in keys]
    return SparseVector._make(accumulate({}, zip(family.encode(keys), values)), family)


def _covariance_samples(family: PairFamily, rng: random.Random, trials: int):
    samples = []
    small = family.sample_levels()
    for _ in range(trials):
        s = rng.choice(small)
        n = random_cosets(family, rng, 1)[0]
        samples.append((s, n, random_vector(family, rng)))
    return samples
