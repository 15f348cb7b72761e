"""Scenario runner: pick a family, run named verification suites, and emit
a machine-readable report.

Each check certifies one identity of the finite-level model and is labelled
by a self-contained statement of that identity.  Deviations are reported
either as exact zeros (identities between exact rational data, compared
by equality) or as float maxima (Hilbert-space identities, where
isometries bring in square roots of indices); the report distinguishes
the two, because the exact/float split is the point of the artifact.
Reports are JSON lines plus a trailing summary record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import adeles, autodil, dilate, grpalg, repspace, tower, xprod
from .errors import ConfigError, HeckeLabError, LevelCapError
from .pairs import BostConnesFamily, PairFamily, family_from_config

SUITES = ("algebra", "tower", "autodil", "dilation", "appendix", "adeles", "all", "none")


@dataclass
class RunConfig:
    family: dict
    suite: str = "all"
    depth: int = 3
    max_level: int = 24
    trials: int = 40
    seed: int = 1
    tolerance: float = 1e-9
    report: str | None = None

    def validate(self):
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}; choose from {SUITES}")
        if self.depth < 1 or self.max_level < 1 or self.trials < 1:
            raise ConfigError("depth, max-level and trial counts must be positive")
        if not (0.0 < self.tolerance <= 1e-3):
            raise ConfigError("tolerance must lie in (0, 1e-3]")
        if self.report is not None:
            if os.path.isdir(self.report):
                raise ConfigError(f"report path {self.report!r} is a directory")
            folder = os.path.dirname(self.report) or "."
            if not os.path.isdir(folder):
                raise ConfigError(f"report directory {folder!r} does not exist")


@dataclass
class CheckReport:
    check_id: str
    statement: str
    status: str  # pass | fail | skipped | error
    deviation: float | None
    exact: bool
    runtime: float
    note: str = ""

    def to_json(self):
        """The report record.  JSON has no NaN or infinity, so such a
        deviation is written as null, and named at the head of the note."""
        dev, note = self.deviation, self.note
        if dev is not None and not math.isfinite(dev):
            dev, note = None, f"deviation {dev}" + (f"; {note}" if note else "")
        return {
            "check": self.check_id,
            "statement": self.statement,
            "status": self.status,
            "deviation": dev,
            "exact": self.exact,
            "runtime": round(self.runtime, 6),
            "note": note,
        }


@dataclass
class Ctx:
    family: PairFamily
    rng: random.Random
    depth: int
    max_level: int
    trials: int
    tol: float
    cache: dict = field(default_factory=dict)

    def small_s(self):
        return self.family.small_levels(self.depth)

    def sample_M(self, count):
        return [self.family.random_M(self.rng) for _ in range(count)]

    def cosets(self, count):
        return repspace.random_cosets(self.family, self.rng, count, depth=self.max_level)

    def vectors(self, count, terms=3):
        return [
            repspace.random_vector(self.family, self.rng, terms, depth=self.max_level)
            for _ in range(count)
        ]

    def rep(self) -> repspace.CovariantRep:
        if "rep" not in self.cache:
            self.cache["rep"] = repspace.regular_covariant(self.family, tol=self.tol)
        return self.cache["rep"]

    def dilation(self) -> dilate.Dilation:
        if "dil" not in self.cache:
            self.cache["dil"] = dilate.Dilation(self.rep())
        return self.cache["dil"]


def _exact(ok: bool, note: str = ""):
    return (ok, 0.0 if ok else None, True, note)


def _float(dev: float, tol: float, note: str = ""):
    """A float check's result: NaN is not <= tol, so it fails."""
    return (dev <= tol, dev, False, note)


def _worse(worst: float, dev: float) -> float:
    """max(worst, dev), except that a NaN on either side is kept: max()
    returns its first argument when a comparison with NaN is false."""
    return worst if worst >= dev or worst != worst else dev


# ---------------------------------------------------------------------------
# algebra suite


def check_ore_pairs(ctx: Ctx):
    fam = ctx.family
    ss = ctx.small_s()
    for s in ss:
        for t in ss:
            u, v = fam.ore_pair(s, t)
            if fam.s_mul(u, s) != fam.s_mul(v, t):
                return _exact(False, f"ore pair failed at {s!r}, {t!r}")
    return _exact(True, f"{len(ss)**2} pairs")


def check_index_multiplicative(ctx: Ctx):
    fam = ctx.family
    ss = ctx.small_s()
    for s in ss:
        for t in ss:
            if fam.index(fam.s_mul(s, t)) != fam.index(s) * fam.index(t):
                return _exact(False, f"index not multiplicative at {s!r}, {t!r}")
    return _exact(True)


def check_index_counts(ctx: Ctx):
    fam = ctx.family
    for s in ctx.small_s():
        reps = fam.coset_reps(s)
        if len(reps) != fam.index(s):
            return _exact(False, f"count mismatch at {s!r}")
        if len(set(reps)) != len(reps):
            return _exact(False, f"duplicate representatives at {s!r}")
    return _exact(True)


def check_reps_partition(ctx: Ctx):
    fam = ctx.family
    for s in ctx.small_s():
        reps = set(fam.coset_reps(s))
        for rep in list(reps)[: ctx.trials]:
            if fam.canon(rep, s) not in reps:
                return _exact(False, f"non-canonical representative at {s!r}")
        # Sampled subgroup elements fall into exactly one class.
        for m in ctx.sample_M(8):
            if fam.canon(m, s) not in reps:
                return _exact(False, f"subgroup element escaped the transversal at {s!r}")
    return _exact(True)


def check_solve_coset(ctx: Ctx):
    fam = ctx.family
    for s in ctx.small_s():
        bases = ctx.cosets(4)
        for n in bases:
            sols = fam.solve_coset(s, n)
            if len(sols) != fam.index(s):
                return _exact(False, f"solution count off at {s!r}, {n!r}")
            key = fam.canon(n)
            for m in sols:
                if fam.canon(fam.psi_s_inv(s, m)) != key:
                    return _exact(False, f"solution fails its defining equation at {s!r}")
        # Distinct bases give disjoint solution sets.
        union = []
        for n in {fam.canon(n) for n in bases}:
            union.extend(fam.solve_coset(s, n))
        if len(union) != len(set(union)):
            return _exact(False, f"solution sets overlap at {s!r}")
    return _exact(True)


def check_canonical_idempotent(ctx: Ctx):
    fam = ctx.family
    for s in ctx.small_s():
        for n in ctx.cosets(6):
            once = fam.canon(n, s)
            if fam.canon(once, s) != once:
                return _exact(False, f"canonicalization not idempotent at {s!r}")
    return _exact(True)


def check_semidirect_associativity(ctx: Ctx):
    from .pairs import SemidirectElement

    fam = ctx.family
    for _ in range(ctx.trials):
        els = [
            SemidirectElement(ctx.cosets(1)[0], fam.g_from_s(ctx.rng.choice(ctx.small_s())))
            for _ in range(3)
        ]
        a, b, c = els
        left = a.mul(fam, b).mul(fam, c)
        right = a.mul(fam, b.mul(fam, c))
        if left != right:
            return _exact(False, "associativity failed")
        if a.mul(fam, a.inv(fam)).n != fam.n_identity:
            return _exact(False, "inverse failed")
    return _exact(True)


def check_alpha_endomorphism(ctx: Ctx):
    for _ in range(max(4, ctx.trials // 8)):
        s = ctx.rng.choice(ctx.small_s())
        a = _random_algebra_element(ctx)
        b = _random_algebra_element(ctx)
        alpha_a = grpalg.alpha(s, a)
        if grpalg.alpha(s, a * b) != alpha_a * grpalg.alpha(s, b):
            return _exact(False, f"multiplicativity failed at {s!r}")
        if grpalg.alpha(s, a.star()) != alpha_a.star():
            return _exact(False, f"star compatibility failed at {s!r}")
    return _exact(True)


def check_alpha_semigroup(ctx: Ctx):
    fam = ctx.family
    ss = ctx.small_s()
    gens = [grpalg.delta(fam, n) for n in ctx.cosets(3)]
    for s in ss[: max(3, ctx.depth)]:
        for t in ss[: max(3, ctx.depth)]:
            for a in gens:
                st = grpalg.alpha(s, grpalg.alpha(t, a))
                ts = grpalg.alpha(t, grpalg.alpha(s, a))
                joint = grpalg.alpha(fam.s_mul(s, t), a)
                if st != joint or ts != joint:
                    return _exact(False, f"composition failed at {s!r}, {t!r}")
    return _exact(True)


def check_alpha_unit_projection(ctx: Ctx):
    fam = ctx.family
    for s in ctx.small_s():
        e = grpalg.alpha(s, grpalg.one(fam))
        if e * e != e or e.star() != e:
            return _exact(False, f"averaging image not a projection at {s!r}")
    return _exact(True)


def check_alpha_injective_on_generators(ctx: Ctx):
    fam = ctx.family
    for s in ctx.small_s():
        images = []
        for n in ctx.cosets(6):
            images.append(frozenset(fam.solve_coset(s, n)))
        for i, a in enumerate(images):
            for b in images[i + 1 :]:
                if a != b and a & b:
                    return _exact(False, f"generator images overlap at {s!r}")
    return _exact(True)


# ---------------------------------------------------------------------------
# tower suite


def check_projection_coherence(ctx: Ctx):
    fam = ctx.family
    for s in ctx.small_s():
        for t in ctx.small_s():
            deep = fam.s_mul(s, t)
            for n in ctx.cosets(3):
                x = tower.TruncatedElement.make(fam, deep, n)
                if fam.canon(x.project(deep), s) != x.project(s):
                    return _exact(False, f"bonding maps disagree at {s!r} | {deep!r}")
    return _exact(True)


def check_theta_intertwines_embedding(ctx: Ctx):
    fam = ctx.family
    for t in ctx.small_s():
        for s in ctx.small_s():
            for n in ctx.cosets(3):
                deep = fam.s_mul(s, t)
                x = tower.embed_j(fam, n).truncate(deep)
                lhs = tower.theta_apply(t, x)
                rhs = tower.embed_j(fam, fam.psi_s(t, n)).truncate(s)
                if lhs != rhs:
                    return _exact(False, f"intertwining failed at t={t!r}")
    return _exact(True)


def check_theta_roundtrip(ctx: Ctx):
    fam = ctx.family
    for _ in range(ctx.trials):
        s = ctx.rng.choice(ctx.small_s())
        t = ctx.rng.choice(ctx.small_s())
        x = tower.TruncatedElement.make(fam, s, ctx.cosets(1)[0])
        try:
            back = tower.theta_apply(t, tower.theta_inv_apply(t, x))
        except LevelCapError:
            continue
        if back != x:
            return _exact(False, f"inverse action failed at t={t!r}")
    return _exact(True)


def check_theta_k_index(ctx: Ctx):
    fam = ctx.family
    ss = ctx.small_s()
    for s in ss[: ctx.depth + 1]:
        for t in ss[: ctx.depth + 1]:
            try:
                image = tower.theta_image_of_k_reps(fam, s, t)
            except LevelCapError:
                continue
            if len(image) != fam.index(s) * fam.index(t):
                return _exact(False, f"image index wrong at s={s!r}, t={t!r}")
    return _exact(True)


def check_k_closure(ctx: Ctx):
    fam = ctx.family
    for s in ctx.small_s():
        reps = fam.coset_reps(s)
        sample = reps if len(reps) <= 12 else ctx.rng.sample(reps, 12)
        for a in sample:
            for b in sample:
                x = tower.TruncatedElement.make(fam, s, fam.n_add(a, b))
                if not x.in_K():
                    return _exact(False, f"compact subgroup not closed at {s!r}")
    return _exact(True)


def check_separation(ctx: Ctx):
    fam = ctx.family
    for n in ctx.cosets(8):
        if n == fam.n_identity:
            continue
        s = fam.separating_level(n)
        if fam.in_level_subgroup(n, s):
            return _exact(False, f"separating level failed for {n!r}")
    return _exact(True)


# ---------------------------------------------------------------------------
# autodil suite


def check_refine_pointwise(ctx: Ctx):
    fam = ctx.family
    for _ in range(max(4, ctx.trials // 8)):
        f = _random_locfun(ctx)
        t = fam.s_mul(f.level, ctx.rng.choice(ctx.small_s()))
        try:
            g = f.refine(t)
        except LevelCapError:
            continue
        for n in ctx.cosets(6):
            if f.eval_at(n) != g.eval_at(n):
                return _exact(False, "refinement changed a pointwise value")
        if g != f:
            return _exact(False, "refinement changed the function")
    return _exact(True)


def check_chiK_projection(ctx: Ctx):
    fam = ctx.family
    k = autodil.chi_K(fam)
    if autodil.convolve(k, k) != k:
        return _exact(False, "indicator of the compact subgroup is not idempotent")
    if k.star() != k:
        return _exact(False, "indicator is not self-adjoint")
    return _exact(True)


def check_embed_homomorphism(ctx: Ctx):
    fam = ctx.family
    for n in ctx.cosets(5):
        for m in ctx.cosets(5):
            a, b = grpalg.delta(fam, n), grpalg.delta(fam, m)
            # The group law, not the group-algebra product: that product is
            # the same convolution as the left side.
            rhs = autodil.embed_i(grpalg.delta(fam, fam.n_add(n, m)))
            if autodil.convolve(autodil.embed_i(a), autodil.embed_i(b)) != rhs:
                return _exact(False, "embedding is not multiplicative")
    return _exact(True)


def check_embed_unital(ctx: Ctx):
    fam = ctx.family
    k = autodil.chi_K(fam)
    for _ in range(4):
        a = _random_algebra_element(ctx)
        fa = autodil.embed_i(a)
        if autodil.convolve(k, fa) != fa or autodil.convolve(fa, k) != fa:
            return _exact(False, "embedding does not land in the corner")
    return _exact(True)


def check_intertwine_alpha_theta(ctx: Ctx):
    fam = ctx.family
    for s in ctx.small_s():
        w = Fraction(1, fam.index(s))
        for n in ctx.cosets(4):
            d = grpalg.delta(fam, n)
            lhs = autodil.embed_i(grpalg.alpha(s, d))
            # alpha is theta_star, so the right side is the Fraction route:
            # index(s)^-1 on the cylinders over psi_s(n) + psi_s(m) for m in
            # the level-s transversal.
            spread = [(fam.n_add(fam.psi_s(s, n), pm), w) for pm in fam.psi_reps(s)]
            rhs = autodil.LocFun.build(fam, fam.s_identity, spread)
            if lhs != rhs:
                return _exact(False, f"intertwining failed at s={s!r}")
    return _exact(True)


def check_theta_star_laws(ctx: Ctx):
    fam = ctx.family
    for _ in range(max(4, ctx.trials // 10)):
        f = _random_locfun(ctx)
        s = ctx.rng.choice(ctx.small_s())
        t = ctx.rng.choice(ctx.small_s())
        try:
            if autodil.theta_star(s, autodil.theta_star_inv(s, f)) != f:
                return _exact(False, f"inverse law failed at s={s!r}")
            lhs = autodil.theta_star(s, autodil.theta_star(t, f))
            if lhs != autodil.theta_star(fam.s_mul(s, t), f):
                return _exact(False, "composition law failed")
        except LevelCapError:
            continue
    return _exact(True)


def check_minimality_formula(ctx: Ctx):
    fam = ctx.family
    for s in ctx.small_s():
        if s == fam.s_identity:
            continue
        try:
            fam.require_level(s)
        except LevelCapError:
            continue
        reps = fam.coset_reps(s)
        sample = reps if len(reps) <= 8 else ctx.rng.sample(reps, 8)
        extra = [fam.canon(fam.psi_s(s, n), s) for n in ctx.cosets(2)]
        for c in list(sample) + extra:
            n = fam.canon(fam.psi_s(s, c))
            pulled = autodil.theta_star_inv(s, autodil.embed_i(grpalg.delta(fam, n)))
            target = autodil.cylinder(fam, s, c).scale(Fraction(fam.index(s)))
            if pulled != target:
                return _exact(False, f"cylinder formula failed at s={s!r}")
    return _exact(True)


def check_convolve_associative(ctx: Ctx):
    for _ in range(max(3, ctx.trials // 12)):
        f, g, h = (_random_locfun(ctx) for _ in range(3))
        try:
            if autodil.convolve(autodil.convolve(f, g), h) != autodil.convolve(
                f, autodil.convolve(g, h)
            ):
                return _exact(False, "convolution not associative")
        except LevelCapError:
            continue
    return _exact(True)


def check_embedding_faithful(ctx: Ctx):
    for _ in range(6):
        a = _random_algebra_element(ctx)
        if autodil.embed_i(a).is_zero() != a.is_zero():
            return _exact(False, "embedding killed a nonzero element")
    return _exact(True)


# ---------------------------------------------------------------------------
# dilation suite


def check_covariance(ctx: Ctx):
    rep = ctx.rep()
    worst = 0.0
    for _ in range(ctx.trials):
        s = ctx.rng.choice(ctx.small_s())
        n = ctx.cosets(1)[0]
        v = ctx.vectors(1)[0]
        worst = _worse(worst, repspace.verify_covariance(rep, s, n, v))
    return _float(worst, ctx.tol)


def check_isometries(ctx: Ctx):
    rep = ctx.rep()
    fam = ctx.family
    worst = 0.0
    for _ in range(ctx.trials):
        s = ctx.rng.choice(ctx.small_s())
        t = ctx.rng.choice(ctx.small_s())
        v = ctx.vectors(1)[0]
        vs = rep.apply_V(s, v)
        worst = _worse(worst, abs(vs.norm() - v.norm()))
        worst = _worse(
            worst,
            rep.apply_V(s, rep.apply_V(t, v)).distance(rep.apply_V(fam.s_mul(s, t), v)),
        )
        worst = _worse(worst, rep.apply_Vstar(s, vs).distance(v))
    return _float(worst, ctx.tol)


def check_average_projection(ctx: Ctx):
    rep = ctx.rep()
    fam = ctx.family
    worst = 0.0
    for s in ctx.small_s()[:4]:
        # solve_coset(s, 0) lists canon(psi_s(m)) over the level-s
        # transversal, in its order, without a Fraction matrix product.
        maps = [
            (lambda n: (lambda v: rep.apply_Y(n, v)))(n)
            for n in fam.solve_coset(s, fam.n_identity)
        ]
        for _ in range(4):
            v, w = ctx.vectors(2)
            pv = repspace.average_projection(maps, v)
            worst = _worse(worst, repspace.average_projection(maps, pv).distance(pv))
            pw = repspace.average_projection(maps, w)
            worst = _worse(worst, abs(pv.inner(w) - v.inner(pw)))
    return _float(worst, ctx.tol)


def check_inner_ore_independence(ctx: Ctx):
    """<V_u h, V_v k> at the least pair u*s = v*t against the same form at
    r*u, r*v, both by lifting, and against ``Dilation.inner``, which takes
    the adjoint route <V_v* h, V_u* k>: two independent routes."""
    dil = ctx.dilation()
    fam = ctx.family
    rep = ctx.rep()
    worst = 0.0
    for _ in range(max(6, ctx.trials // 4)):
        s, t, r = (ctx.rng.choice(ctx.small_s()) for _ in range(3))
        h, k = ctx.vectors(2)
        u, v = fam.ore_pair(s, t)
        base = rep.apply_V(u, h).inner(rep.apply_V(v, k))
        try:
            fam.require_level(fam.s_mul(fam.s_mul(r, u), s))
            alt = rep.apply_V(fam.s_mul(r, u), h).inner(rep.apply_V(fam.s_mul(r, v), k))
        except LevelCapError:
            continue
        worst = _worse(worst, abs(base - alt))
        worst = _worse(
            worst,
            abs(
                dil.inner(dilate.DilationVector.symbol(s, h), dilate.DilationVector.symbol(t, k))
                - base
            ),
        )
    return _float(worst, ctx.tol)


def check_gram_psd(ctx: Ctx):
    dil = ctx.dilation()
    vecs = []
    for _ in range(min(12, 4 + ctx.depth * 2)):
        s = ctx.rng.choice(ctx.small_s())
        vecs.append(dilate.DilationVector.symbol(s, ctx.vectors(1)[0]))
    low = dil.gram_min_eigenvalue(vecs)
    return _float(_worse(0.0, -low), ctx.tol, note=f"min eigenvalue {low:.3e}")


def check_unitaries(ctx: Ctx):
    dil = ctx.dilation()
    fam = ctx.family
    worst = 0.0
    for _ in range(max(6, ctx.trials // 4)):
        s = ctx.rng.choice(ctx.small_s())
        t = ctx.rng.choice(ctx.small_s())
        g = fam.g_mul(fam.g_from_s(t), fam.g_inv(fam.g_from_s(s)))
        v = dilate.DilationVector.symbol(
            ctx.rng.choice(ctx.small_s()), ctx.vectors(1)[0]
        )
        try:
            moved = dil.apply_U(g, v)
            back = dil.apply_U(fam.g_inv(g), moved)
        except LevelCapError:
            continue
        worst = _worse(worst, abs(dil.norm(moved) - dil.norm(v)))
        worst = _worse(worst, dil.distance(back, v))
    return _float(worst, ctx.tol)


def check_w_well_defined(ctx: Ctx):
    dil = ctx.dilation()
    rep = ctx.rep()
    fam = ctx.family
    worst = 0.0
    for _ in range(max(10, ctx.trials // 2)):
        s = ctx.rng.choice(ctx.small_s())
        t = ctx.rng.choice(ctx.small_s())
        h = ctx.vectors(1)[0]
        n = ctx.cosets(1)[0]
        try:
            fam.require_level(fam.s_mul(t, s))
        except LevelCapError:
            continue
        a = dilate.DilationVector.symbol(s, h)
        b = dilate.DilationVector.symbol(fam.s_mul(t, s), rep.apply_V(t, h))
        worst = _worse(worst, dil.distance(a, b))  # the collision itself
        worst = _worse(worst, dil.distance(dil.apply_W(n, a), dil.apply_W(n, b)))
    return _float(worst, ctx.tol)


def check_dilated_covariance(ctx: Ctx):
    dil = ctx.dilation()
    fam = ctx.family
    worst = 0.0
    for _ in range(ctx.trials):
        s = ctx.rng.choice(ctx.small_s())
        t = ctx.rng.choice(ctx.small_s())
        g = fam.g_mul(fam.g_from_s(t), fam.g_inv(fam.g_from_s(s)))
        n = ctx.cosets(1)[0]
        v = dilate.DilationVector.symbol(ctx.rng.choice(ctx.small_s()), ctx.vectors(1)[0])
        try:
            lhs = dil.apply_U(g, dil.apply_W(n, dil.apply_U(fam.g_inv(g), v)))
            rhs = dil.apply_W(fam.psi(g, n), v)
        except LevelCapError:
            continue
        worst = _worse(worst, dil.distance(lhs, rhs))
    return _float(worst, ctx.tol)


def check_w_recovers(ctx: Ctx):
    dil = ctx.dilation()
    rep = ctx.rep()
    worst = 0.0
    for n in ctx.cosets(6):
        h = ctx.vectors(1)[0]
        lhs = dil.apply_W(n, dil.embed(h))
        rhs = dil.embed(rep.apply_Y(n, h))
        worst = _worse(worst, dil.distance(lhs, rhs))
    return _float(worst, ctx.tol)


def check_restrict_compress(ctx: Ctx):
    dil = ctx.dilation()
    rep = ctx.rep()
    truncation = ctx.small_s()[: ctx.depth + 2]
    basis = [repspace.SparseVector.basis(k) for k in ctx.cosets(3)]
    rc_rep = dilate.restrict_compress(dil, truncation, basis, tol=ctx.tol)
    worst = 0.0
    for h in basis:
        for n in ctx.cosets(2):
            lhs = rc_rep.apply_Y(n, dil.embed(h))
            worst = _worse(worst, dil.distance(lhs, dil.embed(rep.apply_Y(n, h))))
        for s in truncation:
            lhs = rc_rep.apply_V(s, dil.embed(h))
            worst = _worse(worst, dil.distance(lhs, dil.embed(rep.apply_V(s, h))))
            lhs = rc_rep.apply_Vstar(s, dil.embed(h))
            worst = _worse(worst, dil.distance(lhs, dil.embed(rep.apply_Vstar(s, h))))
    note = "fixed space matches embedded carrier" if not rc_rep.excess_residuals else (
        f"fixed space exceeds embedded carrier by {max(rc_rep.excess_residuals):.2e}"
    )
    return (worst <= ctx.tol, worst, False, note)


# ---------------------------------------------------------------------------
# appendix suite


def check_p_v_identities(ctx: Ctx):
    fam = ctx.family
    p = xprod.projection_p(fam)
    if p * p != p or p.star() != p:
        return _exact(False, "unit image is not a projection")
    for s in ctx.small_s():
        try:
            vs = xprod.isom_v(fam, s)
            if vs.star() * vs != p:
                return _exact(False, f"isometry relation failed at {s!r}")
            if p * vs != vs:
                return _exact(False, f"corner absorption failed at {s!r}")
            for t in ctx.small_s()[:3]:
                if vs * xprod.isom_v(fam, t) != xprod.isom_v(fam, fam.s_mul(s, t)):
                    return _exact(False, f"isometry semigroup failed at {s!r}, {t!r}")
        except LevelCapError:
            continue
    return _exact(True)


def check_corner_decompose(ctx: Ctx):
    """Two independent routes to v_s^* i(a) v_t: d is multiplied out by
    its definition, isom_v(s).star() * i(a) * isom_v(t), and is read off by
    ``corner_decompose`` and rebuilt with ``compose_corner``'s closed form."""
    fam = ctx.family
    p = xprod.projection_p(fam)
    triples = xprod.corner_decompose(p)
    e = fam.s_identity
    if len(triples) != 1 or triples[0][0] != e or triples[0][2] != e:
        return _exact(False, "unit decomposition has the wrong shape")
    if triples[0][1] != grpalg.one(fam):
        return _exact(False, "unit decomposition is not the unit")
    for _ in range(max(3, ctx.depth)):
        s = ctx.rng.choice(ctx.small_s()[:3])
        t = ctx.rng.choice(ctx.small_s()[:3])
        a = _random_algebra_element(ctx, terms=2)
        try:
            d = xprod.isom_v(fam, s).star() * xprod.embed_algebra(a) * xprod.isom_v(fam, t)
            rebuilt = xprod.CrossedElement(fam, {})
            for s2, a2, t2 in xprod.corner_decompose(d):
                rebuilt = rebuilt + xprod.compose_corner(fam, s2, a2, t2)
        except LevelCapError:
            continue
        if rebuilt != d:
            return _exact(False, f"round trip failed at {s!r}, {t!r}")
    return _exact(True)


def check_corner_fullness(ctx: Ctx):
    """Cylinders at every tested level arise from products through the
    projection, the finite-level shadow of fullness."""
    fam = ctx.family
    p = xprod.projection_p(fam)
    for level in ctx.small_s()[: ctx.depth + 1]:
        try:
            fam.require_level(level)
            reps = fam.coset_reps(level)
            c = ctx.rng.choice(reps)
            n = fam.canon(fam.psi_s(level, c))
            d1 = xprod.CrossedElement.build(
                fam,
                [(
                    autodil.theta_star_g(
                        fam.g_inv(fam.g_from_s(level)),
                        autodil.embed_i(grpalg.delta(fam, n)),
                    ),
                    fam.g_inv(fam.g_from_s(level)),
                )],
            )
            g = fam.g_from_s(ctx.rng.choice(ctx.small_s()[:3]))
            d2 = xprod.CrossedElement.build(
                fam, [(autodil.chi_K(fam), fam.g_mul(fam.g_from_s(level), g))]
            )
            product = d1 * p * d2
            target = xprod.CrossedElement.build(
                fam,
                [(autodil.cylinder(fam, level, c).scale(Fraction(fam.index(level))), g)],
            )
        except LevelCapError:
            continue
        if product != target:
            return _exact(False, f"fullness surrogate failed at level {level!r}")
    return _exact(True)


def check_eval_corner(ctx: Ctx):
    fam = ctx.family
    rep = ctx.rep()
    worst = 0.0
    for _ in range(max(3, ctx.depth)):
        s, t = (ctx.rng.choice(ctx.small_s()[:3]) for _ in range(2))
        a = _random_algebra_element(ctx, terms=2)
        b = _random_algebra_element(ctx, terms=2)
        try:
            d1 = xprod.compose_corner(fam, s, a, t)
            d2 = xprod.compose_corner(fam, t, b, s)
            tri1 = xprod.corner_decompose(d1)
            tri2 = xprod.corner_decompose(d2)
            tri12 = xprod.corner_decompose(d1 * d2)
        except LevelCapError:
            continue
        for v in ctx.vectors(2):
            lhs = xprod.eval_corner(rep, tri1, xprod.eval_corner(rep, tri2, v))
            rhs = xprod.eval_corner(rep, tri12, v)
            worst = _worse(worst, lhs.distance(rhs))
    p_id = xprod.corner_decompose(xprod.projection_p(fam))
    for v in ctx.vectors(2):
        worst = _worse(worst, xprod.eval_corner(rep, p_id, v).distance(v))
    return _float(worst, ctx.tol)


def check_x_ind_gram(ctx: Ctx):
    fam = ctx.family
    rep = ctx.rep()
    ind = xprod.x_ind(rep)
    dil = ind.dilation
    worst = 0.0
    data = []
    for _ in range(6):
        s, t = (ctx.rng.choice(ctx.small_s()[:3]) for _ in range(2))
        a = grpalg.delta(fam, ctx.cosets(1)[0])
        h = ctx.vectors(1)[0]
        data.append((s, a, t, h))
    # Module-side Gram via corner algebra, dilation-side Gram via Ore pairs.
    for i, (s1, a1, t1, h1) in enumerate(data):
        v1 = dilate.DilationVector.symbol(
            s1, repspace.apply_algebra(rep, a1, rep.apply_V(t1, h1))
        )
        for s2, a2, t2, h2 in data[i:]:
            v2 = dilate.DilationVector.symbol(
                s2, repspace.apply_algebra(rep, a2, rep.apply_V(t2, h2))
            )
            try:
                x1 = xprod.module_element(fam, s1, a1, t1)
                x2 = xprod.module_element(fam, s2, a2, t2)
                tri = xprod.corner_decompose(x2.star() * x1)
            except LevelCapError:
                continue
            module_side = xprod.eval_corner(rep, tri, h1).inner(h2)
            dilation_side = dil.inner(v1, v2)
            worst = _worse(worst, abs(module_side - dilation_side))
    for h in ctx.vectors(3):
        worst = _worse(worst, abs(dil.norm(ind.phi(h)) - h.norm()))
    return _float(worst, ctx.tol)


def check_engine_matches_dilation(ctx: Ctx):
    fam = ctx.family
    rep = ctx.rep()
    ind = xprod.x_ind(rep)
    dil = ind.dilation
    worst = 0.0
    p = xprod.projection_p(fam)
    for _ in range(max(4, ctx.depth * 2)):
        s = ctx.rng.choice(ctx.small_s()[:4])
        h = ctx.vectors(1)[0]
        vec = dilate.DilationVector.symbol(s, h)
        try:
            worst = _worse(worst, dil.distance(ind.act(p, vec), ind.rho_p(vec)))
            n = ctx.cosets(1)[0]
            lhs = ind.act(xprod.embed_algebra(grpalg.delta(fam, n)), dil.embed(h))
            worst = _worse(worst, dil.distance(lhs, dil.embed(rep.apply_Y(n, h))))
            vs = xprod.isom_v(fam, s)
            lhs = ind.act(vs, dil.embed(h))
            worst = _worse(worst, dil.distance(lhs, dil.embed(rep.apply_V(s, h))))
        except LevelCapError:
            continue
    return _float(worst, ctx.tol)


def check_rc_roundtrip(ctx: Ctx):
    rep = ctx.rep()
    ind = xprod.x_ind(rep)
    dil = ind.dilation
    back = xprod.rc(ind)
    worst = 0.0
    for h in ctx.vectors(4):
        phi_h = ind.phi(h)
        worst = _worse(worst, dil.distance(ind.rho_p(phi_h), phi_h))
        for n in ctx.cosets(2):
            worst = _worse(
                worst,
                dil.distance(back.apply_Y(n, phi_h), ind.phi(rep.apply_Y(n, h))),
            )
        for s in ctx.small_s()[:3]:
            worst = _worse(
                worst,
                dil.distance(back.apply_V(s, phi_h), ind.phi(rep.apply_V(s, h))),
            )
            worst = _worse(
                worst,
                dil.distance(back.apply_Vstar(s, phi_h), ind.phi(rep.apply_Vstar(s, h))),
            )
    return _float(worst, ctx.tol)


def check_theta_gram(ctx: Ctx):
    fam = ctx.family
    rep = ctx.rep()
    ind = xprod.x_ind(rep)
    dil = ind.dilation
    worst = 0.0
    pairs = []
    for _ in range(6):
        s, t = (ctx.rng.choice(ctx.small_s()[:3]) for _ in range(2))
        a = grpalg.delta(fam, ctx.cosets(1)[0])
        try:
            d = xprod.compose_corner(fam, s, a, t)
        except LevelCapError:
            continue
        pairs.append((d, ctx.vectors(1)[0]))
    images = [xprod.theta_map(ind, d, h) for d, h in pairs]
    p = xprod.projection_p(fam)
    for i, (d1, h1) in enumerate(pairs):
        for j, (d2, h2) in enumerate(pairs[i:], start=i):
            # Module-side inner product of p d1 (x) h1 against p d2 (x) h2.
            try:
                tri = xprod.corner_decompose((p * d2).star() * (p * d1))
            except LevelCapError:
                continue
            module_side = xprod.eval_corner(rep, tri, h1).inner(h2)
            image_side = dil.inner(images[i], images[j])
            worst = _worse(worst, abs(module_side - image_side))
    return _float(worst, ctx.tol)


def check_naturality(ctx: Ctx):
    fam = ctx.family
    rep = ctx.rep()
    rep2 = repspace.direct_sum(rep, rep)
    T = repspace.inclusion_intertwiner("a")
    ind1 = xprod.x_ind(rep)
    ind2 = xprod.x_ind(rep2)
    dil2 = ind2.dilation
    worst = 0.0
    for _ in range(max(3, ctx.depth)):
        s, t = (ctx.rng.choice(ctx.small_s()[:3]) for _ in range(2))
        a = grpalg.delta(fam, ctx.cosets(1)[0])
        h = ctx.vectors(1)[0]
        try:
            d = xprod.compose_corner(fam, s, a, t)
        except LevelCapError:
            continue
        lhs = xprod.theta_map(ind2, d, T(h))
        rhs = xprod.theta_map(ind1, d, h).map_blocks(lambda _s, blk: T(blk))
        worst = _worse(worst, dil2.distance(lhs, rhs))
    return _float(worst, ctx.tol)


def check_extend_restrict(ctx: Ctx):
    fam = ctx.family
    rep = ctx.rep()
    ind = xprod.x_ind(rep)
    dil = ind.dilation
    worst = 0.0
    for _ in range(ctx.trials // 2):
        n = ctx.cosets(1)[0]
        s = ctx.rng.choice(ctx.small_s()[:4])
        v = dilate.DilationVector.symbol(s, ctx.vectors(1)[0])
        lhs = ind.W(tower.embed_j(fam, n), v)
        worst = _worse(worst, dil.distance(lhs, dil.apply_W(n, v)))
    for m in ctx.sample_M(4):
        v = dilate.DilationVector.symbol(ctx.rng.choice(ctx.small_s()[:3]), ctx.vectors(1)[0])
        worst = _worse(worst, ind.m_fixed_deviation(m, v))
    # The unit expressed on deeper cylinders acts as the fixed-space cut.
    for level in ctx.small_s()[1:3]:
        try:
            fam.require_level(level)
            k_refined = autodil.chi_K(fam).refine(level)
        except LevelCapError:
            continue
        v = dilate.DilationVector.symbol(ctx.rng.choice(ctx.small_s()[:3]), ctx.vectors(1)[0])
        worst = _worse(worst, dil.distance(ind.rho(k_refined, v), ind.rho_p(v)))
    return _float(worst, ctx.tol)


def check_extension_covariance(ctx: Ctx):
    fam = ctx.family
    rep = ctx.rep()
    ind = xprod.x_ind(rep)
    dil = ind.dilation
    worst = 0.0
    for _ in range(max(4, ctx.depth * 2)):
        f = _random_locfun(ctx)
        s = ctx.rng.choice(ctx.small_s()[:3])
        g = fam.g_from_s(s)
        v = dilate.DilationVector.symbol(ctx.rng.choice(ctx.small_s()[:3]), ctx.vectors(1)[0])
        try:
            lhs = ind.rho(autodil.theta_star_g(g, f), v)
            rhs = dil.apply_U(g, ind.rho(f, dil.apply_U(fam.g_inv(g), v)))
        except LevelCapError:
            continue
        worst = _worse(worst, dil.distance(lhs, rhs))
    return _float(worst, ctx.tol)


# ---------------------------------------------------------------------------
# adeles suite


def check_crt_bijective(ctx: Ctx):
    fam = ctx.family
    bound = min(ctx.max_level, 360)
    for n in range(1, bound + 1):
        moduli = [p**l for p, l in sorted(adeles.factor(n).items())]
        seen = set()
        for r in range(n):
            seen.add(tuple(r % q for q in moduli))
        if len(seen) != n:
            return _exact(False, f"residue splitting not injective at n={n}")
        # Tie the vectorized sweep to the public splitting function.
        for r in (0, n // 2, n - 1):
            comps = adeles.crt_forward(tower.TruncatedElement.make(fam, n, Fraction(r)))
            if tuple(c.r for c in comps) != tuple(r % q for q in moduli):
                return _exact(False, f"splitting function disagrees at n={n}, r={r}")
    return _exact(True, f"n <= {bound}")


def check_crt_hom(ctx: Ctx):
    fam = ctx.family
    for _ in range(ctx.trials):
        n = ctx.rng.randint(2, ctx.max_level)
        a, b = ctx.rng.randrange(n), ctx.rng.randrange(n)
        xa = tower.TruncatedElement.make(fam, n, Fraction(a))
        xb = tower.TruncatedElement.make(fam, n, Fraction(b))
        fa = {(c.p, c.l): c.r for c in adeles.crt_forward(xa)}
        fb = {(c.p, c.l): c.r for c in adeles.crt_forward(xb)}
        fsum = {(c.p, c.l): c.r for c in adeles.crt_forward(xa.add(xb))}
        fprod = {
            (c.p, c.l): c.r
            for c in adeles.crt_forward(tower.TruncatedElement.make(fam, n, Fraction(a * b)))
        }
        for key in fsum:
            p, l = key
            if fsum[key] != (fa[key] + fb[key]) % p**l:
                return _exact(False, f"additivity failed at n={n}")
            if fprod[key] != (fa[key] * fb[key]) % p**l:
                return _exact(False, f"multiplicativity failed at n={n}")
    return _exact(True)


def check_crt_roundtrip(ctx: Ctx):
    fam = ctx.family
    for _ in range(ctx.trials):
        n = ctx.rng.randint(2, ctx.max_level)
        r = ctx.rng.randrange(n)
        comps = adeles.crt_forward(tower.TruncatedElement.make(fam, n, Fraction(r)))
        if adeles.crt_inverse(comps) != r:
            return _exact(False, f"round trip failed at n={n}, r={r}")
    for k in range(1, min(ctx.max_level, 100) + 1):
        x = tower.embed_j(fam, Fraction(k))
        level = ctx.max_level
        comps = adeles.crt_forward(x.truncate(level))
        for c in comps:
            if c.r != k % c.p**c.l:
                return _exact(False, f"integer embedding failed at {k}")
    return _exact(True)


def check_pairing_level_independence(ctx: Ctx):
    fam = ctx.family
    for _ in range(ctx.trials):
        dx = ctx.rng.randint(1, 12)
        dy = ctx.rng.randint(1, 12)
        x = tower.embed_j(fam, Fraction(ctx.rng.randrange(1, 4 * dx), dx))
        y = tower.embed_j(fam, Fraction(ctx.rng.randrange(1, 4 * dy), dy))
        base = adeles.pairing(x, y)
        lcm = (dx * dy) // math.gcd(dx, dy)
        for mult in (2, 3):
            if adeles.pairing(x, y, at_level=lcm * mult) != base:
                return _exact(False, "pairing depends on the level")
    return _exact(True)


def check_perfect_pairing(ctx: Ctx):
    fam = ctx.family
    bound = min(ctx.max_level, 64)
    xs = [tower.embed_j(fam, Fraction(k)) for k in range(bound)]
    for n in range(2, bound + 1):
        ys = [tower.embed_j(fam, Fraction(r, n)) for r in range(n)]
        rows = adeles.pairing_rows(xs[:n], ys)
        if len(set(rows)) != len(rows):
            return _exact(False, f"pairing degenerate at n={n}")
    return _exact(True, f"n <= {bound}")


def check_mu_coherence(ctx: Ctx):
    fam = ctx.family
    for _ in range(ctx.trials):
        n = ctx.rng.randint(1, 10)
        k = ctx.rng.randint(1, 6)
        level = ctx.rng.randint(1, 5)
        num = ctx.rng.randrange(n * level)
        x = tower.TruncatedElement.make(fam, level, Fraction(num, n))
        a = adeles.mu_m(x, n)
        b = adeles.mu_m(x, k * n)
        if not adeles.adele_equal(a, b, fam):
            return _exact(False, f"charts disagree at n={n}, k={k}")
    return _exact(True)


def check_matrix_pairing(ctx: Ctx):
    fam = ctx.family
    tfam = fam.transpose_family()
    for _ in range(ctx.trials // 2):
        sx = (ctx.rng.randint(0, 2), ctx.rng.randint(0, 2))
        sy = (ctx.rng.randint(0, 2), ctx.rng.randint(0, 2))
        vx = tuple(Fraction(ctx.rng.randint(-3, 3)) for _ in range(fam.dim))
        vy = tuple(Fraction(ctx.rng.randint(-3, 3)) for _ in range(tfam.dim))
        x = tower.embed_j(fam, fam.psi_s(sx, vx))
        y = tower.embed_j(tfam, tfam.psi_s(sy, vy))
        base = adeles.matrix_pairing(fam, x, y)
        tx = adeles.matrix_denominator_level(fam, x)
        ty = adeles.matrix_denominator_level(tfam, y)
        start = (max(tx[0], ty[0]), max(tx[1], ty[1]))
        for bump in ((1, 0), (0, 1), (1, 1)):
            deeper = (start[0] + bump[0], start[1] + bump[1])
            if adeles.matrix_pairing(fam, x, y, at_level=deeper) != base:
                return _exact(False, "pairing depends on the level")
        lattice = tower.embed_j(fam, tuple(Fraction(ctx.rng.randint(-3, 3)) for _ in range(fam.dim)))
        y_int = tower.embed_j(tfam, tuple(Fraction(ctx.rng.randint(-3, 3)) for _ in range(fam.dim)))
        if adeles.matrix_pairing(fam, lattice, y_int) != 0:
            return _exact(False, "integral pairing is nonzero")
    return _exact(True)


def check_matrix_index_formula(ctx: Ctx):
    fam = ctx.family
    for m in range(ctx.depth + 1):
        for n in range(ctx.depth + 1):
            s = (m, n)
            det_side = abs(fam.detF) ** m * abs(fam.detM) ** n
            if fam.enumeration_count(s) != det_side:
                return _exact(False, f"enumeration disagrees with determinants at {s}")
    return _exact(True)


def check_transpose_coincidence(ctx: Ctx):
    fam = ctx.family
    if fam.F == [list(r) for r in zip(*fam.F)] and fam.Mmat == [list(r) for r in zip(*fam.Mmat)]:
        t = fam.transpose_family()
        for s in ctx.small_s()[:4]:
            if t._hnf(s) != fam._hnf(s):
                return _exact(False, "self-transpose towers differ")
        return _exact(True, "self-dual: towers coincide")
    return _exact(True, "family not symmetric; coincidence not applicable")


# ---------------------------------------------------------------------------
# helpers and the registry


def _random_algebra_element(ctx: Ctx, terms=3):
    pairs = []
    for n in ctx.cosets(terms):
        pairs.append(
            (n, Fraction(ctx.rng.randint(-4, 4), ctx.rng.randint(1, 4)))
        )
    return grpalg.GroupAlgebraElement.build(ctx.family, pairs)


def _random_locfun(ctx: Ctx):
    fam = ctx.family
    level = ctx.rng.choice(ctx.small_s()[: max(2, ctx.depth)])
    pairs = []
    for n in ctx.cosets(3):
        pairs.append((n, Fraction(ctx.rng.randint(-4, 4), ctx.rng.randint(1, 4))))
    return autodil.LocFun.build(fam, level, pairs)


CHECKS = [
    # (check id, suite, statement, applicable families, callable)
    ("algebra.ore-pairs", "algebra", "common left multiples exist and the computed pair satisfies u*s = v*t", None, check_ore_pairs),
    ("algebra.index-multiplicative", "algebra", "subgroup indices multiply along the semigroup", None, check_index_multiplicative),
    ("algebra.index-counts", "algebra", "the index equals the number of enumerated coset representatives", None, check_index_counts),
    ("algebra.reps-partition", "algebra", "enumerated representatives are canonical and form a transversal", None, check_reps_partition),
    ("algebra.solve-coset", "algebra", "preimage cosets of a class have full count and partition disjointly", None, check_solve_coset),
    ("algebra.canonical-idempotent", "algebra", "canonical reduction is idempotent", None, check_canonical_idempotent),
    ("algebra.semidirect", "algebra", "the semidirect product law is associative with exact inverses", None, check_semidirect_associativity),
    ("algebra.alpha-endomorphism", "algebra", "the averaging maps are *-endomorphisms of the group algebra", None, check_alpha_endomorphism),
    ("algebra.alpha-semigroup", "algebra", "averaging maps compose as the semigroup, in either order", None, check_alpha_semigroup),
    ("algebra.alpha-unit", "algebra", "the averaging image of the unit is a self-adjoint idempotent", None, check_alpha_unit_projection),
    ("algebra.alpha-injective", "algebra", "distinct generators have disjoint averaging supports", None, check_alpha_injective_on_generators),
    ("tower.projection-coherence", "tower", "level projections commute with the bonding maps", None, check_projection_coherence),
    ("tower.theta-intertwines", "tower", "the completion action extends the group action through the embedding", None, check_theta_intertwines_embedding),
    ("tower.theta-roundtrip", "tower", "the completion action composed with its inverse is the identity", None, check_theta_roundtrip),
    ("tower.theta-k-index", "tower", "the image of the compact subgroup splits into index-many classes", None, check_theta_k_index),
    ("tower.k-closure", "tower", "the compact subgroup truncation is closed under addition", None, check_k_closure),
    ("tower.separation", "tower", "every nonidentity element is separated from some level subgroup", None, check_separation),
    ("autodil.refine-pointwise", "autodil", "refinement re-expresses the same locally constant function", None, check_refine_pointwise),
    ("autodil.chiK-projection", "autodil", "the compact subgroup indicator is a self-adjoint idempotent under convolution", None, check_chiK_projection),
    ("autodil.embed-homomorphism", "autodil", "the embedding turns generator products into convolutions of cylinder indicators", None, check_embed_homomorphism),
    ("autodil.embed-unital", "autodil", "the embedding lands unitally in the corner cut by the subgroup indicator", None, check_embed_unital),
    ("autodil.intertwine", "autodil", "embedding after averaging equals the rescaled action after embedding", None, check_intertwine_alpha_theta),
    ("autodil.theta-star-laws", "autodil", "the rescaled action is invertible and composes as the semigroup", None, check_theta_star_laws),
    ("autodil.minimality", "autodil", "inverse rescaled images of generators are exactly the scaled cylinder indicators", None, check_minimality_formula),
    ("autodil.convolve-associative", "autodil", "Haar-weighted convolution is associative", None, check_convolve_associative),
    ("autodil.faithful", "autodil", "the embedding of the group algebra is injective", None, check_embedding_faithful),
    ("dilation.covariance", "dilation", "the regular pair satisfies the covariance relation", None, check_covariance),
    ("dilation.isometries", "dilation", "the semigroup operators are isometries composing multiplicatively", None, check_isometries),
    ("dilation.average-projection", "dilation", "averaging finite unitary families is an orthogonal projection", None, check_average_projection),
    ("dilation.inner-ore", "dilation", "the dilation pairing is independent of the common multiple chosen", None, check_inner_ore_independence),
    ("dilation.gram-psd", "dilation", "Gram matrices of dilation symbols are positive semidefinite", None, check_gram_psd),
    ("dilation.unitaries", "dilation", "the dilated group operators are norm-preserving with exact inverses", None, check_unitaries),
    ("dilation.w-well-defined", "dilation", "the dilated subgroup unitaries respect symbol collisions", None, check_w_well_defined),
    ("dilation.dilated-covariance", "dilation", "conjugating the dilated unitaries implements the group action", None, check_dilated_covariance),
    ("dilation.w-recovers", "dilation", "the dilated unitaries restrict to the original algebra action", None, check_w_recovers),
    ("dilation.restrict-compress", "dilation", "restriction-compression of the dilation recovers the original pair", None, check_restrict_compress),
    ("appendix.p-v-identities", "appendix", "the unit image is a projection and the corner isometries satisfy v*v = p", None, check_p_v_identities),
    ("appendix.corner-decompose", "appendix", "corner elements decompose exactly into isometry-algebra-isometry triples", None, check_corner_decompose),
    ("appendix.corner-fullness", "appendix", "cylinders at each level arise from products through the projection", None, check_corner_fullness),
    ("appendix.eval-corner", "appendix", "evaluating corner triples on the carrier is multiplicative", None, check_eval_corner),
    ("appendix.x-ind-gram", "appendix", "induction preserves inner products between module tensors and dilation symbols", None, check_x_ind_gram),
    ("appendix.engine-matches", "appendix", "the induced action agrees with the dilation operators on symbols", None, check_engine_matches_dilation),
    ("appendix.rc-roundtrip", "appendix", "restriction-compression after induction is the identity on the embedded carrier", None, check_rc_roundtrip),
    ("appendix.theta-gram", "appendix", "the intertwiner to the compressed space preserves Gram matrices", None, check_theta_gram),
    ("appendix.naturality", "appendix", "the intertwiner is natural with respect to morphisms of covariant pairs", None, check_naturality),
    ("appendix.extend-restrict", "appendix", "extension to the completion restricts back to the dilated unitaries", None, check_extend_restrict),
    ("appendix.extension-covariance", "appendix", "the extended function representation is covariant for the rescaled action", None, check_extension_covariance),
    ("adeles.crt-bijective", "adeles", "splitting residues into prime-power components is bijective", ("bost-connes",), check_crt_bijective),
    ("adeles.crt-hom", "adeles", "residue splitting preserves addition and multiplication", ("bost-connes",), check_crt_hom),
    ("adeles.crt-roundtrip", "adeles", "residue recombination inverts splitting and fixes embedded integers", ("bost-connes",), check_crt_roundtrip),
    ("adeles.pairing-level-independent", "adeles", "the duality pairing is independent of the admissible level", ("bost-connes",), check_pairing_level_independence),
    ("adeles.perfect-pairing", "adeles", "the finite-level pairing separates residues", ("bost-connes",), check_perfect_pairing),
    ("adeles.mu-coherence", "adeles", "denominator charts agree on overlaps", ("bost-connes",), check_mu_coherence),
    ("adeles.matrix-pairing", "adeles", "the transpose-tower pairing stabilizes above the denominator level", ("matrix",), check_matrix_pairing),
    ("adeles.matrix-index", "adeles", "lattice quotient enumeration matches the determinant formula", ("matrix",), check_matrix_index_formula),
    ("adeles.transpose-coincidence", "adeles", "symmetric matrices give coinciding towers", ("matrix",), check_transpose_coincidence),
]


def run(config: RunConfig):
    """Execute the selected suites; returns the sorted list of check reports.

    Every check draws from its own ``random.Random(config.seed)`` but shares
    one ``Ctx.cache``, so the covariant pair and its self-check are built
    once per run."""
    config.validate()
    family = family_from_config(config.family)
    cache: dict = {}
    reports = []
    for check_id, suite, statement, fams, fn in CHECKS:
        if config.suite != "all" and suite != config.suite:
            continue
        if config.suite == "none":
            continue
        if fams is not None and family.tag not in fams:
            continue
        ctx = Ctx(
            family=family,
            rng=random.Random(config.seed),
            depth=config.depth,
            max_level=config.max_level,
            trials=config.trials,
            tol=config.tolerance,
            cache=cache,
        )
        start = time.perf_counter()
        try:
            ok, deviation, exact, note = fn(ctx)
            status = "pass" if ok else "fail"
        except LevelCapError as exc:
            status, deviation, exact, note = "skipped", None, False, f"level cap: {exc}"
        except HeckeLabError as exc:
            status, deviation, exact, note = "fail", None, False, f"error: {exc}"
        except Exception as exc:  # one broken check must not lose the other reports
            status, deviation, exact = "error", None, False
            note = f"{type(exc).__name__}: {exc}"
        reports.append(
            CheckReport(
                check_id=check_id,
                statement=statement,
                status=status,
                deviation=deviation,
                exact=exact,
                runtime=time.perf_counter() - start,
                note=note,
            )
        )
    reports.sort(key=lambda r: r.check_id)
    return reports


def write_report(reports, path, config: RunConfig):
    lines = [json.dumps(r.to_json(), sort_keys=True, allow_nan=False) for r in reports]
    summary = {
        "summary": {
            "total": len(reports),
            "pass": sum(r.status == "pass" for r in reports),
            "fail": sum(r.status == "fail" for r in reports),
            "skipped": sum(r.status == "skipped" for r in reports),
            "error": sum(r.status == "error" for r in reports),
            "exact_zero": sum(r.exact and r.status == "pass" for r in reports),
            "family": config.family,
            "suite": config.suite,
            "seed": config.seed,
        }
    }
    lines.append(json.dumps(summary, sort_keys=True))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _print_human(reports):
    width = max((len(r.check_id) for r in reports), default=10)
    for r in reports:
        if r.exact and r.status == "pass":
            dev = "0 (exact)"
        elif r.deviation is None:
            dev = "-"
        else:
            dev = f"{r.deviation:.3e}"
        extra = f"  [{r.note}]" if r.note else ""
        print(f"{r.status.upper():7s} {r.check_id:{width}s} deviation={dev}{extra}")
    total = len(reports)
    bad = sum(r.status == "fail" for r in reports)
    skipped = sum(r.status == "skipped" for r in reports)
    errors = sum(r.status == "error" for r in reports)
    passed = total - bad - skipped - errors
    print(f"-- {total} checks: {passed} passed, {bad} failed, {skipped} skipped, {errors} errors")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hecke-lab",
        description="finite-level verification lab for semigroup crossed products and their dilations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("families", help="list shipped family descriptors")

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--family", default="bost-connes", help="bost-connes | padic | matrix")
    verify.add_argument("--p", type=int, default=2, help="prime for the padic family")
    verify.add_argument("--F", type=str, default=None, help="JSON matrix for the matrix family")
    verify.add_argument("--M", type=str, default=None, help="JSON matrix for the matrix family")
    verify.add_argument("--suite", default="all", choices=SUITES)
    verify.add_argument("--depth", type=int, default=3)
    verify.add_argument("--max-level", type=int, default=24)
    verify.add_argument("--trials", type=int, default=40)
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--tolerance", type=float, default=1e-9)
    verify.add_argument("--report", type=str, default=None)

    sub.add_parser("demo", help="run a small worked example")
    return parser


def _family_config(args) -> dict:
    if args.family == "bost-connes":
        return {"family": "bost-connes"}
    if args.family == "padic":
        return {"family": "padic", "p": args.p}
    if args.family == "matrix":
        F = _json_matrix("--F", args.F) if args.F else [[2, 0], [0, 3]]
        M = _json_matrix("--M", args.M) if args.M else [[5, 0], [0, 1]]
        return {"family": "matrix", "F": F, "M": M}
    raise ConfigError(f"unknown family {args.family!r}")


def _json_matrix(option: str, text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{option} is not valid JSON: {text!r} ({exc})") from exc


def cmd_families():
    print("bost-connes : rationals over the integers; semigroup = positive integers")
    print('              {"family": "bost-connes"}')
    print("padic       : p-power denominators over the integers; semigroup = naturals")
    print('              {"family": "padic", "p": 3}')
    print("matrix      : backward orbits of two commuting integer matrices over Z^d")
    print('              {"family": "matrix", "F": [[2,0],[0,3]], "M": [[5,0],[0,1]]}')


def cmd_demo():
    fam = BostConnesFamily()
    print("family:", fam.tag)
    print("ore pair for (2, 3):", fam.ore_pair(2, 3))
    d = grpalg.delta(fam, Fraction(1, 2))
    a2 = grpalg.alpha(2, d)
    print("averaging endomorphism of the half generator at 2:")
    for k, c in sorted(a2.values.items()):
        print(f"  coefficient {c.re} at coset {k}")
    lhs = autodil.embed_i(a2)
    rhs = autodil.theta_star(2, autodil.embed_i(d))
    print("embed-then-rescale equals average-then-embed:", lhs == rhs)
    rep = repspace.regular_covariant(fam)
    dil = dilate.Dilation(rep)
    h = repspace.SparseVector.basis(Fraction(0))
    sym = dilate.DilationVector.symbol(2, h)
    collision = dilate.DilationVector.symbol(6, rep.apply_V(3, h))
    print("symbol collision distance (should be ~0):", dil.distance(sym, collision))
    p = xprod.projection_p(fam)
    v2 = xprod.isom_v(fam, 2)
    print("corner isometry relation v*v = p:", v2.star() * v2 == p)
    print("pairing of j(2) against 1/3:", adeles.pairing(
        tower.embed_j(fam, Fraction(2)), tower.embed_j(fam, Fraction(1, 3))
    ))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "families":
        cmd_families()
        return 0
    if args.command == "demo":
        cmd_demo()
        return 0
    try:
        config = RunConfig(
            family=_family_config(args),
            suite=args.suite,
            depth=args.depth,
            max_level=args.max_level,
            trials=args.trials,
            seed=args.seed,
            tolerance=args.tolerance,
            report=args.report,
        )
        reports = run(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    write_report(reports, config.report, config)
    _print_human(reports)
    return 1 if any(r.status in ("fail", "error") for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
