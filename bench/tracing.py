"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces the functions and methods listed in
``SPANS`` (and a few counting hooks) with wrappers, wherever the package
holds a reference to them: on the defining class, in the defining module,
and in every module that imported the function by name.  ``uninstall()``
puts the originals back.  A span's self time is its duration minus the
durations of the wrapped calls made inside it, tracked with a stack of open
spans; inclusive time counts only the outermost span of a name.  Spans are
timed with the clock the passes use: the thread's CPU clock by default, less
the speed probe's time in ``run.py``.  Spans are aggregated in memory per
name rather than stored one by one, because a pass makes some hundred
thousand ``canon`` calls.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict

from hecke_lab import adeles, autodil, cli, coeffs, dilate, grpalg, lattice, pairs, repspace, tower, xprod

FAMILIES = (pairs.BostConnesFamily, pairs.PadicFamily, pairs.MatrixFamily)

# (span name, owner, attribute).  An owner is a module or a class; several
# attributes may share one span name, whose figures are then summed.
SPANS = [
    *(("pairs.canon", cls, "canon") for cls in FAMILIES),
    *(("pairs.n_add", cls, "n_add") for cls in FAMILIES),
    ("pairs.solve_coset", pairs.PairFamily, "solve_coset"),
    ("pairs.psi_reps", pairs.PairFamily, "psi_reps"),
    ("lattice.hnf_reduce", lattice, "hnf_reduce"),
    ("grpalg.alpha", grpalg, "alpha"),
    ("grpalg.build", grpalg.GroupAlgebraElement, "build"),
    ("grpalg.mul", grpalg.GroupAlgebraElement, "__mul__"),
    ("autodil.build", autodil.LocFun, "build"),
    ("autodil.refine", autodil.LocFun, "refine"),
    ("autodil.eq", autodil.LocFun, "__eq__"),
    ("autodil.convolve", autodil, "convolve"),
    ("autodil.theta_star", autodil, "theta_star"),
    ("autodil.theta_star_inv", autodil, "theta_star_inv"),
    ("xprod.mul", xprod.CrossedElement, "__mul__"),
    ("xprod.in_corner", xprod, "in_corner"),
    ("xprod.corner_decompose", xprod, "corner_decompose"),
    ("xprod.compose_corner", xprod, "compose_corner"),
    ("xprod.act", xprod.InducedRep, "act"),
    ("xprod.eval_corner", xprod, "eval_corner"),
    *(("repspace.vector", repspace.SparseVector, name) for name in ("build", "__add__", "scale", "inner")),
    *(("dilate." + name, dilate.Dilation, name)
      for name in ("inner", "apply_U", "apply_W", "project_fixed", "norm")),
    ("dilate.restrict_compress", dilate, "restrict_compress"),
    ("cli.run", cli, "run"),
]
COVARIANT_OPS = ("apply_Y", "apply_V", "apply_Vstar")


def _public_callables(module):
    """(owner, attribute) of every public function and method defined in module."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            for attr, member in vars(obj).items():
                fn = member.__func__ if isinstance(member, staticmethod) else member
                if not attr.startswith("_") and callable(fn) and not isinstance(member, property):
                    yield obj, attr
        elif callable(obj):
            yield module, name


class Tracer:
    def __init__(self, clock=time.thread_time):
        self._clock = clock
        self._undo = []
        self._stack = []  # open spans: [name, time in wrapped children]
        self._depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.max_s = defaultdict(float)
        self.counts = defaultdict(int)

    def reset(self):
        """Zero every figure in place; the installed wrappers hold these dicts."""
        for table in (self.calls, self.self_s, self.incl_s, self.max_s, self.counts):
            table.clear()

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span; ``after(args, result)`` may count."""
        stack, depth, clock = self._stack, self._depth, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                if not depth[name]:
                    self.incl_s[name] += dt
                if dt > self.max_s[name]:
                    self.max_s[name] = dt
                if stack:
                    stack[-1][1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- counting hooks ----------------------------------------------------

    def _after_canon(self, args, result):
        if result != args[1]:
            self.counts["canon.changed"] += 1

    def _build_counting(self, fn):
        counts = self.counts

        def build(family, level, pairs, exact=True):
            pairs = list(pairs)
            out = fn(family, level, pairs, exact)
            counts["build.pairs"] += len(pairs)
            counts["build.keys"] += len(out.values)
            return out

        return build

    def _refine_counting(self, fn):
        counts, calls = self.counts, self.calls

        def refine(f, t):
            if t == f.level:
                return fn(f, t)
            before = calls["autodil.build"]
            out = fn(f, t)
            counts["refine.nontrivial"] += 1
            counts["refine.hits"] += calls["autodil.build"] == before
            return out

        return refine

    def _after_compose(self, args, result):
        if len(self._stack) and self._stack[-1][0] == "xprod.corner_decompose":
            self.counts["decompose.probes"] += 1

    def _after_decompose(self, args, result):
        self.counts["decompose.nonzero"] += sum(len(a.values) for _, a, _ in result)

    def _iter_counting(self, fn):
        counts = self.counts

        def iter_coset_reps(*args, **kwargs):
            for rep in fn(*args, **kwargs):
                counts["cosets_enumerated"] += 1
                yield rep

        return iter_coset_reps

    def _covariant(self, fn):
        def regular_covariant(*args, **kwargs):
            rep = fn(*args, **kwargs)
            return dataclasses.replace(rep, **{
                op: self.span("repspace." + op, getattr(rep, op)) for op in COVARIANT_OPS
            })

        return regular_covariant

    # -- install / uninstall -----------------------------------------------

    def _replace(self, owner, attr, make):
        orig = vars(owner)[attr]
        is_static = isinstance(orig, staticmethod)
        fn = orig.__func__ if is_static else orig
        new = make(fn)
        setattr(owner, attr, staticmethod(new) if is_static else new)
        self._undo.append((owner, attr, orig))
        if isinstance(owner, type):
            return
        # Modules that imported the function by name hold their own reference.
        for mod in list(sys.modules.values()):
            if mod is not owner and getattr(mod, "__name__", "").startswith("hecke_lab") \
                    and vars(mod).get(attr) is fn:
                setattr(mod, attr, new)
                self._undo.append((mod, attr, fn))

    def install(self):
        after = {
            "pairs.canon": self._after_canon,
            "xprod.compose_corner": self._after_compose,
            "xprod.corner_decompose": self._after_decompose,
        }
        inner = {"autodil.build": self._build_counting, "autodil.refine": self._refine_counting}
        for name, owner, attr in SPANS:
            wrap_inner = inner.get(name, lambda f: f)
            self._replace(owner, attr, lambda f, n=name, w=wrap_inner: self.span(n, w(f), after.get(n)))
        for cls in FAMILIES:
            self._replace(cls, "iter_coset_reps", self._iter_counting)
        for attr in ("__mul__", "__rmul__", "__add__", "__radd__"):
            kind = "mul" if "mul" in attr else "add"
            self._replace(coeffs.QC, attr, lambda f, k=kind: self.counter(f"coeffs.qc_{k}", f))
        for module in (tower, adeles):
            for owner, attr in list(_public_callables(module)):
                self._replace(owner, attr, lambda f, n=module.__name__.split(".")[-1]: self.span(n, f))
        self._replace(repspace, "regular_covariant", self._covariant)
        self._checks = list(cli.CHECKS)
        cli.CHECKS[:] = [(*row[:4], self.span("cli.check", row[4])) for row in cli.CHECKS]
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()
        cli.CHECKS[:] = self._checks

    # -- metrics -----------------------------------------------------------

    def metrics(self, passes: int):
        """Per-pass means (maxima for ``*_max_s``) since the last reset."""
        c, s, i, k = self.calls, self.self_s, self.incl_s, self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "pairs.canon.calls": (c["pairs.canon"] / passes, "count"),
            "pairs.canon.self_s": (s["pairs.canon"] / passes, "s"),
            "pairs.canon.useful_ratio": (ratio(k["canon.changed"], c["pairs.canon"]), "ratio"),
            "pairs.n_add.calls": (c["pairs.n_add"] / passes, "count"),
            "pairs.solve_coset.self_s": (s["pairs.solve_coset"] / passes, "s"),
            "pairs.psi_reps.self_s": (s["pairs.psi_reps"] / passes, "s"),
            "pairs.cosets_enumerated": (k["cosets_enumerated"] / passes, "count"),
            "lattice.hnf_reduce.calls": (c["lattice.hnf_reduce"] / passes, "count"),
            "lattice.hnf_reduce.self_s": (s["lattice.hnf_reduce"] / passes, "s"),
            "grpalg.alpha.self_s": (s["grpalg.alpha"] / passes, "s"),
            "grpalg.build.self_s": (s["grpalg.build"] / passes, "s"),
            "grpalg.mul.self_s": (s["grpalg.mul"] / passes, "s"),
            "autodil.build.self_s": (s["autodil.build"] / passes, "s"),
            "autodil.build.keys_per_pair": (ratio(k["build.keys"], k["build.pairs"]), "ratio"),
            "autodil.convolve.calls": (c["autodil.convolve"] / passes, "count"),
            "autodil.convolve.self_s": (s["autodil.convolve"] / passes, "s"),
            "autodil.refine.self_s": (s["autodil.refine"] / passes, "s"),
            "autodil.refine.hit_ratio": (ratio(k["refine.hits"], k["refine.nontrivial"]), "ratio"),
            "autodil.theta_star.self_s": (s["autodil.theta_star"] / passes, "s"),
            "autodil.theta_star_inv.self_s": (s["autodil.theta_star_inv"] / passes, "s"),
            "autodil.eq.self_s": (s["autodil.eq"] / passes, "s"),
            "xprod.mul.calls": (c["xprod.mul"] / passes, "count"),
            "xprod.mul.self_s": (s["xprod.mul"] / passes, "s"),
            "xprod.in_corner.incl_s": (i["xprod.in_corner"] / passes, "s"),
            "xprod.corner_decompose.incl_s": (i["xprod.corner_decompose"] / passes, "s"),
            "xprod.corner_decompose.self_s": (s["xprod.corner_decompose"] / passes, "s"),
            "xprod.corner_decompose.probes": (k["decompose.probes"] / passes, "count"),
            "xprod.corner_decompose.useful_ratio": (
                ratio(k["decompose.nonzero"], k["decompose.probes"]), "ratio"),
            "coeffs.qc_mul.calls": (k["coeffs.qc_mul"] / passes, "count"),
            "coeffs.qc_add.calls": (k["coeffs.qc_add"] / passes, "count"),
            "repspace.apply_V.calls": (c["repspace.apply_V"] / passes, "count"),
            "repspace.apply_V.self_s": (s["repspace.apply_V"] / passes, "s"),
            "repspace.apply_Y.self_s": (s["repspace.apply_Y"] / passes, "s"),
            "repspace.apply_Vstar.self_s": (s["repspace.apply_Vstar"] / passes, "s"),
            "repspace.vector.self_s": (s["repspace.vector"] / passes, "s"),
            "dilate.inner.calls": (c["dilate.inner"] / passes, "count"),
            "dilate.inner.self_s": (s["dilate.inner"] / passes, "s"),
            "dilate.apply_U.self_s": (s["dilate.apply_U"] / passes, "s"),
            "dilate.apply_W.self_s": (s["dilate.apply_W"] / passes, "s"),
            "dilate.project_fixed.self_s": (s["dilate.project_fixed"] / passes, "s"),
            "dilate.norm.self_s": (s["dilate.norm"] / passes, "s"),
            "dilate.restrict_compress.self_s": (s["dilate.restrict_compress"] / passes, "s"),
            "xprod.act.self_s": (s["xprod.act"] / passes, "s"),
            "xprod.eval_corner.self_s": (s["xprod.eval_corner"] / passes, "s"),
            "tower.self_s": (s["tower"] / passes, "s"),
            "adeles.self_s": (s["adeles"] / passes, "s"),
            "cli.run.self_s": (s["cli.run"] / passes, "s"),
            "cli.checks": (c["cli.check"] / passes, "count"),
            "cli.check_max_s": (self.max_s["cli.check"], "s"),
        }
        return out
