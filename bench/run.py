"""Run one hecke_lab benchmark workload and print its metrics.

    python3 bench/run.py --workload coset-algebra --seed 1 --seconds 12 --trace 0

Run from the repository root; the program is imported from ``src/``.  One
process, one thread.  The first pass over the workload's fixed operation
list starts with the program's caches empty (``cold_pass_s``); further
passes run until ``--seconds`` of wall time have gone by, and at least one
does (``warm_pass_s`` is their median).  Only the program's calls are
timed; every output is then checked by ``checks.py``.

Times are CPU seconds scaled to a fixed machine speed.  From the start of
``main`` a ``SpeedProbe`` times a fixed pure-Python reference loop every
50 ms of CPU time; ``setup_s`` is the process's CPU time from its start to
the first timed operation, a pass time the CPU time of the one thread in
the program's calls, each less the probe's time and multiplied by
``REFERENCE_S`` over the mean loop time measured during it.  On a shared
2-core machine the CPU time of one fixed pass moved by a quarter within a
minute, and the loop moved with it.

``--trace 1`` wraps the package's functions (see ``tracing.py``) and
prints the per-layer metrics, averaged over the warm passes, instead of
the end-to-end ones.  The last line of standard output is the result
record; the line before it records the environment.
"""

import argparse
import gc
import importlib.machinery
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ENV_LEVEL_CAP = "HECKE_LAB_LEVEL_CAP"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("coset-algebra", "corner", "dilation", "verify")

# The reference loop and the speed it defines: pass times are reported as
# the CPU seconds they take when one loop takes REFERENCE_S, about its
# median on the machine the README's figures come from.
REFERENCE_ITERATIONS = 500
REFERENCE_S = 0.0035
PROBE_PERIOD_S = 0.05


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def refuse(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


class SourceOnlyLoader(importlib.machinery.SourceFileLoader):
    """Compiles a module from its source every time, reading no bytecode cache."""

    def get_code(self, fullname):
        path = self.get_filename(fullname)
        return compile(self.get_data(path), path, "exec", dont_inherit=True)


def compile_from_source(*dirs):
    """Import modules under ``dirs`` from source, so that set-up time does
    not depend on whether an earlier Python run left ``__pycache__`` behind."""
    prefixes = tuple(os.path.join(d, "") for d in dirs)

    def hook(path):
        if not os.path.join(os.path.abspath(path), "").startswith(prefixes):
            raise ImportError("not a benchmark or program directory")
        return importlib.machinery.FileFinder(
            path, (SourceOnlyLoader, importlib.machinery.SOURCE_SUFFIXES))

    sys.path_hooks.insert(0, hook)
    sys.path_importer_cache.clear()


def import_program():
    """Import hecke_lab from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hecke_lab", "__init__.py")):
        refuse(f"no hecke_lab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    compile_from_source(SRC, HERE)
    import hecke_lab

    if os.path.dirname(os.path.dirname(os.path.abspath(hecke_lab.__file__))) != SRC:
        refuse(f"hecke_lab was imported from {hecke_lab.__file__}, not {SRC}")
    return hecke_lab


def reference_loop():
    acc = Fraction(0)
    for k in range(1, REFERENCE_ITERATIONS):
        acc = (acc + Fraction(k % 97, 1 + k % 13)) % 7
    return acc


class SpeedProbe:
    """Times ``reference_loop`` every ``PROBE_PERIOD_S`` of process CPU time,
    from a SIGPROF handler, with the garbage collector off so that the
    program's heap does not enter the figure.  ``clock()`` is the thread's
    CPU time less the time spent in the probe."""

    def __init__(self):
        self.spent = 0.0
        self.samples = []

    def _sample(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.thread_time()
        reference_loop()
        dt = time.thread_time() - t0
        if collecting:
            gc.enable()
        self.spent += dt
        self.samples.append(dt)

    def clock(self):
        return time.thread_time() - self.spent

    def __enter__(self):
        self._sample(None, None)  # so that every stretch has a sample
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def run_pass(ops, clock=time.thread_time):
    """Run every operation once; returns (timed seconds, [(label, status, message)])."""
    from checks import CheckFailed

    total, outcomes = 0.0, []
    for label, action, verdict in ops:
        t0 = clock()
        try:
            out = action()
        except Exception as exc:  # a failed operation is counted, not fatal
            total += clock() - t0
            outcomes.append((label, "failed", f"{type(exc).__name__}: {exc}"))
            continue
        total += clock() - t0
        try:
            verdict(out)
        except CheckFailed as exc:
            outcomes.append((label, "wrong", str(exc)))
        except Exception as exc:  # a malformed output fails its check
            outcomes.append((label, "wrong", f"{type(exc).__name__}: {exc}"))
        else:
            outcomes.append((label, "ok", ""))
        del out
    return total, outcomes


def environment(args, hecke_lab, setup, cpu, loops):
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(cpu),
        "setup_cpu_s": setup[0],
        "setup_reference_loop_s": setup[1],
        "pass_cpu_s": cpu,
        "reference_loop_s": loops,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hecke_lab": hecke_lab.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "env": {k: v for k, v in os.environ.items() if k.startswith("HECKE_LAB") or k in THREAD_VARS},
    }


def main(argv=None):
    args = parse_args(argv)
    if ENV_LEVEL_CAP in os.environ:
        refuse(f"{ENV_LEVEL_CAP} is set; it changes level caps and turns checks into skips")
    if args.seconds <= 0:
        refuse("--seconds must be positive")
    sys.dont_write_bytecode = True  # nothing is written outside the checkout
    for var in THREAD_VARS:  # one thread: no BLAS pool spinning beside the program
        os.environ[var] = "1"
    probe = SpeedProbe()
    tracer = None
    with probe:
        hecke_lab = import_program()
        import tracing
        import workloads

        try:
            if args.trace:
                tracer = tracing.Tracer(clock=probe.clock).install()
            ops = workloads.setup(args.workload, args.seed)
            setup_cpu = time.process_time() - probe.spent
            setup_loop = statistics.fmean(probe.samples)
            cpu, loops, outcomes = [], [], []
            measure_start = time.perf_counter()
            while len(cpu) < 2 or time.perf_counter() - measure_start < args.seconds:
                first = len(probe.samples)
                seconds, results = run_pass(ops, probe.clock)
                cpu.append(seconds)
                loops.append(statistics.fmean(probe.samples[first:] or probe.samples))
                outcomes.extend(results)
                if tracer and len(cpu) == 1:
                    tracer.reset()
        finally:
            if tracer:
                tracer.uninstall()
    setup_s = setup_cpu * REFERENCE_S / setup_loop
    times = [seconds * REFERENCE_S / loop for seconds, loop in zip(cpu, loops)]
    warm = times[1:]
    for label, status, message in dict.fromkeys(o for o in outcomes if o[1] != "ok"):
        print(f"bench: {status}: {label}: {message}", file=sys.stderr)
    if args.trace:
        metrics = tracer.metrics(len(warm))
        metrics["trace.warm_pass_s"] = (statistics.median(warm), "s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "cold_pass_s": (times[0], "s"),
            "warm_pass_s": (statistics.median(warm), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({"checks": [[label, status] for label, status, _ in outcomes[: len(ops)]]}))
    print(json.dumps({"environment": environment(args, hecke_lab, (setup_cpu, setup_loop), cpu, loops)}))
    print(json.dumps({
        "correct": all(status != "wrong" for _, status, _ in outcomes),
        "attempted": len(outcomes),
        "failed": sum(status != "ok" for _, status, _ in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
