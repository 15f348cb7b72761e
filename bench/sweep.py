"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/sweep.py --seeds 1-10 --log bench/results/set-a.jsonl
    python3 bench/sweep.py --report bench/results/set-a.jsonl bench/results/set-b.jsonl

The first form runs ``bench/run.py`` once per (seed, workload), one after
another with the workloads interleaved, for ``run_seconds`` from
BENCHMARK.json, and appends every result record, with the environment line
of its run, to the log.  The second prints, per log, each metric's median
and quartile spread (as a share of the median), the same for the raw CPU
time of the passes and for the reference loop timed during them, and, for
two logs, the second set's medians over the first's.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec: str):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def sweep(workloads, seed_spec, log):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    os.makedirs(os.path.dirname(os.path.abspath(log)), exist_ok=True)
    for seed in seeds(seed_spec):
        for workload in workloads:
            cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
            lines = out.stdout.splitlines()
            record = json.loads(lines[-1])
            record["environment"] = json.loads(lines[-2])["environment"]
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in record["metrics"].items()), flush=True)


def columns(record):
    env = record["environment"]
    cols = {k: v["value"] for k, v in record["metrics"].items()}
    cols["raw_cold_cpu_s"] = env["pass_cpu_s"][0]
    cols["raw_warm_cpu_s"] = statistics.median(env["pass_cpu_s"][1:])
    cols["reference_loop_ms"] = 1000 * statistics.median(env["reference_loop_s"])
    cols["passes"] = env["passes"]
    return cols


def report(logs):
    sets = []
    for log in logs:
        with open(log, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        by_workload = {}
        for r in records:
            by_workload.setdefault(r["environment"]["workload"], []).append(r)
        sets.append(by_workload)
    head = "| workload | metric | " + " | ".join(
        f"set {i + 1} median | IQR/median" for i in range(len(sets)))
    print(head + (" | set 2 / set 1 |" if len(sets) == 2 else " |"))
    print("|---" * (2 + 2 * len(sets) + (len(sets) == 2)) + "|")
    for workload in sets[0]:
        names = list(columns(sets[0][workload][0]))
        for name in names:
            cells, medians = [], []
            for by_workload in sets:
                values = [columns(r)[name] for r in by_workload.get(workload, [])]
                med, iqr = spread(values)
                medians.append(med)
                cells.append(f"{med:.4g} | {iqr:.3f}")
            ratio = f" | {medians[1] / medians[0]:.3f}" if len(sets) == 2 else ""
            print(f"| {workload} | {name} | " + " | ".join(cells) + ratio + " |")
        for i, by_workload in enumerate(sets):
            rs = by_workload.get(workload, [])
            shares = sorted({(r["failed"], r["attempted"] // r["environment"]["passes"]) for r in rs})
            print(f"| {workload} | set {i + 1}: runs, all correct, (failed, attempted per pass) | "
                  f"{len(rs)}, {all(r['correct'] for r in rs)}, {shares} |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=["coset-algebra", "corner", "dilation", "verify"])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--log", help="run the sweep, appending to this log")
    ap.add_argument("--report", nargs="+", metavar="LOG", help="summarise one or two logs")
    args = ap.parse_args()
    if bool(args.log) == bool(args.report):
        ap.error("give exactly one of --log and --report")
    if args.log:
        sweep(args.workloads, args.seeds, args.log)
    else:
        report(args.report)


if __name__ == "__main__":
    main()
