"""Behaviour-preservation gate: rerun ``hecke-lab verify`` reports and
compare them with the golden reports under ``tests/golden``.

Each golden file is the JSON-lines report of one ``verify --seed 1`` run;
its trailing summary record names the family, suite and seed, and any run
setting it records, so the file alone says how to rerun it.  Check ids, statuses and ``exact`` flags must
match exactly, and so must the summary's counts; a float deviation may move
by at most the run's tolerance.  Runtimes and notes are ignored.

    PYTHONPATH=src python tests/report_gate.py tests/golden/matrix-*.jsonl

exits 1 and names every difference when a report has moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from hecke_lab.cli import RunConfig, run, write_report

GOLDEN = Path(__file__).resolve().parent / "golden"

# Run settings a golden summary may record.  A summary that leaves one out
# was made with the CLI default, which test_report_gate pins to RunConfig's.
RUN_SETTINGS = ("depth", "max_level", "trials", "tolerance")


def read_report(text: str):
    """(check records by id, summary record) of a JSON-lines report."""
    checks, summary = {}, None
    for line in text.splitlines():
        rec = json.loads(line)
        if "summary" in rec:
            summary = rec["summary"]
        else:
            checks[rec["check"]] = rec
    return checks, summary


def compare(golden: str, fresh: str, tol: float):
    """The differences between two reports, as readable lines."""
    want, want_summary = read_report(golden)
    got, got_summary = read_report(fresh)
    diffs = []
    if list(got) != list(want):
        diffs.append(f"check ids differ: {sorted(set(got) ^ set(want))}")
    for cid in want.keys() & got.keys():
        w, g = want[cid], got[cid]
        for key in ("status", "exact"):
            if g[key] != w[key]:
                diffs.append(f"{cid}: {key} {w[key]!r} -> {g[key]!r} (note: {g['note']!r})")
        dw, dg = w["deviation"], g["deviation"]
        if (dw is None) != (dg is None) or (dw is not None and abs(dg - dw) > tol):
            diffs.append(f"{cid}: deviation {dw!r} -> {dg!r}")
    if got_summary != want_summary:
        diffs.append(f"summary {want_summary} -> {got_summary}")
    return diffs


def rerun(path) -> list:
    """Rerun the report stored at path and compare it with the stored one."""
    golden = Path(path).read_text(encoding="utf-8")
    _, summary = read_report(golden)
    settings = {k: summary[k] for k in RUN_SETTINGS if k in summary}
    config = RunConfig(family=summary["family"], suite=summary["suite"], seed=summary["seed"], **settings)
    fresh = write_report(run(config), None, config)
    return compare(golden, fresh, config.tolerance)


def main(paths) -> int:
    bad = 0
    for path in paths:
        diffs = rerun(path)
        print(f"{'MOVED' if diffs else 'same '} {path}")
        for line in diffs:
            print(f"    {line}")
        bad += bool(diffs)
    return 1 if bad or not paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
