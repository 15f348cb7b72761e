"""The scenario runner: suites, reports, determinism, and the console entry."""

import json
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from hecke_lab import cli
from hecke_lab.errors import ConfigError
from hecke_lab.cli import CheckReport, RunConfig, run, write_report, main
from hecke_lab.pairs import MatrixFamily
from hecke_lab.repspace import random_vector, regular_covariant


def small_config(**kw):
    base = dict(
        family={"family": "bost-connes"},
        suite="algebra",
        depth=2,
        max_level=12,
        trials=6,
        seed=5,
        tolerance=1e-9,
    )
    base.update(kw)
    return RunConfig(**base)


def test_algebra_suite_passes():
    reports = run(small_config())
    assert reports
    assert all(r.status == "pass" for r in reports)
    assert all(r.check_id.startswith("algebra.") for r in reports)
    # Exact checks report literal zeros.
    assert all(r.deviation == 0.0 for r in reports if r.exact)


def test_check_ids_unique_and_sorted():
    reports = run(small_config(suite="tower"))
    ids = [r.check_id for r in reports]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
    assert all(r.statement for r in reports)


def test_determinism_modulo_timing():
    cfg = small_config(suite="dilation", trials=5)
    a = run(cfg)
    b = run(small_config(suite="dilation", trials=5))

    def strip(reports):
        return [
            {k: v for k, v in r.to_json().items() if k != "runtime"} for r in reports
        ]

    assert strip(a) == strip(b)


def test_empty_suite():
    reports = run(small_config(suite="none"))
    assert reports == []


def test_family_specific_checks_filtered():
    reports = run(small_config(suite="adeles", family={"family": "padic", "p": 2}))
    # All shipped residue-splitting checks are rationals-family only.
    assert all("matrix" not in r.check_id and "crt" not in r.check_id for r in reports)


def test_matrix_adeles_suite():
    cfg = small_config(
        suite="adeles",
        family={"family": "matrix", "F": [[2, 0], [0, 3]], "M": [[5, 0], [0, 1]]},
        depth=2,
        trials=4,
    )
    reports = run(cfg)
    ids = {r.check_id for r in reports}
    assert "adeles.matrix-index" in ids
    assert all(r.status == "pass" for r in reports)


def test_report_format(tmp_path):
    cfg = small_config(suite="tower")
    reports = run(cfg)
    path = tmp_path / "report.jsonl"
    text = write_report(reports, str(path), cfg)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == [json.loads(line) for line in text.splitlines()]
    *checks, summary = lines
    assert len(checks) == len(reports)
    for rec in checks:
        assert {"check", "statement", "status", "deviation", "exact", "runtime"} <= set(rec)
    assert summary["summary"]["total"] == len(reports)
    assert summary["summary"]["fail"] == 0


def test_config_validation():
    with pytest.raises(ConfigError):
        run(small_config(suite="bogus"))
    with pytest.raises(ConfigError):
        run(small_config(tolerance=0.5))
    with pytest.raises(ConfigError):
        run(small_config(depth=0))


def test_main_families_and_demo(capsys):
    assert main(["families"]) == 0
    out = capsys.readouterr().out
    assert "bost-connes" in out and "matrix" in out
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "v*v = p" in out


def test_main_verify_exit_code(tmp_path, capsys):
    path = tmp_path / "r.jsonl"
    code = main(
        [
            "verify",
            "--family",
            "bost-connes",
            "--suite",
            "tower",
            "--depth",
            "2",
            "--trials",
            "5",
            "--seed",
            "3",
            "--report",
            str(path),
        ]
    )
    assert code == 0
    assert path.exists()
    out = capsys.readouterr().out
    assert "PASS" in out


def test_nan_deviation_fails_and_reports_strict_json(monkeypatch):
    """A NaN deviation fails: from ``_float`` itself, through the ``_worse``
    fold that the float checks share (``max`` would drop the NaN), and
    through ``dilation.gram-psd`` given a NaN least eigenvalue.  Each
    report line is strict JSON: the deviation is null and the note names
    it."""
    nan = float("nan")
    assert math.isnan(cli._worse(nan, 1.0)) and math.isnan(cli._worse(1.0, nan))
    assert cli._worse(1.0, 2.0) == 2.0 and cli._worse(2.0, 1.0) == 2.0

    def direct(ctx):
        return cli._float(nan, ctx.tol)

    def folded(ctx):
        worst = 0.0
        for dev in (1e-12, nan, 1e-13):
            worst = cli._worse(worst, dev)
        return cli._float(worst, ctx.tol)

    gram = next(row for row in cli.CHECKS if row[0] == "dilation.gram-psd")
    monkeypatch.setattr(cli.dilate.Dilation, "gram_min_eigenvalue", lambda self, vectors: nan)
    monkeypatch.setattr(
        cli,
        "CHECKS",
        [("algebra.direct", "algebra", "nan", None, direct),
         ("algebra.folded", "algebra", "nan", None, folded), gram],
    )
    cfg = small_config(suite="all")
    reports = run(cfg)
    assert [(r.check_id, r.status) for r in reports] == [
        ("algebra.direct", "fail"), ("algebra.folded", "fail"), ("dilation.gram-psd", "fail"),
    ]

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    lines = write_report(reports, None, cfg).splitlines()
    records = [json.loads(line, parse_constant=refuse) for line in lines]
    assert all(rec["deviation"] is None and rec["note"].startswith("deviation nan") for rec in records[:3])
    assert records[-1]["summary"]["fail"] == 3


@pytest.mark.parametrize(
    "exc",
    [ValueError("deviation of an empty sample"), ZeroDivisionError("division by zero"),
     np.linalg.LinAlgError("Singular matrix")],
    ids=["value", "zero-division", "linalg"],
)
def test_raising_check_reported_as_error(exc, monkeypatch, tmp_path, capsys):
    """An exception outside the package's own errors ends one check as
    ``error``; the other checks still run and report, and main exits 1."""

    def broken(ctx):
        raise exc

    def fine(ctx):
        return True, 0.0, True, ""

    monkeypatch.setattr(
        cli,
        "CHECKS",
        [("algebra.broken", "algebra", "raises", None, broken),
         ("algebra.fine", "algebra", "holds", None, fine)],
    )
    cfg = small_config()
    reports = run(cfg)
    assert [(r.check_id, r.status) for r in reports] == [
        ("algebra.broken", "error"),
        ("algebra.fine", "pass"),
    ]
    assert reports[0].note == f"{type(exc).__name__}: {exc}"
    summary = json.loads(write_report(reports, None, cfg).splitlines()[-1])["summary"]
    assert (summary["error"], summary["pass"], summary["fail"]) == (1, 1, 0)
    path = tmp_path / "r.jsonl"
    assert main(["verify", "--suite", "algebra", "--report", str(path)]) == 1
    out = capsys.readouterr().out
    assert "ERROR" in out and "1 errors" in out


@pytest.mark.parametrize(
    "option",
    [
        ["--F", "[[2,0],[0,3]"],
        ["--M", "not json"],
        ["--F", "[[2.5,0],[0,3]]"],
        ["--F", "[[true,0],[0,3]]"],
        ["--M", "5"],
    ],
)
def test_main_matrix_input_errors_exit_2(option, capsys):
    code = main(["verify", "--family", "matrix", "--suite", "none", *option])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_main_unwritable_report_exits_2_before_any_check(where, monkeypatch, tmp_path, capsys):
    ran = []
    monkeypatch.setattr(
        cli, "CHECKS", [("algebra.probe", "algebra", "runs", None, lambda ctx: ran.append(1))]
    )
    path = tmp_path / "absent" / "r.jsonl" if where == "missing-directory" else tmp_path
    assert main(["verify", "--suite", "algebra", "--report", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert ran == []
    assert not (tmp_path / "absent").exists()


def test_one_covariant_pair_per_run(monkeypatch):
    """Checks share the run's cache, so the covariant pair and its
    self-check are built once, however many dilation checks use it."""
    calls = []
    build = cli.repspace.regular_covariant

    def counting(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli.repspace, "regular_covariant", counting)
    reports = run(small_config(suite="dilation"))
    assert len(reports) > 1
    assert all(r.status == "pass" for r in reports)
    assert len(calls) == 1


def test_console_script_entrypoint():
    result = subprocess.run(
        [sys.executable, "-m", "hecke_lab.cli", "families"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "bost-connes" in result.stdout


def test_dilation_suite_never_imports_numpy():
    """The package runs without numpy: in a fresh interpreter, the dilation
    suite, whose gram-psd and restrict-compress checks do the dense linear
    algebra, passes for bost-connes and matrix at seed 1 and leaves numpy
    unimported."""
    code = """
import sys
from hecke_lab import cli
for family in ({"family": "bost-connes"},
               {"family": "matrix", "F": [[2, 0], [0, 3]], "M": [[5, 0], [0, 1]]}):
    reports = cli.run(cli.RunConfig(family=family, suite="dilation", seed=1))
    ids = [r.check_id for r in reports]
    assert "dilation.gram-psd" in ids and "dilation.restrict-compress" in ids, ids
    assert all(r.status == "pass" for r in reports), [(r.check_id, r.status) for r in reports]
assert "numpy" not in sys.modules, "numpy was imported"
"""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_dilation_checks_decode_no_carrier_vector(monkeypatch):
    """The regular pair keeps its vectors under carrier codes from input to
    verdict: on the matrix dilation suite at seed 1, the isometry,
    covariance and inner-ore checks never read a coded vector's ``values``,
    which is what calls the family's ``decode``."""
    current = [None]
    decodes = {}
    decode = MatrixFamily.decode

    def counting(self, codes):
        decodes[current[0]] = decodes.get(current[0], 0) + 1
        return decode(self, codes)

    def tracked(check_id, fn):
        def check(ctx):
            current[0] = check_id
            try:
                return fn(ctx)
            finally:
                current[0] = None

        return check

    monkeypatch.setattr(MatrixFamily, "decode", counting)
    monkeypatch.setattr(
        cli, "CHECKS", [(*row[:4], tracked(row[0], row[4])) for row in cli.CHECKS]
    )
    matrix = {"family": "matrix", "F": [[2, 0], [0, 3]], "M": [[5, 0], [0, 1]]}
    reports = run(RunConfig(family=matrix, suite="dilation", seed=1))
    ids = {r.check_id: r.status for r in reports}
    quiet = ("dilation.isometries", "dilation.covariance", "dilation.inner-ore")
    assert all(ids[c] == "pass" for c in quiet)
    assert not any(decodes.get(c) for c in quiet)
    # The wrapper does see a read of values.
    fam = MatrixFamily(matrix["F"], matrix["M"])
    lifted = regular_covariant(fam, check=False).apply_V((1, 0), random_vector(fam, random.Random(1)))
    assert lifted.values and decodes.get(None) == 1
