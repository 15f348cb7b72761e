"""Every golden ``verify --seed 1`` report, the two scalar families' and
the six matrix suites', still comes out the same (``report_gate`` says
what "the same" means)."""

import json

import pytest

from hecke_lab.cli import RunConfig, build_parser
from report_gate import GOLDEN, RUN_SETTINGS, compare, rerun


@pytest.mark.parametrize("name", ["bost-connes-all.jsonl", "padic-3-all.jsonl"])
def test_scalar_family_reports_match_golden(name):
    assert rerun(GOLDEN / name) == []


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("matrix-*.jsonl")))
def test_matrix_reports_match_golden(name):
    assert rerun(GOLDEN / name) == []


def test_cli_defaults_are_run_config_defaults():
    """The golden reports were made with the CLI and are rerun with
    RunConfig; a summary without a run setting relies on the two agreeing."""
    args = build_parser().parse_args(["verify"])
    defaults = RunConfig(family={})
    for name in RUN_SETTINGS:
        assert getattr(args, name) == getattr(defaults, name), name


def test_gate_sees_moved_status_flag_and_deviation():
    golden = (GOLDEN / "matrix-dilation.jsonl").read_text(encoding="utf-8")
    lines = [json.loads(line) for line in golden.splitlines()]
    floats = [r for r in lines if "check" in r and not r["exact"]]
    assert floats, "the dilation suite has float checks"
    assert compare(golden, golden, 1e-9) == []

    def moved(edit):
        recs = json.loads(json.dumps(lines))
        edit(recs)
        return compare(golden, "\n".join(json.dumps(r) for r in recs), 1e-9)

    cid = floats[0]["check"]
    pick = lambda recs: next(r for r in recs if r.get("check") == cid)
    assert moved(lambda recs: pick(recs).update(status="fail"))
    assert moved(lambda recs: pick(recs).update(exact=True))
    assert moved(lambda recs: pick(recs).update(deviation=pick(recs)["deviation"] + 2e-9))
    assert not moved(lambda recs: pick(recs).update(deviation=pick(recs)["deviation"] + 1e-12))
    assert not moved(lambda recs: pick(recs).update(runtime=123.0, note="other"))
    assert moved(lambda recs: recs.pop(0))
