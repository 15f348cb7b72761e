"""The performance history: the ``BENCH_*.json`` files at the repository
root, one per measured change.  Each must parse and keep the fields a
reader of the series relies on: what changed, on which machine, with which
command and run design, the summary, and the raw runs behind it."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HISTORY = sorted(ROOT.glob("BENCH_*.json"))
FIELDS = ("what", "machine", "command", "design", "summary")


def test_history_is_present():
    assert HISTORY


@pytest.mark.parametrize("path", HISTORY, ids=lambda p: p.name)
def test_bench_record_parses_and_keeps_its_fields(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(data, dict)
    assert [k for k in FIELDS if k not in data] == []
    assert isinstance(data["runs"], list) and data["runs"]
