"""The benchmark's output check, run once per workload.

Every workload listed in ``BENCHMARK.json`` runs once, in process, on its
seed-11 model.  Its normalized records must equal the table under
``bench/expected/`` that the benchmark compares each of its runs against, so
a change of output fails here before the benchmark refuses it.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from dgtangent.cli import main

ROOT = Path(__file__).resolve().parents[1]

_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # leave no cache under bench/
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKLOADS, normalized  # noqa: E402

sys.path.remove(str(ROOT / "bench"))
sys.dont_write_bytecode = _write_bytecode

NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", NAMES)
def test_workload_records_match_the_expected_table(name, tmp_path):
    w = WORKLOADS[name]
    model = tmp_path / f"{name}.model"
    model.write_text(w.model_text(11), encoding="utf-8")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(w.command(str(model)))
    assert status == 0
    records = [json.loads(line) for line in buffer.getvalue().splitlines()]
    assert normalized(records) == w.expected_records()
