"""The package calls that the benchmark harness under ``benchmark/`` makes.

``benchmark/selfcheck.py`` drives only the phase-map workload; these tests
also run one round of the slowdown and exponents workloads, which call the
boundary locator, ``response_time``, ``seed_sensitivity(factors=...)``,
``susceptibility(check_ordered=False)`` and ``refine_contour``, and the
round outputs must pass the harness's own physics checks.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "benchmark"


@pytest.fixture()
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads"), importlib.import_module("checks")


@pytest.mark.parametrize("name", ["slowdown", "exponents"])
def test_one_round_is_correct(harness, name, tmp_path):
    workloads, checks = harness
    make_inputs, round_fn = workloads.WORKLOADS[name]
    inp = make_inputs(1)
    workloads.warm_up(name, inp)
    out = round_fn(inp, {"work_dir": str(tmp_path)})
    assert out["failures"].failed == 0, out["failures"].errors
    assert checks.CHECKS[name](inp, out) == []


def test_selfcheck_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selfcheck.py")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
