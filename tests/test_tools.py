"""Smoke test of the equivalence sweeps in ``tools/``: each runs and accounts for every case.

The hashes the sweeps print are compared between two checkouts by hand;
here each sweep runs at a few cases in its own process, and its report is
checked for shape only, never for hash values.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
CASES = 10


@pytest.mark.parametrize("tool", ["peel_sweep", "cli_sweep", "zeta_sweep"])
def test_sweep_reports_every_case(tool):
    run = subprocess.run(
        [sys.executable, str(TOOLS / f"{tool}.py"), "--cases", str(CASES)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert report["cases"] == CASES
    assert len(report["sha256"]) == 64
    runs = Counter()  # the calls of each stage, summed over its outcomes
    for outcome, count in report["outcomes"].items():
        runs[outcome.rsplit(" ", 1)[0]] += count
    if tool == "peel_sweep":  # ratios are peeled only where the strip succeeded
        assert runs.pop("recover_ratios") == report["outcomes"].get("strip_k0 ok", 0)
    assert runs and set(runs.values()) == {CASES}
