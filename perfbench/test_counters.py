"""The benchmark's size counters depend on the seed and on nothing else.

    python3 -m pytest perfbench/test_counters.py
    python3 perfbench/test_counters.py

Each workload runs its counter pass (no timed loop) twice with one seed and
once with another: the first two must give identical counters, the third
different ones.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_lhspec()

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def counter_pass(name: str, seed: int) -> dict:
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="counters-", dir=run.OUT))
    try:
        wl = workloads.WORKLOADS[name](np.random.default_rng(seed), workdir)
        res = run.measure(wl, spans.NullTracer(), 0.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    assert not res["errors"], res["errors"]
    assert len(res["ops"]) == wl.counter_ops
    return res["counters"]


def check_workload(name: str) -> None:
    first = counter_pass(name, 11)
    assert first and all(v > 0 for v in first.values()), first
    assert counter_pass(name, 11) == first
    assert counter_pass(name, 12) != first


def test_recover_corpus_counters():
    check_workload("recover_corpus")


def test_forward_eval_counters():
    check_workload("forward_eval")


def test_cli_mix_counters():
    check_workload("cli_mix")


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


if __name__ == "__main__":
    for test in (test_recover_corpus_counters, test_forward_eval_counters,
                 test_cli_mix_counters, test_benchmark_json_lists_every_metric):
        test()
        print(f"{test.__name__}: ok")
