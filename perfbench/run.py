#!/usr/bin/env python3
"""lhspec benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy.  One run
builds the workload's inputs from ``--seed``, warms up, then runs operations
back to back (a closed loop with one client) for ``--seconds`` of wall time,
checking every output outside the timed region.  A run always completes at
least the workload's counter pass, the first ``counter_ops`` operations,
whose exact size counters depend on the seed alone.

Times are reported at a reference machine speed.  On a shared machine or a
virtual one, the speed can drift by a fifth or more over tens of seconds,
which would swamp the changes the benchmark exists to show.  So after every
operation the benchmark also times a fixed calibration kernel that never
touches ``lhspec``, and scales the operation's time by CAL_REF_S over the
median kernel time of the nearest operations.  A slower ``lhspec`` still
reads slower by the same factor; a slower machine does not.  The unscaled
figures are printed on the ``# raw`` line.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Lines before it, each
starting with ``#``, give the environment, the workload's properties, the
size counters, and every metric with its unit.  Spans of a traced run are
written to ``perfbench/out/``.  The exit code is 1 when any check failed and
2 when the checkout holds no ``src/lhspec``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

# one thread per process, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("recover_corpus", "forward_eval", "cli_mix")
SETUP_RUNS = 15  # fresh interpreters timed per run for setup_s
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
CAL_REF_S = 1.25e-3  # calibration kernel time at the reference speed
CAL_WINDOW = 4  # calibration samples on each side of an operation

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# spans whose self time per operation is a per-layer metric "<span>_s"
LAYER_SPANS = (
    "zeros.zero_line", "multisets.build", "recovery.recover_lengths", "zeros.strip_k0",
    "recovery.recover_ratios", "multisets.match", "geodesic.classify", "zeta.zeta_tau",
    "zeta.log_derivative", "zeros.zero_multiset", "cli_io.zeta", "cli_io.psi",
    "cli_io.zeros", "cli_io.recover", "cli_io.recover_zeros", "cli_io.classify",
    "cli_io.decompose", "cli_io.compare", "lie_so31.check", "bench.op", "bench.check",
)
# exact size counters, summed over the counter pass
COUNTERS = (
    "zeros.zero_line_points", "multisets.entries", "multisets.values_in",
    "recovery.length_steps", "zeros.strip_k0_removed", "recovery.ratio_steps",
    "geodesic.classify_calls", "zeta.factors", "zeros.zero_multiset_points",
    "cli_io.out_bytes", "cli_io.zero_points",
)
TRACE_OVERHEAD = (
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_frac", "fraction"),
)
PER_LAYER = (
    tuple((name + "_s", "s/op") for name in LAYER_SPANS)
    + tuple((name, "count") for name in COUNTERS)
    + TRACE_OVERHEAD
)


def fail_setup(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_lhspec():
    """Import the library from ``src/`` of this checkout and nowhere else."""
    if not (SRC / "lhspec" / "__init__.py").is_file():
        fail_setup(f"no lhspec sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import lhspec

    if Path(lhspec.__file__).resolve().parent != SRC / "lhspec":
        fail_setup(f"imported lhspec from {lhspec.__file__}, not from {SRC}")
    return lhspec


def calibrate() -> float:
    """Seconds taken by a fixed kernel of list, dict and numpy work."""
    t0 = time.perf_counter()
    xs = [((i * 7919) % 1009) / 7.0 for i in range(3000)]
    xs.sort()
    counts: dict[int, int] = {}
    for x in xs:
        counts[int(x)] = counts.get(int(x), 0) + 1
    np.sort(np.sin(np.arange(3000.0)))
    return time.perf_counter() - t0


def speed_factors(cal: list[float]) -> list[float]:
    """Per operation, CAL_REF_S over the median kernel time around it."""
    return [
        CAL_REF_S / statistics.median(cal[max(0, j - CAL_WINDOW): j + CAL_WINDOW + 1])
        for j in range(len(cal))
    ]


def measure_setup() -> float:
    """Median scaled time of ``import lhspec`` in SETUP_RUNS fresh interpreters."""
    code = (
        "import time\nt = time.perf_counter()\nimport lhspec\n"
        "print(time.perf_counter() - t)\nprint(lhspec.__file__)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times: list[float] = []
    cal: list[float] = []
    # the first interpreter also writes the bytecode caches; it is not timed
    for run in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=False,
        )
        if proc.returncode != 0:
            fail_setup(f"import lhspec failed in a fresh interpreter:\n{proc.stderr}")
        seconds, where = proc.stdout.split("\n")[:2]
        if Path(where).resolve().parent != SRC / "lhspec":
            fail_setup(f"fresh interpreter imported lhspec from {where}")
        if run:
            times.append(float(seconds))
            cal.append(statistics.median(calibrate() for _ in range(5)))
    return statistics.median(t * f for t, f in zip(times, speed_factors(cal)))


def measure(wl, tr, seconds: float) -> dict:
    """Run whole blocks of operations for ``seconds`` of wall time.

    Always runs at least the counter pass.  Stopping at a block boundary
    gives every run the same mix of input sizes, whatever the machine speed.
    """
    from workloads import CheckFailed

    lat: list[float] = []
    cal: list[float] = []
    errors: list[str] = []
    counters: dict[str, int] = defaultdict(int)
    start = time.perf_counter()
    i = 0
    while i < wl.counter_ops or i % wl.block or time.perf_counter() - start < seconds:
        idx = i % len(wl)
        tr.op_id = i
        t0 = time.perf_counter()
        try:
            with tr.span("bench.op"):
                out = wl.run(idx, tr)
            lat.append(time.perf_counter() - t0)
            with tr.span("bench.check"):
                got = wl.check(idx, out, tr)
        except CheckFailed as exc:
            errors.append(f"{wl.name} op {i}: {exc}")
        except Exception:  # a raising operation is a failed one; keep measuring
            if len(lat) == i:
                lat.append(time.perf_counter() - t0)
            errors.append(f"{wl.name} op {i}: {traceback.format_exc()}")
        else:
            if i < wl.counter_ops:
                for key, value in got.items():
                    counters[key] += value
        out = got = None  # free this operation's output outside the next one's timing
        cal.append(calibrate())
        i += 1
    factors = speed_factors(cal)
    return {
        "lat": [t * f for t, f in zip(lat, factors)],
        "raw": lat,
        "cal": cal,
        "factors": factors,
        "ops": [j % len(wl) for j in range(i)],
        "errors": errors,
        "counters": dict(counters),
    }


def tail(lat: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    srt = sorted(lat)
    n = len(srt)
    return 100.0 * (n - TAIL_BEYOND) / n, srt[n - TAIL_BEYOND - 1]


def emit(line_tag: str, obj) -> None:
    print(f"# {line_tag} {json.dumps(obj, sort_keys=True)}")


def run_one(args) -> int:
    lhspec = import_lhspec()
    import spans
    import workloads

    setup_s = measure_setup() if not args.trace else None
    emit("env", {
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "lhspec": lhspec.__version__,
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    })
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
        for i in range(wl.warmup_ops):
            wl.check(i, wl.run(i, spans.NullTracer()), spans.NullTracer())
        if args.trace:
            base = measure(wl, spans.NullTracer(), args.seconds / 2.0)
            tracer = spans.Tracer()
            res = measure(wl, tracer, args.seconds / 2.0)
        else:
            res = measure(wl, spans.NullTracer(), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat, raw, ops, errors = res["lat"], res["raw"], res["ops"], list(res["errors"])
    counters = {k: res["counters"].get(k, 0) for k in COUNTERS}
    ops_per_s = len(lat) / sum(lat)
    points = sum(v for k, v in counters.items() if k.endswith("_points"))
    emit("workload", {
        "name": wl.name, "seed": args.seed, "ops": len(ops), "counter_ops": wl.counter_ops,
        "zero_points_per_op": points / wl.counter_ops, **wl.properties(ops),
    })
    emit("counters", counters)
    emit("raw", {
        "ops_per_s": len(raw) / sum(raw), "op_p50_ms": statistics.median(raw) * 1e3,
        "op_tail_ms": tail(raw)[1] * 1e3, "calibration_ms": statistics.median(res["cal"]) * 1e3,
    })

    if args.trace:
        errors += base["errors"]
        base_rate = len(base["lat"]) / sum(base["lat"])
        tracer.write(OUT / f"trace-{wl.name}-{args.seed}.json")
        self_s = tracer.self_by_name(res["factors"])
        values = {name + "_s": self_s.get(name, 0.0) / len(ops) for name in LAYER_SPANS}
        values.update(counters)
        values["trace.untraced_ops_per_s"] = base_rate
        values["trace.traced_ops_per_s"] = ops_per_s
        values["trace.overhead_frac"] = (base_rate - ops_per_s) / base_rate
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        attempted = len(ops) + len(base["ops"])
    else:
        pct, tail_s = tail(lat)
        print(f"# tail percentile p{pct:.2f} over {len(lat)} samples")
        values = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail_s * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        attempted = len(ops)

    failed = len(errors)
    print(f"# metric failed_frac {failed / attempted!r} fraction")
    for name, m in metrics.items():
        print(f"# metric {name} {m['value']!r} {m['unit']}")
    for err in errors[:20]:
        print(f"# FAILED {err}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows = []
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
        for line in lines:
            if line.startswith("# metric "):
                _, _, metric, value, unit = line.split(" ", 4)
                rows.append((name, metric, value, unit))
    width = max(len(r[1]) for r in rows) if rows else 0
    for name, metric, value, unit in rows:
        print(f"{name:<15} {metric:<{width}} {float(value):>14.6g} {unit}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
