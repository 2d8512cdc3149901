"""Seeded equivalence sweep of the Euler-product sums.

Evaluates ``zeta_tau``, ``log_derivative`` and ``zeta_ratio`` on a fixed,
seeded set of cases and hashes the outcomes: the uint64 views of the real
and imaginary parts of each value, or the typed error's class name and
message.  Two checkouts whose sweeps print the same hash give bit-identical
values and the same errors on every case.  Where the sums skip factors
(``lhspec.zeta._euler_sum``), the sweep also counts the calls that could
not certify a part from the kept factors and summed every term.

    python tools/zeta_sweep.py [--src SRC] [--cases N] [--seed N]

``SRC`` is the ``src`` directory of the checkout to measure (default: the
one beside this script).  Cases: 1-12 classes with lengths uniform in
[0.3, 5], holonomy 0 (15%), pi (10%) or uniform in [0, 2*pi), multiplicity
1-3; tau 0-2; max_m 0-40; the second spectrum of the ratio shares a
random prefix of the first plus 0-3 classes of its own.  s has Re(s)
uniform in [-1, 50] (45% of the cases) or in [2, 6] (45%) and Im(s)
uniform in [-6, 6]; in the other 10% s is 0 or -1 and a holonomy-0 class
joins the first spectrum or the second, so that a factor vanishes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import struct
import sys
import warnings
from collections import Counter
from pathlib import Path


def _cases(rng, n):
    def rows(k):
        out = []
        for _ in range(k):
            u = rng.random()
            b = 0.0 if u < 0.15 else math.pi if u < 0.25 else float(rng.uniform(0.0, 2 * math.pi))
            out.append((float(rng.uniform(0.3, 5.0)), b, int(rng.integers(1, 4))))
        return out

    for _ in range(n):
        s1 = rows(int(rng.integers(1, 13)))
        s2 = s1[: int(rng.integers(0, len(s1) + 1))] + rows(int(rng.integers(0, 4)))
        u = rng.random()
        if u < 0.1:  # a zero of a holonomy-0 factor of s1 or s2
            s = complex(-int(rng.integers(0, 2)), 0.0)
            (s1 if u < 0.05 else s2).append((float(rng.uniform(0.3, 5.0)), 0.0, 1))
        else:
            re = rng.uniform(-1.0, 50.0) if u < 0.55 else rng.uniform(2.0, 6.0)
            s = complex(float(re), float(rng.uniform(-6.0, 6.0)))
        yield s1, s2, int(rng.integers(0, 3)), int(rng.integers(0, 41)), s


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    ap.add_argument("--cases", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1717)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np

    from lhspec import Spectrum, SpectralError, log_derivative, zeta_ratio, zeta_tau
    from lhspec import zeta as zeta_mod

    calls = Counter()
    skipping = hasattr(zeta_mod, "_euler_sum")
    if skipping:  # count the certified attempts and the every-term sums of one call
        certified, exact = zeta_mod._certified_sum, zeta_mod._exact_sum

        def _certified_sum(*a):
            calls["certified"] += 1
            return certified(*a)

        def _exact_sum(*a):
            calls["exact"] += 1
            return exact(*a)

        zeta_mod._certified_sum, zeta_mod._exact_sum = _certified_sum, _exact_sum

    digest = hashlib.sha256()
    outcomes = Counter()
    paths = Counter()
    for s1, s2, tau, max_m, s in _cases(np.random.default_rng(args.seed), args.cases):
        spec1, spec2 = Spectrum(s1), Spectrum(s2)
        jobs = {
            "zeta": lambda: zeta_tau(spec1, tau, s, max_m),
            "psi": lambda: log_derivative(spec1, tau, s, max_m),
            "ratio": lambda: zeta_ratio(spec1, spec2, tau, s, max_m),
        }
        for name, job in jobs.items():
            calls.clear()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    v = job()
                record = b"v" + struct.pack("<dd", v.real, v.imag)
                outcomes[f"{name} value"] += 1
            except SpectralError as exc:
                record = f"e{type(exc).__name__}:{exc}".encode()
                outcomes[f"{name} {type(exc).__name__}"] += 1
            digest.update(len(record).to_bytes(4, "little") + record)
            if skipping and name != "ratio":
                if calls["certified"] and calls["exact"]:
                    paths[f"{name} fell back"] += 1
                elif calls["certified"]:
                    paths[f"{name} certified"] += 1
                elif calls["exact"]:
                    paths[f"{name} every term"] += 1
    out = {
        "cases": args.cases,
        "seed": args.seed,
        "sha256": digest.hexdigest(),
        "outcomes": dict(sorted(outcomes.items())),
    }
    if skipping:
        out["paths"] = dict(sorted(paths.items()))
    print(json.dumps(out, indent=1))
    return out


if __name__ == "__main__":
    main()
