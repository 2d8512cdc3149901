"""Seeded equivalence sweep of the peeling stages.

Runs ``recover_lengths``, ``strip_k0`` and ``recover_ratios`` on a fixed,
seeded set of zero lines and hashes what each returns: the entries of its
result, the audit records of the two recoveries, or the name and message
of the error it raised.  Two checkouts whose sweeps print the same hash
peel every line the same way, step for step.

    python tools/peel_sweep.py [--src SRC] [--cases N] [--seed N]

``SRC`` is the ``src`` directory of the checkout to measure (default: the
one beside this script).  Each case is a spectrum of 1-20 classes shaped
like the benchmark corpus: lengths uniform in [0.5, 5], holonomy uniform
in [0.1, 2*pi - 0.1], multiplicity 1-3.  Variants, each drawn on its own:

- a fifth of the spectra take their lengths from a commensurable set, and
  then a third of their holonomies are j*a mod 2*pi, so ratios tie;
- a tenth of the classes have holonomy 0 and a tenth pi;
- one spectrum in ten, when neither of the above applies, gives one class
  a multiplicity of 2**53 + 1;
- the window is 20*pi / min length (two thirds of the cases), padded by
  1e-3 of itself, or 1.5-25 times pi / min length;
- the tolerance is 1e-9 (half the cases), 0, 1e-12, 1e-6 or 1e-3.

A third of the cases perturb both zero lines: each entry is, with
probability 0.03, dropped by one copy, doubled or moved within the
tolerance.  The lengths that ``strip_k0`` and ``recover_ratios`` take are
the recovered ones, or the spectrum's own where length peeling failed.

``lines_sha256`` hashes what the peeling starts from: the two exact zero
lines of each case (m = 0 and m = 1) and the ``class_trace`` of each of
its classes over ks (1, -1) and (-1, 0, 1), each value as ``float.hex``
(so that -0.0 and 0.0 differ) and each zero-line value with its count.
``sha256`` hashes the peeling outcomes alone, as it always has.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from collections import Counter
from pathlib import Path

TWO_PI = 2.0 * math.pi
LENGTH_SETS = ((1.0, 2.0), (1.0, 2.0, 3.0), (0.5, 1.5, 3.0), (0.7, 1.4, 2.1, 2.8))
TOLS = (1e-9, 1e-9, 1e-9, 1e-9, 0.0, 1e-12, 1e-6, 1e-3)


def _cases(rng, n):
    for _ in range(n):
        pooled = rng.random() < 0.2
        lengths = (
            list(LENGTH_SETS[int(rng.integers(len(LENGTH_SETS)))])
            if pooled
            else rng.uniform(0.5, 5.0, int(rng.integers(1, 21))).tolist()
        )
        rows, plain = [], not pooled
        for a in lengths:
            u = rng.random()
            if u < 0.1:
                b, plain = 0.0, False
            elif u < 0.2:
                b, plain = math.pi, False
            elif pooled and u < 0.45:
                b = int(rng.integers(1, 4)) * a % TWO_PI
            else:
                b = float(rng.uniform(0.1, TWO_PI - 0.1))
            rows.append((a, b, int(rng.integers(1, 4))))
        if plain and rng.random() < 0.1:
            a, b, _ = rows[0]
            rows[0] = (a, b, 2**53 + 1)
        amin = min(lengths)
        u = rng.random()
        if u < 2 / 3:
            im_bound = 20 * math.pi / amin
        elif u < 5 / 6:
            im_bound = 20 * math.pi / amin * (1 + 1e-3)
        else:
            im_bound = float(rng.uniform(1.5, 25.0)) * math.pi / amin
        yield {
            "rows": rows,
            "im_bound": im_bound,
            "tol": float(TOLS[int(rng.integers(len(TOLS)))]),
            "perturb": rng.random() < 1 / 3,
            "seed": int(rng.integers(2**32)),
        }


def _perturbed(ms, tol, rng, RealMultiset):
    out = []
    for v, m in ms.entries:
        u = rng.random()
        if u < 0.01:
            m -= 1
        elif u < 0.02:
            m *= 2
        elif u < 0.03:
            v += min(tol, abs(v) / 2) * float(rng.uniform(-1.0, 1.0))
        out.append((v, m))
    return RealMultiset(out, tol=0.0)


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    ap.add_argument("--cases", type=int, default=300)
    ap.add_argument("--seed", type=int, default=1919)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np

    from lhspec import (
        RealMultiset,
        Spectrum,
        ZeroWindow,
        class_trace,
        recover_lengths,
        recover_ratios,
        strip_k0,
        zero_line,
    )

    digest, lines = hashlib.sha256(), hashlib.sha256()
    outcomes = Counter()
    steps = Counter()

    def record(name: str, call):
        try:
            got = call()
        except Exception as exc:  # every error is part of the outcome
            outcomes[f"{name} {type(exc).__name__}"] += 1
            text = f"{name}\0{type(exc).__name__}\0{exc}"
            got = None
        else:
            outcomes[f"{name} ok"] += 1
            ms, audit = got if isinstance(got, tuple) else (got, None)
            text = f"{name}\0{ms.entries!r}\0{audit!r}"
            if audit is not None:
                steps[name] += len(audit)
        data = text.encode()
        digest.update(len(data).to_bytes(8, "little") + data)
        return got

    def audited(fn, *fargs):
        audit: list = []
        return fn(*fargs, audit=audit), audit

    for c in _cases(np.random.default_rng(args.seed), args.cases):
        spec = Spectrum(c["rows"])
        w, tol = ZeroWindow(0, c["im_bound"]), c["tol"]
        m0, m1 = zero_line(spec, 0, w), zero_line(spec, 1, w)
        for ms in (m0, m1):
            lines.update(" ".join(f"{v.hex()}:{m}" for v, m in ms.entries).encode() + b"\n")
        for a, b, _ in c["rows"]:
            for ks in ((1, -1), (-1, 0, 1)):
                lines.update(" ".join(map(float.hex, class_trace(a, b, ks, w))).encode() + b"\n")
        if c["perturb"]:
            rng = np.random.default_rng(c["seed"])
            m0, m1 = (_perturbed(ms, tol, rng, RealMultiset) for ms in (m0, m1))
        got = record("recover_lengths", lambda: audited(recover_lengths, m0, w, tol))
        lengths = got[0] if got is not None else spec.lengths()
        resid = record("strip_k0", lambda: strip_k0(m1, lengths, w, tol))
        if resid is not None:
            record("recover_ratios", lambda: audited(recover_ratios, resid, lengths, w, tol))
    out = {
        "cases": args.cases,
        "seed": args.seed,
        "sha256": digest.hexdigest(),
        "lines_sha256": lines.hexdigest(),
        "audit_records": dict(sorted(steps.items())),
        "outcomes": dict(sorted(outcomes.items())),
    }
    print(json.dumps(out, indent=1))
    return out


if __name__ == "__main__":
    main()
