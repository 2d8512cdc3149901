"""Seeded equivalence sweep of the CLI's output.

Runs ``lhspec.cli_io.run_cli`` in process on a fixed, seeded set of spectra
and hashes each call's exit code and stdout, together with the CSV and JSON
text of ``serialize_spectrum``.  Two checkouts whose sweeps print the same
hash write the same bytes and exit the same way on every call.

    python tools/cli_sweep.py [--src SRC] [--cases N] [--seed N]

``SRC`` is the ``src`` directory of the checkout to measure (default: the
one beside this script).  Each case is a spectrum of 1-6 classes with
lengths uniform in [0.3, 5], holonomy 0 (15%), pi (10%), -0.0 (5%, which
reaches the sign of zero of the k < 0 trace rows) or uniform in [0, 2*pi)
(70%), multiplicity 1-3, written as CSV or JSON (half each) with every
float in its shortest round-trip form.  A quarter of the cases take their
lengths from a pool of four, so that lengths are commensurable or repeat.
Per case:

- ``zeros`` at tau 0-2, maxm 0-3 and ``--imbound`` 1, 5, 20 or 60 (or the
  default 20*pi / min length when maxm is 0);
- ``recover`` at maxm 0-2 with the default window;
- ``recover --kind zeros`` on the zero lines m0 and m1 (m0 alone in a
  third of the cases) at maxm 0-2 and ``--imbound`` 20*pi / min length
  (10 in a quarter of the cases, often too short to peel), written as
  value/multiplicity records by ``json.dumps``;
- ``compare`` against a second spectrum that shares a random prefix of the
  first plus 0-2 classes of its own;
- ``serialize_spectrum`` in CSV and JSON.

Temporary file paths are replaced by ``<tmp>`` before hashing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

LENGTH_POOL = (0.6, 1.2, 1.8, 2.5)


def _cases(rng, n):
    def rows(k, pooled):
        out = []
        for _ in range(k):
            u = rng.random()
            if u < 0.3:
                b = 0.0 if u < 0.15 else math.pi if u < 0.25 else -0.0
            else:
                b = float(rng.uniform(0.0, 2 * math.pi))
            a = float(rng.choice(LENGTH_POOL)) if pooled else float(rng.uniform(0.3, 5.0))
            out.append((a, b, int(rng.integers(1, 4))))
        return out

    for _ in range(n):
        pooled = rng.random() < 0.25
        s1 = rows(int(rng.integers(1, 7)), pooled)
        s2 = s1[: int(rng.integers(0, len(s1) + 1))] + rows(int(rng.integers(0, 3)), pooled)
        maxm = int(rng.integers(0, 4))
        imbound = float(rng.choice([1.0, 5.0, 20.0, 60.0]))
        if maxm == 0 and rng.random() < 0.5:
            imbound = None
        yield {
            "s1": s1,
            "s2": s2,
            "fmt": "json" if rng.random() < 0.5 else "csv",
            "tau": int(rng.integers(0, 3)),
            "maxm": maxm,
            "imbound": imbound,
            "recover_maxm": int(rng.integers(0, 3)),
            "m1": rng.random() >= 1 / 3,
            "short": rng.random() < 0.25,
        }


def _write_spectrum(path: Path, rows, fmt: str) -> str:
    if fmt == "json":
        text = json.dumps([{"length": a, "holonomy": b, "multiplicity": m} for a, b, m in rows])
    else:
        text = "length,holonomy,multiplicity\n" + "".join(f"{a!r},{b!r},{m}\n" for a, b, m in rows)
    path.write_text(text)
    return str(path)


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    ap.add_argument("--cases", type=int, default=300)
    ap.add_argument("--seed", type=int, default=1818)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np

    from lhspec import Spectrum, ZeroWindow, zero_line
    from lhspec.cli_io import run_cli, serialize_spectrum

    digest = hashlib.sha256()
    outcomes = Counter()
    out_bytes = 0

    def record(name: str, code: int, text: str, tmp: str) -> None:
        nonlocal out_bytes
        data = f"{name}\0{code}\0{text.replace(tmp, '<tmp>')}".encode()
        digest.update(len(data).to_bytes(8, "little") + data)
        outcomes[f"{name} exit {code}"] += 1
        out_bytes += len(data)

    def cli(name: str, argv: list[str], tmp: str) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = run_cli(argv)
        record(name, code, buf.getvalue(), tmp)

    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for i, c in enumerate(_cases(np.random.default_rng(args.seed), args.cases)):
            ext = c["fmt"]
            p1 = _write_spectrum(d / f"s1_{i}.{ext}", c["s1"], ext)
            p2 = _write_spectrum(d / f"s2_{i}.{ext}", c["s2"], ext)
            window = ["--maxm", str(c["maxm"])]
            if c["imbound"] is not None:
                window += ["--imbound", repr(c["imbound"])]
            cli("zeros", ["zeros", p1, "--tau", str(c["tau"]), *window], tmp)
            rm = ["--maxm", str(c["recover_maxm"])]
            cli("recover", ["recover", p1, *rm], tmp)
            spec = Spectrum(c["s1"])
            imb = 10.0 if c["short"] else 20 * math.pi / spec.min_length()
            w = ZeroWindow(c["recover_maxm"], imb)
            lines = {"m0": zero_line(spec, 0, w)}
            if c["m1"]:
                lines["m1"] = zero_line(spec, 1, w)
            data = {k: [{"value": v, "multiplicity": m} for v, m in ms] for k, ms in lines.items()}
            pz = d / f"z_{i}.json"
            pz.write_text(json.dumps(data))
            argv = ["recover", str(pz), "--kind", "zeros", *rm, "--imbound", repr(imb)]
            cli("recover_zeros", argv, tmp)
            cli("compare", ["compare", p1, p2, "--tau", str(c["tau"]), *rm], tmp)
            for fmt in ("csv", "json"):
                record(f"serialize_{fmt}", 0, serialize_spectrum(spec, fmt), tmp)
    out = {
        "cases": args.cases,
        "seed": args.seed,
        "sha256": digest.hexdigest(),
        "bytes": out_bytes,
        "outcomes": dict(sorted(outcomes.items())),
    }
    print(json.dumps(out, indent=1))
    return out


if __name__ == "__main__":
    main()
