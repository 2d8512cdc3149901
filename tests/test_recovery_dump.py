"""The recovery dump: every stage of the peeling pipeline on fixed inputs, byte for byte.

For fixed ``tests/helpers`` seeds (random, commensurable, tied and holonomy
0/pi spectra, multiplicities past 2**53, exact and perturbed zero lines at
tol from 1e-9 to 1.0) the dump holds the recovered lengths and their audit,
the ``strip_k0`` residual entries, the recovered ratios and their audit, or
the typed error of the stage that failed with its message.  The test
compares it with ``tests/golden/recovery_dump.json``; run this file as a
script to write that file again:

    PYTHONPATH=src python tests/test_recovery_dump.py
"""

import json
import math
from pathlib import Path

import numpy as np

from lhspec import (
    RealMultiset,
    SpectralError,
    Spectrum,
    ZeroWindow,
    recover_lengths,
    recover_ratios,
    strip_k0,
    zero_line,
)

from helpers import TWO_PI, commensurable_spectrum, rand_spectrum

GOLDEN = Path(__file__).parent / "golden" / "recovery_dump.json"
PI = math.pi
#: the ratio search runs on perturbed lines up to this tolerance; looser
#: ones can make its tie branches grow without bound
RATIO_TOL_MAX = 1e-3


def _spectra():
    out = []
    for seed in range(6):
        out.append((f"random {seed}", rand_spectrum(np.random.default_rng(seed), max_classes=6)))
    for i, lengths in enumerate(((1.0, 2.0), (1.0, 2.0, 3.0), (0.5, 1.5, 3.0))):
        for j in range(2):
            rng = np.random.default_rng(100 + 2 * i + j)
            out.append((f"commensurable {lengths} {j}", commensurable_spectrum(rng, lengths)))
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        rows = [
            (
                float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, rng.uniform(0.5, 4.0)])),
                float(rng.choice([0.0, PI, rng.uniform(0.1, TWO_PI - 0.1)])),
                int(rng.integers(1, 4)),
            )
            for _ in range(int(rng.integers(1, 6)))
        ]
        out.append((f"holonomy 0/pi {seed}", Spectrum(rows)))
    for n, m in ((6, 1), (3, 4)):
        rows = [(float(j), PI / 2 * j / n, m) for j in range(1, n + 1)]
        out.append((f"tied {n}x{m}", Spectrum(rows)))
    huge = [(1.0, 0.7, 2**53 + 1), (2.0, PI, 3), (1.5, 0.0, 2**40), (2.5, 1.1, 2**54 - 1)]
    out.append(("multiplicities past 2**53", Spectrum(huge)))
    return out


#: (line, change): the zero line perturbed and how, taken in turn per tolerance
PERTURBATIONS = (("m0", "dropped"), ("m0", "doubled"), ("m1", "moved"), ("m1", "dropped"))


def _perturb(ms: RealMultiset, how: str, tol: float, rng) -> RealMultiset:
    """The zero line with one interior point dropped or doubled, or each nonzero point moved.

    Moves stay within 0.4 tol.  A zero moved to a tiny positive value would
    read as the first point of a huge length, whose trace no window bounds
    yet, so zeros stay.
    """
    pairs = list(ms)
    if how == "moved":
        moved = [(v and v + tol * rng.uniform(-0.4, 0.4), m) for v, m in pairs]
        return RealMultiset(moved, tol=0.0)
    i = int(rng.integers(len(pairs) // 4, 3 * len(pairs) // 4 + 1))
    v, m = pairs[i]
    pairs[i] = (v, m - 1 if how == "dropped" else m + 1)
    return RealMultiset(pairs, tol=0.0)


def _error(exc: SpectralError) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def _stage(fn, *args):
    """(entries, audit) of a peeling stage, or (None, its typed error)."""
    audit = []
    try:
        return list(fn(*args, audit)), audit
    except SpectralError as exc:
        return None, _error(exc)


def _pipeline(m0, m1, w, tol, ratios=True) -> dict:
    lengths, length_audit = _stage(recover_lengths, m0, w, tol)
    record = {"lengths": lengths, "lengths_audit": length_audit}
    if lengths is None:
        return record
    lengths = RealMultiset(lengths, tol)
    try:
        resid = strip_k0(m1, lengths, w, tol)
    except SpectralError as exc:
        record["strip"] = _error(exc)
        return record
    record["strip"] = list(resid)
    if ratios:
        record["ratios"], record["ratios_audit"] = _stage(recover_ratios, resid, lengths, w, tol)
    return record


def recovery_dump() -> str:
    """The dump's text: a JSON array with one record per line."""
    records = []
    rng = np.random.default_rng(300)
    for i, (name, spec) in enumerate(_spectra()):
        for reach in (12.0, 3.5):
            w = ZeroWindow(0, reach * PI / spec.min_length())
            lines = {"m0": zero_line(spec, 0, w), "m1": zero_line(spec, 1, w)}
            records.append({"case": name, "reach": reach, **_pipeline(*lines.values(), w, 1e-9)})
        if spec.total() >= 2**53:
            continue
        w = ZeroWindow(0, 12.0 * PI / spec.min_length())
        lines = {"m0": zero_line(spec, 0, w), "m1": zero_line(spec, 1, w)}
        for j, tol in enumerate((1e-6, 1e-3, 0.1, 1.0)):
            line, how = PERTURBATIONS[(i + j) % len(PERTURBATIONS)]
            perturbed = {**lines, line: _perturb(lines[line], how, tol, rng)}
            rec = _pipeline(*perturbed.values(), w, tol, ratios=tol <= RATIO_TOL_MAX)
            records.append({"case": name, "tol": tol, "perturbed": f"{line} {how}", **rec})
    return "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n"


def test_recovery_dump_is_unchanged():
    assert recovery_dump() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(recovery_dump())
