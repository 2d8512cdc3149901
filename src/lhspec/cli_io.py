"""Spectrum file parsing/serialization and the subcommand CLI.

File formats
------------
CSV: header exactly ``length,holonomy,multiplicity`` followed by one record
per line.  JSON: an array of objects carrying those same three keys.  On
load, finite holonomies outside [0, 2*pi) are reduced mod 2*pi with a
warning, and duplicate (length, holonomy) records merge by multiplicity
addition.

All real numbers are printed with 17 significant digits so that parsing the
output reproduces the exact doubles.  Complex numbers are ``RE+IMi`` literals
on the command line and {"re": ..., "im": ...} objects in JSON.  Non-finite
reals serialize as null.

Exit codes: 0 success, 1 domain/computation errors, 2 parse/usage errors.
Errors print a single JSON object {"error": {"code", "message"}} on stdout;
diagnostics and warnings go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from typing import Iterable

import numpy as np

from . import lie_so31
from .errors import DomainError, ParseError, SpectralError
from .geodesic import PrimitiveClass, Spectrum, _validate, classify
from .multisets import RealMultiset
from .recovery import (
    RecoveryReport,
    _multiset_json,
    match_multisets,
    recover_lengths,
    recover_ratios,
    smo_check,
)
from .zeros import ZeroWindow, strip_k0, zero_line, zero_multiset
from .zeta import log_derivative, zeta_tau

TWO_PI = 2.0 * math.pi

CSV_HEADER = "length,holonomy,multiplicity"


# ---------------------------------------------------------------------------
# JSON emission with fixed float formatting


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        return "null"
    return f"{v:.17g}"


def dumps(obj, indent: int = 0) -> str:
    """Serialize to JSON with every real printed at 17 significant digits."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, complex):
        return dumps({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {dumps(v, indent + 2)}" for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {dumps(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist(), indent)
    if isinstance(obj, (np.floating,)):
        return _fmt_float(float(obj))
    if isinstance(obj, (np.integer,)):
        return str(int(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# complex literals


_UNS = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"^([+-]?{_UNS})(?:([+-]{_UNS})i)?$")


def parse_complex(text: str) -> complex:
    """Parse the CLI literal forms RE, RE+IMi, RE-IMi (e.g. ``3+0i``)."""
    m = _COMPLEX_RE.match(text.strip())
    if m is None:
        raise ParseError(f"not a complex literal (expected RE+IMi form): {text!r}")
    re_part = float(m.group(1))
    im_part = float(m.group(2)) if m.group(2) is not None else 0.0
    return complex(re_part, im_part)


def format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt_float(z.real)}{sign}{_fmt_float(abs(z.imag))}i"


# ---------------------------------------------------------------------------
# spectrum files


def _reduce_holonomy(h: float) -> float:
    if 0.0 <= h < TWO_PI or not math.isfinite(h):  # a non-finite one fails _validate
        return h
    reduced = h % TWO_PI
    if reduced < 0 or reduced >= TWO_PI:  # fmod edge: h % 2pi can round to 2pi
        reduced = 0.0
    return reduced


def _integer(mult, where: str) -> int:
    try:
        m = int(mult)
        if m != float(mult):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{where}: multiplicity must be an integer, got {mult!r}") from None
    return m


def _record(length, holonomy, mult, where: str) -> PrimitiveClass:
    try:
        length = float(length)
        holonomy = float(holonomy)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: non-numeric field ({exc})") from exc
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ParseError(f"{where}: field out of the float range ({exc})") from exc
    m = _integer(mult, where)
    cls = _validate(PrimitiveClass(length, _reduce_holonomy(holonomy), m), where)
    if cls.holonomy != holonomy:  # only a row that is kept warns
        msg = f"{where}: holonomy {holonomy!r} reduced mod 2*pi to {cls.holonomy!r}"
        warnings.warn(msg, stacklevel=2)
    return cls


def parse_spectrum(text: str, format: str = "csv") -> Spectrum:
    """Parse CSV (fixed header) or JSON (array of objects) spectrum data."""
    fmt = format.lower()
    if fmt == "csv":
        return _parse_csv(text)
    if fmt == "json":
        return _parse_json(text)
    raise ParseError(f"unknown spectrum format {format!r} (expected csv or json)")


def _parse_csv(text: str) -> Spectrum:
    lines = text.splitlines()
    if not lines or lines[0].strip().replace(" ", "") != CSV_HEADER:
        raise ParseError(f"missing header {CSV_HEADER!r}", line=1)
    records = []
    for no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ParseError(f"expected 3 comma-separated fields, got {len(parts)}", line=no)
        records.append(_record(parts[0], parts[1], parts[2], f"line {no}"))
    return Spectrum._from_rows(records)


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON{what}: {exc.msg}", line=exc.lineno) from exc
    except RecursionError:
        raise ParseError(f"invalid JSON{what}: nested too deeply") from None


def _parse_json(text: str) -> Spectrum:
    data = _load_json(text, "")
    if not isinstance(data, list):
        raise ParseError("JSON spectrum must be an array of objects")
    records = []
    for i, row in enumerate(data):
        where = f"entry {i}"
        if not isinstance(row, dict):
            raise ParseError(f"{where}: expected an object")
        missing = {"length", "holonomy", "multiplicity"} - set(row)
        if missing:
            raise ParseError(f"{where}: missing keys {sorted(missing)}")
        records.append(_record(row["length"], row["holonomy"], row["multiplicity"], where))
    return Spectrum._from_rows(records)


def serialize_spectrum(spec: Spectrum, format: str = "csv") -> str:
    fmt = format.lower()
    if fmt == "csv":
        rows = [CSV_HEADER]
        rows.extend(
            f"{_fmt_float(c.length)},{_fmt_float(c.holonomy)},{c.multiplicity}" for c in spec
        )
        return "\n".join(rows) + "\n"
    if fmt == "json":
        return dumps([c._asdict() for c in spec]) + "\n"
    raise ParseError(f"unknown spectrum format {format!r} (expected csv or json)")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc


def _guess_format(path: str, override: str | None) -> str:
    if override:
        return override
    return "json" if path.lower().endswith(".json") else "csv"


def load_spectrum(path: str, format: str | None = None) -> Spectrum:
    return parse_spectrum(_read_text(path), _guess_format(path, format))


def _load_matrix(path: str) -> np.ndarray:
    data = _load_json(_read_text(path), " matrix")
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"matrix must be a numeric array: {exc}") from exc
    if arr.shape == (16,):
        arr = arr.reshape(4, 4)
    if arr.shape != (4, 4):
        raise ParseError(f"matrix must be 4x4 (or a flat list of 16), got shape {arr.shape}")
    return arr


def _load_zero_data(path: str) -> dict[str, RealMultiset]:
    """Zero-line JSON: {"m0": [...], "m1": [...]} of numbers or value/mult objects."""
    data = _load_json(_read_text(path), " zero data")
    if not isinstance(data, dict) or "m0" not in data:
        raise ParseError('zero data must be an object with an "m0" array (optionally "m1")')
    out = {}
    for key in ("m0", "m1"):
        if key not in data:
            continue
        rows = data[key]
        if not isinstance(rows, list):
            raise ParseError(f'"{key}" must be an array')
        pairs = []
        for i, row in enumerate(rows):
            where = f'"{key}" entry {i}'
            if isinstance(row, dict):
                value, mult = row.get("value"), row.get("multiplicity", 1)
            else:
                value, mult = row, 1
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise ParseError(f"{where}: expected a number or a value object") from None
            if not math.isfinite(value):
                raise ParseError(f"{where}: value must be finite, got {value!r}")
            mult = _integer(mult, where)
            if mult < 0:
                raise ParseError(f"{where}: multiplicity must be nonnegative, got {mult!r}")
            pairs.append((value, mult))
        out[key] = RealMultiset(pairs)
    return out


# ---------------------------------------------------------------------------
# CLI plumbing


def _default_imbound(*specs: Spectrum) -> float:
    lengths = [spec.min_length() for spec in specs if spec]
    return 20.0 * math.pi / min(lengths) if lengths else 20.0 * math.pi


def _window(args, *specs: Spectrum) -> ZeroWindow:
    im_bound = args.imbound if args.imbound is not None else _default_imbound(*specs)
    return ZeroWindow(args.maxm, im_bound)


def _cmd_decompose(args) -> dict:
    x = lie_so31.LieElement(_load_matrix(args.matrix), tol=args.tol)
    k, p = lie_so31.cartan_split(x)
    ik, ia, in_ = lie_so31.iwasawa_split(x)
    return {
        "algebra_residual": lie_so31.algebra_residual(x),
        "cartan": {"k": k.matrix, "p": p.matrix},
        "iwasawa": {
            "k": ik.matrix,
            "a_p": ia.matrix,
            "n": in_.matrix,
            "alpha": float(ia.matrix[2, 3]),
            "n_params": {"a": float(in_.matrix[0, 3]), "b": float(in_.matrix[1, 3])},
        },
    }


def _cmd_classify(args) -> dict:
    a, b = classify(_load_matrix(args.matrix))
    return {"length": a, "holonomy": b}


def _cmd_evaluate(args) -> dict:
    spec = load_spectrum(args.spectrum, args.format)
    s = parse_complex(args.s)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = args.evaluate(spec, args.tau, s, args.maxm)
    return {
        "value": value,
        "s": s,
        "tau": args.tau,
        "max_m": args.maxm,
        "convergence_warning": any("half-plane" in str(w.message) for w in caught),
    }


def _cmd_zeros(args) -> dict:
    spec = load_spectrum(args.spectrum, args.format)
    w = _window(args, spec)
    zm = zero_multiset(spec, args.tau, w)
    return {
        "window": w._asdict(),
        "tau": args.tau,
        "zeros": [{"re": v.real, "im": v.imag, "multiplicity": m} for v, m in zm],
    }


def _cmd_recover(args) -> dict:
    tol = args.tol
    if args.kind == "spectrum":
        spec = load_spectrum(args.input, args.format)
        w = _window(args, spec)
        m0, m1 = zero_line(spec, 0, w), zero_line(spec, 1, w)
    else:  # raw zero-line data
        data = _load_zero_data(args.input)
        if args.imbound is None:
            raise DomainError("--imbound is required with --kind zeros (no spectrum to infer it)")
        w = ZeroWindow(args.maxm, args.imbound)
        m0, m1 = data["m0"], data.get("m1")
    lengths = recover_lengths(m0, w, tol)
    ratios = None if m1 is None else recover_ratios(strip_k0(m1, lengths, w), lengths, w, tol)
    if args.kind == "zeros":
        out = {"window": w._asdict(), "recovered_lengths": _multiset_json(lengths)}
        if ratios is not None:
            out["recovered_ratios"] = _multiset_json(ratios)
        return out
    matches = [
        match_multisets(lengths, spec.lengths(), tol),
        match_multisets(ratios, spec.ratios(tol), tol),
    ]
    report = RecoveryReport.from_matches(
        lengths, ratios, matches, ("roundtrip against the invariants of the input spectrum",), False
    )
    return {**report.to_dict(), "window": w._asdict()}


def _cmd_compare(args) -> dict:
    spec1 = load_spectrum(args.spectrum1, args.format)
    spec2 = load_spectrum(args.spectrum2, args.format)
    w = _window(args, spec1, spec2)
    report = smo_check(spec1, spec2, args.tau, w, args.tol)
    return {**report.to_dict(), "window": w._asdict()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lhspec",
        description="Length-holonomy spectra: decompositions, truncated Euler "
        "products, zero multisets, and multiset-peeling recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spectrum_args=(), want_s=False, want_tau=True, want_window=False, want_tol=False):
        for name, help_text in spectrum_args:
            p.add_argument(name, help=help_text)
        if want_s:
            p.add_argument("--s", required=True, help="evaluation point, RE+IMi literal")
        if want_tau:
            p.add_argument("--tau", type=int, default=0, help="twist index m (default 0)")
        p.add_argument("--maxm", type=int, default=30, help="lattice truncation (default 30)")
        if want_window:
            p.add_argument(
                "--imbound",
                type=float,
                default=None,
                help="zero window |Im(s)| bound (default 20*pi / min input length)",
            )
        if want_tol:
            p.add_argument("--tol", type=float, default=1e-9, help="matching tolerance")
        p.add_argument("--format", choices=("csv", "json"), default=None, help="spectrum format")

    p = sub.add_parser("decompose", help="Cartan and Iwasawa parts of an so(3,1) matrix")
    p.add_argument("matrix", help="JSON file with a 4x4 matrix (or '-' for stdin)")
    p.add_argument("--tol", type=float, default=lie_so31.TAU_ALG, help="membership tolerance")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("classify", help="(length, holonomy) of a loxodromic matrix")
    p.add_argument("matrix", help="JSON file with a 4x4 matrix (or '-' for stdin)")
    p.set_defaults(func=_cmd_classify)

    for name, evaluate, help_text in (
        ("zeta", zeta_tau, "truncated zeta value at a point"),
        ("psi", log_derivative, "logarithmic derivative of the truncated zeta"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p, [("spectrum", "spectrum file (csv/json)")], want_s=True)
        p.set_defaults(func=_cmd_evaluate, evaluate=evaluate)

    p = sub.add_parser("zeros", help="windowed zero multiset of a spectrum")
    common(p, [("spectrum", "spectrum file (csv/json)")], want_window=True)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("recover", help="peel lengths and ratios back out of zero data")
    common(
        p,
        [("input", "spectrum file or zero-line JSON file")],
        want_tau=False,
        want_window=True,
        want_tol=True,
    )
    p.add_argument(
        "--kind",
        choices=("spectrum", "zeros"),
        default="spectrum",
        help="input is a spectrum (roundtrip self-check) or raw zero-line data",
    )
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("compare", help="strong-multiplicity-one check of two spectra")
    common(
        p,
        [("spectrum1", "first spectrum file"), ("spectrum2", "second spectrum file")],
        want_window=True,
        want_tol=True,
    )
    p.set_defaults(func=_cmd_compare)

    return parser


def run_cli(argv: Iterable[str] | None = None) -> int:
    """Dispatch one CLI invocation; returns the exit code (0/1/2)."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.func(args)
    except ParseError as exc:
        print(dumps({"error": {"code": exc.code, "message": str(exc)}}))
        return 2
    except SpectralError as exc:
        print(dumps({"error": {"code": exc.code, "message": str(exc)}}))
        return 1
    print(dumps(result))
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
