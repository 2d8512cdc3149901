"""The three benchmark workloads.

Each workload builds its inputs from a seeded generator when it is created,
then runs operations one at a time, in blocks of ``block`` operations that
each hold the same mix of input sizes or call kinds.  ``run(i, tr)`` is the timed operation
on input ``i``; ``check(i, out, tr)`` runs outside the timing, raises
``CheckFailed`` when the output disagrees with the generating data, and
returns the operation's exact size counters.  Spans wrap every call the
benchmark makes into an ``lhspec`` module and are named ``<module>.<call>``.

Why these workloads:

* ``recover_corpus`` is the inverse direction.  Its time goes to multiset
  subtraction, trace subtraction and peeling, none to ``zeta``; one spectrum
  in ten sits on a commensurable length set, which drives the ratio search
  into its tie branches.
* ``forward_eval`` is the forward direction.  Its time goes to the Euler
  products, and it builds multisets rather than consuming them, so a change
  that speeds up peeling but slows multiset construction shows here.
* ``cli_mix`` runs real CLI calls in process.  It is the only workload where
  argument parsing, file parsing and 17-digit serialization weigh, and the
  only one that reaches ``lie_so31`` and ``smo_check``.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import gen
from lhspec import (
    RealMultiset,
    Spectrum,
    ZeroWindow,
    classify,
    log_derivative,
    multiset_equal,
    recover_lengths,
    recover_ratios,
    run_cli,
    strip_k0,
    zero_line,
    zero_multiset,
    zeta_tau,
)
from lhspec import lie_so31

TWO_PI = 2.0 * math.pi
LENGTH_TOL = 1e-9  # length recovery tolerance of the acceptance battery (c5)
RATIO_TOL = 1e-8  # ratio recovery tolerance of the acceptance battery (c6)
CLASSIFY_TOL = 1e-8  # classification tolerance of the acceptance battery (c2)


class CheckFailed(Exception):
    """An operation's output disagrees with the data that generated it."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------


class RecoverCorpus:
    """Peel lengths and ratios back out of the zero lines of a spectrum."""

    name = "recover_corpus"
    block = counter_ops = gen.BLOCK  # one stratified block
    warmup_ops = 1

    def __init__(self, rng, workdir: Path):
        self.items = gen.corpus_rows(rng, n_blocks=15)
        for it in self.items:
            rows = it["rows"]
            it["spec"] = Spectrum(rows)
            it["w"] = ZeroWindow(0, 20.0 * math.pi / it["spec"].min_length())
            it["lengths"] = it["spec"].lengths()
            it["ratios"] = RealMultiset(gen.expected_ratio_pairs(rows))

    def __len__(self) -> int:
        return len(self.items)

    def run(self, i: int, tr):
        it = self.items[i]
        spec, w = it["spec"], it["w"]
        with tr.span("zeros.zero_line"):
            z0 = zero_line(spec, 0, w)
            z1 = zero_line(spec, 1, w)
        with tr.span("multisets.build"):
            v0, v1 = z0.values(), z1.values()
            m0, m1 = RealMultiset.from_values(v0), RealMultiset.from_values(v1)
        la: list = []
        ra: list = []
        with tr.span("recovery.recover_lengths"):
            lengths = recover_lengths(m0, w, audit=la)
        with tr.span("zeros.strip_k0"):
            resid = strip_k0(m1, lengths, w)
        with tr.span("recovery.recover_ratios"):
            ratios = recover_ratios(resid, lengths, w, audit=ra)
        return z0, z1, len(v0) + len(v1), m0, m1, lengths, resid, ratios, la, ra

    def check(self, i: int, out, tr) -> dict:
        it = self.items[i]
        z0, z1, n_values, m0, m1, lengths, resid, ratios, la, ra = out
        with tr.span("multisets.match"):
            ok_len = multiset_equal(lengths, it["lengths"], LENGTH_TOL)
            ok_rat = multiset_equal(ratios, it["ratios"], RATIO_TOL)
        _require(ok_len, f"input {i}: recovered lengths differ from the generator")
        _require(ok_rat, f"input {i}: recovered ratios differ from the generator")
        return {
            "zeros.zero_line_points": z0.total() + z1.total(),
            "multisets.values_in": n_values,
            "multisets.entries": len(m0) + len(m1),
            "recovery.length_steps": len(la),
            "zeros.strip_k0_removed": m1.total() - resid.total(),
            "recovery.ratio_steps": len(ra),
        }

    def properties(self, ops: list[int]) -> dict:
        comm = sum(self.items[i]["commensurable"] for i in ops)
        return {"commensurable_share": comm / len(ops)}


# ---------------------------------------------------------------------------


class ForwardEval:
    """Classify matrices into a spectrum, evaluate its Euler products, list its zeros."""

    name = "forward_eval"
    block = counter_ops = gen.BLOCK
    warmup_ops = 1
    TAU, MAXM = 1, 30
    # a fixed window, that of a spectrum whose shortest length is 1, so the
    # zero count follows the class lengths rather than the shortest alone
    WINDOW = ZeroWindow(2, 20.0 * math.pi)
    # Re(s) close to 2 keeps psi well above the round-off of the difference
    # quotient below, also for a lone long class
    POINTS = (2.05 + 0.5j, 2.1 - 1.7j, 2.15 + 3.1j)
    # Five-point central difference of log zeta.  log zeta carries a
    # round-off near 1e-14 when zeta is close to 1, which a three-point
    # quotient with a step small enough to keep its truncation error below
    # 1e-6 magnifies past 1e-10; this stencil stays near 1e-12.  The check is
    # relative 1e-6 as in the acceptance battery (c3), with an absolute floor
    # for the holonomies near 2*pi/3 at which psi nearly cancels.
    FD_H = 1e-3
    PSI_RTOL, PSI_ATOL = 1e-6, 1e-10

    def __init__(self, rng, workdir: Path):
        self.items = gen.corpus_rows(rng, n_blocks=12, commensurable=False)
        for it in self.items:
            rows = it["rows"]
            it["mats"] = [gen.loxodromic(rng, a, b) for a, b, _ in rows]
            it["mults"] = [m for _, _, m in rows]

    def __len__(self) -> int:
        return len(self.items)

    def run(self, i: int, tr):
        it = self.items[i]
        with tr.span("geodesic.classify"):
            inv = [classify(g) for g in it["mats"]]
            spec = Spectrum((a, b, m) for (a, b), m in zip(inv, it["mults"]))
        with tr.span("zeta.zeta_tau"):
            zs = [zeta_tau(spec, self.TAU, s, self.MAXM) for s in self.POINTS]
        with tr.span("zeta.log_derivative"):
            ps = [log_derivative(spec, self.TAU, s, self.MAXM) for s in self.POINTS]
        with tr.span("zeros.zero_multiset"):
            zm = zero_multiset(spec, self.TAU, self.WINDOW)
        return inv, spec, zs, ps, zm

    def check(self, i: int, out, tr) -> dict:
        it = self.items[i]
        inv, spec, zs, ps, zm = out
        for (a, b), (a0, b0, _) in zip(inv, it["rows"]):
            _require(
                abs(a - a0) < CLASSIFY_TOL and abs(b - min(b0, TWO_PI - b0)) < CLASSIFY_TOL,
                f"input {i}: classified ({a!r}, {b!r}) differs from generator ({a0!r}, {b0!r})",
            )
        h = self.FD_H
        for s, zeta, psi in zip(self.POINTS, zs, ps):
            # logs of ratios, which sit near 1, so no branch cut is crossed
            m2, m1, p1, p2 = (
                cmath.log(zeta_tau(spec, self.TAU, s + j * h, self.MAXM) / zeta)
                for j in (-2, -1, 1, 2)
            )
            fd = (8.0 * (p1 - m1) - (p2 - m2)) / (12.0 * h)
            _require(
                abs(fd - psi) <= self.PSI_RTOL * abs(psi) + self.PSI_ATOL,
                f"input {i}: psi({s}) = {psi!r} but the difference quotient gives {fd!r}",
            )
            # zeta(s) itself against the fourth-order interpolation of its
            # neighbours, which is 0 on this log scale
            mid = (4.0 * (m1 + p1) - (m2 + p2)) / 6.0
            _require(abs(mid) < 1e-9, f"input {i}: zeta({s}) = {zeta!r} is off its neighbours")
        w = self.WINDOW
        line = zero_line(spec, self.TAU, w)
        with tr.span("multisets.match"):
            ok_line = multiset_equal(zm.on_line(0.0), line, 1e-9)
        _require(ok_line, f"input {i}: Re(s) = 0 slice of the zero multiset differs from zero_line")
        rows = [tuple(c) for c in spec]
        want = gen.zero_count(rows, self.TAU, w.max_m, w.im_bound)
        _require(zm.total() == want, f"input {i}: {zm.total()} zeros listed, {want} expected")
        per_call = len(spec) * (2 * self.TAU + 1) * (self.MAXM + 1) ** 2
        return {
            "geodesic.classify_calls": len(inv),
            "zeta.factors": 2 * len(self.POINTS) * per_call,
            "zeros.zero_multiset_points": zm.total(),
            "multisets.entries": len(zm),
        }

    def properties(self, ops: list[int]) -> dict:
        return {}


# ---------------------------------------------------------------------------


def _spectrum_csv(rows) -> str:
    lines = ["length,holonomy,multiplicity"] + [f"{a!r},{b!r},{m}" for a, b, m in rows]
    return "\n".join(lines) + "\n"


def _spectrum_json(rows) -> str:
    return json.dumps([{"length": a, "holonomy": b, "multiplicity": m} for a, b, m in rows])


def _literal(s: complex) -> str:
    return f"{s.real!r}{'+' if s.imag >= 0 else '-'}{abs(s.imag)!r}i"


def _shared_fraction(rows_a, rows_b) -> float:
    """Share of the class copies of ``rows_a`` that ``rows_b`` also holds."""
    left = {(a, b): m for a, b, m in rows_b}
    shared = 0
    for a, b, m in rows_a:
        take = min(m, left.get((a, b), 0))
        shared += take
        if take:
            left[(a, b)] -= take
    return shared / sum(m for _, _, m in rows_a)


class CliMix:
    """One ``lhspec`` subcommand per operation, through ``run_cli`` with stdout captured."""

    name = "cli_mix"
    N_FILES = 64  # prime to the cycle length, so a run spreads every kind over all files
    N_CLASSES = 8
    TAU = 1
    POINTS = (2.5 + 0.5j, 3.0 - 1.25j, 2.25 + 2.0j)
    # One cycle of the mix.  Five call kinds are faster than zeta and five
    # slower, so the median latency sits in the middle of the zeta calls
    # rather than on the boundary between two kinds of different speed.
    KINDS = (
        ("classify", 1), ("decompose", 1), ("compare_same", 1), ("compare_perturbed", 1),
        ("psi", 1), ("zeta", 3), ("zeros", 2), ("recover", 1), ("recover_zeros", 1),
        ("compare_disjoint", 1),
    )
    block = warmup_ops = sum(w for _, w in KINDS)
    counter_ops = 2 * block

    def __init__(self, rng, workdir: Path):
        self.dir = workdir
        cycle = [k for k, w in self.KINDS for _ in range(w)]
        self.schedule = [cycle[j] for j in rng.permutation(len(cycle))]
        self.files = [self._make_file(rng, j) for j in range(self.N_FILES)]

    def _write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _make_file(self, rng, j: int) -> dict:
        rows = gen.stratified_rows(rng, self.N_CLASSES)
        spec = Spectrum(rows)
        ext = "csv" if j % 2 == 0 else "json"
        text = _spectrum_csv(rows) if ext == "csv" else _spectrum_json(rows)
        f = {"path": self._write(f"spec{j}.{ext}", text)}
        s = self.POINTS[j % len(self.POINTS)]
        f["s"], f["s_literal"] = s, _literal(s)
        f["zeta"] = zeta_tau(spec, self.TAU, s, 30)
        f["psi"] = log_derivative(spec, self.TAU, s, 30)
        imb = 20.0 * math.pi / min(a for a, _, _ in rows)
        f["zeros_count"] = gen.zero_count(rows, self.TAU, 1, imb)
        f["lengths"] = spec.lengths()
        f["ratios"] = RealMultiset(gen.expected_ratio_pairs(rows))
        w = ZeroWindow(0, imb)
        data = {"m0": zero_line(spec, 0, w).values(), "m1": zero_line(spec, 1, w).values()}
        f["zeros_path"] = self._write(f"zeros{j}.json", json.dumps(data))
        f["imbound"] = repr(imb)
        # compare partners: same classes in another order and format, one
        # class with its holonomy moved, and an unrelated spectrum
        same = [rows[k] for k in rng.permutation(len(rows))]
        f["same_path"] = self._write(f"same{j}.json", _spectrum_json(same))
        a0, b0, m0 = rows[0]
        b1 = b0 + 0.3 if b0 + 0.3 < TWO_PI else b0 - 0.3
        pert = [(a0, b1, m0)] + rows[1:]
        f["pert_path"] = self._write(f"pert{j}.csv", _spectrum_csv(pert))
        other = gen.stratified_rows(rng, self.N_CLASSES)
        f["other_path"] = self._write(f"other{j}.csv", _spectrum_csv(other))
        f["shared"] = {
            "compare_same": _shared_fraction(rows, same),
            "compare_perturbed": _shared_fraction(rows, pert),
            "compare_disjoint": _shared_fraction(rows, other),
        }
        mat = gen.loxodromic(rng, rows[0][0], rows[0][1])
        f["matrix"] = (rows[0][0], rows[0][1])
        f["matrix_path"] = self._write(f"g{j}.json", json.dumps(mat.tolist()))
        alg = gen.algebra_element(rng, scale=float(rng.uniform(0.1, 1.0)))
        f["alg"] = alg
        f["alg_path"] = self._write(f"x{j}.json", json.dumps(alg.tolist()))
        return f

    def __len__(self) -> int:
        return len(self.schedule) * self.N_FILES

    def _call(self, i: int):
        return self.schedule[i % len(self.schedule)], self.files[i % self.N_FILES]

    def _argv(self, kind: str, f: dict) -> list[str]:
        tau = ["--tau", str(self.TAU)]
        if kind in ("zeta", "psi"):
            return [kind, f["path"], "--s", f["s_literal"], *tau]
        if kind == "zeros":
            return ["zeros", f["path"], *tau, "--maxm", "1"]
        if kind == "recover":
            return ["recover", f["path"]]
        if kind == "recover_zeros":
            return ["recover", f["zeros_path"], "--kind", "zeros", "--imbound", f["imbound"]]
        if kind == "classify":
            return ["classify", f["matrix_path"]]
        if kind == "decompose":
            return ["decompose", f["alg_path"]]
        partner = {"compare_same": "same_path", "compare_perturbed": "pert_path",
                   "compare_disjoint": "other_path"}[kind]
        return ["compare", f["path"], f[partner], *tau]

    def run(self, i: int, tr):
        kind, f = self._call(i)
        argv = self._argv(kind, f)
        out, err = io.StringIO(), io.StringIO()
        with tr.span("cli_io." + ("compare" if kind.startswith("compare") else kind)):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli(argv)
        return code, out.getvalue()

    def check(self, i: int, out, tr) -> dict:
        kind, f = self._call(i)
        code, text = out
        _require(code == 0, f"call {i} ({kind}): exit code {code}: {text[:200]}")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"call {i} ({kind}): stdout is not JSON: {exc}") from None
        counters = {"cli_io.out_bytes": len(text.encode("utf-8")), "cli_io.zero_points": 0}
        if kind in ("zeta", "psi"):
            got = complex(doc["value"]["re"], doc["value"]["im"])
            _require(got == f[kind], f"call {i} ({kind}): {got!r} != {f[kind]!r}")
            _require(not doc["convergence_warning"], f"call {i} ({kind}): convergence warning")
        elif kind == "zeros":
            total = sum(z["multiplicity"] for z in doc["zeros"])
            _require(total == f["zeros_count"], f"call {i}: {total} zeros, want {f['zeros_count']}")
            _require(all(z["re"] in (0, -1) for z in doc["zeros"]), f"call {i}: zero off Re 0, -1")
            counters["cli_io.zero_points"] = total
        elif kind in ("recover", "recover_zeros"):
            if kind == "recover":
                _require(doc["status"] in ("EXACT", "TOLERANT"), f"call {i}: status {doc['status']}")
            got_l = RealMultiset((r["value"], r["multiplicity"]) for r in doc["recovered_lengths"])
            got_r = RealMultiset((r["value"], r["multiplicity"]) for r in doc["recovered_ratios"])
            with tr.span("multisets.match"):
                ok = multiset_equal(got_l, f["lengths"], LENGTH_TOL) and multiset_equal(
                    got_r, f["ratios"], RATIO_TOL
                )
            _require(ok, f"call {i} ({kind}): recovered invariants differ from the generator")
        elif kind == "classify":
            a0, b0 = f["matrix"]
            _require(
                abs(doc["length"] - a0) < CLASSIFY_TOL
                and abs(doc["holonomy"] - min(b0, TWO_PI - b0)) < CLASSIFY_TOL,
                f"call {i}: classified {doc} differs from ({a0!r}, {b0!r})",
            )
        elif kind == "decompose":
            x = f["alg"]
            k, p = np.array(doc["cartan"]["k"]), np.array(doc["cartan"]["p"])
            iw = doc["iwasawa"]
            ik, ia, in_ = (np.array(iw[key]) for key in ("k", "a_p", "n"))
            with tr.span("lie_so31.check"):
                ok = (
                    np.max(np.abs(k + p - x)) < 1e-12
                    and np.max(np.abs(ik + ia + in_ - x)) < 1e-12
                    and np.array_equal(lie_so31.theta(k), k)
                    and np.array_equal(lie_so31.theta(p), -p)
                    and all(lie_so31.in_algebra(m) for m in (k, p, ik, ia, in_))
                )
            _require(ok, f"call {i}: decomposition does not recombine to the input")
        else:
            want = "EXACT" if kind == "compare_same" else "FAILED"
            _require(doc["status"] == want, f"call {i} ({kind}): status {doc['status']}, want {want}")
            if want == "EXACT":
                _require(doc["residual"] == 0, f"call {i}: residual {doc['residual']}")
            else:
                _require(doc["witness"] is not None, f"call {i}: FAILED without a witness")
        return counters

    def properties(self, ops: list[int]) -> dict:
        buckets = {"all": 0, "most": 0, "none": 0}
        for i in ops:
            kind, f = self._call(i)
            if kind.startswith("compare"):
                frac = f["shared"][kind]
                buckets["all" if frac == 1.0 else "none" if frac == 0.0 else "most"] += 1
        n = sum(buckets.values())
        return {"compare_shared_share": {k: v / n for k, v in buckets.items()} if n else {}}


WORKLOADS = {w.name: w for w in (RecoverCorpus, ForwardEval, CliMix)}
