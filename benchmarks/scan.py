"""Workload ``scan``: the user-facing sweeps. ``povmlab.cli.main`` runs in
process with ``--verify`` and ``--out`` for each subcommand, and
``kerrqnd.tradeoff_scan`` is called directly.

The time goes to validating many mid-size effects and observables, the
closed-form kernels, splitters rebuilt on every step and formatting; there
is no full-unitary compression and no subset enumeration. Sizes are fixed
per set of cases; the seed draws the splitter settings, couplings,
transparencies and Bloch vectors (each spin report draws its pair at a
criterion value from a fixed band, so every set has the same mix of
coexistent and non-coexistent pairs).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np
from povmlab import cli, kerrqnd

from decide import scaled_pair
from harness import Case, Verdict, coherent_leakage

ENGLERT_SLACK = 1e-12  # D^2 + V^2 <= 1 + slack, D = 2 path_confidence - 1
MZI_NMAX = ((1, "csv"), (2, "json"), (3, "csv"), (4, "json"), (6, "csv"), (8, "json"))
MZI_STEPS = 33
KERR_AMPS = "0,0.5,1,1.5,2,2.5,3"
SPIN_PHASE = ((3, 32), (10, 64), (20, 32))
# Bands of the criterion value |a1 + a2| + |a1 - a2| of the spin reports,
# one report per band: well inside the coexistent region, just inside its
# boundary 2 (where coexist_oracle falls back to its grid search, which
# finds no point there) and outside it. The reports are CSV, the default:
# the JSON report raises TypeError on a numpy bool in its checks block for
# pairs like these (a program defect), and no case of the benchmark may fail.
SPIN_CRITERION = ((1.2, 1.8), (1.98, 1.995), (2.02, 2.4))
TRADEOFF_AMPS = (0.0, 0.5, 1.0, 2.0, 3.0, 4.0)


def _englert_excess(rows) -> float:
    return max((2 * r["path_confidence"] - 1) ** 2 + r["visibility"] ** 2 - 1.0
               for r in rows)


def _num(x: float) -> str:
    return f"{x:.6f}"


class Scan:
    """Holds the output directory and what the CLI cases have written: a
    digest per configuration (every case runs at least twice in a run, and
    a rerun must give identical bytes), the ``checks`` blocks of the first
    set and the bytes written."""

    SETS = 2
    DENSE_KERNEL = False  # host-speed kernel, see calibrate.py

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.digests: dict[tuple, str] = {}
        self.checks: list[dict] = []
        self.recorded: set[tuple] = set()
        self.output_bytes = 0

    def _cli_case(self, argv: list[str], r: int, rows_expected: int = MZI_STEPS) -> Case:
        """``rows_expected`` is the row count of CSV output."""
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
        out = os.path.join(self.workdir, f"out.{fmt}")
        full = argv + ["--verify", "--out", out]

        def run():
            try:
                code = cli.main(full)
            except SystemExit as exc:  # argparse reports usage errors this way
                code = exc.code
            with open(out, "rb") as fh:
                return code, fh.read()

        def check(result) -> Verdict:
            code, data = result
            self.output_bytes += len(data)
            notes = []
            if code != 0:
                notes.append(f"exit code {code}")
            key = tuple(argv)
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(key, digest) != digest:
                notes.append("rerun of the same configuration changed the output bytes")
            diag = {}
            if fmt == "json":
                payload = json.loads(data)
                notes += self._read_checks(argv[0], payload, diag)
                if r == 0 and key not in self.recorded:
                    self.recorded.add(key)
                    blocks = {k: v for k, v in payload["checks"].items()
                              if k != "effect_matrices"}
                    self.checks.append({"argv": argv, "checks": blocks})
            else:
                rows = list(csv.DictReader(io.StringIO(data.decode())))
                if len(rows) != rows_expected:
                    notes.append(f"{len(rows)} rows, expected {rows_expected}")
                if argv[0] == "mzi-scan" and rows:
                    diag["max_oracle_gap"] = max(float(row["abs_err"]) for row in rows)
                elif argv[0] == "spin" and rows:
                    diag["min_effect_eig"] = min(float(row["min_eig"]) for row in rows)
            return Verdict(not notes, diag, "; ".join(notes))

        return Case(f"cli.{argv[0]}", run, check)

    @staticmethod
    def _read_checks(command: str, payload: dict, diag: dict) -> list[str]:
        checks, rows = payload["checks"], payload["rows"]
        notes = []
        if command == "mzi-scan":
            diag["max_oracle_gap"] = checks["max_abs_err"]
            if len(rows) != MZI_STEPS:
                notes.append(f"{len(rows)} rows, expected {MZI_STEPS}")
        elif command == "kerr-tradeoff":
            excess = _englert_excess(rows)
            diag["max_englert_excess"] = excess
            diag["max_truncation_leakage"] = max(
                coherent_leakage(r["amp"], r["probe_dim"]) for r in rows)
            if excess > ENGLERT_SLACK:
                notes.append(f"Englert bound exceeded by {excess:.3e}")
            if not checks["tradeoff_monotone"]:
                notes.append("tradeoff not monotone")
        elif command == "spin-phase":
            mats = np.array(checks["effect_matrices"])
            mats = mats[..., 0] + 1j * mats[..., 1]
            diag["max_completeness_residual"] = float(
                np.max(np.abs(mats.sum(axis=0) - np.eye(mats.shape[1]))))
            diag["min_effect_eig"] = min(r["eig_min"] for r in rows)
        return notes

    @staticmethod
    def _tradeoff_case(lam: float, eps2_values, kind: str) -> Case:
        def run():
            rows = kerrqnd.tradeoff_scan(TRADEOFF_AMPS, lam, eps2_values, probe_kind=kind)
            return rows, [kerrqnd.coherent_dim(a) for a in TRADEOFF_AMPS]

        def check(output) -> Verdict:
            rows, dims = output
            excess = _englert_excess(rows)
            diag = {"max_englert_excess": excess}
            if kind == "coherent":
                diag["max_truncation_leakage"] = max(
                    coherent_leakage(a, d) for a, d in zip(TRADEOFF_AMPS, dims))
            ok = excess <= ENGLERT_SLACK and len(rows) == len(TRADEOFF_AMPS) * len(eps2_values)
            return Verdict(ok, diag, "" if ok else f"Englert excess {excess:.3e}")

        return Case(f"tradeoff_scan.{kind}", run, check)

    def build_round(self, seed: int, r: int) -> list[Case]:
        rng = np.random.default_rng([seed, r])

        def angle():
            return _num(rng.uniform(0.0, 2 * math.pi))

        def eps():
            return _num(rng.uniform(0.1, 0.9))

        def eps_list():
            return ",".join(_num(e) for e in np.sort(rng.uniform(0.05, 0.95, 3)))

        cases = []
        for nmax, fmt in MZI_NMAX:
            argv = ["mzi-scan", "--nmax", str(nmax), "--eps1", eps(), "--theta1", angle(),
                    "--eps2", eps(), "--theta2", angle(),
                    "--delta-steps", str(MZI_STEPS), "--format", fmt]
            cases.append(self._cli_case(argv, r))
        for probe in ("coherent", "number"):
            for _ in range(2):
                argv = ["kerr-tradeoff", "--amp", KERR_AMPS,
                        "--lambda", _num(rng.uniform(0.2, 2.5)), "--eps2", eps_list(),
                        "--probe", probe, "--format", "json"]
                cases.append(self._cli_case(argv, r))
        for s, bins in SPIN_PHASE:
            argv = ["spin-phase", "--spin", str(s), "--bins", str(bins),
                    "--seed", str(int(rng.integers(1 << 30))), "--format", "json"]
            cases.append(self._cli_case(argv, r))
        for lo, hi in SPIN_CRITERION:
            a1, a2 = (",".join(_num(c) for c in a)
                      for a in scaled_pair(rng, float(rng.uniform(lo, hi))))
            # "=" keeps a leading minus sign from reading as an option; a
            # coexistent pair's CSV lists the four joint effects
            argv = ["spin", f"--a1={a1}", f"--a2={a2}"]
            cases.append(self._cli_case(argv, r, rows_expected=4 if hi < 2.0 else 0))
        for kind in ("coherent", "number"):
            for _ in range(2):
                eps2_values = [float(e) for e in np.sort(rng.uniform(0.05, 0.95, 3))]
                cases.append(self._tradeoff_case(float(rng.uniform(0.2, 2.5)),
                                                 eps2_values, kind))
        return cases
