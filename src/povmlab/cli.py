"""Command-line front end: parameter sweeps, coexistence reports and
statistics export in diff-friendly CSV or JSON.

Exit codes: 0 on success, 2 on a --verify failure, 64 on usage or I/O
errors. --verify checks, each against a fixed bound: for mzi-scan,
max_abs_err <= 1e-9 (reported as checks.tolerance) and row sums within 1e-9
of one; for kerr-tradeoff, visibility non-increasing and path confidence
non-decreasing in the amplitude, within 1e-9; for spin, oracle and criterion
agree; for spin-phase, covariance residual <= 1e-10 and uniformity residual
<= 1e-12. No environment variable changes a bound.
Identical configuration produces byte-identical output files. Only
spin-phase takes --seed (it draws the rotation angles). Its --spin is at
most 200 (dimension 401), it takes at most 1024 intervals (from --bins or
--intervals), and with --format json those intervals' effect matrices hold at
most 2^18 entries in all (32 bins at --spin 20 hold 53,792; 16 bins at --spin
63.5 hold exactly 2^18, and such a run peaks at about 40 MB, 32 MB of which is
the interpreter with povmlab imported). mzi-scan takes at
most 4096 --delta-steps. It propagates the one input column |1, 0> through
each step's interferometer, which costs (nmax + 1)^4 multiply-adds a step, and
it bounds the sweep's steps * (nmax + 1)^4 <= 2^22 (33 steps admit --nmax 17).
Each bound is checked before any matrix is built.

JSON output is one object with the keys "config", "rows" and "checks",
laid out exactly as json.dumps(indent=2, sort_keys=True) lays it out, except
that each row of a spin-phase effect matrix, a list of [re, im] pairs, goes
on a single line. Output is written as it is produced, to --out or stdout,
by direct writes of pieces no longer than one row: each report row is laid
out through one template of the sorted header, and a spin-phase effect
matrix is held as its 2 dim - 1 symbol entries, joined once into a text of
which its rows, written one at a time, are slices; a lag -j that is the
exact conjugate of lag j takes lag j's formatted text with one sign
flipped. spin-phase forms no dense effect: each eigenvalue range is the
computed range of the interval's real prolate matrix (one eigvalsh per
distinct width), which encloses the effect's spectrum within a stated
margin; a slice that misses the effect bounds by that margin is
diagonalised and reports its computed spectrum. Each covariance residual is
read on the 2 dim - 1 lags of the symbols.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import kerrqnd, mzi, spin
from .povm import _check_effects

EXIT_OK = 0
EXIT_VERIFY = 2
EXIT_USAGE = 64

MAX_SPIN = 200  # spin-phase --spin: each bin's effect has (2s+1)^2 entries
MAX_INTERVALS = 1024  # spin-phase intervals per run
MAX_JSON_ENTRIES = 1 << 18  # spin-phase --format json: effect-matrix entries per run
MAX_DELTA_STEPS = 4096  # mzi-scan --delta-steps
MAX_SWEEP_ENTRIES = 1 << 22  # mzi-scan: steps * (nmax+1)^4, multiply-adds of the sweep

_NOT_CONFIG = {"command", "func", "out", "verify"}  # parsed arguments left out of "config"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _scalar(value) -> str:
    """The JSON text of a scalar: a finite float by float.__repr__, as
    json.dumps writes it, and every other scalar by json.dumps."""
    if type(value) is float and math.isfinite(value):
        return repr(value)
    return json.dumps(value)


def _negated(text: str) -> str:
    """The float.__repr__ of -x from that of x, signed zeros included."""
    return text[1:] if text[0] == "-" else "-" + text


class _EffectRows:
    """A spin-phase effect matrix [c(n - m)] for JSON output, held as its
    symbol (``spin._phase_symbols``). Its rows are slices of one text of the
    2 dim - 1 entries, each formatted as [re, im] with float.__repr__, as
    json.dumps writes a finite float (negative zeros included), and joined
    by ", ": row m is the window of lags -m..dim-1-m, as in
    ``spin._toeplitz``. Lags 0..dim-1 are formatted, and so is each lag -j
    that is not the exact conjugate of lag j, bit for bit; the text of one
    that is is lag j's, with the imaginary part's sign flipped."""

    __slots__ = ("symbol",)

    def __init__(self, symbol: np.ndarray):
        self.symbol = symbol

    def rows(self, indent: str = ""):
        """Each row's JSON text, one line at any ``indent``, one row at a time."""
        dim = (len(self.symbol) + 1) // 2
        ahead, behind = self.symbol[dim - 1:], self.symbol[dim - 1::-1]  # lags j and -j
        reals = list(map(repr, ahead.real.tolist()))
        imags = list(map(repr, ahead.imag.tolist()))
        mirrored = ((behind.real == ahead.real) & (np.signbit(behind.real) == np.signbit(ahead.real))
                    & (behind.imag == -ahead.imag)
                    & (np.signbit(behind.imag) != np.signbit(ahead.imag))).tolist()
        back = [f"[{re}, {_negated(im)}]" if same else f"[{x!r}, {y!r}]"
                for re, im, same, x, y in zip(reals, imags, mirrored, behind.real.tolist(),
                                              behind.imag.tolist())]
        entries = back[:0:-1] + [f"[{re}, {im}]" for re, im in zip(reals, imags)]
        text = ", ".join(entries)
        starts = list(itertools.accumulate([len(e) + 2 for e in entries], initial=0))
        for start in range(dim - 1, -1, -1):
            yield "[" + text[starts[start]:starts[start + dim] - 2] + "]"


class _RowDicts:
    """The report rows for JSON output: a list of flat dicts, each mapping
    the header to one row's scalars. Every row is laid out through one
    template of the sorted header, a key being written by json.dumps with
    any "%" doubled."""

    __slots__ = ("header", "values")

    def __init__(self, header: list[str], values: list[list]):
        self.header = header
        self.values = values

    def rows(self, indent: str):
        """Each row's JSON text at ``indent``, one row at a time."""
        order = sorted(range(len(self.header)), key=self.header.__getitem__)
        keys = [json.dumps(self.header[i]).replace("%", "%%") for i in order]
        template = "{" + ",".join(f"\n{indent}  {key}: %s" for key in keys) + f"\n{indent}}}"
        if not keys:
            template = "{}"
        for row in self.values:
            yield template % tuple([_scalar(row[i]) for i in order])


def _write_json(write, value, indent: str = ""):
    """Write the text of ``value`` with ``write``, laid out as
    json.dumps(indent=2, sort_keys=True) lays it out, except that an
    :class:`_EffectRows` is a list of its rows, one line each; a
    :class:`_RowDicts` is its list of dicts. A piece is at most one such
    row."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        head = "{\n"
        for key in sorted(value):
            write(f"{head}{inner}{json.dumps(key)}: ")
            _write_json(write, value[key], inner)
            head = ",\n"
        write(f"\n{indent}}}")
    elif isinstance(value, (_EffectRows, _RowDicts)):
        head = "[\n" + inner
        for row in value.rows(inner):
            write(head)
            write(row)
            head = ",\n" + inner
        write("[]" if head[0] == "[" else f"\n{indent}]")  # "[]": no row was written
    elif isinstance(value, (list, tuple)) and value:
        head = "[\n"
        for item in value:
            write(head + inner)
            _write_json(write, item, inner)
            head = ",\n"
        write(f"\n{indent}]")
    else:
        write(_scalar(value))


def _emit(config: dict, header: list[str], rows: list[list], checks: dict,
          fmt: str, out_path: str | None):
    """Write the report to ``out_path``, or to stdout, as it is produced."""
    with (open(out_path, "w", newline="") if out_path is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        if fmt == "csv":
            fh.writelines(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])
        else:
            payload = {"config": config, "rows": _RowDicts(header, rows), "checks": checks}
            _write_json(fh.write, payload)
            fh.write("\n")


def _finite_float(text: str) -> float:
    """argparse type of the float flags: argparse names the flag when it
    reports the error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _transparency(text: str) -> float:
    """argparse type of a splitter transparency, checked as
    :class:`povmlab.mzi.BSParams` checks it."""
    value = _finite_float(text)
    try:
        mzi.BSParams(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _parse_floats(text: str, flag: str, sep: str = ",", count: int | None = None,
                  kind=_finite_float) -> list[float]:
    """The numbers of a ``sep``-separated list flag, each read by the
    argparse type ``kind``, ``count`` of them when it is given."""
    try:
        values = [kind(p) for p in text.split(sep)]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    if count not in (None, len(values)):
        raise ValueError(f"{flag}: expected {count} numbers separated by {sep!r}, got {text!r}")
    return values


def cmd_mzi_scan(args) -> tuple[list[str], list[list], dict, bool]:
    if args.delta_steps < 1:
        raise ValueError(f"--delta-steps must be at least 1, got {args.delta_steps}")
    if args.delta_steps > MAX_DELTA_STEPS:
        raise ValueError(f"--delta-steps must be at most {MAX_DELTA_STEPS}, "
                         f"got {args.delta_steps}")
    if args.nmax < 1:
        raise ValueError(f"--nmax must be at least 1, got {args.nmax}")
    if args.delta_steps * (args.nmax + 1) ** 4 > MAX_SWEEP_ENTRIES:
        largest = math.isqrt(math.isqrt(MAX_SWEEP_ENTRIES // args.delta_steps)) - 1
        raise ValueError(f"--nmax must be at most {largest} at --delta-steps "
                         f"{args.delta_steps}, got {args.nmax}")
    deltas = np.linspace(args.delta_min, args.delta_max, args.delta_steps)
    bs1 = mzi.BSParams(args.eps1, args.theta1)
    bs2 = mzi.BSParams(args.eps2, args.theta2)
    d = args.nmax + 1
    # amplitudes <n1, n2| U |1, 0> (column 1 * d + 0), one d x d row per phase shift
    amps = mzi._sweep_columns(bs1, bs2, deltas, mzi.FockSpace(args.nmax), d)
    probs = (np.abs(amps) ** 2).reshape(-1, d, d)
    single = np.add.outer(np.arange(d), np.arange(d)) == 1
    others = probs[:, ~single].sum(axis=1)
    rows = []
    worst = 0.0
    for delta, p10, p01, other in zip(deltas.tolist(), probs[:, 1, 0].tolist(),
                                      probs[:, 0, 1].tolist(), others.tolist()):
        eps = mzi.effective_transparency(mzi.MZIParams(bs1, bs2, delta))
        err = abs(p10 - eps)
        worst = max(worst, err)
        rows.append([delta, p10, p01, other, eps, err, p10 + p01 + other])
    header = ["delta", "p10", "p01", "sum_other", "eps_analytic", "abs_err", "prob_sum"]
    checks = {"max_abs_err": worst, "tolerance": 1e-9,
              "row_sums_ok": all(abs(r[-1] - 1.0) < 1e-9 for r in rows)}
    return header, rows, checks, worst <= checks["tolerance"] and checks["row_sums_ok"]


def cmd_kerr_tradeoff(args) -> tuple[list[str], list[list], dict, bool]:
    amps = _parse_floats(args.amp, "--amp")
    eps2_values = _parse_floats(args.eps2, "--eps2", kind=_transparency)
    try:
        probe_dims = {amp: kerrqnd.coherent_dim(amp) for amp in amps}
    except ValueError as exc:
        raise ValueError(f"--amp: {exc}") from None
    rows_raw = kerrqnd.tradeoff_scan(
        amps, args.lam, eps2_values, probe_kind=args.probe
    )
    rows = []
    for r in rows_raw:
        rows.append([r["amp"], r["lam"], r["eps2"], r["visibility"],
                     r["path_confidence"], probe_dims[r["amp"]]])
    header = ["amp", "lambda", "eps2", "visibility", "path_confidence", "probe_dim"]
    # monotone tradeoff along increasing |amp| at fixed eps2; the rows of -a
    # are those of a exactly (kerrqnd.tradeoff_scan)
    monotone = True
    for eps2 in eps2_values:
        series = [r for r in rows_raw if r["eps2"] == eps2]
        series.sort(key=lambda r: abs(r["amp"]))
        for a, b in zip(series, series[1:]):
            if b["visibility"] > a["visibility"] + 1e-9:
                monotone = False
            if b["path_confidence"] < a["path_confidence"] - 1e-9:
                monotone = False
    checks = {"tradeoff_monotone": monotone}
    return header, rows, checks, monotone


def cmd_spin(args) -> tuple[list[str], list[list], dict, bool]:
    a1 = _parse_floats(args.a1, "--a1", count=3)
    a2 = _parse_floats(args.a2, "--a2", count=3)
    value = spin.criterion_value(a1, a2)
    decision = spin.coexist_criterion(a1, a2)
    oracle = spin.coexist_oracle(a1, a2)
    rows = []
    if decision:
        joint = spin.joint_spin_observable(a1, a2)
        for (s1, s2), m, lo in zip(joint.outcomes, joint.mats, joint.extremes[:, 0].tolist()):
            rows.append([s1, s2, m[0, 0].real, m[0, 1].real, m[0, 1].imag, m[1, 1].real, lo])
    header = ["outcome1", "outcome2", "g00", "g01_re", "g01_im", "g11", "min_eig"]
    checks = {
        "criterion_value": float(value),
        "coexistent": bool(decision),
        "oracle_agrees": bool(oracle == decision),
        "joint_min_eig": min((r[-1] for r in rows), default=None),
    }
    return header, rows, checks, checks["oracle_agrees"]


def cmd_spin_phase(args) -> tuple[list[str], list[list], dict, bool]:
    if args.spin > MAX_SPIN:
        raise ValueError(f"--spin must be at most {MAX_SPIN}, got {args.spin:g}")
    try:
        space = spin.SpinPhaseSpace(args.spin)
    except ValueError as exc:
        raise ValueError(f"--spin: {exc}") from None
    if args.intervals is not None:
        intervals = np.array([_parse_floats(chunk, "--intervals", ":", 2)
                              for chunk in args.intervals.split(";")])
        flag, count = "--intervals", len(intervals)
    else:
        if args.bins < 1:
            raise ValueError(f"--bins must be at least 1, got {args.bins}")
        flag, count = "--bins", args.bins
    if count > MAX_INTERVALS:
        raise ValueError(f"{flag} must give at most {MAX_INTERVALS} intervals, got {count}")
    if args.format == "json" and count * space.dim ** 2 > MAX_JSON_ENTRIES:
        raise ValueError(f"{flag} must give at most {MAX_JSON_ENTRIES // space.dim ** 2} "
                         f"intervals with --format json at --spin {args.spin:g}, got {count}")
    try:
        # a (k, 2) array, which spin then checks in one vectorized test
        intervals = np.asarray(spin._phase_intervals(
            args.bins if args.intervals is None else intervals), dtype=float)
    except ValueError as exc:
        raise ValueError(f"--intervals: {exc}") from None
    # every interval's symbol is held (2 dim - 1 entries each, 13 MB at the
    # bounds); the check reads the effects through a strided view and
    # diagonalises a slice only if its prolate ranges miss the bounds
    dim = space.dim
    symbols = spin._phase_symbols(dim, intervals)
    extremes = _check_effects(spin._toeplitz_view(symbols),
                              *spin._prolate_enclosure(symbols, intervals))
    alphas = np.random.default_rng(args.seed).uniform(0.0, 2 * np.pi, len(intervals))
    covs = spin._covariance_residuals(symbols, intervals, alphas).tolist()
    # every diagonal entry is the symbol's lag 0
    widths = intervals[:, 1] - intervals[:, 0]
    uniforms = np.abs(symbols[:, dim - 1].real - widths / (2 * np.pi)).tolist()
    rows = [[u, v, lo, hi, alpha, cov, uniform]
            for (u, v), (lo, hi), alpha, cov, uniform
            in zip(intervals.tolist(), extremes.tolist(), alphas.tolist(), covs, uniforms)]
    worst_cov = max([0.0, *covs])
    worst_uniform = max([0.0, *uniforms])
    matrices = list(map(_EffectRows, symbols)) if args.format == "json" else "json only"
    header = ["u", "v", "eig_min", "eig_max", "alpha", "covariance_residual",
              "uniformity_residual"]
    checks = {
        "max_covariance_residual": worst_cov,
        "max_uniformity_residual": worst_uniform,
        "effect_matrices": matrices,
    }
    return header, rows, checks, worst_cov <= 1e-10 and worst_uniform <= 1e-12


def _config_dict(args) -> dict:
    """The JSON ``config`` block: the subcommand and its parsed options."""
    return {"subcommand": args.command,
            **{k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}}


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--verify", action="store_true",
                   help="exit 2 when the command's self-checks fail")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="povmlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mzi-scan", help="single-photon interference sweep")
    p.add_argument("--eps1", type=_transparency, default=0.5)
    p.add_argument("--eps2", type=_transparency, default=0.5)
    p.add_argument("--theta1", type=_finite_float, default=0.0)
    p.add_argument("--theta2", type=_finite_float, default=0.0)
    p.add_argument("--delta-min", dest="delta_min", type=_finite_float, default=0.0)
    p.add_argument("--delta-max", dest="delta_max", type=_finite_float, default=2 * math.pi)
    p.add_argument("--delta-steps", dest="delta_steps", type=int, default=33)
    p.add_argument("--nmax", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_mzi_scan)

    p = sub.add_parser("kerr-tradeoff", help="path confidence vs visibility scan")
    p.add_argument("--amp", default="0,1,2,3",
                   help="comma-separated coherent amplitudes")
    p.add_argument("--lambda", dest="lam", type=_finite_float, default=0.5)
    p.add_argument("--eps2", default="0.5", help="comma-separated transparencies")
    p.add_argument("--probe", choices=["coherent", "number"], default="coherent")
    _add_common(p)
    p.set_defaults(func=cmd_kerr_tradeoff)

    p = sub.add_parser("spin", help="coexistence report for two Bloch vectors")
    p.add_argument("--a1", required=True, help="x,y,z")
    p.add_argument("--a2", required=True, help="x,y,z")
    _add_common(p)
    p.set_defaults(func=cmd_spin)

    p = sub.add_parser("spin-phase", help="covariant phase effect report")
    p.add_argument("--spin", type=_finite_float, default=0.5)
    p.add_argument("--intervals", default=None,
                   help="semicolon-separated u:v pairs in radians")
    p.add_argument("--bins", type=int, default=8)
    p.add_argument("--seed", type=int, default=0, help="seed of the rotation angles")
    _add_common(p)
    p.set_defaults(func=cmd_spin_phase)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up when it runs: a cmd_* rebound after the parser was built,
        # such as a tracing wrapper, is the one called
        header, rows, checks, passed = globals()[args.func.__name__](args)
        _emit(_config_dict(args), header, rows, checks, args.format, args.out)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"povmlab: error: {exc}\n")
        return EXIT_USAGE
    return EXIT_VERIFY if args.verify and not passed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
