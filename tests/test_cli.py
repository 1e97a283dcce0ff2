import io
import json
import math
import re
import sys

import numpy as np
import pytest

from povmlab import cli, kerrqnd, linalg, mzi, spin
from povmlab.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from povmlab.povm import _CHECK_SLICE_BYTES, State, _check_effects, basis_state


def run(argv, capsys):
    """Exit code, stdout and stderr of one run; argparse errors exit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _json(value):
    """``value`` as the CLI writes it, in one string."""
    out = io.StringIO()
    cli._write_json(out.write, value)
    return out.getvalue()


class TestSpinJson:
    def test_json_parses_and_reruns_identically(self, capsys):
        for a, coexistent in (("0.9", False), ("0.6", True), ("0.7071067811874313", False)):
            argv = ["spin", "--a1", f"{a},0,0", "--a2", f"0,{a},0",
                    "--format", "json", "--verify"]
            code, first, _ = run(argv, capsys)
            assert code == EXIT_OK
            payload = json.loads(first)
            assert payload["checks"]["oracle_agrees"] is True
            assert payload["checks"]["coexistent"] is coexistent
            assert len(payload["rows"]) == (4 if coexistent else 0)
            _, second, _ = run(argv, capsys)
            assert second == first


class TestUsageErrors:
    def test_zero_delta_steps(self, capsys):
        code, out, err = run(["mzi-scan", "--delta-steps", "0", "--verify"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--delta-steps" in err

    def test_nonpositive_bins(self, capsys):
        for bins in ("0", "-1"):
            code, out, err = run(["spin-phase", "--bins", bins, "--verify"], capsys)
            assert code == EXIT_USAGE
            assert out == ""
            assert "--bins" in err

    def test_nonpositive_nmax(self, capsys):
        for nmax in ("0", "-3"):
            code, out, err = run(["mzi-scan", "--nmax", nmax, "--verify"], capsys)
            assert code == EXIT_USAGE
            assert out == ""
            assert "--nmax" in err

    def test_bloch_vector_too_long(self, capsys):
        code, out, err = run(["spin", "--a1=1.2,0,0", "--a2=0,0.5,0"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "exceeds 1" in err


@pytest.mark.parametrize("argv, flag", [
    (["kerr-tradeoff", "--amp", "inf", "--verify"], "--amp"),
    (["kerr-tradeoff", "--amp=", "--verify"], "--amp"),
    (["kerr-tradeoff", "--eps2", ",", "--verify"], "--eps2"),
    (["kerr-tradeoff", "--lambda", "nan", "--verify"], "--lambda"),
    (["mzi-scan", "--theta1", "nan", "--verify"], "--theta1"),
    (["spin-phase", "--spin", "nan", "--verify"], "--spin"),
    (["spin-phase", "--intervals", "0-1", "--verify"], "--intervals"),
    (["spin-phase", "--intervals=", "--verify"], "--intervals"),
    (["spin-phase", "--intervals", "0:1:2", "--verify"], "--intervals"),
    (["spin-phase", "--intervals", "0:1;nan:2", "--verify"], "--intervals"),
    (["spin", "--a1=0.5,0", "--a2=0,0.5,0", "--verify"], "--a1"),
    (["spin", "--a1=0.5,0,0", "--a2=0,nan,0", "--verify"], "--a2"),
    *[(["mzi-scan", f"{flag}=inf", "--verify"], flag)
      for flag in ("--eps1", "--eps2", "--theta2", "--delta-min", "--delta-max")],
    (["kerr-tradeoff", "--amp", "0,7", "--verify"], "--amp"),
    (["mzi-scan", "--eps1", "1.5", "--verify"], "--eps1"),
    (["mzi-scan", "--eps2=-0.1", "--verify"], "--eps2"),
    (["kerr-tradeoff", "--eps2", "0.5,1.5", "--verify"], "--eps2"),
])
def test_bad_numbers_are_usage_errors(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("argv, message", [
    (["mzi-scan", "--eps1", "1.5"], "argument --eps1: transparency 1.5 outside [0, 1]"),
    (["mzi-scan", "--eps2=-0.1"], "argument --eps2: transparency -0.1 outside [0, 1]"),
    (["kerr-tradeoff", "--eps2", "0.5,1.5"], "--eps2: transparency 1.5 outside [0, 1]"),
])
def test_transparency_is_checked_where_it_enters(argv, message, capsys, monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(kerrqnd, "_coherent_vector", reached)
    monkeypatch.setattr(mzi, "beam_splitter", reached)
    # with valid transparencies the command goes on to build a probe or splitter
    with pytest.raises(Reached):
        main([argv[0], "--eps2", "1"])
    code, out, err = run(argv + ["--verify"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert message in err


@pytest.mark.parametrize("probe", ["coherent", "number"])
def test_kerr_tradeoff_rows_depend_on_the_amplitude_modulus(probe, capsys):
    code, _, _ = run(["kerr-tradeoff", "--amp=-2,0,1", "--probe", probe, "--verify"], capsys)
    assert code == EXIT_OK
    code, out, _ = run(["kerr-tradeoff", "--amp=-2,-0.5,0.5,2", "--eps2", "0.3,0.5",
                        "--probe", probe, "--verify"], capsys)
    assert code == EXIT_OK
    # the printed rows at -a and a differ in the amplitude only
    rows = {(float(amp), rest[1]): rest for amp, *rest in
            (line.split(",") for line in out.splitlines()[1:])}
    assert len(rows) == 8
    for amp, eps2 in rows:
        assert rows[amp, eps2] == rows[-amp, eps2]
    # and so do the JSON rows, which print every digit
    code, out, _ = run(["kerr-tradeoff", "--amp=-2,2", "--eps2", "0.3", "--probe", probe,
                        "--format", "json"], capsys)
    assert code == EXIT_OK
    minus, plus = json.loads(out)["rows"]
    assert minus.pop("amp") == -plus.pop("amp")
    assert minus == plus


@pytest.mark.parametrize("probe", ["coherent", "number"])
def test_kerr_tradeoff_json_rows_are_those_of_the_joint_povm(probe, capsys):
    code, out, _ = run(["kerr-tradeoff", "--amp=-2,0,0.5,3", "--lambda", "1.3",
                        "--eps2", "0.1,0.5,0.77", "--probe", probe, "--format", "json",
                        "--verify"], capsys)
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    assert len(rows) == 12
    for row in rows:
        r, dim = abs(row["amp"]), row["probe_dim"]
        state = (kerrqnd.coherent_state(r, dim) if probe == "coherent"
                 else basis_state(round(r**2), dim))
        config = kerrqnd.ProbeConfig(state, row["lambda"], kerrqnd.truncated_phase_povm(dim, 8))
        povm = kerrqnd.joint_path_interference_povm(row["eps2"], math.pi / 2, config)
        assert float(row["visibility"]).hex() == kerrqnd.interference_visibility(povm).hex()
        assert float(row["path_confidence"]).hex() == kerrqnd.path_confidence(povm).hex()


@pytest.mark.parametrize("lam", ["1e100", "1e308"])
def test_kerr_tradeoff_reduces_a_huge_coupling(lam, capsys):
    # the rows are those of the coupling mod 2 pi, with no warning, and
    # print the coupling as given
    code, out, err = run(["kerr-tradeoff", "--lambda", lam, "--format", "json", "--verify"],
                         capsys)
    assert (code, err) == (EXIT_OK, "")
    residue = repr(math.fmod(float(lam), 2 * math.pi))
    code, reference, _ = run(["kerr-tradeoff", "--lambda", residue, "--format", "json",
                              "--verify"], capsys)
    assert code == EXIT_OK
    rows, reference = json.loads(out)["rows"], json.loads(reference)["rows"]
    assert len(rows) == len(reference) > 0
    for row, ref in zip(rows, reference):
        assert row.pop("lambda") == float(lam)
        ref.pop("lambda")
        assert row == ref


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    argv = ["mzi-scan", "--nmax", "2", "--format", "json", "--verify"]
    try:
        outputs = [run(argv, capsys) for _ in range(2)]
        assert built == [1]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == EXIT_OK and outputs[0][1]
        # a command rebound after the parser was built is the one called
        calls = []
        command = cli.cmd_mzi_scan
        monkeypatch.setattr(cli, "cmd_mzi_scan", lambda args: calls.append(1) or command(args))
        assert run(argv, capsys) == outputs[0]
        assert calls == [1] and built == [1]
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("spec", ["2:1", "-1:1", "0:7"], ids=["reversed", "negative", "past-2pi"])
def test_malformed_intervals_name_the_flag(spec, capsys):
    code, out, err = run(["spin-phase", f"--intervals={spec}", "--verify"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--intervals: malformed interval" in err


def test_argparse_usage_error_exits_64(capsys):
    code, out, err = run(["mzi-scan", "--nmax", "two"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage: ") and "--nmax" in err


def test_failing_verify_exits_2(capsys, monkeypatch):
    argv = ["mzi-scan", "--verify", "--eps1", "0.3", "--theta1", "0.3", "--format", "json"]
    closed_form = mzi.effective_transparency
    monkeypatch.setattr(mzi, "effective_transparency", lambda params: closed_form(params) + 1e-6)
    code, out, _ = run(argv, capsys)
    checks = json.loads(out)["checks"]
    assert checks["tolerance"] == 1e-9
    assert checks["max_abs_err"] > checks["tolerance"]
    assert code == EXIT_VERIFY


@pytest.mark.parametrize("column, value", [
    ("visibility", lambda amp: abs(amp)),
    ("path_confidence", lambda amp: -abs(amp)),
], ids=["visibility-grows", "confidence-falls"])
def test_failing_kerr_tradeoff_verify_exits_2(column, value, capsys, monkeypatch):
    # one column moves the wrong way as |amp| grows, the other is untouched
    scan = kerrqnd.tradeoff_scan

    def bent(*args, **kwargs):
        return [{**row, column: value(row["amp"])} for row in scan(*args, **kwargs)]

    monkeypatch.setattr(kerrqnd, "tradeoff_scan", bent)
    code, out, _ = run(["kerr-tradeoff", "--amp", "0,1,2", "--verify", "--format", "json"],
                       capsys)
    assert json.loads(out)["checks"]["tradeoff_monotone"] is False
    assert code == EXIT_VERIFY


def test_failing_spin_verify_exits_2(capsys, monkeypatch):
    criterion = spin.coexist_criterion
    monkeypatch.setattr(spin, "coexist_oracle", lambda a1, a2: not criterion(a1, a2))
    code, out, _ = run(["spin", "--a1=0.6,0,0", "--a2=0,0.6,0", "--verify", "--format", "json"],
                       capsys)
    assert json.loads(out)["checks"]["oracle_agrees"] is False
    assert code == EXIT_VERIFY


def test_failing_spin_phase_covariance_verify_exits_2(capsys, monkeypatch):
    residuals = spin._covariance_residuals
    monkeypatch.setattr(spin, "_covariance_residuals", lambda *args: residuals(*args) + 1e-9)
    code, out, _ = run(["spin-phase", "--verify", "--format", "json"], capsys)
    checks = json.loads(out)["checks"]
    assert checks["max_covariance_residual"] > 1e-10
    assert checks["max_uniformity_residual"] <= 1e-12
    assert code == EXIT_VERIFY


def test_failing_spin_phase_uniformity_verify_exits_2(capsys, monkeypatch):
    # the diagonal (lag 0) of every symbol, and of every rotated one, shrinks
    # alike: the effects stay positive and covariant, and stop being uniform
    symbols = spin._phase_symbols

    def shrunk(dim, bins):
        entries = symbols(dim, bins)
        entries[:, dim - 1] *= 1 - 1e-6
        return entries

    monkeypatch.setattr(spin, "_phase_symbols", shrunk)
    code, out, _ = run(["spin-phase", "--verify", "--format", "json"], capsys)
    checks = json.loads(out)["checks"]
    assert checks["max_covariance_residual"] <= 1e-10
    assert checks["max_uniformity_residual"] > 1e-12
    assert code == EXIT_VERIFY


def test_mzi_scan_builds_no_state(capsys, monkeypatch):
    built = []
    check = State.__post_init__
    monkeypatch.setattr(State, "__post_init__", lambda st: built.append(st) or check(st))
    code, _, _ = run(["mzi-scan", "--nmax", "3", "--verify"], capsys)
    assert code == EXIT_OK
    assert built == []
    # the counter sees the states the Schroedinger-picture reference builds
    half = mzi.BSParams(0.5)
    mzi.mzi_output_state(basis_state(1, 4), basis_state(0, 4), mzi.MZIParams(half, half),
                         mzi.FockSpace(3))
    assert len(built) > 0


def test_spin_phase_intervals_one_row_each(capsys):
    code, out, _ = run(["spin-phase", "--spin", "1.5", "--intervals", "0:1;1:3.5;2:6.2",
                        "--verify"], capsys)
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("u,v,")
    assert [tuple(float(x) for x in line.split(",")[:2]) for line in lines[1:]] == [
        (0.0, 1.0), (1.0, 3.5), (2.0, 6.2)]


@pytest.mark.parametrize("argv", [
    ["mzi-scan", "--nmax", "2", "--eps1", "0.3", "--theta1", "0.3"],
    ["kerr-tradeoff", "--amp", "0,0.5,1", "--eps2", "0.3,0.5"],
    ["spin", "--a1=0.6,0,0", "--a2=0,0.6,0"],
    ["spin-phase", "--spin", "2", "--bins", "5", "--seed", "11"],
])
def test_csv_reruns_are_byte_identical(argv, tmp_path, capsys):
    # both formats
    for fmt in ("csv", "json"):
        outputs = []
        for i in range(2):
            path = tmp_path / f"run{i}.{fmt}"
            code, out, _ = run(argv + ["--format", fmt, "--verify", "--out", str(path)],
                               capsys)
            assert code == EXIT_OK and out == ""
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") >= 2


@pytest.mark.parametrize("argv", [
    ["mzi-scan", "--nmax", "2", "--eps1", "0.3", "--theta1", "0.3"],
    ["kerr-tradeoff", "--amp", "0,0.5,1", "--eps2", "0.3,0.5"],
    ["spin", "--a1=0.6,0,0", "--a2=0,0.6,0"],
    ["spin", "--a1=0.9,0,0", "--a2=0,0.9,0"],
])
def test_json_without_numeric_arrays_is_indent_2(argv, capsys):
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == EXIT_OK
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", [["mzi-scan"], ["kerr-tradeoff"],
                                     ["spin", "--a1=0.6,0,0", "--a2=0,0.6,0"]])
def test_seed_only_on_spin_phase(command, capsys):
    code, out, _ = run(command + ["--format", "json"], capsys)
    assert code == EXIT_OK
    assert "seed" not in json.loads(out)["config"]
    code, out, err = run(command + ["--seed", "1"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--seed" in err


def test_spin_phase_seed_draws_the_angles(capsys):
    argv = ["spin-phase", "--spin", "1.5", "--bins", "3", "--format", "json"]
    outputs = [run(argv + ["--seed", seed], capsys) for seed in ("5", "5", "6")]
    assert [code for code, _, _ in outputs] == [EXIT_OK] * 3
    assert outputs[0][1] == outputs[1][1]
    first, other = (json.loads(out) for _, out, _ in outputs[1:])
    assert first["config"]["seed"] == 5
    assert [r["alpha"] for r in first["rows"]] != [r["alpha"] for r in other["rows"]]


def test_spin_bound(capsys, monkeypatch):
    code, out, _ = run(["spin-phase", "--spin", str(cli.MAX_SPIN), "--bins", "2", "--verify"],
                       capsys)
    assert code == EXIT_OK
    assert len(out.splitlines()) == 3

    def no_matrix(*args, **kwargs):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(spin, "_phase_kernels", no_matrix)
    monkeypatch.setattr(spin, "_phase_symbols", no_matrix)
    for value in ("200.5", "1e6"):
        code, out, err = run(["spin-phase", "--spin", value, "--verify"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--spin" in err and "at most 200" in err


@pytest.mark.parametrize("value", ["-1", "0.3"])
def test_spin_must_be_a_positive_half_integer(value, capsys):
    code, out, err = run(["spin-phase", f"--spin={value}", "--verify"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert "--spin" in err and "positive half-integer" in err


def test_interval_bounds(capsys, monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(spin, "_phase_kernels", reached)
    monkeypatch.setattr(spin, "_phase_symbols", reached)
    many = ";".join(["0:1"] * cli.MAX_INTERVALS)
    json_bins = cli.MAX_JSON_ENTRIES // 401 ** 2
    assert json_bins == 1
    # at each bound the command goes on to build the effects' symbols
    for argv in (["--bins", "1024"], ["--spin", "200", "--bins", "1024"],
                 ["--intervals", many],
                 ["--spin", "200", "--bins", str(json_bins), "--format", "json"],
                 # 64 bins of 64 x 64 hold exactly 2^18 entries
                 ["--spin", "31.5", "--bins", "64", "--format", "json"]):
        with pytest.raises(Reached):
            main(["spin-phase"] + argv)
    for argv, flag in ((["--bins", "1025"], "--bins"),
                       (["--intervals", many + ";1:2"], "--intervals"),
                       (["--spin", "200", "--bins", "2", "--format", "json"], "--bins"),
                       (["--spin", "200", "--bins", "1000", "--format", "json"], "--bins"),
                       (["--spin", "32", "--bins", "63", "--format", "json"], "--bins"),
                       (["--spin", "31.5", "--bins", "65", "--format", "json"], "--bins"),
                       (["--spin", "200", "--intervals", ";".join(["0:1"] * 2),
                         "--format", "json"], "--intervals")):
        code, out, err = run(["spin-phase"] + argv, capsys)
        assert code == EXIT_USAGE, argv
        assert out == ""
        assert flag in err and "at most" in err


def test_json_layout_of_nested_values():
    payload = {"b": [{"y": None, "x": [True, "s"]}, [], {}], "a": {"é": "\u2014", "n": []},
               "c": [["u", 1.5], [[None, 2]], [False, 0]]}
    assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)
    # numbers and lists of them are laid out as json.dumps lays them out
    for value in ([1, 2.5], [[1.0, 0.0], [0.5, -0.5]], {"m": [[[1.0, 0.0]], [[0.0, 1.0]]]}, [],
                  (), [[]], 0.1):
        assert _json(value) == json.dumps(value, indent=2, sort_keys=True)
    # a finite float is written by float.__repr__, every other scalar by
    # json.dumps, alone and nested
    scalars = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, np.float64(0.3), True, 7, float("nan"),
               float("inf"), -float("inf")]
    for value in scalars + [scalars, {"k": scalars}]:
        assert _json(value) == json.dumps(value, indent=2, sort_keys=True)
    # a stack of one effect matrix, one line per row: c(-1), c(0), c(1) of a
    # 2 x 2 section
    symbol = np.array([complex(0.25, 0.5), complex(0.5, -0.0), complex(-0.0, 0.25)])
    assert _json({"m": cli._EffectRows(symbol[None])}) == (
        '{\n  "m": [\n    [\n      [[0.5, -0.0], [-0.0, 0.25]],\n'
        '      [[0.25, 0.5], [0.5, -0.0]]\n    ]\n  ]\n}')
    assert _json({"m": cli._EffectRows(np.empty((0, 3), complex))}) == '{\n  "m": []\n}'


ROW_KEYS = ["b%s", "a{0}", 'q"x', "é", "%(k)s", "{}", "z", "7", "m"]
ROW_VALUES = [[None, True, False, 3, np.float64(0.1), -0.0, float("nan"), float("inf"),
               -float("inf")],
              [1.5, -2, 0.0, 5e-324, 1e16, np.float64(-0.0), "s%s{}", 2**70, 0.1 + 0.2]]


def test_row_dicts_are_laid_out_as_json_dumps():
    dicts = [dict(zip(ROW_KEYS, row)) for row in ROW_VALUES]
    rows = cli._RowDicts(ROW_KEYS, ROW_VALUES)
    assert _json(rows) == json.dumps(dicts, indent=2, sort_keys=True)
    nested = {"config": {"x": 1}, "rows": rows, "checks": {"ok": True}}
    assert _json(nested) == json.dumps({**nested, "rows": dicts}, indent=2, sort_keys=True)
    # every key alone, and no rows or no keys
    for key, value in zip(ROW_KEYS, ROW_VALUES[0]):
        assert _json(cli._RowDicts([key], [[value]])) == json.dumps([{key: value}], indent=2)
    assert _json({"rows": cli._RowDicts(ROW_KEYS, [])}) == '{\n  "rows": []\n}'
    assert _json(cli._RowDicts([], [[], []])) == json.dumps([{}, {}], indent=2)


def _window_rows(symbol):
    """The rows of an effect matrix as windows of its formatted entries."""
    entries = ["[{!r}, {!r}]".format(z.real, z.imag) for z in symbol.tolist()]
    dim = (len(entries) + 1) // 2
    return ["[" + ", ".join(entries[start:start + dim]) + "]"
            for start in range(dim - 1, -1, -1)]


def _effect_rows(symbols):
    """Each effect's rows as the CLI writes a (k, 2 dim - 1) symbol stack:
    the lines of its text at the row indent, after checking that the text
    is the layout of the dense matrices."""
    text = _json(cli._EffectRows(symbols))
    k, width = symbols.shape
    dim = (width + 1) // 2
    dense = spin._toeplitz(symbols).view(float).reshape(k, dim, dim, 2).tolist()
    assert _first_difference(text, _reference_json(dense)) is None
    matrices = []
    for line in text.splitlines()[1:-1]:
        if line == "  [":
            matrices.append([])
        elif line.startswith("    "):
            matrices[-1].append(line[4:].removesuffix(","))
    return matrices


def _mixed_symbol(rng, dim):
    """A random symbol with negative zeros, and an exactly Hermitian one
    from it, each lag -j the conjugate of lag j except for a zero's sign,
    real or imaginary, at some lags."""
    symbol = rng.normal(size=2 * dim - 1) * 10.0 ** rng.integers(-20, 20, 2 * dim - 1) + 1j * (
        rng.normal(size=2 * dim - 1))
    symbol[rng.random(2 * dim - 1) < 0.3] = complex(-0.0, 0.0)
    symbol[rng.random(2 * dim - 1) < 0.3] = complex(0.0, -0.0)
    symbol[dim - 1] = complex(-0.0, -0.0)
    hermitian = np.concatenate([symbol[:dim - 1:-1].conj(), symbol[dim - 1:]])
    for j, form in zip(range(1, dim), rng.integers(0, 5, dim - 1)):
        x, y = symbol[dim - 1 + j].real, symbol[dim - 1 + j].imag
        hermitian[dim - 1 + j], hermitian[dim - 1 - j] = [
            (complex(x, y), complex(x, -y)),
            (complex(0.0, y), complex(0.0, -y)),
            (complex(0.0, y), complex(-0.0, -y)),
            (complex(x, 0.0), complex(x, -0.0)),
            (complex(x, 0.0), complex(x, 0.0)),
        ][form]
    return symbol, hermitian


@pytest.mark.parametrize("dim", [*range(1, 10), 128])
def test_effect_rows_are_slices_of_the_joined_entries(dim):
    rng = np.random.default_rng(dim)
    # an exact mirror shares lag j's text, and one that differs only in a
    # zero's sign is formatted itself
    symbol, hermitian = _mixed_symbol(rng, dim)
    for s in (symbol, hermitian):
        rows, = _effect_rows(s[None])
        assert rows == _window_rows(s)
        assert rows == [json.dumps(row) for row in spin._toeplitz(s[None])[0].view(float)
                        .reshape(dim, dim, 2).tolist()]


@pytest.mark.parametrize("chunk", [None, 1, 2], ids=["one-text", "effect-texts", "pair-texts"])
@pytest.mark.parametrize("dim", [1, 2, 3, 7, 41])
def test_stack_rows_are_each_effects_own(dim, chunk, monkeypatch):
    # a stack of five effects: mirrored and unmirrored lags at different
    # lags in each, so every effect's rows come from its own entries; the
    # stack joined into one text, or one per effect or per two effects
    rng = np.random.default_rng(100 + dim)
    stack = np.array([*_mixed_symbol(rng, dim), *_mixed_symbol(rng, dim)[::-1],
                      _mixed_symbol(rng, dim)[1]])
    if chunk is not None:
        monkeypatch.setattr(cli, "_JOINED_ENTRIES", chunk * (2 * dim - 1) + dim - 1)
    matrices = _effect_rows(stack)
    assert len(matrices) == len(stack)
    for rows, s in zip(matrices, stack):
        assert rows == _window_rows(s)
    assert matrices == [_effect_rows(s[None])[0] for s in stack]


def _compare_with_json_dumps(value):
    """Compare the layout of ``value``, and of every value nested in it but
    an effect matrix, with json.dumps(indent=2, sort_keys=True); returns how
    many values were compared."""
    if isinstance(value, cli._EffectRows):
        return 0
    try:
        expected = json.dumps(value, indent=2, sort_keys=True)
    except TypeError:  # it holds an effect matrix
        expected = None
    else:
        assert _json(value) == expected
    if isinstance(value, dict):
        value = list(value.values())
    nested = value if isinstance(value, (list, tuple)) else ()
    return (expected is not None) + sum(map(_compare_with_json_dumps, nested))


@pytest.mark.parametrize("argv", [
    ["mzi-scan", "--nmax", "2", "--eps1", "0.3", "--theta1", "0.3"],
    ["kerr-tradeoff", "--amp", "0,0.5,1", "--eps2", "0.3,0.5"],
    ["spin", "--a1=0.6,0,0", "--a2=0,0.6,0"],
    ["spin", "--a1=0.9,0,0", "--a2=0,0.9,0"],  # not coexistent: "rows": []
    ["spin-phase", "--spin", "3", "--bins", "5", "--seed", "11"],
])
def test_every_value_but_a_matrix_is_laid_out_as_json_dumps(argv, capsys):
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == EXIT_OK
    args = cli.build_parser().parse_args(argv + ["--format", "json"])
    header, rows, checks, _ = args.func(args)
    payload = {"config": cli._config_dict(args), "rows": [dict(zip(header, r)) for r in rows],
               "checks": checks}
    assert out == _json(payload) + "\n"
    if "--a2=0,0.9,0" in argv:
        assert payload["rows"] == [] and out.endswith('\n  "rows": []\n}\n')
    assert _compare_with_json_dumps(payload) > len(rows)


def test_spin_phase_json_writes_one_line_per_matrix_row(capsys):
    bins, spin_j = 32, 20
    d = 2 * spin_j + 1
    code, out, _ = run(["spin-phase", "--spin", str(spin_j), "--bins", str(bins),
                        "--format", "json", "--verify"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    mats = np.array(payload["checks"]["effect_matrices"])
    assert mats.shape == (bins, d, d, 2)
    payload["checks"]["effect_matrices"] = []
    frame = json.dumps(payload, indent=2, sort_keys=True).count("\n") + 1
    # the frame, one line per matrix row and a bracket line before and after
    # each matrix
    assert len(out.splitlines()) <= frame + bins * (d + 2) + 1


@pytest.mark.parametrize("nmax", [1, 4, 8])
def test_mzi_scan_rows_match_per_delta_composition(nmax, capsys):
    bs1, bs2 = mzi.BSParams(0.3, 0.7), mzi.BSParams(0.55, 2.9)
    code, out, _ = run(["mzi-scan", "--nmax", str(nmax), "--eps1", "0.3", "--theta1", "0.7",
                        "--eps2", "0.55", "--theta2", "2.9", "--delta-min", "-7",
                        "--delta-max", "9", "--format", "json", "--verify"], capsys)
    assert code == EXIT_OK
    rows = json.loads(out)["rows"]
    deltas = np.linspace(-7.0, 9.0, 33)
    assert [r["delta"] for r in rows] == deltas.tolist()
    # reference: the splitters and the phase shifter rebuilt for every delta
    space = mzi.FockSpace(nmax)
    one, vac = np.eye(space.dim)[1], np.eye(space.dim)[0]
    joint = np.kron(np.outer(one, one), np.outer(vac, vac))
    for delta, row in zip(deltas, rows):
        params = mzi.MZIParams(bs1, bs2, delta)
        u = (mzi.beam_splitter(bs2, space).dag() @ mzi.phase_shifter(params.delta, space)
             @ mzi.beam_splitter(bs1, space)).mat
        diag = np.diag(u @ joint @ u.conj().T).real.reshape(space.dim, space.dim)
        assert abs(row["p10"] - diag[1, 0]) <= 1e-15
        assert abs(row["p01"] - diag[0, 1]) <= 1e-15
        assert abs(row["sum_other"] - (diag.sum() - diag[1, 0] - diag[0, 1])) <= 1e-15
        assert row["eps_analytic"] == mzi.effective_transparency(params)


def _prolate(dim, intervals):
    """The symbols of ``intervals`` at ``dim`` and the enclosure of the
    CLI's check: the prolate ranges, their stated margin and the
    Hermiticity residuals."""
    intervals = np.asarray(intervals, dtype=float).reshape(-1, 2)
    symbols = spin._phase_symbols(dim, intervals)
    return symbols, *spin._prolate_enclosure(symbols, intervals)


def test_spin_phase_extremes_are_the_effect_eigenvalues(capsys):
    # each printed range is the computed one of the interval's real prolate
    # matrix, within the margin the check states of the dense eigenvalues
    code, out, _ = run(["spin-phase", "--spin", "3.5", "--intervals",
                        "0:1;1:3.5;2:6.2;0:6.283185307179586", "--format", "json",
                        "--verify"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    mats = np.array(payload["checks"]["effect_matrices"])
    _, ranges, margin, _ = _prolate(8, [(row["u"], row["v"]) for row in payload["rows"]])
    for row, m, (lo, hi) in zip(payload["rows"], mats[..., 0] + 1j * mats[..., 1],
                                ranges.tolist()):
        w = np.linalg.eigvalsh(m)
        assert (row["eig_min"], row["eig_max"]) == (lo, hi)
        assert abs(lo - w.min()) <= margin and abs(hi - w.max()) <= margin


@pytest.mark.parametrize("spin_j, bins, slices", [
    ("20", 32, 4),  # nine 41 x 41 effects to a slice
    ("1.5", 1024, 1),  # 1024 effects of 4 x 4 fill one slice exactly
    ("3.5", 1000, 4),  # 256 effects of 8 x 8 to a slice, the last one partial
])
def test_spin_phase_columns_equal_the_one_interval_forms(spin_j, bins, slices):
    # the batched command against one interval at a time: the angles of k
    # scalar draws, the prolate range of each interval alone, within its
    # stated margin of the eigenvalue range of its effect checked alone,
    # and the public covariance residual, bit for bit
    argv = ["spin-phase", "--spin", spin_j, "--bins", str(bins), "--seed", "17", "--verify"]
    args = cli.build_parser().parse_args(argv)
    header, rows, checks, passed = args.func(args)
    assert passed
    space = spin.SpinPhaseSpace(float(spin_j))
    assert -(-bins // max(1, _CHECK_SLICE_BYTES // (16 * space.dim ** 2))) == slices
    rng = np.random.default_rng(17)
    columns = dict(zip(header, map(list, zip(*rows))))
    assert columns["alpha"] == [float(rng.uniform(0.0, 2 * np.pi)) for _ in range(bins)]
    for u, v, lo, hi, alpha, cov in zip(*(columns[name] for name in header[:6])):
        _, ranges, margin, _ = _prolate(space.dim, [(u, v)])
        assert (lo, hi) == tuple(ranges[0].tolist())
        dense = _check_effects(spin._phase_kernels(space.dim, [(u, v)]))[0]
        assert np.abs(dense - (lo, hi)).max() <= margin
        assert cov == spin.spin_phase_covariance_residual(space, (u, v), alpha)
    assert checks["max_covariance_residual"] == max(columns["covariance_residual"])


EPS = np.finfo(float).eps
EDGE_INTERVALS = [(0.0, 2 * np.pi), (1.0, 1.0), (2.0, 2.0 + 1e-13), (0.0, 0.0),
                  (2 * np.pi, 2 * np.pi), (0.0, 1e-13), (0.3, 0.3 + 1e-13)]


@pytest.mark.parametrize("spin_j, bins", [
    ("3", 32), ("10", 64), ("20", 32), ("63.5", 16), ("200", 4),
    ("20", [(0.0, 0.5), (0.3, 1.9), (1.0, 4.0), (2.5, 6.2), (0.1, 6.0), (5.0, 5.5)]),
    ("0.5", [(0.0, 0.5), (0.3, 1.9), (2.5, 6.2)]),
    ("1", EDGE_INTERVALS), ("20", EDGE_INTERVALS), ("200", EDGE_INTERVALS),
], ids=["3-32", "10-64", "20-32", "63.5-16", "200-4", "widths-20", "widths-0.5",
        "edges-1", "edges-20", "edges-200"])
def test_prolate_ranges_are_the_dense_ranges_within_the_margin(spin_j, bins):
    dim = spin.SpinPhaseSpace(float(spin_j)).dim
    intervals = spin._phase_intervals(bins)
    symbols, ranges, margin, hermitian = _prolate(dim, intervals)
    dense = np.linalg.eigvalsh(spin._toeplitz(symbols))[:, [0, -1]]
    assert np.abs(ranges - dense).max() <= margin
    # every lag residual is at the rounding level: the margin is Weyl's bound
    # on residuals of at most 8 eps and the two eigvalsh roundings
    assert margin <= (2 * dim - 1) * 16 * EPS + 2 * dim * 64 * EPS
    assert hermitian.tolist() == [linalg._hermitian_residual(m)
                                  for m in spin._toeplitz(symbols)]
    # the command reports these ranges
    flag = (["--bins", str(bins)] if isinstance(bins, int) else
            ["--intervals", ";".join(f"{u!r}:{v!r}" for u, v in bins)])
    rows, passed = _spin_phase_rows(["--spin", spin_j, *flag])
    assert passed
    assert [row[2:4] for row in rows] == ranges.tolist()


def _spin_phase_rows(argv):
    """The report rows of one spin-phase run, and whether it passed."""
    args = cli.build_parser().parse_args(["spin-phase", *argv])
    _, rows, _, passed = args.func(args)
    return rows, passed


def _spy_eigvalsh(monkeypatch):
    """The (dtype, shape, nbytes) of each array passed to np.linalg.eigvalsh."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        calls.append((a.dtype, a.shape, a.nbytes))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


def test_spin_phase_passes_no_complex_matrix_to_eigvalsh(capsys, monkeypatch):
    calls = _spy_eigvalsh(monkeypatch)
    code, _, _ = run(["spin-phase", "--spin", "20", "--bins", "32", "--format", "json",
                      "--verify"], capsys)
    assert code == EXIT_OK
    assert calls and all(dtype == np.float64 for dtype, _, _ in calls)


@pytest.mark.parametrize("spin_j, intervals, stacks", [
    ("20", [(0.0, w) for w in np.linspace(0.01, 6.0, 300).tolist()], 16),  # 19 to a slice
    ("1.5", [(0.0, w) for w in np.linspace(0.01, 6.0, 1024).tolist()], 1),
    ("200", [(0.0, 1.0), (1.0, 2.5), (2.0, 2.0)], 3),  # a 1.3 MB matrix is checked alone
])
def test_prolate_stacks_stay_within_a_check_slice(spin_j, intervals, stacks, capsys,
                                                  monkeypatch):
    calls = _spy_eigvalsh(monkeypatch)
    text = ";".join(f"{u!r}:{v!r}" for u, v in intervals)
    code, _, _ = run(["spin-phase", "--spin", spin_j, "--intervals", text], capsys)
    assert code == EXIT_OK
    assert len(calls) == stacks
    assert sum(shape[0] for _, shape, _ in calls) == len(intervals)
    assert all(dtype == np.float64 and (nbytes <= _CHECK_SLICE_BYTES or shape[0] == 1)
               for dtype, shape, nbytes in calls)


def test_perturbed_symbol_takes_the_dense_path(monkeypatch):
    # one lag of one symbol moved by 1e-3 is far outside the prolate
    # residual's rounding level, so the margin misses the effect bounds and
    # every slice is diagonalised: the printed ranges are the computed
    # spectra of the perturbed effects, bit for bit
    symbols_of = spin._phase_symbols
    perturbed = []

    def perturb(dim, bins):
        symbols = symbols_of(dim, bins)
        if not perturbed:  # the command's symbols, not the covariance pieces'
            symbols[5, dim - 1] += 1e-3
            perturbed.append(symbols.copy())
        return symbols

    monkeypatch.setattr(spin, "_phase_symbols", perturb)
    calls = _spy_eigvalsh(monkeypatch)
    rows, _ = _spin_phase_rows(["--spin", "20", "--bins", "32"])
    assert any(dtype == np.complex128 for dtype, _, _ in calls)
    printed = [row[2:4] for row in rows]
    dense = np.linalg.eigvalsh(spin._toeplitz(perturbed[0]))[:, [0, -1]]
    assert printed == dense.tolist()
    assert printed[5] != _prolate(41, spin._phase_intervals(32))[1][5].tolist()


def test_spin_min_eig_is_the_effect_minimum(capsys):
    a1, a2 = [0.6, 0.1, -0.2], [-0.1, 0.55, 0.3]
    code, out, _ = run(["spin", f"--a1={','.join(map(str, a1))}",
                        f"--a2={','.join(map(str, a2))}", "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    lows = [float(np.linalg.eigvalsh(e.op.mat).min())
            for _, e in spin.joint_spin_observable(a1, a2)]
    assert [r["min_eig"] for r in payload["rows"]] == lows
    assert payload["checks"]["joint_min_eig"] == min(lows)


def test_mzi_scan_size_bounds(capsys, monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(mzi, "beam_splitter", reached)
    # at each bound the command goes on to build the first splitter; 1024
    # steps of (7 + 1)^4 entries hold exactly 2^22
    for argv in (["--delta-steps", "4096"], ["--nmax", "17"],
                 ["--delta-steps", "1024", "--nmax", "7"]):
        with pytest.raises(Reached):
            main(["mzi-scan"] + argv)
    for argv, flag in ((["--delta-steps", "4097"], "--delta-steps"),
                       (["--delta-steps", "1000000000000"], "--delta-steps"),
                       (["--nmax", "18"], "--nmax"),
                       (["--nmax", "100000"], "--nmax"),
                       (["--delta-steps", "1025", "--nmax", "7"], "--nmax"),
                       (["--delta-steps", "4096", "--nmax", "5"], "--nmax")):
        code, out, err = run(["mzi-scan", "--verify"] + argv, capsys)
        assert code == EXIT_USAGE, argv
        assert out == ""
        assert flag in err and "at most" in err


@pytest.mark.parametrize("argv, keys", [
    (["mzi-scan"], {"eps1", "eps2", "theta1", "theta2", "delta_min", "delta_max",
                    "delta_steps", "nmax"}),
    (["kerr-tradeoff"], {"amp", "lam", "eps2", "probe"}),
    (["spin", "--a1=0.6,0,0", "--a2=0,0.6,0"], {"a1", "a2"}),
    (["spin-phase"], {"spin", "intervals", "bins", "seed"}),
])
def test_config_holds_the_subcommand_options(argv, keys, tmp_path, capsys):
    path = tmp_path / "out.json"
    code, _, _ = run(argv + ["--format", "json", "--verify", "--out", str(path)], capsys)
    assert code == EXIT_OK
    config = json.loads(path.read_text())["config"]
    assert config.pop("subcommand") == argv[0]
    assert config.pop("format") == "json"
    assert set(config) == keys


def _one_line(items):
    """A list of numbers, or of lists of numbers, such as one row of a dense
    effect matrix written as [re, im] pairs: one line in the layout."""
    types = set(map(type, items))
    return types <= {int, float} or types == {list} and all(
        set(map(type, item)) <= {int, float} for item in items)


def _reference_json(value, indent=""):
    """The CLI JSON layout built as one recursive string, with the effect
    matrices given densely: the reference for the streamed writer."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{inner}{json.dumps(k)}: {_reference_json(value[k], inner)}"
                 for k in sorted(value)]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and not _one_line(value):
        items = [inner + _reference_json(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(value)


def _first_difference(text, expected):
    """None, or where two long texts first differ, with a few characters of
    each (pytest's own diff of megabyte strings takes minutes)."""
    if text == expected:
        return None
    at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
              min(len(text), len(expected)))
    return at, text[at - 40:at + 40], expected[at - 40:at + 40]


def _dense_matrix(dim, interval):
    """The dense path: the effect of one interval built on its own, as
    [re, im] pairs."""
    m = spin._phase_kernels(dim, [interval])[0]
    return np.stack((m.real, m.imag), -1).tolist()


TWO_PI = "6.283185307179586"


@pytest.mark.parametrize("spin_j, selection", [
    (s, ["--bins", str(b)]) for s in ("0.5", "1.5", "3", "20") for b in (1, 64)
] + [
    ("63.5", ["--bins", "1"]),
    ("63.5", ["--bins", "16"]),  # the JSON size bound, with negative zeros
] + [
    # a full circle, a zero-width interval (negative zeros) and a tiny width
    (s, ["--intervals", f"0:{TWO_PI};1:1;2:2.0000000000001"]) for s in ("0.5", "3", "20", "63.5")
])
def test_spin_phase_json_equals_the_dense_path(spin_j, selection, capsys):
    code, out, _ = run(["spin-phase", "--spin", spin_j, *selection, "--seed", "3",
                        "--format", "json", "--verify"], capsys)
    assert code == EXIT_OK
    dim = int(2 * float(spin_j)) + 1
    payload = json.loads(out)
    intervals = [(r["u"], r["v"]) for r in payload["rows"]]
    payload["checks"]["effect_matrices"] = [_dense_matrix(dim, iv) for iv in intervals]
    assert _first_difference(out, _reference_json(payload) + "\n") is None
    matrices = _effect_rows(spin._phase_symbols(dim, intervals))
    for iv, rows, dense in zip(intervals, matrices, payload["checks"]["effect_matrices"]):
        assert rows == [json.dumps(row) for row in dense], iv
    if selection[0] == "--intervals" or selection == ["--bins", "16"]:
        assert re.search(r"-0\.0[,\]]", out)


STREAMED = [
    ["mzi-scan", "--nmax", "2", "--eps1", "0.3", "--theta1", "0.3"],
    ["kerr-tradeoff", "--amp", "0,0.5,1", "--eps2", "0.3,0.5"],
    ["spin", "--a1=0.6,0,0", "--a2=0,0.6,0"],
    ["spin-phase", "--spin", "3", "--bins", "5", "--seed", "11"],
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", STREAMED)
def test_streamed_output_is_the_report_text(argv, fmt, tmp_path, capsys):
    argv = argv + ["--format", fmt, "--verify"]
    code, printed, _ = run(argv, capsys)
    assert code == EXIT_OK
    written = []
    for i in range(2):
        path = tmp_path / f"run{i}"
        code, out, _ = run(argv + ["--out", str(path)], capsys)
        assert code == EXIT_OK and out == ""
        written.append(path.read_bytes())
    assert written[0] == written[1] == printed.encode()
    args = cli.build_parser().parse_args(argv)
    header, rows, checks, _ = args.func(args)
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(cli._fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = _json({"config": cli._config_dict(args),
                      "rows": [dict(zip(header, row)) for row in rows],
                      "checks": checks}) + "\n"
    assert printed == text


def test_large_output_is_the_report_text(tmp_path, capsys):
    # several flushes of the --out buffer: the file holds the printed text,
    # which is the dense path's layout
    argv = ["spin-phase", "--spin", "20", "--bins", "64", "--seed", "3", "--format", "json",
            "--verify"]
    code, printed, _ = run(argv, capsys)
    assert code == EXIT_OK
    path = tmp_path / "out.json"
    code, out, _ = run(argv + ["--out", str(path)], capsys)
    assert code == EXIT_OK and out == ""
    written = path.read_bytes()
    assert len(written) > 2 * cli._OUT_BUFFER_BYTES
    assert written == printed.encode()
    payload = json.loads(printed)
    payload["checks"]["effect_matrices"] = [_dense_matrix(41, (r["u"], r["v"]))
                                            for r in payload["rows"]]
    assert _first_difference(printed, _reference_json(payload) + "\n") is None


CSV_ROWS = [
    [np.float64(0.1) + np.float64(0.2), np.int64(-7), True, -0.0, float("nan"), float("inf"),
     -float("inf")],
    [np.float64(-0.0), np.int64(2**62), False, 5e-324, np.float64("nan"), np.float64("inf"),
     np.float64("-inf")],
    [1e16, 2**70, np.bool_(True), 0.1 + 0.2, None, "s{0}%s", np.float32(0.1)],
    [np.float64(1e-5), np.int64(0), False, 1 / 3, float("nan"), 1.5, -2.0],
]


def test_csv_rows_are_their_fields_joined(tmp_path, capsys):
    header = ["a", "b{}", "c%s", "d", "e", "f", "g"]
    expected = "".join(",".join(map(cli._fmt, row)) + "\n" for row in [header, *CSV_ROWS])
    cli._emit({}, header, CSV_ROWS, {}, "csv", None)
    assert capsys.readouterr().out == expected
    path = tmp_path / "out.csv"
    cli._emit({}, header, CSV_ROWS, {}, "csv", str(path))
    assert path.read_text() == expected
    # a float, np.float64 included, to 15 significant digits; any other
    # value by str
    assert [cli._fmt(v) for v in CSV_ROWS[0]] == ["0.3", "-7", "True", "-0", "nan", "inf",
                                                  "-inf"]
    assert [cli._fmt(v) for v in CSV_ROWS[2]] == ["1e+16", str(2**70), "True", "0.3", "None",
                                                  "s{0}%s", str(np.float32(0.1))]
    assert cli._fmt(np.float64(1 / 3)) == "0.333333333333333"


@pytest.mark.parametrize("to_file", [False, True])
def test_json_is_written_a_row_at_a_time(to_file, monkeypatch):
    class Recorder(io.StringIO):
        def write(self, text):
            pieces.append(len(text))
            return super().write(text)

        def close(self):  # keep the text readable after the with block
            pass

    pieces = []
    output = Recorder()
    argv = ["spin-phase", "--spin", "20", "--bins", "64", "--format", "json"]
    if to_file:
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: output, raising=False)
        argv += ["--out", "unused.json"]
    else:
        monkeypatch.setattr(sys, "stdout", output)
    assert main(argv) == EXIT_OK
    lines = output.getvalue().splitlines()
    assert len(lines) > 64 * 41
    # no piece is longer than the longest line: one matrix row at most
    assert max(pieces) <= max(map(len, lines))
