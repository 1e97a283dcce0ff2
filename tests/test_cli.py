import json

import numpy as np
import pytest

from povmlab import cli, mzi, spin
from povmlab.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from povmlab.povm import State, basis_state


def run(argv, capsys):
    """Exit code, stdout and stderr of one run; argparse errors exit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


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
])
def test_bad_numbers_are_usage_errors(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert flag in err


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
    many = ";".join(["0:1"] * cli.MAX_INTERVALS)
    json_bins = cli.MAX_JSON_ENTRIES // 401 ** 2
    assert json_bins == 1
    # at each bound the command goes on to build the first matrix
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
    assert cli._json(payload) == json.dumps(payload, indent=2, sort_keys=True)
    # numeric arrays, and lists of them, one line each
    assert cli._json([1, 2.5]) == "[1, 2.5]"
    assert cli._json([[1.0, 0.0], [0.5, -0.5]]) == "[[1.0, 0.0], [0.5, -0.5]]"
    assert cli._json({"m": [[[1.0, 0.0]], [[0.0, 1.0]]]}) == (
        '{\n  "m": [\n    [[1.0, 0.0]],\n    [[0.0, 1.0]]\n  ]\n}')


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


def test_spin_phase_extremes_are_the_effect_eigenvalues(capsys):
    code, out, _ = run(["spin-phase", "--spin", "3.5", "--intervals",
                        "0:1;1:3.5;2:6.2;0:6.283185307179586", "--format", "json",
                        "--verify"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    mats = np.array(payload["checks"]["effect_matrices"])
    for row, m in zip(payload["rows"], mats[..., 0] + 1j * mats[..., 1]):
        w = np.linalg.eigvalsh(m)
        assert (row["eig_min"], row["eig_max"]) == (w.min(), w.max())


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
