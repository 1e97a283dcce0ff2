import json

import pytest

from povmlab.cli import EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main


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
    def test_malformed_tolerance(self, capsys, monkeypatch):
        monkeypatch.setenv("POVMLAB_TOL", "abc")
        code, out, err = run(["mzi-scan", "--verify"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "POVMLAB_TOL" in err and "'abc'" in err

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
])
def test_bad_numbers_are_usage_errors(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert flag in err


def test_argparse_usage_error_exits_64(capsys):
    code, out, err = run(["mzi-scan", "--nmax", "two"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage: ") and "--nmax" in err


def test_failing_verify_exits_2(capsys, monkeypatch):
    argv = ["mzi-scan", "--verify", "--eps1", "0.3", "--theta1", "0.3", "--format", "json"]
    monkeypatch.setenv("POVMLAB_TOL", "0")
    code, out, _ = run(argv, capsys)
    checks = json.loads(out)["checks"]
    assert checks["tolerance"] == 0.0
    assert checks["max_abs_err"] > 0.0
    assert code == EXIT_VERIFY


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
    outputs = []
    for i in range(2):
        path = tmp_path / f"run{i}.csv"
        code, out, _ = run(argv + ["--verify", "--out", str(path)], capsys)
        assert code == EXIT_OK and out == ""
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") >= 2
