import json

from povmlab.cli import EXIT_OK, EXIT_USAGE, main


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestSpinJson:
    def test_json_parses_and_reruns_identically(self, capsys):
        for a, coexistent in (("0.9", False), ("0.6", True)):
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
