import json
import subprocess
import sys

from pffcert.cli import main


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "pffcert.cli", *args],
        capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_exit_codes():
    assert run_cli("certify", "2", "2")[0] == 0
    assert run_cli("certify", "2", "4")[0] == 3
    assert run_cli("--budget", "100", "search", "3", "7", "--first")[0] == 5
    assert run_cli("bogus")[0] == 2
    assert run_cli("certify")[0] == 2


def test_certify_human_output():
    code, out, _ = run_cli("certify", "5", "9")
    assert code == 0
    assert "keyineq-additive" in out and "PFF" in out


def test_search_output():
    code, out, _ = run_cli("search", "3", "3", "--all")
    assert code == 0
    assert out.splitlines() == ["x^3 + x^2 - x + 1", "x^3 - x^2 + x + 1"]
    code, out, _ = run_cli("search", "4", "3", "--count")
    assert out.strip() == "0"


def test_json_reports_roundtrip():
    code, out, _ = run_cli("--json", "certify", "2", "4")
    assert code == 3
    payload = json.loads(out)
    assert payload["results"]["status"] == "NOT_PFF"
    # canonical serialization: parse -> dump is byte-identical
    again = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert again == out.strip()


def test_charsum_command():
    code, out, _ = run_cli("charsum", "3", "4", "--sum", "gauss", "--eta", "0")
    assert code == 0
    assert "nearest=-1" in out


def test_prime_field_of_two_elements():
    assert run_cli("search", "2", "1", "--all")[:2] == (0, "x + 1\n")
    code, out, _ = run_cli("charsum", "2", "1")
    assert code == 0 and "nearest=-1" in out


def test_exhaustive_commands_stop_at_the_engine_limit():
    # 2^17 elements is within the default --budget but past the engine
    for args in (("search", "2", "17", "--all"), ("search", "2", "17", "--count"),
                 ("charsum", "2", "17")):
        code, out, err = run_cli(*args)
        assert code == 5, args
        assert out == "" and err.startswith("budget exceeded: "), args


def test_verify_poly_command():
    assert main(["verify", "7", "4", "2", "1", "1"]) == 0
    assert main(["verify", "2", "1", "1", "0", "1"]) == 3  # x^3+x+1: not PFF
    assert main(["verify", "2", "1", "0", "1"]) == 2  # reducible input


def test_out_file(tmp_path):
    path = tmp_path / "report.json"
    code = main(["--json", "--out", str(path), "search", "2", "5", "--first"])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["results"]["count"] == 1


def test_verify_suite_section(capsys):
    code = main(["verify-suite", "--section", "counts"])
    out = capsys.readouterr().out
    assert code == 0
    assert "3/3 checks passed" in out


def test_invalid_input_exits_cleanly():
    for args in (("certify", "2", "0"), ("certify", "2", "-3"), ("certify", "6", "3"),
                 ("certify", "1", "5"), ("charsum", "6", "2"), ("search", "2", "0"),
                 ("certify", str(2**89 - 1), "3")):
        code, out, err = run_cli(*args)
        assert code == 2, args
        assert out == "" and err.startswith("error: ") and "Traceback" not in err, args


def test_python_dash_m_runs_the_cli():
    proc = subprocess.run([sys.executable, "-m", "pffcert", "certify", "5", "9"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "keyineq-additive" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "pffcert", "certify", "6", "3"],
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stderr.startswith("error: ")


def test_verify_suite_whole():
    from pffcert import verify

    checks = verify.verify_all()
    assert [c for c in checks if not c.ok] == []
    assert len(checks) == 355
    assert {c.section for c in checks} == set(verify.SECTIONS)
