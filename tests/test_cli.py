import json
import sys

import pytest

from eulercong import cli
from eulercong.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_eulerian_plain(capsys):
    code, out = run_cli(capsys, "eulerian", "--ell", "4")
    assert code == 0
    assert "A_4(x) = x + 11x^2 + 11x^3 + x^4" in out
    assert "1 11 11 1" in out


def test_eulerian_zero(capsys):
    code, out = run_cli(capsys, "eulerian", "--ell", "0")
    assert code == 0
    assert "A_0(x) = 1" in out


def test_eulerian_csv(capsys):
    code, out = run_cli(capsys, "eulerian", "--ell", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["1", "1,1", "1,4,1"]


def test_eulerian_json(capsys):
    code, out = run_cli(capsys, "eulerian", "--ell", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["polynomial"] == "0 1 4 1"
    assert payload["triangle"][-1] == ["1", "4", "1"]


def test_bernoulli_plain(capsys):
    code, out = run_cli(capsys, "bernoulli", "--ell", "4")
    assert code == 0
    assert "B_2(x) = x^2 - x + 1/6" in out
    assert "B_4(x) = x^4 - 2x^3 + x^2 - 1/30" in out


def test_bernoulli_json(capsys):
    code, out = run_cli(capsys, "bernoulli", "--ell", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["polynomials"] == ["1", "-1/2 1", "1/6 -1 1"]
    assert payload["numbers"] == ["1", "-1/2", "1/6"]


def test_verify_eulerian_default(capsys):
    code, out = run_cli(capsys, "verify", "--ell", "2", "--m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["remainder"] == "0"
    assert payload["defect"] == "0 -1/8 1/2 -3/4 1/2 -1/8"


def test_verify_custom_f_fails(capsys):
    code, out = run_cli(capsys, "verify", "--ell", "2", "--m", "2", "--f", "0 2 1")
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False


def test_verify_ell_one(capsys):
    code, out = run_cli(capsys, "verify", "--ell", "1", "--m", "3")
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_verify_malformed_f_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--ell", "2", "--m", "2", "--f", "0 x 1"])
    assert err.value.code == 2


def test_verify_degree_too_large_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--ell", "2", "--m", "2", "--f", "0 1 1 1"])
    assert err.value.code == 2


def test_verify_bad_bounds_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--ell", "-1", "--m", "2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify", "--ell", "2", "--m", "1"])
    assert err.value.code == 2


def test_solve_plain(capsys):
    code, out = run_cli(capsys, "solve", "--ell", "3", "--m", "2")
    assert code == 0
    assert out.strip() == "x + 4x^2 + x^3"


def test_solve_degree_one(capsys):
    code, out = run_cli(capsys, "solve", "--ell", "1", "--m", "2")
    assert code == 0
    assert out.strip() == "x"


def test_solve_json(capsys):
    code, out = run_cli(capsys, "solve", "--ell", "5", "--m", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_recurrence"] is True
    assert payload["unique"] is True
    assert payload["solution"] == "0 1 26 66 26 1"


def test_linial_single(capsys):
    code, out = run_cli(capsys, "linial", "--ell", "1", "--m", "1")
    assert code == 0
    assert out.strip() == "t - 1"


def test_linial_both(capsys):
    code, out = run_cli(capsys, "linial", "--ell", "2", "--m", "1", "--both")
    assert code == 0
    assert "t^2 - 3t + 3" in out
    assert "agree = true" in out


def test_linial_both_json(capsys):
    code, out = run_cli(
        capsys, "linial", "--ell", "4", "--m", "2", "--both", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert payload["mean_shift"] == payload["worpitzky"]


def test_worpitzky(capsys):
    code, out = run_cli(capsys, "worpitzky", "--ell", "2")
    assert code == 0
    assert "PASS" in out and "t^2" in out


def test_audit_small(capsys):
    code, out = run_cli(capsys, "audit", "--ell", "1", "--m", "2", "--seed", "0")
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_audit_json(capsys):
    code, out = run_cli(
        capsys, "audit", "--ell", "2", "--m", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_audit_corrupted_table_fails():
    # failure path exercised through the library hook the CLI relies on
    from eulercong.audit import run_audit

    def corrupt(rows):
        rows[-1][0] += 1
        return rows

    results = run_audit(max_ell=3, max_m=2, seed=0, mutate_triangle=corrupt)
    failing = [r for r in results if not r.passed]
    assert failing
    assert any("triangle" in r.name for r in failing)


def test_audit_compares_the_second_routes(monkeypatch):
    # A_ell(-1) and zeta(-ell) are computed by one route in the library;
    # the audit must catch either one drifting from its second route.
    from eulercong import audit, bernoulli, eulerian

    at_minus_one, zeta = eulerian.eulerian_at_minus_one, bernoulli.zeta_negative
    monkeypatch.setattr(
        eulerian, "eulerian_at_minus_one", lambda ell: at_minus_one(ell) + (ell == 3)
    )
    monkeypatch.setattr(bernoulli, "zeta_negative", lambda ell: zeta(ell) * (1 + (ell == 3)))
    results = {r.name: r for r in audit.run_audit(max_ell=3, max_m=2, seed=0)}
    assert results["eulerian generating function"].detail.startswith("A_3(-1) differs")
    assert results["zeta negative values"].detail == "zeta(-3) routes disagree"
    assert not results["eulerian generating function"].passed
    assert not results["zeta negative values"].passed


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "audit", "--ell", "2", "--m", "3", "--seed", "7")
    second = run_cli(capsys, "audit", "--ell", "2", "--m", "3", "--seed", "7")
    assert first == second
    third = run_cli(capsys, "verify", "--ell", "4", "--m", "3")
    fourth = run_cli(capsys, "verify", "--ell", "4", "--m", "3")
    assert third == fourth


def test_int_str_limit_lifted_and_restored(capsys):
    # row 400 of the triangle has entries of about 860 digits
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run_cli(capsys, "eulerian", "--ell", "400", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 400
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(old)


def test_run_maps_exit_codes(monkeypatch, capsys):
    argv = ["eulercong", "verify", "--ell", "2", "--m", "2", "--f", "0 2 1"]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as err:
        cli.run()
    assert err.value.code == 1


def test_internal_error_exits_3(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(cli, "cmd_worpitzky", crash)
    monkeypatch.setattr(sys, "argv", ["eulercong", "worpitzky", "--ell", "2"])
    with pytest.raises(SystemExit) as err:
        cli.run()
    assert err.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RuntimeError: simulated crash" in captured.err
