"""CLI surface: grammar, exit codes, determinism, sequence specs."""

import io
import json
import sys

import pytest

from nonnef.cli import main


def run_cli(argv, stdin=""):
    out = io.StringIO()
    old_out, old_in = sys.stdout, sys.stdin
    sys.stdout, sys.stdin = out, io.StringIO(stdin)
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stdin = old_out, old_in
    return code, out.getvalue()


class TestBasicVerbs:
    def test_root(self):
        code, out = run_cli(["--json", "root", "--ideal", "p=2; vars=x,y; gens=[x^3]",
                             "--e", "1"])
        assert code == 0
        assert json.loads(out)["result"]["ideal"] == "p=2; vars=x,y; gens=[x]"

    def test_tau_example(self):
        code, out = run_cli(["--json", "tau", "--ideal", "p=2; vars=x,y; gens=[x, y]",
                             "--lambda", "2"])
        payload = json.loads(out)["result"]
        assert code == 0
        assert payload["evidence"] == "window-stable"
        assert payload["ideal"] == "p=2; vars=x,y; gens=[y, x]"

    def test_mixed_tau(self):
        code, out = run_cli(["--json", "mixed-tau",
                             "--ideal", "p=2; vars=x,y; gens=[x]", "--lambda", "1",
                             "--ideal2", "p=2; vars=x,y; gens=[y]", "--mu", "1"])
        assert json.loads(out)["result"]["ideal"] == "p=2; vars=x,y; gens=[x*y]"

    def test_jumps(self):
        code, out = run_cli(["--json", "jumps", "--ideal", "p=2; vars=x; gens=[x]",
                             "--max", "3", "--denom-bound", "8"])
        assert json.loads(out)["result"]["jumps"] == ["1", "2", "3"]

    def test_ord_with_names(self):
        code, out = run_cli(["--json", "ord", "--ideal",
                             "p=2; vars=x,y; gens=[x^2, x*y]", "--vars", "x,y"])
        assert json.loads(out)["result"]["ord"] == 2

    def test_toric_ord(self):
        code, out = run_cli(["--json", "toric-ord", "--fan", "builtin:blowup-p2",
                             "--divisor", "0,0,2,1", "--cone", "3"])
        assert json.loads(out)["result"]["ord"] == "1"

    def test_sigma(self):
        code, out = run_cli(["--json", "sigma", "--fan", "builtin:blowup-p2",
                             "--divisor", "0,0,2,1", "--cone", "3"])
        assert json.loads(out)["result"]["value"] == "1"

    def test_nonnef_positive_sigma(self):
        code, out = run_cli(["--json", "nonnef", "--fan", "builtin:blowup-p2",
                             "--divisor", "0,0,2,1"])
        payload = json.loads(out)["result"]
        assert payload["status"] == "pseudo-effective-not-nef"
        assert payload["positive_sigma"] == [[[3], "1"]]

    def test_tau_plus(self):
        code, out = run_cli(["--json", "tau-plus", "--fan", "builtin:blowup-p2",
                             "--divisor", "0,0,2,1", "--lambda", "2",
                             "--chart", "0,3"])
        assert json.loads(out)["result"]["ideal"] == "p=2; vars=x0,x3; gens=[x3]"

    def test_sbl(self):
        code, out = run_cli(["--json", "sbl", "--fan", "builtin:blowup-p2",
                             "--divisor", "0,0,2,1"])
        assert json.loads(out)["result"]["members"] == [[3], [0, 3], [1, 3]]

    def test_toric_classify(self):
        code, out = run_cli(["--json", "toric-classify", "--fan", "builtin:p2",
                             "--divisor", "1,0,0"])
        payload = json.loads(out)["result"]
        assert payload["ample"] and payload["nef"] and payload["big"]


class TestSequenceSpecs:
    def test_power_spec(self):
        code, out = run_cli(["--json", "atau", "--seq",
                             "power p=2; vars=x,y; gens=[x, y]", "--lambda", "2"])
        assert json.loads(out)["result"]["ideal"] == "p=2; vars=x,y; gens=[y, x]"

    def test_table_spec(self):
        code, out = run_cli(["--json", "aord", "--seq",
                             "seq table 1:{p=2; vars=x,y; gens=[x]}", "--vars", "x"])
        payload = json.loads(out)["result"]
        assert payload["upper_bound"] == "1"

    def test_toric_spec(self):
        code, out = run_cli(["--json", "atau", "--seq",
                             "toric builtin:blowup-p2 0,0,2,1 chart=0,3 p=2",
                             "--lambda", "3"])
        assert json.loads(out)["result"]["ideal"] == "p=2; vars=x0,x3; gens=[x3^3]"


class TestExitCodes:
    def test_domain_error_is_one(self):
        code, out = run_cli(["--json", "tau", "--ideal", "p=2; vars=x; gens=[]",
                             "--lambda", "1"])
        assert code == 1 and "error" in json.loads(out)["result"]

    def test_non_prime_is_one(self):
        code, _ = run_cli(["--json", "tau", "--ideal", "p=4; vars=x; gens=[x]",
                           "--lambda", "1"])
        assert code == 1

    def test_resource_cap_is_two(self):
        code, _ = run_cli(["--json", "--power-degree-cap", "4", "tau",
                           "--ideal", "p=2; vars=x,y; gens=[x^3 + y^2, y^3 + x]",
                           "--lambda", "2"])
        assert code == 2

    def test_cap_flagged_still_exits_zero(self):
        # the chain for (x,y)^(9/5) needs e=4 to reach its certified value
        code, out = run_cli(["--json", "--e-max-monomial", "2", "tau",
                             "--ideal", "p=2; vars=x,y; gens=[x, y]",
                             "--lambda", "9/5"])
        payload = json.loads(out)["result"]
        assert code == 0 and payload["evidence"] == "cap-reached"

    @pytest.mark.parametrize("flag, field", [("--e-max-general", "e_max_general"),
                                             ("--window", "window"),
                                             ("--epsilon-depth", "epsilon_depth")])
    def test_non_positive_cap_flag_is_one(self, flag, field):
        code, out = run_cli(["--json", flag, "0", "tau", "--ideal",
                             "p=2; vars=x,y; gens=[x+y^2, x*y]", "--lambda", "1"])
        payload = json.loads(out)["result"]
        assert code == 1 and payload["kind"] == "DomainError"
        assert field in payload["error"]

    @pytest.mark.parametrize("argv", [
        ["nonnef", "--fan", "builtin:p2", "--divisor", "1,0"],
        ["nonnef", "--fan", "builtin:p2", "--divisor", "1,0,0", "--ample", "1,0"],
        ["sbl", "--fan", "builtin:p2", "--divisor", "1,0"],
        ["atau", "--seq", "toric builtin:p2 1,0", "--lambda", "1"],
        ["toric-classify", "--fan", "builtin:p2", "--divisor", "1,0"],
        ["toric-ord", "--fan", "builtin:p2", "--divisor", "1,0", "--cone", "0"],
        ["toric-ord", "--fan", "builtin:p2", "--divisor", "1,0,0,5", "--cone", "0"],
        ["sigma", "--fan", "builtin:p2", "--divisor", "1,0", "--cone", "0"],
        ["tau-plus", "--fan", "builtin:p2", "--divisor", "1,0", "--lambda", "1",
         "--chart", "0,1"],
    ])
    def test_wrong_length_divisor_is_domain_error(self, argv):
        code, out = run_cli(["--json"] + argv)
        payload = json.loads(out)["result"]
        assert code == 1 and payload["kind"] == "DomainError"
        assert "coefficients" in payload["error"]

    @pytest.mark.parametrize("verb", ["toric-ord", "sigma"])
    @pytest.mark.parametrize("cone", ["7", "-1", "0,0", "0,1,2"])
    def test_invalid_subvariety_is_domain_error(self, verb, cone):
        code, out = run_cli(["--json", verb, "--fan", "builtin:p2", "--divisor", "1,0,0",
                             "--cone", cone])
        payload = json.loads(out)["result"]
        assert code == 1 and payload["kind"] == "DomainError"

    def test_verify_pass_exits_zero(self):
        code, out = run_cli(["--json", "verify", "ceil-identity", "--budget", "500"])
        assert code == 0
        assert json.loads(out)["result"]["violations"] == 0


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["--json", "tau", "--ideal", "p=3; vars=x,y; gens=[x^2, x*y, y^3]",
         "--lambda", "5/2"],
        ["--json", "nonnef", "--fan", "builtin:f2", "--divisor", "1,-1,2,0"],
        ["--json", "verify", "subadditivity", "--seed", "7", "--budget", "20"],
    ])
    def test_byte_identical_runs(self, argv):
        code1, out1 = run_cli(list(argv))
        code2, out2 = run_cli(list(argv))
        assert code1 == code2 and out1 == out2

    def test_stdin_ideal(self):
        code, out = run_cli(["--json", "tau", "--ideal", "-", "--lambda", "1"],
                            stdin="p=2; vars=x; gens=[x^2]")
        assert json.loads(out)["result"]["ideal"] == "p=2; vars=x; gens=[x^2]"


class TestFanFile:
    def test_json_fan_file(self, tmp_path):
        fan_file = tmp_path / "fan.json"
        fan_file.write_text(json.dumps({
            "dim": 2,
            "rays": [[1, 0], [0, 1], [-1, -1]],
            "max_cones": [[0, 1], [1, 2], [0, 2]],
        }))
        code, out = run_cli(["--json", "toric-classify", "--fan", str(fan_file),
                             "--divisor", "1,1,1"])
        assert code == 0 and json.loads(out)["result"]["ample"] is True


class TestEnvOverrides:
    def test_env_cap_override(self, monkeypatch):
        monkeypatch.setenv("NONNEF_E_MAX_MONOMIAL", "2")
        code, out = run_cli(["--json", "tau", "--ideal",
                             "p=2; vars=x,y; gens=[x, y]", "--lambda", "9/5"])
        assert json.loads(out)["result"]["evidence"] == "cap-reached"

    def test_zero_env_cap_is_domain_error(self, monkeypatch):
        monkeypatch.setenv("NONNEF_M_CAP", "0")
        code, out = run_cli(["--json", "sbl", "--fan", "builtin:p2", "--divisor", "1,0,0"])
        payload = json.loads(out)["result"]
        assert code == 1 and payload["kind"] == "DomainError"
        assert "m_cap" in payload["error"]

    def test_non_integer_env_cap_is_domain_error(self, monkeypatch):
        monkeypatch.setenv("NONNEF_WINDOW", "two")
        code, out = run_cli(["--json", "tau", "--ideal", "p=2; vars=x; gens=[x]",
                             "--lambda", "1"])
        assert code == 1 and "NONNEF_WINDOW" in json.loads(out)["result"]["error"]

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("NONNEF_E_MAX_MONOMIAL", "2")
        code, out = run_cli(["--json", "--e-max-monomial", "10", "tau", "--ideal",
                             "p=2; vars=x,y; gens=[x, y]", "--lambda", "9/5"])
        assert json.loads(out)["result"]["evidence"] == "window-stable"


class TestVerifyVerb:
    def test_toric_equivalences_small_budget(self):
        code, out = run_cli(["--json", "verify", "toric-equivalences",
                             "--seed", "3", "--budget", "8"])
        assert code == 0
        assert json.loads(out)["result"]["violations"] == 0

    def test_all_suites_tiny_budget(self):
        code, out = run_cli(["--json", "verify", "all", "--seed", "1",
                             "--budget", "6"])
        payload = json.loads(out)["result"]
        assert code == 0 and payload["violations"] == 0
        assert len(payload["suites"]) == 6
