"""CLI surface: grammar, exit codes, determinism, sequence specs."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nonnef.cli import main
from fans import SHORT_TWO_FOLD_CYCLE, cycle_times_lines


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

    @pytest.mark.parametrize("flag, certified", [(["--window", "11"], False),
                                                 (["--epsilon-depth", "2"], True)],
                             ids=["window", "epsilon-depth"])
    def test_nonnef_with_capped_sigma(self, flag, certified):
        # no cap reaches sigma; --window 11 outlasts the stable-base-locus chain
        code, out = run_cli(["--json"] + flag + ["nonnef", "--fan", "builtin:blowup-p2",
                                                 "--divisor", "0,0,2,1"])
        payload = json.loads(out)["result"]
        assert code == 0 and payload["status"] == "pseudo-effective-not-nef"
        assert payload["certified"] is certified
        assert payload["positive_sigma"] == [[[3], "1"]]
        for r in payload["cross_checks"]:
            assert r["evidence"] == ("window-stable" if certified else "cap-reached")
            assert r["lp_member"] == r["tau_member"] == r["base_locus_member"]

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


class TestTextOutput:
    """Without --json the CLI prints the result alone, one key per line."""

    def test_root(self):
        code, out = run_cli(["root", "--ideal", "p=2; vars=x,y; gens=[x^3]", "--e", "1"])
        assert code == 0 and out == "ideal: p=2; vars=x,y; gens=[x]\n"

    def test_jumps_nests_lists_and_dicts(self):
        code, out = run_cli(["jumps", "--ideal", "p=2; vars=x; gens=[x^2]",
                             "--max", "1", "--denom-bound", "4"])
        assert code == 0 and out == (
            "certified: True\n"
            "interval_end: 1\n"
            "jumps:\n"
            "  - 1/2\n"
            "  - 1\n"
            "plateaus:\n"
            "    end: 1/2\n"
            "    ideal: p=2; vars=x; gens=[1]\n"
            "    start: 0\n"
            "    --\n"
            "    end: 1\n"
            "    ideal: p=2; vars=x; gens=[x]\n"
            "    start: 1/2\n"
            "    --\n"
            "    end: 1\n"
            "    ideal: p=2; vars=x; gens=[x^2]\n"
            "    start: 1\n"
            "    --\n")

    def test_error_prints_kind_and_message(self):
        code, out = run_cli(["tau", "--ideal", "p=2; vars=x; gens=[x]", "--lambda", "-1"])
        assert code == 1 and out == ("error: exponent must be non-negative, got -1\n"
                                     "kind: DomainError\n")


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

    @pytest.mark.parametrize("argv, text", [
        (["toric-ord", "--fan", "builtin:p2", "--divisor", "1,0,0", "--cone", "a"], "'a'"),
        (["sigma", "--fan", "builtin:p2", "--divisor", "1,0,0", "--cone", "0,"], "'0,'"),
        (["tau-plus", "--fan", "builtin:blowup-p2", "--divisor", "0,0,2,1",
          "--lambda", "2", "--chart", "x"], "'x'"),
        (["tau", "--ideal", "p=2; vars=x; gens=[x]", "--lambda", "abc"], "'abc'"),
        (["tau", "--ideal", "p=2; vars=x; gens=[x]", "--lambda", "1/0"], "'1/0'"),
        (["toric-classify", "--fan", "builtin:p2", "--divisor", "1,a,0"], "'a'"),
        (["atau", "--seq", "toric builtin:p2 1,0,0 chart=a", "--lambda", "1"], "'a'"),
        (["atau", "--seq", "toric builtin:p2 1,0,0 p=x", "--lambda", "1"], "'x'"),
        (["atau", "--seq", "toric builtin:p2 1,0,0 p=2,3", "--lambda", "1"], "'p=2,3'"),
        (["ord", "--ideal", "p=2; vars=x,y; gens=[x]", "--vars", "z"], "'z'"),
    ], ids=["cone", "cone-trailing-comma", "chart", "lambda-word", "lambda-zero-denominator",
            "divisor", "seq-chart", "seq-p", "seq-p-list", "vars"])
    def test_malformed_number_is_domain_error(self, argv, text):
        code, out = run_cli(["--json"] + argv)
        payload = json.loads(out)["result"]
        assert code == 1 and payload["kind"] == "DomainError"
        assert text in payload["error"]

    def test_mixed_tau_over_different_rings_is_domain_error(self):
        code, out = run_cli(["--json", "mixed-tau",
                             "--ideal", "p=2; vars=x,y; gens=[x^2, y^3]", "--lambda", "1",
                             "--ideal2", "p=3; vars=x,y; gens=[x]", "--mu", "1"])
        payload = json.loads(out)["result"]
        assert code == 1 and payload["kind"] == "DomainError"
        assert "F_2[x,y]" in payload["error"] and "F_3[x,y]" in payload["error"]

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_non_positive_tau_level_cap_is_domain_error(self, cap):
        code, out = run_cli(["--json", "nonnef", "--fan", "builtin:f1",
                             "--divisor", "0,0,2,1", "--tau-level-cap", cap])
        payload = json.loads(out)["result"]
        assert code == 1 and payload["kind"] == "DomainError"
        assert "tau_level_cap" in payload["error"]

    def test_non_positive_sample_cap_names_the_flag(self):
        code, out = run_cli(["--json", "aord", "--seq", "table 1:{p=2; vars=x,y; gens=[x]}",
                             "--vars", "x", "--sample-cap", "0"])
        payload = json.loads(out)["result"]
        assert code == 1 and payload["kind"] == "DomainError"
        assert payload["error"] == "sample_cap must be a positive integer, got 0"

    @pytest.mark.parametrize("names, message", [("x,x", "duplicate variable names"),
                                                (",", "at least one variable"),
                                                ("x,2", "variable name '2'"),
                                                ("x,y z", "variable name 'y z'")],
                             ids=["duplicate", "empty", "digit", "space"])
    def test_bad_variable_list_is_domain_error(self, names, message):
        code, out = run_cli(["--json", "tau", "--ideal", f"p=2; vars={names}; gens=[1]",
                             "--lambda", "1"])
        payload = json.loads(out)["result"]
        assert code == 1 and payload["kind"] == "DomainError"
        assert message in payload["error"]

    @pytest.mark.parametrize("argv", [
        ["verify", "toric-equivalences", "--budget", "-1"],
        ["verify", "subadditivity", "--budget", "-1"],
        ["verify", "all", "--budget", "0"],
    ], ids=["toric-negative", "subadditivity-negative", "all-zero"])
    def test_non_positive_budget_is_domain_error(self, argv):
        code, out = run_cli(["--json"] + argv)
        payload = json.loads(out)["result"]
        assert code == 1 and payload["kind"] == "DomainError"
        assert "budget" in payload["error"]

    @pytest.mark.parametrize("argv, code", [
        (["toric-classify", "--fan", "builtin:f2", "--divisor", "-1,1,0,1"], 0),
        (["nonnef", "--fan", "builtin:p2", "--divisor", "-1,0,0"], 0),
        (["nonnef", "--fan", "builtin:p2", "--divisor", "1,0,0", "--ample", "-1,2,2"], 0),
        (["tau", "--ideal", "p=2; vars=x; gens=[x]", "--lambda", "-1/2"], 1),
    ], ids=["toric-classify", "nonnef", "nonnef-ample", "tau-lambda"])
    def test_negative_value_after_its_option(self, argv, code):
        got, out = run_cli(["--json"] + argv)
        report = json.loads(out)
        assert got == report["exit_code"] == code
        assert argv[-1] in report["args"].values()
        if code:
            assert report["result"]["kind"] == "DomainError"

    def test_composite_characteristic_is_domain_error(self):
        code, out = run_cli(["--json", "nonnef", "--fan", "builtin:p2",
                             "--divisor=-1,0,0", "--p", "4"])
        payload = json.loads(out)["result"]
        assert code == 1 and payload["kind"] == "DomainError"
        assert "prime" in payload["error"]

    def test_negative_frobenius_iterate_is_domain_error(self):
        code, out = run_cli(["--json", "root", "--ideal", "p=3; vars=x,y; gens=[x^2*y]",
                             "--e", "-1"])
        payload = json.loads(out)["result"]
        assert code == 1 and payload["kind"] == "DomainError"

    def test_deep_monomial_root_answers_at_once(self):
        start = time.perf_counter()
        code, out = run_cli(["--json", "root", "--ideal", "p=3; vars=x,y; gens=[x^2*y]",
                             "--e", "1000000000"])
        assert code == 0
        assert json.loads(out)["result"]["ideal"] == "p=3; vars=x,y; gens=[1]"
        assert time.perf_counter() - start < 0.5

    def test_huge_jump_grid_is_resource_limit(self):
        start = time.perf_counter()
        code, out = run_cli(["--json", "jumps", "--ideal", "p=2; vars=x,y; gens=[x^2, y^3]",
                             "--max", "4", "--denom-bound", "100000"])
        payload = json.loads(out)["result"]
        assert code == 2 and payload["kind"] == "ResourceLimitError"
        assert "candidate grid" in payload["error"]
        assert time.perf_counter() - start < 0.5

    def test_tau_level_below_the_order_bound_is_resource_limit(self):
        # D is big with sigma_V(3)(D) = 1/8, so tau(m||D||) is only known to
        # vanish along V(3) from m = 8 on
        argv = ["--json", "nonnef", "--fan", "builtin:f1", "--divisor=-1/2,7/4,-3/4,11/8"]
        code, out = run_cli(argv)
        payload = json.loads(out)["result"]
        assert code == 2 and payload["kind"] == "ResourceLimitError"
        assert "level 8" in payload["error"] and "tau_level_cap=4" in payload["error"]
        code, out = run_cli(argv + ["--tau-level-cap", "8"])
        payload = json.loads(out)["result"]
        assert code == 0 and payload["certified"]
        assert payload["status"] == "pseudo-effective-not-nef"
        assert payload["positive_sigma"] == [[[3], "1/8"]]

    def test_verify_pass_exits_zero(self):
        code, out = run_cli(["--json", "verify", "ceil-identity", "--budget", "500"])
        assert code == 0
        assert json.loads(out)["result"]["violations"] == 0


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    argv = ["--json", "tau", "--ideal", "p=2; vars=x,y; gens=[x, y]", "--lambda", "2"]
    done = subprocess.run([sys.executable, "-m", "nonnef"] + argv, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == run_cli(argv)[1]
    assert json.loads(done.stdout)["result"]["ideal"] == "p=2; vars=x,y; gens=[y, x]"


class TestDeterminism:
    #: a sigma on f1 whose perturbed orders ord(||D + eps*A||) kink at eps = 1/4
    SIGMA_KINKED = ("--json", "sigma", "--fan", "builtin:f1", "--divisor=3/4,2,1/2,3",
                    "--cone", "3")

    @pytest.mark.parametrize("argv", [
        ["--json", "tau", "--ideal", "p=3; vars=x,y; gens=[x^2, x*y, y^3]",
         "--lambda", "5/2"],
        ["--json", "nonnef", "--fan", "builtin:f2", "--divisor", "1,-1,2,0"],
        ["--json", "verify", "subadditivity", "--seed", "7", "--budget", "20"],
        SIGMA_KINKED,
    ])
    def test_byte_identical_runs(self, argv):
        code1, out1 = run_cli(list(argv))
        code2, out2 = run_cli(list(argv))
        assert code1 == code2 and out1 == out2

    def test_sigma_samples_golden(self):
        # ord_V(3)(||D + eps*A||) is 0 down to eps = 1/4 and then on the line
        # 1/4 - eps; sigma is its value at eps = 0, the order LP on P_D
        code, out = run_cli(list(self.SIGMA_KINKED))
        assert code == 0
        assert json.loads(out)["result"] == {"evidence": "closed-form", "value": "1/4"}
        code, out = run_cli(["--json", "toric-ord"] + list(self.SIGMA_KINKED[2:]))
        assert code == 0 and json.loads(out)["result"] == {"ord": "1/4"}

    def test_environment_does_not_change_answers(self, monkeypatch):
        # the caps are set by flags only; variables named like them are ignored
        argv = ["--json", "tau", "--ideal", "p=2; vars=x,y; gens=[x^2+y^3]",
                "--lambda", "5/6"]
        expected = run_cli(list(argv))
        for var in ("NONNEF_E_MAX_MONOMIAL", "NONNEF_E_MAX_GENERAL", "NONNEF_WINDOW",
                    "NONNEF_M_CAP", "NONNEF_EPSILON_DEPTH", "NONNEF_GB_PAIR_CAP",
                    "NONNEF_POWER_DEGREE_CAP"):
            monkeypatch.setenv(var, "1")
        assert run_cli(list(argv)) == expected
        assert json.loads(expected[1])["result"]["evidence"] == "window-stable"

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

    def test_four_dimensional_fan_file(self, tmp_path):
        # P^4: rays e_1..e_4 and -(1,1,1,1), five simplicial cones
        fan_file = tmp_path / "fan.json"
        fan_file.write_text(json.dumps({
            "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]],
            "max_cones": [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4], [1, 2, 3, 4]],
        }))
        code, out = run_cli(["--json", "toric-classify", "--fan", str(fan_file),
                             "--divisor", "1,0,0,0,0"])
        assert code == 0 and json.loads(out)["result"]["ample"] is True

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read fan file"),
        ("{bad", "not valid JSON"),
        ('{"rays": [[1, 0], [-1, 0]]}', "needs the keys"),
        ("[1, 2]", "needs the keys"),
        # a cycle of 2-D cones winding twice around the origin, times (P^1)^2
        (json.dumps(dict(zip(("rays", "max_cones"),
                             cycle_times_lines(SHORT_TWO_FOLD_CYCLE, 2)))),
         "the cones overlap"),
        (json.dumps({"rays": [[1, 0], [-1, 2], [0, -1]],
                     "max_cones": [[0, 1], [1, 2], [0, 2]]}), "smoothness"),
        ('{"rays": [1, 0, -1], "max_cones": [[0], [1]]}', "needs the keys"),
        ('{"rays": [[1, "a"], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}',
         "integers only"),
        ('{"rays": [[1.5, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}',
         "integers only"),
    ], ids=["missing", "not-json", "no-max-cones", "not-an-object", "double-cover-4d",
            "not-smooth", "flat-rays", "string-entry", "float-entry"])
    def test_bad_fan_file_is_domain_error(self, tmp_path, content, message):
        fan_file = tmp_path / "fan.json"
        if content is not None:
            fan_file.write_text(content)
        code, out = run_cli(["--json", "toric-classify", "--fan", str(fan_file),
                             "--divisor", "1,0,0,0,0"])
        payload = json.loads(out)["result"]
        assert code == 1 and payload["kind"] == "DomainError"
        assert message in payload["error"]


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
