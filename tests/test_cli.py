"""CLI surface: JSON shapes, exit codes, determinism, pinned outputs."""

import json
import os
import subprocess
import sys

import eiscong
from eiscong.cli import main


def run_cli(args, tmp_path=None, env=None):
    """In-process invocation capturing stdout."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


class TestField:
    def test_worked_field_constants(self):
        code, out = run_cli(["field", "--d", "2"])
        assert code == 0
        obj = json.loads(out)
        assert obj["disc"] == 8
        assert obj["u"] == [1, 1]
        assert obj["u_norm"] == -1
        assert obj["u_plus"] == [3, 2]

    def test_half_integral_serialization(self):
        code, out = run_cli(["field", "--d", "5"])
        obj = json.loads(out)
        assert obj["u"] == ["1/2", "1/2"]


class TestLValue:
    def test_worked_example(self):
        code, out = run_cli(["lvalue", "--d", "2", "--m", "20149"])
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == "373322926540"
        assert obj["factorization"] == [[2, 2], [5, 1], [281, 1], [4951, 1], [13417, 1]]

    def test_config_echo(self):
        _, out = run_cli(["lvalue", "--d", "2", "--m", "5"])
        obj = json.loads(out)
        assert obj["config"]["command"] == "lvalue"
        assert obj["config"]["m"] == 5


class TestScan:
    def test_candidates(self):
        code, out = run_cli(["scan-congruence", "--d", "2", "--m", "20149"])
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        cands = [l["p"] for l in lines[1:] if l.get("verdict") == "candidate"]
        assert cands == [281, 4951, 13417]

    def test_determinism(self):
        _, out1 = run_cli(["scan-congruence", "--d", "2", "--m", "5"])
        _, out2 = run_cli(["scan-congruence", "--d", "2", "--m", "5"])
        assert out1 == out2


class TestEis:
    def test_coefficients_json_lines(self):
        code, out = run_cli(["eis", "--d", "2", "--m", "5", "--bound", "100"])
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        by_norm = {}
        for l in lines[1:]:
            by_norm.setdefault(l["norm"], []).append(l["coeff"])
        assert by_norm[1] == [1]
        assert 9 in by_norm  # inert (3)


class TestPadicLambda:
    def test_example_series(self, tmp_path):
        path = tmp_path / "series.json"
        path.write_text(json.dumps(
            {"p": 5, "N": 20, "M": 64,
             "coeffs": ["0,1", "", "1"]}))  # p + T^2
        code, out = run_cli(["padic-lambda", "--in", str(path)])
        assert code == 0
        obj = json.loads(out)
        assert (obj["mu"], obj["lambda"], obj["certified"]) == (0, 2, True)

    def test_missing_file_exit_code(self, tmp_path):
        code, _ = run_cli(["padic-lambda", "--in", str(tmp_path / "absent.json")])
        assert code == 2

    def test_missing_key_exit_code(self, tmp_path):
        path = tmp_path / "no_coeffs.json"
        path.write_text(json.dumps({"p": 5, "N": 4, "M": 6}))
        code, _ = run_cli(["padic-lambda", "--in", str(path)])
        assert code == 2

    def test_wrong_json_types_exit_code(self, tmp_path):
        for i, obj in enumerate(([1, 2], {"p": 5, "N": 4, "M": 6, "coeffs": [7]})):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(obj))
            code, _ = run_cli(["padic-lambda", "--in", str(path)])
            assert code == 2, obj

    def test_zero_series_is_precision_error(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"p": 5, "N": 4, "M": 6, "coeffs": [""] * 6}))
        code, out = run_cli(["padic-lambda", "--in", str(path)])
        assert code == 3


class TestCheckDistribution:
    def test_pass(self):
        code, out = run_cli(["check-distribution", "--p", "7", "--m0", "4",
                             "--depth", "3"])
        assert code == 0 and json.loads(out)["ok"]

    def test_stabilized(self):
        code, out = run_cli(["check-distribution", "--p", "5", "--m0", "3",
                             "--depth", "4", "--alpha", "1", "--eps-p", "1"])
        assert code == 0 and json.loads(out)["ok"]

    def test_non_prime_p_exit_code(self):
        code, _ = run_cli(["check-distribution", "--p", "4", "--m0", "3"])
        assert code == 2


# the full stdout of two padic-l runs, pinned byte for byte
PADIC_L_D2_M5 = (
    '{"additivity": true, "certified": true, "config": {"M": 10, "N": 4, '
    '"branch": {"chi1_disc": 5, "chi2_disc": 40, "twist": null}, '
    '"command": "padic-l", "p": 7, "strip": "[29]", "version": "0.1.0"}, '
    '"factors": {"chi1": {"certified": true, "lambda": 0, "mu": 0}, '
    '"chi2": {"certified": true, "lambda": 0, "mu": 0}, '
    '"euler": {"lambda": 1, "mu": 0}}, "lambda": 1, "mu": 0, '
    '"series": {"M": 10, "N": 4, "coeffs": ["0,2,5,6", "5,1,6,0", "0,0,2,5", '
    '"1,5,6,1", "3,3,5,4", "4,5,1,0", "2,6,4,2", "4,2,6,4", "2,4,4,4", '
    '"5,2,2,1"], "p": 7, "pole_factor": false}, "u": 8}\n')
PADIC_L_TWISTED = (
    '{"additivity": true, "certified": true, "config": {"M": 10, "N": 4, '
    '"branch": {"chi1_disc": 5, "chi2_disc": 40, "twist": 13}, '
    '"command": "padic-l", "p": 7, "strip": "[29]", "version": "0.1.0"}, '
    '"factors": {"chi1": {"certified": true, "lambda": 0, "mu": 0}, '
    '"chi2": {"certified": true, "lambda": 0, "mu": 0}, '
    '"euler": {"lambda": 1, "mu": 0}}, "lambda": 1, "mu": 0, '
    '"series": {"M": 10, "N": 4, "coeffs": ["0,3,3,1", "4,1,2,0", "2,3,6,3", '
    '"0,6,5,4", "5,0,2,3", "4,5,1,5", "0,3,4,4", "1,3,0,5", "3,5,2,5", '
    '"5,6,3,0"], "p": 7, "pole_factor": false}, "u": 8}\n')


class TestPadicL:
    def test_pinned_output_induced(self):
        code, out = run_cli(["padic-l", "--branch", '{"d":2,"m":5}',
                             "--p", "7", "--N", "4", "--M", "10", "--strip", "[29]"])
        assert code == 0
        assert out == PADIC_L_D2_M5

    def test_pinned_output_twisted(self):
        code, out = run_cli(["padic-l", "--branch",
                             '{"chi1_disc":5,"chi2_disc":40,"twist":13}',
                             "--p", "7", "--N", "4", "--M", "10", "--strip", "[29]"])
        assert code == 0
        assert out == PADIC_L_TWISTED

    def test_unstripped_series_matches_deligne_ribet(self):
        from eiscong.characters import induce_quadratic
        from eiscong.measures import deligne_ribet_induced
        from eiscong.quadfield import make_field

        code, out = run_cli(["padic-l", "--branch", '{"d":2,"m":5}',
                             "--p", "7", "--N", "4", "--M", "10"])
        assert code == 0
        eps = induce_quadratic(make_field(2), 5)
        dr = deligne_ribet_induced(eps, None, [], 7, 4, 10)
        assert json.loads(out)["series"] == dr.series.to_json()

    def test_branch_missing_key_exit_code(self):
        code, _ = run_cli(["padic-l", "--branch", '{"chi1_disc":5}', "--p", "7"])
        assert code == 2

    def test_malformed_branch_and_strip_exit_code(self):
        code, _ = run_cli(["padic-l", "--branch", "5", "--p", "7"])
        assert code == 2
        code, _ = run_cli(["padic-l", "--branch", '{"d":2,"m":5}', "--p", "7",
                           "--strip", '["a"]'])
        assert code == 2

    def test_branch_series_with_strip(self):
        code, out = run_cli(["padic-l", "--branch", '{"d":2,"m":5}',
                             "--p", "7", "--N", "4", "--M", "10",
                             "--strip", "[29]"])
        assert code == 0
        obj = json.loads(out)
        assert obj["additivity"]
        assert obj["lambda"] == obj["factors"]["chi1"]["lambda"] + \
            obj["factors"]["chi2"]["lambda"] + obj["factors"]["euler"]["lambda"]

    def test_zero_M_exit_code(self):
        code, _ = run_cli(["padic-l", "--branch", '{"d":2,"m":5}', "--p", "7", "--M", "0"])
        assert code == 2

    def test_zero_N_exit_code(self):
        code, _ = run_cli(["padic-l", "--branch", '{"d":2,"m":5}', "--p", "7", "--N", "0"])
        assert code == 2

    def test_negative_N_exit_code(self):
        code, _ = run_cli(["padic-l", "--branch", '{"d":2,"m":5}', "--p", "7", "--N", "-1"])
        assert code == 2

    def test_p_two_exit_code(self):
        code, _ = run_cli(["padic-l", "--branch", '{"d":2,"m":5}', "--p", "2"])
        assert code == 2

    def test_config_error_exit_code(self):
        code, _ = run_cli(["padic-l", "--branch", '{"d":2,"m":5}',
                           "--p", "6", "--N", "4", "--M", "8"])
        assert code == 2


class TestVerifyExample:
    def test_small_instance(self):
        code, out = run_cli(["verify-example", "--d", "2", "--m", "13",
                             "--N", "2", "--M", "6"])
        obj = json.loads(out)
        assert "substitution" in obj
        assert obj["lvalue"]["value"]
        assert "candidates" in obj
        # candidates may be empty for small m; the bundle still reports stages
        assert "branches" in obj

    def test_bundle_determinism(self):
        a = run_cli(["verify-example", "--d", "2", "--m", "5", "--N", "2", "--M", "6"])
        b = run_cli(["verify-example", "--d", "2", "--m", "5", "--N", "2", "--M", "6"])
        assert a == b

    def test_forced_small_p_rejected(self):
        code, _ = run_cli(["verify-example", "--d", "2", "--m", "5", "--p", "3"])
        assert code == 2

    def test_forced_non_prime_p_rejected(self):
        code, _ = run_cli(["verify-example", "--d", "2", "--m", "5", "--p", "9"])
        assert code == 2

    def test_zero_N_exit_code(self):
        code, _ = run_cli(["verify-example", "--d", "2", "--m", "5", "--N", "0"])
        assert code == 2

    def test_out_file(self, tmp_path):
        dest = tmp_path / "bundle.json"
        code, out = run_cli(["--out", str(dest), "lvalue", "--d", "2", "--m", "5"])
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["config"]["m"] == 5


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports eiscong from the same checkout as this test
        src = os.path.dirname(os.path.dirname(eiscong.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "eiscong.cli", "field", "--d", "3"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["u"] == [2, 1]
