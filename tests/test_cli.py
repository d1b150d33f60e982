"""CLI surface: JSON shapes, exit codes, determinism, pinned outputs."""

import json
import os
import subprocess
import sys
import time

import pytest

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

    def test_value_above_the_int_str_digit_limit(self, monkeypatch):
        # 2^20000/3 has 6021 digits, above CPython's default limit of 4300
        from fractions import Fraction

        from eiscong import cli
        from eiscong.lseries import LValueRecord

        value = Fraction(2**20000, 3)
        monkeypatch.setattr(cli, "hecke_L_neg_induced",
                            lambda eps, n: LValueRecord(1 - n, value))
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code, out = run_cli(["lvalue", "--d", "2", "--m", "5"])
        assert code == 0
        obj = json.loads(out)
        assert obj["factorization"] == [[2, 20000]]
        num, den = obj["value"].split("/")
        assert den == "3" and len(num) == 6021
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit  # restored after main()
            sys.set_int_max_str_digits(0)
            try:
                assert num == str(2**20000)
            finally:
                sys.set_int_max_str_digits(limit)

    def test_config_echo(self):
        _, out = run_cli(["lvalue", "--d", "2", "--m", "5"])
        obj = json.loads(out)
        assert obj["config"]["command"] == "lvalue"
        assert obj["config"]["m"] == 5

    @pytest.mark.parametrize("s", ["-10000", "-20000"])
    def test_weight_above_bernoulli_cap_exit_code(self, monkeypatch, capsys, s):
        # rejected before any power sum or Bernoulli number is computed: the
        # O(n^2) recurrence used to run up to the cap before failing
        from eiscong import lseries

        def no_work(*args):
            raise AssertionError("work done for a rejected weight")

        monkeypatch.setattr(lseries, "_centered_power_sums", no_work)
        monkeypatch.setattr(lseries, "bernoulli_numbers", no_work)
        code, out = run_cli(["lvalue", "--m", "7", "--s", s])
        assert code == 2 and out == ""
        assert "Bernoulli cap" in capsys.readouterr().err


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

    @pytest.mark.parametrize("bound", ["0", "-5"])
    def test_non_positive_bound_exit_code(self, bound):
        # the unit ideal (norm 1) used to be printed for any bound
        code, out = run_cli(["eis", "--d", "2", "--m", "20149", "--bound", bound])
        assert code == 2 and out == ""


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

    def test_mu_above_zero_is_not_certified(self, tmp_path):
        # 5 + 5T + O(5^10) + O(T^8): a unit at T^8 or later would make mu = 0
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"p": 5, "N": 10, "M": 8, "coeffs": ["0,1", "0,1"]}))
        code, out = run_cli(["padic-lambda", "--in", str(path)])
        obj = json.loads(out)
        assert (code, obj["mu"], obj["lambda"], obj["certified"]) == (1, 1, 0, False)

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

    @pytest.mark.parametrize("content", [b"not json", b"\xff\xfe{", b"[" * 100000],
                             ids=["not-json", "not-utf8", "too-deep"])
    def test_unreadable_json_names_the_flag(self, tmp_path, capsys, content):
        path = tmp_path / "series.json"
        path.write_bytes(content)
        code, out = run_cli(["padic-lambda", "--in", str(path)])
        assert code == 2 and out == ""
        assert json.loads(capsys.readouterr().err)["error"].startswith("--in ")

    def test_over_long_digit_refused_at_once(self, tmp_path, capsys):
        # int() of a 400 000-digit token takes seconds: its length refuses it
        # first, and the message echoes at most 40 characters of it
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"p": 5, "N": 4, "M": 6, "coeffs": ["9" * 400000]}))
        start = time.perf_counter()
        code, out = run_cli(["padic-lambda", "--in", str(path)])
        assert time.perf_counter() - start < 0.2
        assert code == 2 and out == ""
        assert len(capsys.readouterr().err) < 1000

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

    @pytest.mark.parametrize("m0", ["-3", "0"])
    def test_non_positive_m0_exit_code(self, m0, capsys):
        # a negative m0 used to build an empty tower and report ok with 0 cells;
        # the huge depth checks that the tower cap forms no m0 p^depth first,
        # since an m0 <= 0 never passes the cap
        code, out = run_cli(["check-distribution", "--p", "5", "--m0", m0,
                             "--depth", "1000000000"])
        assert code == 2 and out == ""
        assert json.loads(capsys.readouterr().err) == {"error": "m0 must be a positive integer"}

    @pytest.mark.parametrize("flag,value,message", [
        ("--alpha", "1/0", "--alpha has a zero denominator"),
        ("--eps-p", "1/0", "--eps-p has a zero denominator"),
        ("--alpha", "0", "alpha must be a unit at p"),
    ], ids=["alpha-zero-denominator", "eps-p-zero-denominator", "alpha-zero"])
    def test_bad_stabilization_exit_code(self, flag, value, message, capsys):
        # a zero denominator used to end in a ZeroDivisionError traceback
        # and exit 1, the code of a failed check
        code, out = run_cli(["check-distribution", "--p", "5", "--m0", "3", "--depth", "3",
                             flag, value])
        assert code == 2 and out == ""
        assert json.loads(capsys.readouterr().err) == {"error": message}

    def test_non_unit_alpha_rejected_before_any_level(self, monkeypatch, capsys):
        import eiscong.cli as cli

        def unreachable(*args):
            raise AssertionError("bernoulli_family called")

        monkeypatch.setattr(cli, "bernoulli_family", unreachable)
        code, out = run_cli(["check-distribution", "--p", "5", "--m0", "12", "--depth", "8",
                             "--alpha", "5", "--eps-p", "1"])
        assert code == 2 and out == ""
        assert json.loads(capsys.readouterr().err) == {"error": "alpha must be a unit at p"}

    @pytest.mark.parametrize("eps", ["-1", "0", "1"])
    def test_character_values_of_eps_p_pass(self, eps):
        code, out = run_cli(["check-distribution", "--p", "5", "--m0", "3", "--depth", "3",
                             "--alpha", "1", "--eps-p", eps])
        assert code == 0 and json.loads(out)["ok"]

    @pytest.mark.parametrize("eps", ["2", "-2", "1/2", "3/2"])
    def test_eps_p_outside_the_character_values_exit_code(self, eps, capsys):
        # eps_p is a character value at p; --eps-p 2 used to run and exit 0
        code, out = run_cli(["check-distribution", "--p", "5", "--m0", "3", "--depth", "3",
                             "--eps-p", eps])
        assert code == 2 and out == ""
        assert json.loads(capsys.readouterr().err) == {"error": "--eps-p must be -1, 0 or 1"}

    @pytest.mark.parametrize("m0,p,depth", [
        ("129", "5", "7"),            # 129 * 5^7 = cap + 78125
        ("12", "5", "9"),             # one past the depth-8 pin rows, 23.4M residues
        ("1", "3", "1000000000"),     # p^depth is never formed
        ("10000001", "2", "0"),       # m0 alone over the cap
        ("1", "170141183460469231731687303715884105727", "1"),  # the prime 2^127 - 1
    ])
    def test_tower_over_the_cap_refused_before_any_level(self, monkeypatch, capsys,
                                                         m0, p, depth):
        # a large tower used to end in a MemoryError traceback (exit 1) or an
        # out-of-memory kill; nothing is built, so this costs nothing
        from eiscong import measures

        def unreachable(*args):
            raise AssertionError("a level was built")

        monkeypatch.setattr(measures, "_blocks", unreachable)
        code, out = run_cli(["check-distribution", "--p", p, "--m0", m0, "--depth", depth,
                             "--alpha", "1", "--eps-p", "1"])
        assert code == 2 and out == ""
        assert json.loads(capsys.readouterr().err) == {
            "error": f"m0 p^depth exceeds the tower cap of {measures._TOWER_RESIDUE_CAP} residues"}

    def test_tower_at_the_cap_is_built(self, monkeypatch, capsys):
        from eiscong import measures

        def reached(*args):
            raise ValueError(f"_blocks{args}")

        monkeypatch.setattr(measures, "_blocks", reached)
        assert 128 * 5**7 == measures._TOWER_RESIDUE_CAP
        code, _ = run_cli(["check-distribution", "--p", "5", "--m0", "128", "--depth", "7"])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {"error": "_blocks(128, 5)"}


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

    def test_disc_one_is_the_trivial_character(self):
        # chi2_disc 1 twisted by chi_8 is chi_8 itself
        from eiscong.characters import kronecker_character
        from eiscong.measures import branch_product

        code, out = run_cli(["padic-l", "--branch",
                             '{"chi1_disc":5,"chi2_disc":1,"twist":8}',
                             "--p", "7", "--N", "3", "--M", "6"])
        assert code == 0
        res = branch_product(kronecker_character(40), kronecker_character(8), [], 7, 3, 6)
        assert json.loads(out)["series"] == res.series.to_json()

    def test_trivial_branch_character_is_refused_first(self, capsys, monkeypatch):
        # chi1_disc 1 is the trivial character, whose omega^0 branch is the
        # pole branch; neither branch may be computed before the refusal, and
        # branch_product computes both through _branch_series
        from eiscong import measures

        def no_branch(*args, **kwargs):
            raise AssertionError("a branch was computed")

        monkeypatch.setattr(measures, "_branch_series", no_branch)
        code, out = run_cli(["padic-l", "--branch", '{"chi1_disc":1,"chi2_disc":5}',
                             "--p", "13417"])
        assert code == 2 and out == ""
        assert "pole" in json.loads(capsys.readouterr().err)["error"]

    def test_branch_missing_key_exit_code(self):
        code, _ = run_cli(["padic-l", "--branch", '{"chi1_disc":5}', "--p", "7"])
        assert code == 2

    def test_malformed_branch_and_strip_exit_code(self):
        code, _ = run_cli(["padic-l", "--branch", "5", "--p", "7"])
        assert code == 2
        code, _ = run_cli(["padic-l", "--branch", '{"d":2,"m":5}', "--p", "7",
                           "--strip", '["a"]'])
        assert code == 2

    @pytest.mark.parametrize("flag,args", [
        ("--branch", ["--branch", "x"]),
        ("--branch", ["--branch", "[" * 100000]),
        ("--strip", ["--branch", '{"d":2,"m":5}', "--strip", "x"]),
    ], ids=["branch", "branch-too-deep", "strip"])
    def test_unreadable_json_names_the_flag(self, capsys, flag, args):
        code, out = run_cli(["padic-l", "--p", "7"] + args)
        assert code == 2 and out == ""
        assert json.loads(capsys.readouterr().err)["error"].startswith(flag + " ")

    @pytest.mark.parametrize("branch", [
        '{"d":2,"m":"x"}', '{"d":2.5,"m":20149}', '{"d":null,"m":5}',
        '{"chi1_disc":12,"chi2_disc":[13]}', '{"chi1_disc":12,"chi2_disc":13,"twist":"x"}',
        '{"chi1_disc":12,"chi2_disc":13,"twist":true}', '{"d":true,"m":5}',
        '{"chi1_disc":12,"chi2_disc":13,"twist":0}'])
    def test_non_integer_branch_exit_code(self, capsys, branch):
        code, out = run_cli(["padic-l", "--branch", branch, "--p", "7", "--N", "2", "--M", "4"])
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error" in json.loads(err)

    @pytest.mark.parametrize("branch,message", [
        ('{"d":2,"m":20149,"x":1}', "--branch has unknown keys ['x']"),
        ('{"chi1_disc":5,"chi2_disc":40,"twist":null,"p":7,"N":2}',
         "--branch has unknown keys ['N', 'p']"),
        ('{"d":2,"m":20149,"chi1_disc":5}',
         "--branch takes d and m, or chi1_disc and chi2_disc, not both"),
        ('{"m":20149,"chi2_disc":161192}',
         "--branch takes d and m, or chi1_disc and chi2_disc, not both"),
    ], ids=["unknown", "unknown-two", "mixed", "mixed-halves"])
    def test_unknown_and_mixed_branch_keys_refused(self, monkeypatch, capsys, branch, message):
        # each used to run: an unknown key was ignored, and d and m won over
        # the discriminants
        import eiscong.cli as cli

        monkeypatch.setattr(cli, "branch_product", _no_work)
        code, out = run_cli(["padic-l", "--branch", branch, "--p", "7"])
        assert _refused(capsys, code, out) == message

    def test_branch_needs_both_keys_of_a_form(self, capsys):
        code, out = run_cli(["padic-l", "--branch", '{"d":2}', "--p", "7"])
        assert _refused(capsys, code, out) == (
            "--branch needs d and m, or chi1_disc and chi2_disc; missing 'm'")

    def test_null_twist_is_no_twist(self):
        args = ["--p", "7", "--N", "3", "--M", "6"]
        code, out = run_cli(["padic-l", "--branch", '{"chi1_disc":5,"chi2_disc":40}'] + args)
        code_null, out_null = run_cli(
            ["padic-l", "--branch", '{"chi1_disc":5,"chi2_disc":40,"twist":null}'] + args)
        assert code == code_null == 0 and out == out_null

    @pytest.mark.parametrize("strip", ["[1]", "[4]", "[true]", "[-29]", "[29.0]", "[29,29]"])
    def test_strip_must_list_primes(self, capsys, strip):
        code, out = run_cli(["padic-l", "--branch", '{"d":2,"m":5}', "--p", "7",
                             "--N", "2", "--M", "4", "--strip", strip])
        assert code == 2 and out == ""
        assert json.loads(capsys.readouterr().err) == {
            "error": "--strip must be a JSON list of distinct rational primes"}

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

    @pytest.mark.parametrize("command", ["verify-example", "scan-congruence", "lvalue"])
    def test_stage_one_value_feeds_the_scan(self, monkeypatch, command):
        # one L-value and one factorization per run; the scan is unchanged
        import eiscong.cli as cli
        import eiscong.eisenstein as eisenstein
        from eiscong.eisenstein import scan_congruence
        from eiscong.quadfield import make_field

        want = [r.to_json() for r in scan_congruence(make_field(2), 17)]
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "hecke_L_neg_induced",
                            counted("lvalue", cli.hecke_L_neg_induced))
        monkeypatch.setattr(eisenstein, "hecke_L_neg_induced",
                            counted("lvalue", eisenstein.hecke_L_neg_induced))
        monkeypatch.setattr(cli, "factorize", counted("factor", cli.factorize))
        monkeypatch.setattr(eisenstein, "factorize", counted("factor", eisenstein.factorize))
        code, out = run_cli([command, "--d", "2", "--m", "17"])
        assert code == 0
        assert sorted(calls) == ["factor", "lvalue"]
        if command == "verify-example":
            assert json.loads(out)["scan"] == want
        elif command == "scan-congruence":
            assert [json.loads(line) for line in out.splitlines()[1:]] == want

    @pytest.mark.parametrize("extra,code", [([], 3), (["--p", "7"], 1)],
                             ids=["exhausted", "failed-check-outranks"])
    def test_unstable_branch_exit_code(self, monkeypatch, extra, code):
        # two nodes cannot fix T^0..T^5 mod p^2: the branch stage raises
        # "interpolation unstable", which is precision exhaustion (exit 3)
        # unless a check also failed (a forced non-candidate p: exit 1)
        from eiscong import measures

        monkeypatch.setattr(measures, "_fit_points", lambda N, M: 2)
        got, out = run_cli(["verify-example", "--d", "2", "--m", "17"] + extra)
        bundle = json.loads(out)
        assert got == code and bundle["verdict"] == "fail"
        [entry] = bundle["branches"]
        assert entry["error"].startswith("interpolation unstable")

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


class TestRhoIters:
    @pytest.mark.parametrize("command", ["lvalue", "scan-congruence", "verify-example"])
    def test_negative_rho_iters_is_refused_first(self, monkeypatch, capsys, command):
        # refused before the field is built, so before any L-value or factorization
        from eiscong import cli

        def no_work(*args):
            raise AssertionError("work done for a refused --rho-iters")

        monkeypatch.setattr(cli, "make_field", no_work)
        code, out = run_cli([command, "--d", "2", "--m", "5", "--rho-iters", "-1"])
        assert code == 2 and out == ""
        assert "--rho-iters" in json.loads(capsys.readouterr().err)["error"]


def _refused(capsys, code, out):
    """The error message of a refusal: exit 2, empty stdout, one JSON line on stderr."""
    err = capsys.readouterr().err
    assert code == 2 and out == "" and err.count("\n") == 1, (code, out, err)
    return json.loads(err)["error"]


def _no_work(*args):
    raise AssertionError("work done for a refused input")


class TestCaps:
    """Each size cap refuses its input with exit 2 before any work.

    Each used to end in a MemoryError traceback (exit 1) or run for minutes."""

    @pytest.mark.parametrize("argv", [
        ["padic-l", "--branch", '{"d":2,"m":5}', "--p", "1000000007"],
        ["verify-example", "--p", "1000000007"],
        ["padic-l", "--branch", '{"d":2,"m":5}', "--p", "7", "--M", str(10**12)],
    ], ids=["padic-l-p", "verify-example-p", "padic-l-M"])
    def test_branch_over_the_cap_refused_at_once(self, monkeypatch, capsys, argv):
        import eiscong.cli as cli

        monkeypatch.setattr(cli, "congruence_stages", _no_work)
        monkeypatch.setattr(cli, "branch_product", _no_work)
        start = time.perf_counter()
        code, out = run_cli(argv)
        assert time.perf_counter() - start < 0.2
        assert "cap" in _refused(capsys, code, out)

    def test_branch_at_the_cap_runs(self, monkeypatch, capsys):
        # p = 7 at (N, M) = (2, 6) has 3 classes by 16 powers, p = 11 has 5
        from eiscong import measures

        monkeypatch.setattr(measures, "_BRANCH_CELL_CAP", 48)
        argv = ["padic-l", "--branch", '{"d":2,"m":5}', "--N", "2", "--M", "6", "--p"]
        code, out = run_cli(argv + ["7"])
        assert code == 0 and json.loads(out)["series"]["M"] == 6
        code, out = run_cli(argv + ["11"])
        assert _refused(capsys, code, out) == (
            "(p - 1) / 2 (N + M + 8) exceeds the power-table cap of 48 cells")

    # --M 1000 and 2000 pack about 1.7 and 6.9 GiB of rows at the headline
    # pair; --N 1 --M 377 is the last M admitted there
    @pytest.mark.parametrize("command", ["padic-l", "verify-example"])
    @pytest.mark.parametrize("M", [378, 1000, 2000])
    def test_packed_rows_over_the_cap_refused_at_once(self, monkeypatch, capsys, command, M):
        import eiscong.cli as cli
        from eiscong import measures

        monkeypatch.setattr(cli, "congruence_stages", _no_work)
        monkeypatch.setattr(cli, "branch_product", _no_work)
        monkeypatch.setattr(measures, "_packed_rows", _no_work)
        argv = ["--p", "5", "--N", "1", "--M", str(M)]
        if command == "padic-l":
            argv += ["--branch", '{"d":2,"m":20149}']
        start = time.perf_counter()
        code, out = run_cli([command] + argv)
        assert time.perf_counter() - start < 0.2
        assert _refused(capsys, code, out) == (
            f"the packed sweep rows exceed the cap of {measures._BRANCH_ROW_BYTES_CAP} bytes")

    def test_packed_rows_at_the_cap_run(self, monkeypatch, capsys):
        # the cap reads the kernel's own count: set to the count at (N, M) =
        # (2, 6), that run passes and one more power is refused
        import eiscong.cli as cli
        from eiscong import measures

        monkeypatch.setattr(measures, "_BRANCH_ROW_BYTES_CAP",
                            measures._packed_row_bytes([5, 40], 15))
        argv = ["padic-l", "--branch", '{"d":2,"m":5}', "--p", "7", "--N", "2", "--M"]
        code, out = run_cli(argv + ["6"])
        assert code == 0 and json.loads(out)["series"]["M"] == 6
        monkeypatch.setattr(cli, "branch_product", _no_work)
        code, out = run_cli(argv + ["7"])
        assert "packed sweep rows" in _refused(capsys, code, out)

    def test_node_count_at_the_bernoulli_cap(self, monkeypatch, capsys):
        import eiscong.cli as cli
        from eiscong import measures

        # the packed rows of 10^4 powers exceed their own cap, checked after this one
        monkeypatch.setattr(measures, "_BRANCH_ROW_BYTES_CAP", 2**64)
        monkeypatch.setattr(cli, "branch_product", _no_work)
        argv = ["padic-l", "--branch", '{"d":2,"m":5}', "--p", "3", "--N", "2", "--M"]
        with pytest.raises(AssertionError, match="work done"):
            run_cli(argv + [str(measures.BERNOULLI_CAP - 9)])
        code, out = run_cli(argv + [str(measures.BERNOULLI_CAP - 8)])
        assert _refused(capsys, code, out) == "N + M + 7 exceeds the Bernoulli cap 10000"

    def test_node_count_cap_reads_the_kernel_count(self, monkeypatch, capsys):
        # with one more check node, the largest M admitted above is one node
        # past the cap: it is refused, and the message counts the new node
        import eiscong.cli as cli
        from eiscong import measures

        monkeypatch.setattr(measures, "_CHECK_POINTS", 9)
        monkeypatch.setattr(cli, "branch_product", _no_work)
        start = time.perf_counter()
        code, out = run_cli(["padic-l", "--branch", '{"d":2,"m":5}', "--p", "3", "--N", "2",
                             "--M", "9991"])
        assert time.perf_counter() - start < 0.2
        assert _refused(capsys, code, out) == "N + M + 8 exceeds the Bernoulli cap 10000"

    def test_scan_candidate_over_the_cap_refused_before_stage_3(self, monkeypatch, capsys):
        import eiscong.cli as cli
        from eiscong import measures

        monkeypatch.setattr(measures, "_BRANCH_CELL_CAP", 0)
        monkeypatch.setattr(cli, "branch_product", _no_work)
        code, out = run_cli(["verify-example", "--d", "2", "--m", "17"])
        assert "power-table cap of 0 cells" in _refused(capsys, code, out)

    @pytest.mark.parametrize("extra,want", [(["--p", "23"], [23]), (["--all-branches"], [23])],
                             ids=["forced", "scan"])
    def test_each_branch_prime_is_sized_once(self, monkeypatch, extra, want):
        # a forced --p is checked before stage 1, the scan candidates before stage 3
        import eiscong.cli as cli

        seen = []
        monkeypatch.setattr(cli, "require_branch_size", lambda p, *args: seen.append(p))
        code, _ = run_cli(["verify-example", "--d", "2", "--m", "17"] + extra)
        assert code == 0 and seen == want

    def test_eis_bound_over_the_cap(self, monkeypatch, capsys):
        import eiscong.cli as cli

        start = time.perf_counter()
        code, out = run_cli(["eis", "--bound", str(10**13)])
        assert time.perf_counter() - start < 0.2
        assert _refused(capsys, code, out) == f"--bound exceeds the cap of {cli._EIS_BOUND_CAP}"
        monkeypatch.setattr(cli, "_EIS_BOUND_CAP", 100)
        code, out = run_cli(["eis", "--d", "2", "--m", "5", "--bound", "100"])
        assert code == 0 and len(out.splitlines()) > 1
        monkeypatch.setattr(cli, "stripped_eisenstein", _no_work)
        code, out = run_cli(["eis", "--d", "2", "--m", "5", "--bound", "101"])
        assert _refused(capsys, code, out) == "--bound exceeds the cap of 100"

    @pytest.mark.parametrize("obj,message", [
        ({"p": 5, "N": 2, "M": 10**12, "coeffs": []}, "N + M + 7 exceeds the Bernoulli cap 10000"),
        ({"p": 5, "N": 10**11, "M": 3, "coeffs": []}, "N + M + 7 exceeds the Bernoulli cap 10000"),
        ({"p": 5, "N": 2, "M": 3, "coeffs": [",".join("4" * 200000)]},
         "a coefficient has more than 10000 digits"),
    ], ids=["M", "N", "digits"])
    def test_series_over_the_cap_refused_at_once(self, tmp_path, capsys, obj, message):
        # N + M + 7 <= BERNOULLI_CAP holds for every series padic-l writes
        path = tmp_path / "series.json"
        path.write_text(json.dumps(obj))
        start = time.perf_counter()
        code, out = run_cli(["padic-lambda", "--in", str(path)])
        assert time.perf_counter() - start < 0.2
        assert _refused(capsys, code, out) == message

    @pytest.mark.parametrize("N,M", [(1, 1), (2, 6), (6, 16), (2, 10**4 - 9)])
    def test_series_cap_counts_the_branch_nodes(self, N, M):
        # IwasawaElement.from_json cannot import measures, so it writes the
        # branch node count out as N + M + 7; a change to that count fails here
        from eiscong import measures

        assert measures._fit_points(N, M) + measures._CHECK_POINTS == N + M + 7

    def test_series_at_the_cap_is_read(self, tmp_path):
        # N + M + 7 = BERNOULLI_CAP, and a unit at T^1 stated to BERNOULLI_CAP digits
        path = tmp_path / "series.json"
        path.write_text(json.dumps({"p": 5, "N": 2, "M": 10**4 - 9,
                                    "coeffs": ["0,1", ",".join("4" * 10**4)]}))
        code, out = run_cli(["padic-lambda", "--in", str(path)])
        obj = json.loads(out)
        assert (code, obj["mu"], obj["lambda"], obj["certified"]) == (0, 0, 1, True)


class TestOutputErrors:
    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        dest = tmp_path / "missing" / "x.json"
        code, out = run_cli(["field", "--d", "2", "--out", str(dest)])
        assert code == 2 and out == ""
        assert "cannot write --out" in json.loads(capsys.readouterr().err)["error"]

    def test_reader_closing_stdout_early_exit_code(self):
        # about 0.5 MB of output, far past a pipe's buffer: the writer meets
        # the closed pipe whatever the timing
        proc = subprocess.Popen(
            [sys.executable, "-m", "eiscong.cli", "eis", "--d", "2", "--m", "20149",
             "--bound", "10000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
        assert proc.stdout.read(10) == b'{"config":'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert b"Traceback" not in err and b"Exception ignored" not in err


def _child_env():
    # the child imports eiscong from the same checkout as this test
    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(eiscong.__file__))}


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eiscong.cli", "field", "--d", "3"],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["u"] == [2, 1]
