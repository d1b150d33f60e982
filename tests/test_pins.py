"""Pinned CLI outputs: one table of commands and their stdout digests.

Each row runs one command and checks its exit code, the sha256 of its stdout
(a prefix of the hex digest, or all of it), and optionally the line count and
a semantic check on the output.  Rows with an RSS ceiling run as a child
process whose own peak RSS is read back; the others run in-process through
`cli.main`.
"""

import hashlib
import json
import subprocess
import sys
from typing import Callable, NamedTuple

import pytest

from test_cli import _child_env, run_cli


class Pin(NamedTuple):
    id: str
    argv: list
    code: int
    sha256: str
    why: str
    lines: int | None = None
    rss_mb: float | None = None
    check: Callable[[str], None] | None = None


def _headline_branches(out):
    branches = json.loads(out)["branches"]
    assert [b["p"] for b in branches] == [281, 4951, 13417], branches
    for b in branches:
        assert b["additivity"], b
        assert all(part["certified"] for part in b["parts"].values()), b


def _full_tower(out):
    rep = json.loads(out)
    assert rep["ok"] and rep["cells_checked"] == 312500, rep


def _euler_part_lambda_one(out):
    # 29^2 = 1 mod 5 gives the Euler part lambda = 1
    assert json.loads(out)["factors"]["euler"] == {"lambda": 1, "mu": 0}


def _unfactored(out):
    assert 'factorization": null' in out and "1727843304100" in out


BRANCH_2_20149 = ["padic-l", "--branch", '{"d":2,"m":20149}']
UNFACTORED = ["--d", "2", "--m", "33757", "--rho-iters", "1"]
TOWER_DEPTH_8 = ["check-distribution", "--p", "5", "--m0", "12", "--depth", "8"]

PINS = [
    Pin("headline-all-branches",
        ["verify-example", "--d", "2", "--m", "20149", "--all-branches"], 0,
        "e53c92ae62b8dc5f", rss_mb=49, check=_headline_branches,
        why="every candidate prime: packed wrap rows at 4951, 13417, per-cut shift at 281"),
    Pin("tower-depth8-stabilized", TOWER_DEPTH_8 + ["--alpha", "1", "--eps-p", "1"], 0,
        "9840bd0d89b5f538", rss_mb=145, check=_full_tower,
        why="stabilized tower in one residue block of working memory per level"),
    Pin("tower-depth8-raw", TOWER_DEPTH_8, 0,
        "e416ef63ba7d8885", rss_mb=118, check=_full_tower,
        why="the raw Bernoulli family, checked with no stabilize"),
    Pin("tower-depth7-stabilized",
        ["check-distribution", "--p", "5", "--m0", "12", "--depth", "7",
         "--alpha", "1", "--eps-p", "1"], 0,
        "4acc67647cf6576ec92291525025babd00d35c0ec66338f5d1fe069ee588471a",
        why="the output of the per-unit tower code the residue blocks replaced"),
    Pin("eis-2-20149-10000", ["eis", "--d", "2", "--m", "20149", "--bound", "10000"], 0,
        "bd0fdbfb9e7d57f4", lines=6233,
        why="divisor-sum coefficients over the ideal_mul walk to norm 10000"),
    Pin("eis-2-20149-1500", ["eis", "--d", "2", "--m", "20149", "--bound", "1500"], 0,
        "038dd37f5cf17cbd6e13cf20ae2688877bbb03453f21870019e202914dee591f", lines=932,
        why="the same walk to norm 1500"),
    Pin("eis-2-20149-500", ["eis", "--d", "2", "--m", "20149", "--bound", "500"], 0,
        "518afa6dda4cc2c1bb5fda273e85cf86d3bfee62a3cfc362c0ec2892d4f74a20", lines=312,
        why="the same walk to norm 500"),
    Pin("eis-13-7061-3000", ["eis", "--d", "13", "--m", "7061", "--bound", "3000"], 0,
        "b72b8b5de5891a68", lines=1988,
        why="13 ramifies; the level 7061 = 23 * 307 has 23 split and 307 inert"),
    Pin("eis-17-1001-3000", ["eis", "--d", "17", "--m", "1001", "--bound", "3000"], 0,
        "dc188738ba9c4851", lines=3044,
        why="level 7 * 11 * 13 over Q(sqrt 17): 7 and 11 inert, 13 split"),
    Pin("eis-5-12001-3000", ["eis", "--d", "5", "--m", "12001", "--bound", "3000"], 0,
        "f99728de79323a61", lines=1293,
        why="level 11 * 1091 over Q(sqrt 5): both split, and 5 ramifies"),
    Pin("eis-2-20149-100000", ["eis", "--d", "2", "--m", "20149", "--bound", "100000"], 0,
        "d733e97e9b1f9b7b", lines=62318, rss_mb=50,
        why="each line written as it is formatted: 37 MB, against 79 MB for the whole text"),
    Pin("lvalue-2-255255", ["lvalue", "--d", "2", "--m", "255255"], 0,
        "7d82eef80a96f250",
        why="Siegel's divisor sum at conductors 1021020 and 2042040, six odd primes each"),
    Pin("lvalue-2-255255-s-3", ["lvalue", "--d", "2", "--m", "255255", "--s", "-3"], 0,
        "782c12288eaea71a",
        why="weight 4: the power-sum passes at the same large conductors"),
    Pin("scan-2-20149", ["scan-congruence", "--d", "2", "--m", "20149"], 0,
        "438d6fce07ec9485",
        why="the scan's per-prime reports at the headline pair"),
    Pin("lvalue-2-20149", ["lvalue", "--d", "2", "--m", "20149"], 0,
        "b27f02dda31e3cf5",
        why="the headline L-value with the character's JSON"),
    Pin("lvalue-13-8221", ["lvalue", "--d", "13", "--m", "8221"], 0,
        "37d8ddf5227e205e",
        why="numerator 2^7 * 17239 * 40241: trial division runs to 17239"),
    Pin("scan-13-8221", ["scan-congruence", "--d", "13", "--m", "8221"], 0,
        "192d997100f67319",
        why="the scan on that deepest trial division"),
    Pin("unfactored-scan", ["scan-congruence"] + UNFACTORED, 3,
        "2aee28e1ea8a8574", check=_unfactored,
        why="cofactor 128599 * 134359 past trial division, which one rho step cannot split"),
    Pin("unfactored-verify-example", ["verify-example"] + UNFACTORED, 3,
        "2b86d7e11ba87e4b", check=_unfactored,
        why="the same exhausted factorization through the pipeline"),
    Pin("unfactored-lvalue", ["lvalue"] + UNFACTORED, 3,
        "8e1430b3fcbb8051", check=_unfactored,
        why="the same exhausted factorization through lvalue"),
    Pin("rho-budget-lvalue-7-s-59", ["lvalue", "--m", "7", "--s", "-59"], 3,
        "d41c3f1e152dc693",
        why="rho gives up on an 830-bit cofactor: rho_iters bounds the whole factorization"),
    Pin("padic-l-2-20149-p5", BRANCH_2_20149 + ["--p", "5"], 0,
        "46d3c63999fa7c3a",
        why="30 powers over many sweep blocks, 2 cuts: the shift side of the wrap-term rule"),
    Pin("padic-l-2-20149-p3", BRANCH_2_20149 + ["--p", "3"], 0,
        "acac6588d0d47e90",
        why="most tw = 0 nodes and largest v_p(k) losses; 1 cut, the per-cut shift side"),
    Pin("padic-l-80588-161192-p5",
        ["padic-l", "--branch", '{"chi1_disc":80588,"chi2_disc":161192}', "--p", "5"], 0,
        "5a9e9c3fbf64410b",
        why="both tables from the odd part: chi_-4 chi_-20147 (e = 4) and chi_8 chi_20149"),
    Pin("padic-l-2-37-p107",["padic-l", "--branch", '{"d":2,"m":37}', "--p", "107"], 0,
        "0fd0862ca57a50b4",
        why="p > f0, so shifts collide: the packed wrap rows side of the wrap-term rule"),
    Pin("padic-l-2-29-p1009", ["padic-l", "--branch", '{"d":2,"m":29}', "--p", "1009"], 0,
        "b64445a0cebd5211",
        why="504 classes in two blocks of the residue-major shift, many sharing a cut"),
    Pin("padic-l-5-1009-p7", ["padic-l", "--branch", '{"d":5,"m":1009}', "--p", "7"], 0,
        "d211a5bdebf71219",
        why="odd conductors: the half sweep ends at (f0 + 1) / 2"),
    Pin("padic-l-13-101-p103", ["padic-l", "--branch", '{"d":13,"m":101}', "--p", "103"], 0,
        "9de36e173ae70540",
        why="odd conductor 101 below p: the two cuts of a residue pair can coincide"),
    Pin("padic-l-strip-p5", BRANCH_2_20149 + ["--p", "5", "--strip", "[3,7,29]"], 0,
        "f9e291a893534724", check=_euler_part_lambda_one,
        why="Euler factors at primes prime to m: log<l>/log u and its binomial row"),
    Pin("padic-l-strip-p281", BRANCH_2_20149 + ["--p", "281", "--strip", "[3,7,29]"], 0,
        "35425c9a37847d1e",
        why="the same Euler factors at the smallest candidate prime"),
]


# The command runs as a grandchild under this launcher, which prints the
# command's own peak RSS from os.wait4.  RUSAGE_CHILDREN would be a running
# maximum over every child reaped so far, and a process spawned straight from
# this test process would count this process's image in its peak: exec
# records the replaced image's peak RSS, and posix_spawn and fork start the
# child with this process's pages.
_LAUNCHER = ("import os, sys; pid = os.posix_spawn(sys.executable, sys.argv[1:], os.environ); "
             "_, status, usage = os.wait4(pid, 0); "
             "print(usage.ru_maxrss, file=sys.stderr); sys.exit(os.waitstatus_to_exitcode(status))")


def _run_child(argv):
    """(exit code, stdout, peak RSS in MB) of the command run as a child process."""
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, sys.executable, "-m", "eiscong.cli", *argv],
        capture_output=True, text=True, env=_child_env(), timeout=300)
    return proc.returncode, proc.stdout, int(proc.stderr.split()[-1]) / 1024


@pytest.mark.parametrize("pin", PINS, ids=[pin.id for pin in PINS])
def test_pinned_output(pin):
    if pin.rss_mb is None:
        code, out = run_cli(pin.argv)
    else:
        code, out, rss_mb = _run_child(pin.argv)
        assert rss_mb < pin.rss_mb, f"child max RSS {rss_mb:.1f} MB"
    assert code == pin.code
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest.startswith(pin.sha256), digest
    if pin.lines is not None:
        assert out.count("\n") == pin.lines
    if pin.check is not None:
        pin.check(out)


def test_padic_lambda_reads_back_the_branch_product(tmp_path):
    # padic-l's product series, written to a file and read by padic-lambda,
    # gives the same mu, lambda and certificate as padic-l reports
    _, out = run_cli(BRANCH_2_20149 + ["--p", "5"])
    product = json.loads(out)
    path = tmp_path / "series.json"
    path.write_text(json.dumps(product["series"]))
    code, out = run_cli(["padic-lambda", "--in", str(path)])
    back = json.loads(out)
    keys = ("mu", "lambda", "certified")
    assert code == 0
    assert tuple(back[k] for k in keys) == tuple(product[k] for k in keys) == (0, 0, True)
