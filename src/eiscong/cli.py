"""Batch command-line front end with JSON reports.

Every command echoes its effective configuration so runs are reproducible
byte-for-byte.  Scan-style output is one JSON object per line.  Exit codes:
0 ok, 1 a check failed, 2 configuration or output error, 3 precision or
factorization exhaustion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .arith import factorize, is_prime
from .characters import induce_quadratic, kronecker_character
from .eisenstein import (
    eisenstein_coeffs,
    scan_congruence,
    scan_factored,
    stripped_eisenstein,
)
from .iwasawa import IndistinguishableFromZero, IwasawaElement, lambda_mu
from .lseries import hecke_L_neg_induced
from .measures import (
    StabilizationParams,
    bernoulli_family,
    branch_product,
    check_distribution,
    stabilize,
)
from .quadfield import make_field


# ---------------------------------------------------------------------------
# output helpers


def _emit(args, payload) -> None:
    text = "\n".join(json.dumps(obj, sort_keys=True) for obj in payload) \
        if isinstance(payload, list) else json.dumps(payload, sort_keys=True)
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise ValueError(f"cannot write --out: {e}") from None
    else:
        print(text, flush=True)  # a closed pipe raises here, inside main


def _config_echo(args, command: str, keys: list[str]) -> dict:
    cfg = {"command": command, "version": __version__}
    for k in keys:
        cfg[k] = getattr(args, k, None)
    return cfg


# ---------------------------------------------------------------------------
# commands


def cmd_field(args) -> int:
    field = make_field(args.d)
    out = {"config": _config_echo(args, "field", ["d"])}
    out.update(field.to_json())
    out["basis"] = field.basis_kind
    _emit(args, out)
    return 0


def cmd_lvalue(args) -> int:
    field = make_field(args.d)
    eps = induce_quadratic(field, args.m)
    rec = hecke_L_neg_induced(eps, 1 - args.s)
    fac = factorize(rec.value.numerator, rho_iters=args.rho_iters)
    result = {
        "config": _config_echo(args, "lvalue", ["d", "m", "s"]),
        "field": field.to_json(),
        "character": eps.to_json(),
        "s": rec.s,
        "value": str(rec.value),
        "factorization": None if fac is None else sorted([p, e] for p, e in fac.items()),
    }
    _emit(args, result)
    return 3 if fac is None else 0


def cmd_eis(args) -> int:
    if args.bound < 1:
        raise ValueError("--bound must be positive")
    field = make_field(args.d)
    series = stripped_eisenstein(field, args.m)
    sys_ = eisenstein_coeffs(series, args.bound)
    lines = [{"config": _config_echo(args, "eis", ["d", "m", "bound"])}]
    for ideal, c in sys_.coeffs.items():
        lines.append({"ideal": ideal.to_json(), "norm": ideal.norm, "coeff": int(c)})
    _emit(args, lines)
    return 0


def cmd_scan(args) -> int:
    field = make_field(args.d)
    config = _config_echo(args, "scan-congruence", ["d", "m", "rho_iters"])
    reports = scan_congruence(field, args.m, rho_iters=args.rho_iters)
    _emit(args, [{"config": config}] + [r.to_json() for r in reports])
    if any(r.verdict == "unfactored" for r in reports):
        return 3
    return 0


def cmd_padic_lambda(args) -> int:
    try:
        with open(args.infile) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise ValueError(f"cannot read --in: {e}") from None
    try:
        series = IwasawaElement.from_json(obj)
    except KeyError as e:
        raise ValueError(f"series JSON lacks the key {e}") from None
    try:
        mu, lam, certified = lambda_mu(series)
    except IndistinguishableFromZero as e:
        _emit(args, {"error": str(e)})
        return 3
    result = {"config": _config_echo(args, "padic-lambda", []),
              "mu": mu, "lambda": lam, "certified": certified}
    _emit(args, result)
    return 0 if certified else 1


def _rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{flag} has a zero denominator") from None


def cmd_check_distribution(args) -> int:
    if not is_prime(args.p):
        raise ValueError("--p must be prime")
    params = None
    if args.alpha is not None or args.eps_p is not None:
        params = StabilizationParams(_rational(args.alpha or "1", "--alpha"),
                                     _rational(args.eps_p or "0", "--eps-p"))
        params.check_unit(args.p)
    fam = bernoulli_family(args.m0, args.p, args.depth)
    if params is not None:
        fam = stabilize(fam, params)
    rep = check_distribution(fam)
    result = {
        "config": _config_echo(args, "check-distribution",
                               ["p", "m0", "depth", "alpha", "eps_p"]),
        "ok": rep.ok,
        "cells_checked": rep.cells_checked,
    }
    if not rep.ok:
        nu, a, want, got = rep.first_failure
        result["first_failure"] = {"level": nu, "a": a,
                                   "expected": str(want), "got": str(got)}
    _emit(args, result)
    return 0 if rep.ok else 1


def _parse_branch(text: str):
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("--branch must be a JSON object")
    for key in ("d", "m", "chi1_disc", "chi2_disc", "twist"):
        if key not in obj or (key == "twist" and obj[key] is None):
            continue  # a null twist is no twist, as the config echo writes it
        if type(obj[key]) is not int:  # bool is a subclass of int
            raise ValueError(f"--branch {key} must be an integer")
    try:
        if "d" in obj and "m" in obj:
            field = make_field(obj["d"])
            eps = induce_quadratic(field, obj["m"])
            d1, d2 = eps.chi1.D, eps.chi2.D
        else:
            d1, d2 = obj["chi1_disc"], obj["chi2_disc"]
    except KeyError as e:
        raise ValueError(
            f"--branch needs d and m, or chi1_disc and chi2_disc; missing {e}") from None
    twist = obj.get("twist")
    return d1, d2, twist


def _parts_json(parts: dict) -> dict:
    return {k: {"mu": mu, "lambda": lam, "certified": c}
            for k, (mu, lam, c) in parts.items()}


def _require_positive(args) -> None:
    if args.N < 1 or args.M < 1:
        raise ValueError("--N and --M must be positive")


def cmd_padic_l(args) -> int:
    d1, d2, twist_disc = _parse_branch(args.branch)
    if not is_prime(args.p) or args.p == 2:
        raise ValueError("--p must be an odd prime")
    _require_positive(args)
    strip_primes = json.loads(args.strip) if args.strip else []
    if not (isinstance(strip_primes, list)
            and all(type(q) is int and is_prime(q) for q in strip_primes)):
        raise ValueError("--strip must be a JSON list of rational primes")
    config = _config_echo(args, "padic-l", ["p", "N", "M", "strip"])
    config["branch"] = {"chi1_disc": d1, "chi2_disc": d2, "twist": twist_disc}
    chi1, chi2 = kronecker_character(d1), kronecker_character(d2)
    if twist_disc is not None:
        tw = kronecker_character(twist_disc)
        chi1, chi2 = chi1.mul_quadratic(tw), chi2.mul_quadratic(tw)
    try:
        res = branch_product(chi1, chi2, strip_primes, args.p, args.N, args.M)
    except (ArithmeticError, IndistinguishableFromZero) as e:
        _emit(args, {"config": config, "error": str(e)})
        return 3
    parts = _parts_json(res.lambda_mu_parts)
    euler = parts["euler"]
    result = {
        "config": config,
        "u": 1 + args.p,
        "series": res.series.to_json(),
        **parts["product"],
        "factors": {"chi1": parts["factor1"], "chi2": parts["factor2"],
                    "euler": {"mu": euler["mu"], "lambda": euler["lambda"]}},
        "additivity": res.additivity,
    }
    _emit(args, result)
    return 0 if res.additivity else 1


SUBSTITUTION_NOTE = (
    "The cusp-form p-adic L-function and its mod-p congruence require "
    "cohomological periods outside this artifact's scope; this bundle "
    "substitutes the Eisenstein-side branch series, unit-invariance of "
    "lambda, and the exact distribution/interpolation suites."
)


def cmd_verify_example(args) -> int:
    if args.p is not None and (args.p <= 4 or not is_prime(args.p)):
        raise ValueError("p must be a prime exceeding n+2 = 4 for a real quadratic field")
    _require_positive(args)
    field = make_field(args.d)
    eps = induce_quadratic(field, args.m)
    bundle = {"config": _config_echo(args, "verify-example",
                                     ["d", "m", "p", "N", "M", "all_branches"]),
              "substitution": SUBSTITUTION_NOTE,
              "unchecked_assumptions": [
                  "cohomology torsion-freeness (hypothesis (a))",
                  "the o_{F,n}^{x2} index condition (undefined notation; "
                  "the residue-unit surrogate is checked instead)",
              ]}
    failures = 0

    # stage 1: exact L-value
    rec = hecke_L_neg_induced(eps, 2)
    fac = factorize(rec.value.numerator, rho_iters=args.rho_iters)
    bundle["lvalue"] = {
        "value": str(rec.value),
        "factorization": None if fac is None else sorted([p, e] for p, e in fac.items()),
    }
    if fac is None:
        bundle["error"] = "factorization exhausted"
        _emit(args, bundle)
        return 3

    # stage 2: congruence scan on the stage-1 value and factorization
    reports = scan_factored(rec, fac)
    bundle["scan"] = [r.to_json() for r in reports]
    candidates = [r.p for r in reports if r.verdict == "candidate"]
    bundle["candidates"] = candidates
    if args.p is not None and args.p not in candidates:
        failures += 1

    # stage 3: branch series and lambda-additivity at candidate primes
    branch_primes = candidates if args.all_branches else candidates[:1]
    if args.p is not None:
        branch_primes = [args.p]
    branches = []
    exhausted = False
    for p in branch_primes:
        try:
            res = branch_product(eps.chi1, eps.chi2, [], p, args.N, args.M)
            entry = {"p": p, "u": 1 + p,
                     "parts": _parts_json(res.lambda_mu_parts),
                     "additivity": res.additivity,
                     "series": res.series.to_json()}
            if not res.additivity:
                failures += 1
        except (ArithmeticError, IndistinguishableFromZero) as e:
            entry = {"p": p, "error": str(e)}
            exhausted = True
        except ValueError as e:
            entry = {"p": p, "error": str(e)}
            failures += 1
        branches.append(entry)
    bundle["branches"] = branches
    passed = failures == 0 and bool(candidates)
    bundle["verdict"] = "pass" if passed and not exhausted else "fail"
    _emit(args, bundle)
    # a failed check outranks precision exhaustion
    if not passed:
        return 1
    return 3 if exhausted else 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps a subcommand's unset copy from clobbering a value parsed
    # before the subcommand name
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write JSON here instead of stdout")
    ap = argparse.ArgumentParser(
        prog="eiscong",
        parents=[common],
        description="Exact Eisenstein congruence primes and Iwasawa invariants "
                    "over real quadratic fields")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("field", help="field constants for Q(sqrt(d))")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_field)

    p = add_parser("lvalue", help="exact L_F(s, eps) for the induced character")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=20149)
    p.add_argument("--s", type=int, default=-1)
    p.add_argument("--rho-iters", type=int, default=200000)
    p.set_defaults(func=cmd_lvalue)

    p = add_parser("eis", help="Eisenstein coefficients up to a norm bound")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=20149)
    p.add_argument("--bound", type=int, default=500)
    p.set_defaults(func=cmd_eis)

    p = add_parser("scan-congruence", help="candidate congruence primes")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=20149)
    p.add_argument("--rho-iters", type=int, default=200000)
    p.set_defaults(func=cmd_scan)

    p = add_parser("padic-lambda", help="lambda/mu of a serialized series")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_padic_lambda)

    p = add_parser("check-distribution", help="exact distribution identity")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m0", type=int, required=True)
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--alpha", help="stabilization unit root (exact rational)")
    p.add_argument("--eps-p", help="stabilization character value at p")
    p.set_defaults(func=cmd_check_distribution)

    p = add_parser("padic-l", help="branch p-adic L series with lambda/mu")
    p.add_argument("--branch", required=True,
                   help='{"d":2,"m":20149} or {"chi1_disc":..,"chi2_disc":..,"twist":..}')
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--M", type=int, default=16)
    p.add_argument("--strip", help="JSON list of rational primes to strip")
    p.set_defaults(func=cmd_padic_l)

    p = add_parser("verify-example", help="end-to-end verification bundle")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--m", type=int, default=20149)
    p.add_argument("--p", type=int, help="force one candidate prime")
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--M", type=int, default=6)
    p.add_argument("--all-branches", action="store_true",
                   help="run the branch stage at every candidate prime")
    p.add_argument("--rho-iters", type=int, default=200000)
    p.set_defaults(func=cmd_verify_example)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    # exact values may exceed CPython's default 4300-digit int/str limit
    # (3.11+ and late 3.10 patch releases); lift it for this call only
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (ValueError, NotImplementedError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes to
        # devnull so the interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
