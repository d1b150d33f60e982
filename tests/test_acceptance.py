"""Acceptance suite: one test per criterion, printed pass/fail lines.

Each criterion runs at its stated tolerance (exact unless noted) and prints
a single CRITERION line so the suite output doubles as the verification
record.  Runtime bounds are asserted with a small grace factor for slow
machines.
"""

import random
import time

from eiscong.arith import factorize
from eiscong.characters import kronecker_character, induce_quadratic
from eiscong.eisenstein import eisenstein_coeffs, scan_congruence, stripped_eisenstein
from eiscong.iwasawa import IwasawaElement, lambda_mu, reflect
from eiscong.lseries import gen_bernoulli, hecke_L_neg_induced
from eiscong.measures import (
    StabilizationParams,
    bernoulli_family,
    bridge_certified_precision,
    check_distribution,
    deligne_ribet_induced,
    kubota_leopoldt,
    stabilize,
    to_iwasawa_series,
)
from eiscong.quadfield import ideal_pow, make_field, principal_ideal

from character_oracles import (
    bernoulli_sum,
    cyc_equal,
    inverse,
    pair_with_character,
    primitive_characters,
    times_euler_factor,
)
from hecke_oracles import hecke_T, hecke_U, series_level
from ideal_oracles import coprime_to
from padic_oracles import p_b1_omega_inv, p_value_at_zero, random_series

GRACE = 3.0  # runtime tolerance factor


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {num} [{status}] {name} {detail}")
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_1_exact_lvalue():
    """L_F(-1, eps) for F = Q(sqrt 2), m = 20149 factors as 2^2 5 281 4951 13417."""
    t0 = time.time()
    field = make_field(2)
    eps = induce_quadratic(field, 20149)
    rec = hecke_L_neg_induced(eps, 2)
    fac = factorize(rec.value.numerator)
    elapsed = time.time() - t0
    ok = (rec.value == 2**2 * 5 * 281 * 4951 * 13417
          and fac == {2: 2, 5: 1, 281: 1, 4951: 1, 13417: 1}
          and elapsed < 5 * GRACE)
    report(1, "exact L-value", ok, f"value={rec.value} time={elapsed:.2f}s")


def test_criterion_2_congruence_scan():
    """scan-congruence yields exactly {281, 4951, 13417} with all checks passing."""
    t0 = time.time()
    field = make_field(2)
    reports = scan_congruence(field, 20149)
    elapsed = time.time() - t0
    cands = [r.p for r in reports if r.verdict == "candidate"]
    all_checks = all(r.hypothesis_b and r.hypothesis_c and r.residue_unit_check
                     and r.iota1_check and r.unit_order_check
                     for r in reports if r.verdict == "candidate")
    ok = cands == [281, 4951, 13417] and all_checks and elapsed < 30 * GRACE
    report(2, "congruence scan", ok, f"candidates={cands} time={elapsed:.2f}s")


def test_criterion_3_eisenstein_eigenforms():
    """T/U eigen-relations and the prime-power recursion, norms <= 200, exact.

    U(q) runs at the level prime (5) of m = 5, inert of norm 25, with
    eigenvalue C(q) = 0; T(q) at every other tested prime."""
    t0 = time.time()
    field = make_field(2)
    failures = []
    for m in (5, 13, 20149):
        series = stripped_eisenstein(field, m)
        eps = series.eps
        level = series_level(series)
        # coefficients up to 200 * max tested prime norm so every relation closes
        test_primes = [q for p in (3, 5, 7, 11, 13)
                       for q in principal_ideal(field, p).prime_factors()
                       if q.norm <= 25]
        bound = 200 * max(q.norm for q in test_primes)
        sys = eisenstein_coeffs(series, bound)
        base = [a for a in sys.ideals() if a.norm <= 200]
        for q in test_primes:
            if coprime_to(q, level):
                lam = series.coefficient_at(q)
                img = hecke_T(sys, q, eps, level, bound)
            else:
                lam = sys.at(q)
                img = hecke_U(sys, q, level, bound)
            for a in base:
                if a.norm <= bound // q.norm and img.at(a) != lam * sys.at(a):
                    failures.append((m, str(q), str(a)))
        # prime-power recursion at primes away from the level
        for q in test_primes:
            if not coprime_to(q, level):
                continue
            ev = eps.value_on_ideal(q)
            cs = [series.coefficient_at(ideal_pow(q, e)) for e in range(4)]
            for e in range(1, 3):
                if cs[e + 1] != cs[1] * cs[e] - ev * q.norm * cs[e - 1]:
                    failures.append((m, str(q), f"recursion e={e}"))
        # U-eigenvalue 0 at level primes for the stripped series (small m only)
        if m != 20149:
            for q in principal_ideal(field, m).prime_factors():
                if sys.at(q) != 0:
                    failures.append((m, str(q), "stripped U-eigenvalue"))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 10 * GRACE
    report(3, "Eisenstein eigenform suite", ok,
           f"failures={failures[:3]} time={elapsed:.2f}s")


def test_criterion_4_distribution_and_interpolation():
    """Distribution identity exact for p in {5,7}, m0 in {1,3,4}, depth 4;
    pairing matches B_{1,eta^-1} for odd primitive conductors <= 140: gen_bernoulli
    at order <= 2, the defining sum in CycSum at higher order."""
    t0 = time.time()
    dist_ok = True
    for p in (5, 7):
        for m0 in (1, 3, 4):
            fam = bernoulli_family(m0, p, 4)
            if not check_distribution(fam).ok:
                dist_ok = False
            for eps_p in (0, 1, -1):
                st = stabilize(fam, StabilizationParams(1, eps_p))
                if not check_distribution(st).ok:
                    dist_ok = False
    pair_ok = True
    pairs = 0
    for p in (5, 7):
        for m0 in (1, 3, 4):
            fam = bernoulli_family(m0, p, 4)
            for nu in range(5):
                modulus = fam.level_modulus(nu)
                if modulus == 1 or modulus > 140:
                    continue
                for eta in primitive_characters(modulus):
                    if eta.is_even():
                        continue
                    got = pair_with_character(fam, eta)
                    inv = inverse(eta)
                    want = gen_bernoulli(inv, 1) if inv.order <= 2 else bernoulli_sum(inv, 1)
                    if nu == 0:
                        want = times_euler_factor(want, inv, p)
                    if not cyc_equal(got, want):
                        pair_ok = False
                    pairs += 1
    elapsed = time.time() - t0
    ok = dist_ok and pair_ok and pairs >= 90 and elapsed < 5 * GRACE
    report(4, "distribution identity + interpolation pairing", ok,
           f"pairings={pairs} time={elapsed:.2f}s")


def test_criterion_5_kubota_leopoldt_consistency():
    """KL T=0 values to precision N-2 against the direct Teichmuller oracle,
    and the two construction paths agree to precision N-4 at T=0 (exact-depth
    collapse) and at every certified coefficient digit.  All in integers: the
    value of the omega^j branch is -B_{1,chi omega^(j-1)}, so p times it is
    -p B_1 mod p^(N-1); j = 2, 4 reach the node sums at a nonzero
    Teichmuller power of the branch (j = 4 at p = 5 is the pole branch)."""
    t0 = time.time()
    N, M = 12, 40
    value_ok = True
    for p in (5, 7):
        for D in (1, 5, 8, 12):
            if D % p == 0:
                continue
            chi = kronecker_character(D)
            for j in (0, 2, 4):
                x, k = p_value_at_zero(kubota_leopoldt(chi, p, N, M, omega_power=j))
                if not (k >= N - 1
                        and (x + p_b1_omega_inv(chi, p, N + 4, j - 1)) % p ** (N - 1) == 0):
                    value_ok = False
    bridge_ok = True
    V = 4
    for p, D in ((5, 12), (7, 12)):
        chi = kronecker_character(D)
        stab = stabilize(bernoulli_family(abs(D), p, V), StabilizationParams(1, 1))
        tr = to_iwasawa_series(stab, chi, 1, 1 + p, N, M)
        want = reflect(kubota_leopoldt(chi, p, N, M)).scale(-(1 - chi(p)))
        k0 = min(tr.prec[0], want.prec[0])
        if not (k0 >= N - 4 and (tr.res[0] - want.res[0]) % p**k0 == 0):
            bridge_ok = False
        for j in range(1, M):
            cert = bridge_certified_precision(V, p, j, N)
            if cert and (tr.res[j] - want.res[j]) % p ** min(cert, N - 4):
                bridge_ok = False
    elapsed = time.time() - t0
    ok = value_ok and bridge_ok
    report(5, "Kubota-Leopoldt consistency", ok,
           f"values={'ok' if value_ok else 'FAIL'} "
           f"bridge={'ok' if bridge_ok else 'FAIL'} time={elapsed:.2f}s")


def test_criterion_6_lambda_mu_algebra():
    """Additivity and unit invariance on 10^3 random pairs, certified exactly
    when mu = 0, and lambda-additivity of deligne_ribet_induced products."""
    t0 = time.time()
    rng = random.Random(0xACCE)
    alg_ok = True
    for _ in range(1000):
        p = rng.choice((5, 7))
        mua, mub = rng.randrange(3), rng.randrange(3)
        a, lama = random_series(rng, p, 10, 16, mua)
        b, lamb = random_series(rng, p, 10, 16, mub)
        if lambda_mu(a * b) != (mua + mub, lama + lamb, mua + mub == 0):
            alg_ok = False
            break
        unit = IwasawaElement.from_integers(
            p, 10, 16, [rng.randrange(1, p)] +
            [rng.randrange(0, p**10) for _ in range(15)])
        if lambda_mu(a * unit) != (mua, lama, mua == 0):
            alg_ok = False
            break
    rand_elapsed = time.time() - t0
    field = make_field(2)
    eps = induce_quadratic(field, 5)
    dr_ok = True
    for sigma0 in ([], [principal_ideal(field, 29)]):
        res = deligne_ribet_induced(eps, None, sigma0, 7, 6, 12)
        if not res.additivity:
            dr_ok = False
    # a product whose second branch has lambda = 1 (5 | B_{1, chi_152 omega^-1})
    eps19 = induce_quadratic(field, 19)
    res19 = deligne_ribet_induced(eps19, None, [], 5, 8, 14)
    if not (res19.additivity and res19.lambda_mu_parts["factor2"][1] == 1
            and res19.lambda_mu_parts["product"][1] == 1):
        dr_ok = False
    elapsed = time.time() - t0
    ok = alg_ok and dr_ok and rand_elapsed < 5 * GRACE
    report(6, "lambda/mu algebra", ok,
           f"random={'ok' if alg_ok else 'FAIL'} products={'ok' if dr_ok else 'FAIL'} "
           f"time={elapsed:.2f}s")


def test_criterion_7_substitution_statement():
    """The verify-example bundle states the cusp-form-side substitution:
    the full cusp-form p-adic L-function needs out-of-scope periods, so the
    artifact substitutes the Eisenstein-side series and the exact suites."""
    import contextlib
    import io
    import json

    from eiscong.cli import SUBSTITUTION_NOTE, main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["verify-example", "--d", "2", "--m", "5", "--N", "2", "--M", "6"])
    bundle = json.loads(buf.getvalue())
    ok = (bundle.get("substitution") == SUBSTITUTION_NOTE
          and "substitutes" in SUBSTITUTION_NOTE
          and "unchecked_assumptions" in bundle)
    report(7, "substitution statement in verify-example", ok)


# SHA-256 of the stdout of `verify-example --d 2 --m 20149`, recorded from the
# per-residue power-sum pass the prefix-sum sweep replaced
HEADLINE_BUNDLE_SHA256 = "04560e7a8653dd838fc5f874be098987868f4443e5acdd3575267ba9fda9406b"


def test_criterion_8_headline_bundle():
    """The headline run, branch product at p = 281 included, is byte-stable
    and fits the tier-1 time budget."""
    import contextlib
    import hashlib
    import io

    from eiscong.cli import main

    buf = io.StringIO()
    t0 = time.time()
    with contextlib.redirect_stdout(buf):
        code = main(["verify-example", "--d", "2", "--m", "20149"])
    elapsed = time.time() - t0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    ok = code == 0 and digest == HEADLINE_BUNDLE_SHA256 and elapsed < 5 * GRACE
    report(8, "headline verify-example bundle", ok,
           f"exit={code} sha256={digest[:16]} time={elapsed:.2f}s")
