"""Elementary number theory: primality and factorization."""

import math
import random
from itertools import takewhile

from eiscong import arith
from eiscong.arith import _pollard_brent, _trial_divisors, factorize, is_prime, primes_up_to


def _product(fac):
    return math.prod(p**e for p, e in fac.items())


def _oracle_factorize(n, rho_iters=200000):
    """The earlier `factorize`: trial division by 2 and every odd d, and every
    cofactor, even one that trial division has proved to be 1 or prime, goes
    through `is_prime` and the rho stack."""
    n = abs(n)
    if n in (0, 1):
        return {}
    out = {}
    d = 2
    while d < 100000 and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    rng = random.Random(0xE15)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        f = None
        for _ in range(8):
            f = _pollard_brent(m, rng, rho_iters)[0]
            if f is not None:
                break
        if f is None:
            return None
        stack.append(f)
        stack.append(m // f)
    return out


def _same(n):
    got, want = factorize(n), _oracle_factorize(n)
    return got == want and list(got.items()) == list(want.items())


class TestFactorize:
    def test_seeded_range_multiplies_back_in_key_order(self):
        rng = random.Random(0xA17)
        inputs = list(range(2, 400)) + [rng.randrange(2, 10**12) for _ in range(300)]
        for n in inputs:
            fac = factorize(n)
            assert _product(fac) == n
            assert all(is_prime(p) and e >= 1 for p, e in fac.items())
            # below 10^10 trial division finds every prime but the last,
            # which is the largest, so the keys come out ascending
            if n < 10**10:
                assert list(fac) == sorted(fac)

    def test_trivial_and_signed_inputs(self):
        assert factorize(0) == {} and factorize(1) == {} and factorize(-1) == {}
        assert factorize(-12) == {2: 2, 3: 1}

    def test_square_of_largest_trial_prime(self):
        fac = factorize(99991**2 * 7)
        assert fac == {7: 1, 99991: 2} and list(fac) == [7, 99991]

    def test_rho_splits_primes_above_trial_bound(self):
        assert factorize(100003 * 100019) == {100003: 1, 100019: 1}
        assert factorize(2**2 * 100003**2) == {2: 2, 100003: 2}

    def test_rho_iteration_budget(self):
        n = (10**9 + 7) * (10**9 + 9)
        assert factorize(n, rho_iters=50) is None
        assert factorize(n) == {10**9 + 7: 1, 10**9 + 9: 1}

    def test_rho_budget_bounds_the_whole_call(self, monkeypatch):
        # rho splits 100003 off, then cannot split the product of two 101-bit
        # primes; one budget pays for every reduction mod either cofactor in
        # every attempt, about 2 per step (a budget per attempt allows 8 times
        # as many per cofactor)
        class Modulus(int):
            reductions = 0

            def __rmod__(self, other):
                Modulus.reductions += 1
                return int.__rmod__(self, other)

        brent = arith._pollard_brent
        monkeypatch.setattr(arith, "_pollard_brent",
                            lambda m, rng, iters: brent(Modulus(m), rng, iters))
        big = [q for q in range(2**100 + 1, 2**100 + 400, 2) if is_prime(q)][:2]
        assert factorize(100003 * big[0] * big[1], rho_iters=20000) is None
        assert Modulus.reductions < 3 * 20000


class TestFactorizeOracle:
    def test_range_equals_oracle(self):
        assert [n for n in range(0, 20000) if not _same(n)] == []

    def test_seeded_below_10_12_equal_oracle(self):
        rng = random.Random(0xFAC7)
        inputs = [rng.randrange(2, 10**12) for _ in range(150)]
        assert [n for n in inputs if not _same(n)] == []

    def test_rho_path_equals_oracle(self):
        # cofactors above the 10^5 trial cap: products of two primes > 10^5
        rng = random.Random(0x5EED)
        big = [p for p in range(100001, 101000, 2) if is_prime(p)]
        inputs = [p * q for p, q in (rng.sample(big, 2) for _ in range(8))]
        inputs += [12 * 100003 * 100019, 100003**2, 7 * 1000003 * 999983]
        assert [n for n in inputs if not _same(n)] == []

    def test_no_primality_test_after_complete_trial_division(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(arith, "is_prime", counted)
        # trial division reaches d^2 > n: the cofactor is 1 or prime
        for n in (2, 97, 20149, 2 * 3 * 5 * 7 * 11 * 13, 99991**2 * 7, 10**9 + 7):
            assert factorize(n) == _oracle_factorize(n)
        assert calls == []
        # a cofactor left at the 10^5 cap still goes to is_prime and rho
        assert factorize(100003 * 100019) == {100003: 1, 100019: 1}
        assert calls


class TestTrialWheel:
    def test_wheel_is_2_3_5_then_the_d_prime_to_30(self):
        got = list(takewhile(lambda d: d < 10**5, _trial_divisors()))
        assert got == [2, 3, 5] + [d for d in range(7, 10**5) if math.gcd(d, 30) == 1]
        # the first divisor at the cap, where the d^2 > n test is read
        assert next(d for d in _trial_divisors() if d >= 10**5) == 100001

    def test_wheel_primes_and_their_products(self):
        smooth = [2**a * 3**b * 5**c for a in range(5) for b in range(4) for c in range(4)]
        assert [n for n in [5, 25, 35, 49, 7 * 11 * 13] + smooth if not _same(n)] == []

    def test_primes_below_the_trial_cap(self):
        top = [p for p in range(99999, 90000, -2) if is_prime(p)]
        low = [p for p in range(90001, 10**5, 2) if is_prime(p)]
        assert top[:2] == [99991, 99989]
        inputs = [low[0], top[0], low[0] * top[0], 99989 * 99991, 99991**2, 7 * 100003]
        assert [n for n in inputs if not _same(n)] == []
        assert factorize(99989 * 99991) == {99989: 1, 99991: 1}
        assert factorize(7 * 100003) == {7: 1, 100003: 1}


class TestPrimality:
    def test_strong_pseudoprime_to_small_bases(self):
        # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to bases 2, 3, 5, 7
        assert 3215031751 == 151 * 751 * 28351
        assert not is_prime(3215031751)

    def test_sieve_agrees_with_is_prime(self):
        assert primes_up_to(3000) == [n for n in range(3000 + 1) if is_prime(n)]
        assert primes_up_to(1) == []
