"""Elementary number theory: primality and factorization."""

import math
import random

from eiscong.arith import factorize, is_prime, primes_up_to


def _product(fac):
    return math.prod(p**e for p, e in fac.items())


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


class TestPrimality:
    def test_strong_pseudoprime_to_small_bases(self):
        # 3215031751 = 151 * 751 * 28351 passes Miller-Rabin to bases 2, 3, 5, 7
        assert 3215031751 == 151 * 751 * 28351
        assert not is_prime(3215031751)

    def test_sieve_agrees_with_is_prime(self):
        assert primes_up_to(3000) == [n for n in range(3000 + 1) if is_prime(n)]
        assert primes_up_to(1) == []
