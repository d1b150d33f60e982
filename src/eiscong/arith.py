"""Shared elementary number theory: Kronecker symbols, primality, factoring.

Everything here is exact integer arithmetic.  Primality is deterministic
Miller-Rabin for 64-bit inputs and strong-probable-prime beyond that;
factoring is trial division (a wheel mod 30) plus Brent's Pollard rho.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate, chain, compress, cycle

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

# Sufficient witness set for n < 3.3 * 10^24 (Sorenson-Webster).
_MR_BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def is_prime(n: int) -> bool:
    """Deterministic for n < 3.3e24, strong-probable-prime beyond."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(bound: int) -> list[int]:
    """Simple sieve."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return list(compress(range(bound + 1), sieve))


def _pollard_brent(n: int, rng: random.Random, iters: int) -> tuple[int | None, int]:
    """One Brent-rho attempt at an odd composite n: (a factor 1 < f < n, or
    None, the steps spent).  A round's r advancing steps count once per round,
    the gcd batches once per batch; past `iters` steps the attempt gives up."""
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    x = ys = y
    count = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        count += r
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
            count += m
            if count > iters:
                return None, count
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return (g if g != n else None), count


def _trial_divisors():
    """2, 3, 5, then every d >= 7 prime to 30 in increasing order (a wheel mod 30)."""
    return chain((2, 3, 5), accumulate(cycle((4, 2, 4, 2, 4, 6, 2, 6)), initial=7))


def factorize(n: int, rho_iters: int = 200000) -> dict[int, int] | None:
    """Factor |n| into primes; None if a composite cofactor resists rho.

    Trial division by the `_trial_divisors` d < 10^5 while d^2 <= n.  If it
    stopped at d^2 > n, the cofactor has no prime factor below d, so it is 1
    or prime and is recorded with no `is_prime` call; a cofactor left at the
    10^5 cap goes to `is_prime` and Brent rho.  `rho_iters` bounds the rho
    steps of the whole call, over every attempt and cofactor; a cofactor that
    rho cannot split within it makes the call return None.
    """
    n = abs(n)
    if n in (0, 1):
        return {}
    out: dict[int, int] = {}
    for d in _trial_divisors():
        if d >= 100000 or d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    if d * d > n:
        return out | {n: 1} if n > 1 else out
    rng = random.Random(0xE15)
    budget = rho_iters
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        for _ in range(8):
            f, spent = _pollard_brent(m, rng, budget)
            budget -= spent
            if f is not None or budget < 0:
                break
        if f is None:
            return None
        stack.append(f)
        stack.append(m // f)
    return out


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    t = 1
    if n < 0:
        n = -n
        if a < 0:
            t = -1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            t = -t
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor of |n| times the sign."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    f = factorize(abs(n))
    if f is None:
        raise ValueError("could not factor %d" % n)
    out = 1
    for p, e in f.items():
        if e % 2:
            out *= p
    return sign * out


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    f = factorize(n)
    if f is None:
        raise ValueError("could not factor %d" % n)
    return all(e == 1 for e in f.values())


def fundamental_discriminant(m: int) -> int:
    """Fundamental discriminant of Q(sqrt(m)), m any nonsquare integer."""
    d = squarefree_part(m)
    if d == 1:
        raise ValueError("1 is not a quadratic radicand")
    return d if d % 4 == 1 else 4 * d


def crt(r1: int, m1: int, r2: int, m2: int) -> int:
    """x mod m1*m2 with x = r1 (m1), x = r2 (m2); moduli coprime."""
    if math.gcd(m1, m2) != 1:
        raise ValueError("moduli not coprime")
    return (r1 + (r2 - r1) * pow(m1, -1, m2) % m2 * m1) % (m1 * m2)


def val_p(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def val_p_factorial(n: int, p: int) -> int:
    """v_p(n!), by Legendre's formula."""
    return sum(n // p**k for k in range(1, n.bit_length() + 1))
