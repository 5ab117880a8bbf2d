"""Arithmetic side conditions for the code and graph constructions.

Everything here is desk scale (numbers comfortably below 2**64), so the
factoring routines use plain trial division and stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class VerificationError(Exception):
    """A mathematical check failed: the one failure type for every
    verified claim, distinct from rejected input and from program bugs."""


def check(cond: bool, message: str) -> None:
    """Raise VerificationError with the message unless cond holds.
    Unlike assert, this survives python -O."""
    if not cond:
        raise VerificationError(message)


def is_prime(n: int) -> bool:
    """Trial-division primality test."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, math.isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    if n < 1:
        raise ValueError("factorize wants a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, f) with n = p**f and p prime, or None."""
    fac = factorize(n) if n > 1 else {}
    if len(fac) != 1:
        return None
    [(p, f)] = fac.items()
    return p, f


def is_mersenne_prime(p: int) -> bool:
    """True when p is prime and p + 1 is a power of two."""
    return is_prime(p) and (p + 1) & p == 0


def primitive_prime_divisors(p: int, k: int) -> set[int]:
    """Primes r dividing p**k - 1 but no p**i - 1 for 0 < i < k.

    Requires p prime and k >= 2.  Every prime returned satisfies
    r = 1 (mod k); the empty cases (Zsigmondy exceptions and their
    relatives) come out of the same sieve with no special casing.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if k < 2:
        raise ValueError(f"k = {k} must be at least 2")
    out = set()
    for r in factorize(p**k - 1):
        if all((p**i - 1) % r != 0 for i in range(1, k)):
            out.add(r)
    return out


@dataclass(frozen=True)
class ParameterSet:
    """Factored shape of a candidate code length n = q + 1 = 2**s * r**t."""

    q: int
    p: int
    f: int
    n: int
    s: int
    r: int | None
    t: int
    valid: bool
    violation: str | None


def validate_parameters(q: int) -> ParameterSet:
    """Check the admissibility condition on a prime power q.

    The constructions need n = q + 1 to be 2**s * r**t > 3 with r an odd
    prime, and either s >= 2 or q even.  The returned record always
    carries the factorization data; ``valid`` plus ``violation`` say
    which clause failed, if any.
    """
    pf = prime_power(q)
    if pf is None:
        raise ValueError(f"q = {q} is not a prime power")
    p, f = pf
    n = q + 1
    s = (n & -n).bit_length() - 1
    odd = n >> s
    r: int | None = None
    t = 0
    violation = None
    if odd > 1:
        opp = prime_power(odd)
        if opp is None:
            violation = f"odd part {odd} of n = {n} is not a prime power"
        else:
            r, t = opp
    if violation is None and n <= 3:
        violation = f"n = {n} is too small (need n > 3)"
    if violation is None and s < 2 and p != 2:
        violation = f"n = {n} has 2-part 2**{s} < 4 while q = {q} is odd"
    return ParameterSet(q, p, f, n, s, r, t, violation is None, violation)


@dataclass(frozen=True)
class ValencyCase:
    """Which arithmetic case a (valency p**k, n simple factors) pair hits."""

    label: str  # "i", "iii" or "none"
    ii_possible: bool
    witness: int | None  # the prime carrying case i, when label == "i"


def classify_valency_case(p: int, k: int, n: int) -> ValencyCase:
    """Classify the pair (p**k, n) for the stabilizer case analysis.

    Case i: some prime r with full multiplicative order k mod r divides
    n; for (p, k) = (2, 6), where no such prime exists, r in {3, 7}
    plays the same role.  Case iii: k = 2 with p a Mersenne prime.
    Case ii concerns a regular-action property that plain arithmetic
    cannot certify, so it is only ever flagged as possible (and only
    for (p, k) = (2, 6)).
    """
    if n < 1:
        raise ValueError("n must be positive")
    ii_possible = (p, k) == (2, 6)
    for r in sorted(primitive_prime_divisors(p, k)):
        if n % r == 0:
            return ValencyCase("i", ii_possible, r)
    if (p, k) == (2, 6):
        for r in (3, 7):
            if n % r == 0:
                return ValencyCase("i", ii_possible, r)
    if k == 2 and is_mersenne_prime(p):
        return ValencyCase("iii", ii_possible, None)
    return ValencyCase("none", ii_possible, None)
