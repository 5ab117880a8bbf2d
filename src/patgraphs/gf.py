"""Exact arithmetic in GF(p**f).

A field element is a plain int in [0, q): its base-p digits, least
significant first, are the coefficients of the residue polynomial.  The
modulus is the lexicographically least monic irreducible of degree f
under the same digit encoding, so independent runs agree on every
element label.  Multiplication runs off exp/log tables built from the
least primitive element; the fields in play never exceed a few thousand
elements, so the tables are cheap.

The module also owns the one polynomial arithmetic over any GF(q); the
field itself uses it over GF(p) to find its modulus and fill its tables.
"""

from __future__ import annotations

from typing import NamedTuple

from .numth import VerificationError, check, factorize, is_prime, prime_power

Poly = tuple[int, ...]  # coefficients over a GF, constant term first


class UnitGenerators(NamedTuple):
    """Generators of the 2-part and the odd part of the unit group."""

    two_part: int
    odd_part: int


class GF:
    """The field GF(p**f) on the integer element encoding."""

    def __init__(self, p: int, f: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if f < 1:
            raise ValueError(f"f = {f} must be positive")
        self.p = p
        self.f = f
        self.q = p**f
        # GF(p, f > 1) builds its tables with arithmetic over GF(p, 1)
        self._prime = GF(p, 1) if f > 1 else None
        self.modulus = self._find_modulus()
        self._build_tables()

    def _find_modulus(self) -> Poly:
        if self.f == 1:
            return (0, 1)
        for code in range(self.q):
            cand = tuple(self.digits(code)) + (1,)
            if _is_irreducible(self._prime, cand):
                return cand
        raise VerificationError("no irreducible modulus found")

    def _build_tables(self):
        q = self.q
        self.generator = self._least_primitive()
        exp = [0] * (q - 1)
        log = [0] * q
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            acc = self._raw_mul(acc, self.generator)
        check(acc == 1, "primitive element table did not close")
        self._exp = exp
        self._log = log

    def _least_primitive(self) -> int:
        if self.q == 2:
            return 1
        primes = list(factorize(self.q - 1))
        for g in range(2, self.q):
            if all(self._raw_pow(g, (self.q - 1) // ell) != 1 for ell in primes):
                return g
        raise VerificationError("no primitive element found")

    @property
    def prime_field(self) -> GF:
        return self._prime or self

    # -- encoding -----------------------------------------------------------

    def digits(self, a: int) -> list[int]:
        """Base-p coefficient vector of a, constant term first, length f."""
        out = []
        for _ in range(self.f):
            a, d = divmod(a, self.p)
            out.append(d)
        return out

    def undigits(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + c % self.p
        return a

    def elements(self) -> range:
        return range(self.q)

    def _check(self, a: int):
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of GF({self.q})")

    # -- arithmetic ---------------------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        if self.f == 1:
            return a * b % self.p
        return self.undigits(poly_mulmod(self._prime, tuple(self.digits(a)),
                                         tuple(self.digits(b)), self.modulus))

    def _raw_pow(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._raw_mul(out, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return out

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if self.f == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        return self.undigits([x + y for x, y in
                              zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        self._check(a)
        if self.f == 1:
            return -a % self.p
        if self.p == 2:
            return a
        return self.undigits([-x for x in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF")
        return self._exp[-self._log[a] % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        self._check(a)
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero in GF")
            return 0 if e else 1
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def order(self, a: int) -> int:
        """Multiplicative order of a nonzero element."""
        self._check(a)
        if a == 0:
            raise ValueError("zero has no multiplicative order")
        d = self.q - 1
        for ell in factorize(d):
            while d % ell == 0 and self.pow(a, d // ell) == 1:
                d //= ell
        return d

    # -- distinguished elements ---------------------------------------------

    def unit_generators(self) -> UnitGenerators:
        """Split the unit group as <two_part> x <odd_part>.

        two_part = g**(odd part of q-1) generates the Sylow 2-subgroup,
        odd_part = g**(2-part of q-1) the complement, for the least
        primitive element g.  For even q the 2-part generator is 1.
        """
        m = self.q - 1
        two = m & -m if m else 1
        odd = m // two if m else 1
        return UnitGenerators(self.pow(self.generator, odd),
                              self.pow(self.generator, two))

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.f) == (other.p, other.f)

    def __hash__(self):
        return hash((self.p, self.f))


def make_field(q: int) -> GF:
    """GF(q) for a prime power q."""
    pf = prime_power(q)
    if pf is None:
        raise ValueError(f"q = {q} is not a prime power")
    return GF(*pf)


# -- polynomial arithmetic over GF(q) ----------------------------------------


def poly_trim(c) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(k: GF, a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly_trim([k.add(a[i] if i < len(a) else 0,
                            b[i] if i < len(b) else 0) for i in range(n)])


def poly_sub(k: GF, a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly_trim([k.sub(a[i] if i < len(a) else 0,
                            b[i] if i < len(b) else 0) for i in range(n)])


def poly_scale(k: GF, a: Poly, c: int) -> Poly:
    if c == 0:
        return ()
    return tuple(k.mul(c, x) for x in a)


def poly_mul(k: GF, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = k.add(out[i + j], k.mul(ai, bj))
    return poly_trim(out)


def poly_monic(k: GF, a: Poly) -> Poly:
    if not a or a[-1] == 1:
        return a
    inv = k.inv(a[-1])
    return tuple(k.mul(inv, c) for c in a)


def poly_divmod(k: GF, a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    quo = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = k.inv(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c:
            c = k.mul(c, inv_lead)
            quo[i] = c
            for j, bj in enumerate(b):
                if bj:
                    a[i + j] = k.sub(a[i + j], k.mul(c, bj))
    return poly_trim(quo), poly_trim(a)


def poly_gcd(k: GF, a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, poly_divmod(k, a, b)[1]
    return poly_monic(k, a)


def poly_mulmod(k: GF, a: Poly, b: Poly, m: Poly) -> Poly:
    return poly_divmod(k, poly_mul(k, a, b), m)[1]


def poly_powmod(k: GF, a: Poly, e: int, m: Poly) -> Poly:
    out: Poly = (1,)
    a = poly_divmod(k, a, m)[1]
    while e:
        if e & 1:
            out = poly_mulmod(k, out, a, m)
        a = poly_mulmod(k, a, a, m)
        e >>= 1
    return out


def _is_irreducible(k: GF, m: Poly) -> bool:
    """Rabin test: m of degree f is irreducible over the field k iff
    x**(q**f) = x mod m and gcd(x**(q**(f/l)) - x, m) = 1 for primes l | f."""
    f = len(m) - 1
    x: Poly = (0, 1)
    if poly_powmod(k, x, k.q**f, m) != poly_divmod(k, x, m)[1]:
        return False
    for ell in factorize(f):
        h = poly_powmod(k, x, k.q ** (f // ell), m)
        if len(poly_gcd(k, poly_sub(k, h, x), m)) != 1:
            return False
    return True
