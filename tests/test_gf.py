import random

import pytest

from patgraphs.gf import GF, make_field, poly_add, poly_mul, poly_mulmod, poly_sub

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1),
          (13, 1), (2, 4), (5, 2), (3, 3), (2, 5), (7, 2), (2, 6), (3, 4),
          (11, 2), (2, 7), (5, 3), (2, 8), (23, 1), (3, 5), (2, 9), (31, 1),
          (2, 10), (3, 6), (5, 4), (7, 3), (47, 1)]


def test_moduli_frozen():
    # x**2 + x + 1 is the first irreducible quadratic in the digit order
    assert GF(2, 2).modulus == (1, 1, 1)
    assert GF(7, 1).modulus == (0, 1)
    # GF(8): candidates x**3, x**3+1, ..., first irreducible is x**3 + x + 1
    assert GF(2, 3).modulus == (1, 1, 0, 1)
    assert GF(3, 2).modulus == (1, 0, 1)  # x**2 + 1 irreducible mod 3


def test_modulus_is_irreducible_by_brute_force():
    for p, f in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]:
        k = GF(p, f)
        m = k.modulus
        assert len(m) == f + 1 and m[-1] == 1
        # no roots, and no product of two lower-degree monics equals m
        def val(poly, x):
            acc = 0
            for c in reversed(poly):
                acc = (acc * x + c) % p
            return acc
        assert all(val(m, x) != 0 for x in range(p))
        if f == 4:
            quads = [(c0, c1, 1) for c0 in range(p) for c1 in range(p)
                     if all(val((c0, c1, 1), x) != 0 for x in range(p))]
            prime = GF(p, 1)
            assert all(poly_mul(prime, u, v) != m
                       for u in quads for v in quads)


def test_field_axioms_random_triples():
    rng = random.Random(0)
    for p, f in FIELDS:
        k = GF(p, f)
        q = k.q
        for _ in range(40):
            a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
            assert k.add(a, b) == k.add(b, a)
            assert k.mul(a, b) == k.mul(b, a)
            assert k.add(k.add(a, b), c) == k.add(a, k.add(b, c))
            assert k.mul(k.mul(a, b), c) == k.mul(a, k.mul(b, c))
            assert k.mul(a, k.add(b, c)) == k.add(k.mul(a, b), k.mul(a, c))
            assert k.add(a, 0) == a and k.mul(a, 1) == a
            assert k.add(a, k.neg(a)) == 0
            if a:
                assert k.mul(a, k.inv(a)) == 1
        # frobenius is additive
        for _ in range(20):
            a, b = rng.randrange(q), rng.randrange(q)
            assert k.pow(k.add(a, b), p) == k.add(k.pow(a, p), k.pow(b, p))


def test_pow_and_order():
    k = GF(3, 4)
    rng = random.Random(1)
    for _ in range(30):
        a = rng.randrange(1, k.q)
        d = k.order(a)
        assert k.pow(a, d) == 1
        assert (k.q - 1) % d == 0
        for ell in {2, 5}:  # prime divisors of 80
            if d % ell == 0:
                assert k.pow(a, d // ell) != 1


def test_unit_generators_frozen():
    # GF(7): least primitive element 3, eta = 3**3 = 6, lambda = 3**2 = 2
    k = GF(7, 1)
    assert k.generator == 3
    eta, lam = k.unit_generators()
    assert (eta, lam) == (6, 2)
    assert k.order(eta) == 2 and k.order(lam) == 3

    # GF(4): q - 1 odd, so the 2-part generator collapses to 1
    k4 = GF(2, 2)
    eta4, lam4 = k4.unit_generators()
    assert eta4 == 1 and k4.order(lam4) == 3

    k11 = GF(11, 1)
    eta11, lam11 = k11.unit_generators()
    assert (eta11, lam11) == (10, 4)


def test_unit_generators_properties():
    for p, f in FIELDS:
        k = GF(p, f)
        eta, lam = k.unit_generators()
        two = (k.q - 1) & -(k.q - 1) if k.q > 2 else 1
        if k.q == 2:
            assert eta == 1 and lam == 1
            continue
        assert (k.order(eta) if eta != 1 else 1) == two
        assert k.order(lam) == (k.q - 1) // two if lam != 1 else two == k.q - 1
        assert (eta == 1) == (k.p == 2)
        # eta*lam and eta*lam**2 both generate the full unit group
        el = k.mul(eta, lam)
        el2 = k.mul(eta, k.mul(lam, lam))
        assert k.order(el) == k.q - 1
        assert k.order(el2) == k.q - 1
        if k.p != 2:
            half = (k.q - 1) // 2
            minus_one = k.neg(1)
            assert k.pow(el, half) == minus_one
            assert k.pow(el2, half) == minus_one


def test_digit_encoding_roundtrip():
    k = GF(5, 3)
    for a in range(k.q):
        assert k.undigits(k.digits(a)) == a
    assert k.digits(7) == [2, 1, 0]  # 7 = 2 + 1*5


def test_make_field_and_errors():
    assert make_field(49).modulus == GF(7, 2).modulus
    with pytest.raises(ValueError):
        make_field(12)
    with pytest.raises(ValueError):
        GF(4, 2)
    k = GF(3, 1)
    with pytest.raises(ValueError):
        k.add(3, 0)
    with pytest.raises(ZeroDivisionError):
        k.inv(0)


def test_odd_composite_fields_match_digit_polynomials():
    # every ordered pair, in prime, binary and odd composite fields: the
    # add, mul and neg tables and the methods that read them, against
    # digit-polynomial arithmetic over GF(p)
    for q in (3, 47, 4, 8, 16, 9, 25, 27, 49, 81, 125):
        k = make_field(q)
        prime = k.prime_field
        polys = [tuple(k.digits(a)) for a in range(q)]
        assert [len(k.add_table), len(k.mul_table)] == [q, q]
        for a in range(q):
            neg = k.undigits(poly_sub(prime, (), polys[a]))
            assert k.neg_table[a] == k.neg(a) == neg
            assert k.add_table[a].count(0) == 1
            for b in range(q):
                u, v = polys[a], polys[b]
                assert k.add_table[a][b] == k.add(a, b) == k.undigits(
                    poly_add(prime, u, v))
                assert k.sub(a, b) == k.undigits(poly_sub(prime, u, v))
                assert k.mul_table[a][b] == k.mul(a, b) == k.undigits(
                    poly_mulmod(prime, u, v, k.modulus))


def test_operands_out_of_range_raise():
    # a negative operand would otherwise index the tables from the end
    for q in (3, 8, 9, 25, 27, 49, 81, 125):
        k = make_field(q)
        for bad in (-1, q):
            for op in (k.add, k.sub, k.mul):
                with pytest.raises(ValueError):
                    op(bad, 1)
                with pytest.raises(ValueError):
                    op(1, bad)
            with pytest.raises(ValueError):
                k.neg(bad)
