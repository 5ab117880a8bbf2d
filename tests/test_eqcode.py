import itertools
import math
import random

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from patgraphs.atlas import seed_pgl2, seed_psl28_gamma
from patgraphs.cli import main
from patgraphs.construct import build_theta, conjugation_matrix
from patgraphs.eqcode import (
    Code,
    build_shift_matrix,
    charpoly,
    decompose_invariant,
    equidistant_code_pipeline,
    find_faithful_irreducible_code,
    irreducible_factors,
    is_regular_on_nonzero,
    is_regular_span,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_scalar,
    poly_order,
    rref,
    vec_mat,
    weight,
    weight_profile,
)
from patgraphs.gf import GF, _is_irreducible, make_field, poly_mul
from patgraphs.numth import VerificationError, validate_parameters

# every admissible q up to 47, the q of the benchmark's codes workload
CODES_QS = (3, 4, 7, 8, 11, 16, 19, 23, 27, 31, 43, 47)


def test_charpoly_against_sympy():
    rng = random.Random(7)
    lam = sympy.symbols("lambda")
    for p in (2, 3, 7):
        k = GF(p, 1)
        for n in (1, 2, 3, 5, 8):
            a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            got = list(charpoly(k, a)) + [0] * n
            want = [int(c) % p for c in
                    reversed(sympy.Poly(sympy.Matrix(a).charpoly(lam)).all_coeffs())]
            assert got[: n + 1] == want


def test_charpoly_companion_blocks():
    # char poly of a companion matrix is its defining polynomial, and
    # block sums multiply; this also exercises extension fields
    k = GF(2, 2)
    g = (2, 3, 1, 1)  # monic cubic over GF(4)
    h = (1, 2, 1)  # monic quadratic
    cp = charpoly(k, _companion_blocks(k, [g, h]))
    assert cp == poly_mul(k, g, h)


def _companion_blocks(k, polys):
    """Block-diagonal matrix of the companion matrices of monic polys."""
    n = sum(len(g) - 1 for g in polys)
    a = [[0] * n for _ in range(n)]
    off = 0
    for g in polys:
        d = len(g) - 1
        for i in range(d - 1):
            a[off + i + 1][off + i] = 1
        for i in range(d):
            a[off + i][off + d - 1] = k.neg(g[i])
        off += d
    return a


def test_factorization_roundtrip():
    rng = random.Random(3)
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3)]:
        k = GF(p, f)
        for _ in range(25):
            deg = rng.randrange(1, 9)
            g = tuple(rng.randrange(k.q) for _ in range(deg)) + (1,)
            factors = irreducible_factors(k, g)
            prod = (1,)
            for fac, m in factors:
                assert fac[-1] == 1
                for _ in range(m):
                    prod = poly_mul(k, prod, fac)
                # irreducible: no root unless degree 1, and gcd-based
                # test via re-factoring stays a single factor
                assert irreducible_factors(k, fac) == [(fac, 1)]
            assert prod == g


def _assert_factors_round_trip(k, g):
    prod = (1,)
    for fac, m in irreducible_factors(k, g):
        assert fac[-1] == 1 and _is_irreducible(k, fac)
        for _ in range(m):
            prod = poly_mul(k, prod, fac)
    assert prod == g


def test_factoring_shift_and_conjugation_charpolys():
    # the product of the factors is the input and each factor passes the
    # Rabin test, on shift charpolys over GF(q) and on the construct
    # conjugation charpolys over GF(2)
    for q in (16, 27, 47):
        k = make_field(q)
        cp = charpoly(k, build_shift_matrix(k).rows())
        _assert_factors_round_trip(k, cp)
    for q in (8, 16):
        seed = seed_pgl2(q)
        conj, prime = conjugation_matrix(seed, build_theta(seed))
        assert prime.q == 2
        _assert_factors_round_trip(prime, charpoly(prime, conj))


def _sympy_factors(p, g):
    """Monic factors of g over GF(p) with multiplicities, by sympy,
    canonically sorted as irreducible_factors sorts them."""
    x = sympy.symbols("x")
    _, factors = sympy.Poly(list(reversed(g)), x, modulus=p).factor_list()
    out = [(tuple(int(c) % p for c in reversed(f.all_coeffs())), m)
           for f, m in factors]
    return sorted(out, key=lambda fm: (len(fm[0]), fm[0]))


def test_factors_match_a_sympy_oracle():
    # Berlekamp's split against sympy's factor list, with multiplicities,
    # on shift charpolys over prime fields, on the degree-63 psl28-gamma
    # conjugation charpoly over GF(2), and on repeated factors:
    # (x+1)^3 (x^2+1)^2 over GF(3), and (x+1)^8 over GF(2), whose
    # derivative vanishes
    cases = []
    for q in (19, 43, 47):
        k = make_field(q)
        cases.append((k, charpoly(k, build_shift_matrix(k).rows())))
    seed = seed_psl28_gamma()
    conj, prime = conjugation_matrix(seed, build_theta(seed))
    cases.append((prime, charpoly(prime, [list(r) for r in conj])))
    k3, k2 = make_field(3), make_field(2)
    cubed = poly_mul(k3, poly_mul(k3, (1, 1), (1, 1)), (1, 1))
    squared = poly_mul(k3, (1, 0, 1), (1, 0, 1))
    cases.append((k3, poly_mul(k3, cubed, squared)))
    cases.append((k2, (1,) + (0,) * 7 + (1,)))
    assert [len(g) - 1 for _, g in cases] == [20, 44, 48, 63, 7, 8]
    assert irreducible_factors(k3, cases[4][1]) == [((1, 1), 3),
                                                    ((1, 0, 1), 2)]
    assert irreducible_factors(k2, cases[5][1]) == [((1, 1), 8)]
    for k, g in cases:
        assert k.f == 1
        assert irreducible_factors(k, g) == _sympy_factors(k.p, g)


def test_poly_order():
    k = GF(2, 1)
    assert poly_order(k, (1, 1)) == 1  # x + 1
    assert poly_order(k, (1, 1, 1)) == 3
    assert poly_order(k, (1, 1, 0, 0, 1)) == 15  # x**4 + x + 1 primitive
    assert poly_order(k, (1, 1, 1, 1, 1)) == 5
    k7 = GF(7, 1)
    with pytest.raises(ValueError):
        poly_order(k7, (0, 1))


def test_rref_and_code_basics():
    k = make_field(4)
    code = Code(k, 5, rref(k, [(1, 2, 3, 0, 1), (2, 3, 1, 0, 2),
                               (0, 1, 1, 1, 1)]))
    assert code.dim == 2
    assert all(code.contains(w) for w in code.codewords())
    assert not code.contains((1, 0, 0, 0, 0))
    assert sum(1 for _ in code.nonzero_codewords()) == 15
    assert rref(k, code.basis) == code.basis


def test_shift_matrix_identities():
    # order n(q-1) and the scalar power identity across the board
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 16):
        field = make_field(q)
        sm = build_shift_matrix(field)
        n = q + 1
        assert sm.order == n * (q - 1)
        eta, lam = field.unit_generators()
        scalar = field.mul(eta, field.mul(lam, lam))
        assert sm.power_scalar == scalar
        assert mat_pow(field, sm.rows(), n) == mat_scalar(n, scalar)
        assert field.order(scalar) == q - 1
        # diagonal shape: all entries eta*lambda except position 1
        assert sm.diag[1] == lam
        assert all(d == field.mul(eta, lam) for i, d in enumerate(sm.diag)
                   if i != 1)


def test_shift_matrix_q2_is_rotation():
    sm = build_shift_matrix(make_field(2))
    assert sm.order == 3
    assert sm.mat == ((0, 1, 0), (0, 0, 1), (1, 0, 0))


def test_shift_matrix_q4_power5_scalar():
    field = make_field(4)
    sm = build_shift_matrix(field)
    _, lam = field.unit_generators()
    lam2 = field.mul(lam, lam)
    assert mat_pow(field, sm.rows(), 5) == mat_scalar(5, lam2)


def test_decomposition_q7_frozen():
    dec = equidistant_code_pipeline(7).decomposition
    assert len(dec.components) == 4
    assert all(c.code.dim == 2 and c.faithful and c.order == 48
               for c in dec.components)


def test_decomposition_q4_frozen():
    dec = equidistant_code_pipeline(4).decomposition
    one_dim = [c for c in dec.components if c.code.dim == 1]
    assert len(one_dim) == 1
    assert one_dim[0].code.basis == ((1, 1, 1, 1, 1),)
    assert not one_dim[0].faithful and one_dim[0].kernel_order == 5
    two_dim = [c for c in dec.components if c.code.dim == 2]
    assert len(two_dim) == 2 and all(c.faithful for c in two_dim)


def test_identity_matrix_degenerate():
    k = make_field(3)
    dec = decompose_invariant(mat_identity(2), k)
    assert dec.degenerate and dec.order == 1
    assert [c.code.dim for c in dec.components] == [1, 1]
    assert all(c.kernel_order == 1 and c.faithful for c in dec.components)


def test_decompose_rejects_bad_matrices():
    k = make_field(3)
    with pytest.raises(ValueError):
        decompose_invariant([[0, 1], [0, 0]], k)  # singular
    with pytest.raises(ValueError):
        decompose_invariant([[1, 1], [0, 1]], k)  # order 3 = char
    # the companion matrix of f^2 is cyclic, so f = x^2 + 1 does not
    # kill its f-primary part
    f2 = poly_mul(k, (1, 0, 1), (1, 0, 1))
    with pytest.raises(ValueError, match="divisible by the characteristic"):
        decompose_invariant(_companion_blocks(k, [f2]), k)


def _sympy_kernel_rref(p, mat, f):
    """RREF of {x : x f(A) = 0} over GF(p), by sympy's DomainMatrix."""
    dom = sympy.GF(p)
    n = len(mat)
    a = DomainMatrix([[dom(x) for x in row] for row in mat], (n, n),
                     dom).to_sparse()
    eye = DomainMatrix.eye(n, dom).to_sparse()
    fa = eye * dom(f[-1])
    for c in reversed(f[:-1]):
        fa = fa * a + eye * dom(c)
    red, _ = fa.transpose().nullspace().rref()
    return tuple(tuple(int(x) % p for x in row)
                 for row in red.to_Matrix().tolist())


def test_components_match_a_sympy_kernel_oracle():
    # every charpoly here is squarefree, so each component is the whole
    # kernel of f(A) for its factor f: the prime-q shift matrices of the
    # codes workload and the construct conjugation matrices over GF(p)
    cases = []
    for q in CODES_QS:
        k = make_field(q)
        if k.f == 1:
            cases.append((k, build_shift_matrix(k).rows()))
    for q in (4, 7, 8, 11):
        seed = seed_pgl2(q)
        conj, prime = conjugation_matrix(seed, build_theta(seed))
        cases.append((prime, conj))
    assert len(cases) == 12
    for k, mat in cases:
        dec = decompose_invariant(mat, k)
        factors = [c.factor for c in dec.components]
        assert len(set(factors)) == len(factors)
        for c in dec.components:
            assert c.code.basis == _sympy_kernel_rref(k.p, mat, c.factor)


def test_repeated_irreducible_splits_into_components():
    # x^2 + 1 is irreducible over GF(3), of order 4; two companion blocks
    # of it give one component per block, and a conjugate of them two
    # invariant components that sum directly
    k = make_field(3)
    f = (1, 0, 1)
    a = _companion_blocks(k, [f, f])
    dec = decompose_invariant(a, k)
    assert [c.code.basis for c in dec.components] == [
        ((0, 0, 1, 0), (0, 0, 0, 1)), ((1, 0, 0, 0), (0, 1, 0, 0))]
    assert all(c.factor == f and c.order == 4 for c in dec.components)
    s = [[1, 2, 0, 1], [0, 1, 1, 2], [2, 0, 1, 0], [1, 1, 1, 1]]
    conj = mat_mul(k, mat_mul(k, _invert(k, s), a), s)
    dec = decompose_invariant(conj, k)
    assert [(c.factor, c.code.dim) for c in dec.components] == [(f, 2)] * 2
    for c in dec.components:
        assert all(c.code.contains(vec_mat(k, row, conj))
                   for row in c.code.basis)


def test_primary_part_found_past_the_first_unit_vector():
    # diag(1, 2) over GF(3): for the factor x - 2 = x + 1, h = x - 1
    # kills e_0, so the component comes from e_1
    k = make_field(3)
    dec = decompose_invariant([[1, 0], [0, 2]], k)
    assert [(c.factor, c.code.basis) for c in dec.components] == [
        ((1, 1), ((0, 1),)), ((2, 1), ((1, 0),))]


def test_codes_for_named_q():
    for q, n_words in [(4, 15), (7, 48), (8, 63)]:
        res = equidistant_code_pipeline(q)
        code = res.code
        assert code.dim == 2 and code.n == q + 1
        wp = weight_profile(code)
        assert wp == {q: n_words}
        assert is_regular_on_nonzero(code, res.shift)


def test_codes_sweep_all_valid_q(capsys):
    # every admissible q <= 64: equidistant of weight exactly q, meeting
    # the Singleton bound, with pairwise distinct coordinate kernels; the
    # shift order n * ord(c) is the one decompose_invariant proves from
    # the factor orders, and the profile edc reads off the regular orbit
    # is the one enumerating the codewords gives
    for q in CODES_QS:
        assert validate_parameters(q).valid
        res = equidistant_code_pipeline(q)
        assert res.shift.order == res.decomposition.order
        wp = weight_profile(res.code)
        assert wp == {q: q * q - 1}
        assert main(["edc", "--q", str(q)]) == 0
        assert (f"weights of the {q * q - 1} nonzero codewords: {wp}\n"
                in capsys.readouterr().out)
        assert max(wp) == res.code.n - res.code.dim + 1  # Singleton equality
        # the kernel of coordinate i: the codewords vanishing there
        words = [tuple(w) for w in res.code.codewords()]
        kers = [frozenset(w for w in words if not w[i])
                for i in range(res.code.n)]
        assert all(len(kern) == q for kern in kers)  # 1-dimensional
        assert len(set(kers)) == res.code.n
        assert is_regular_on_nonzero(res.code, res.shift)


def test_regularity_needs_an_invariant_span():
    k = make_field(4)
    shift = build_shift_matrix(k)
    code = Code(k, 5, rref(k, [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0)]))
    with pytest.raises(VerificationError):
        is_regular_on_nonzero(code, shift)


def test_regularity_false_on_non_regular_invariant_spans():
    k = make_field(3)
    assert not is_regular_span(k, rref(k, mat_identity(2)), mat_identity(2))
    # q = 8: one 2-dimensional component has kernel order 3, so its
    # 63 nonzero vectors fall into three orbits of 21
    res = equidistant_code_pipeline(8)
    unfaithful = [c for c in res.decomposition.components
                  if c.code.dim == 2 and not c.faithful]
    assert len(unfaithful) == 1 and unfaithful[0].order == 21
    assert not is_regular_on_nonzero(unfaithful[0].code, res.shift)
    faithful = [c for c in res.decomposition.components if c.faithful]
    assert all(is_regular_on_nonzero(c.code, res.shift) for c in faithful)


def _regular_by_walk(k, r):
    """Walk e_0 under r: regular when all q**dim - 1 orbit vectors are
    distinct and every one of them is nonzero."""
    v = (1,) + (0,) * (len(r) - 1)
    seen = set()
    while any(v) and v not in seen:
        seen.add(v)
        v = vec_mat(k, v, r)
    return any(v) and len(seen) == k.q ** len(r) - 1


def test_regularity_from_order_matches_a_nonzero_walk():
    # every 1x1 and 2x2 matrix over GF(2), GF(3), GF(4) and GF(5), on
    # the full span: a restriction with the factor x is never regular,
    # and never reaches poly_order, which rejects g(0) = 0
    cases = 0
    for q in (2, 3, 4, 5):
        k = make_field(q)
        for dim in (1, 2):
            basis = rref(k, mat_identity(dim))
            for entries in itertools.product(range(q), repeat=dim * dim):
                r = [list(entries[i * dim:(i + 1) * dim])
                     for i in range(dim)]
                assert is_regular_span(k, basis, r) == _regular_by_walk(k, r)
                cases += 1
    assert cases == 992
    # an orbit that runs into 0 once counted it as a nonzero vector
    k2 = make_field(2)
    for r in ([[0, 1], [0, 0]], [[1, 1], [1, 1]], [[0]]):
        assert not is_regular_span(k2, rref(k2, mat_identity(len(r))), r)
    assert not is_regular_span(make_field(3), ((1,),), [[0]])


def test_find_faithful_rejects_invalid_q():
    with pytest.raises(ValueError):
        find_faithful_irreducible_code(5)
    with pytest.raises(ValueError):
        find_faithful_irreducible_code(2)


def test_brute_force_oracle_q4():
    # independent route: spin every nonzero vector of F_4**5 under the
    # shift, keep the 2-dimensional invariant subspaces, and filter the
    # irreducible faithful ones directly
    field = make_field(4)
    sm = build_shift_matrix(field)
    a = sm.rows()
    found = set()
    for enc in range(1, 4**5):
        v, t = [], enc
        for _ in range(5):
            t, d = divmod(t, 4)
            v.append(d)
        chain = [tuple(v)]
        w = chain[0]
        while True:
            w = vec_mat(field, w, a)
            if len(rref(field, chain + [w])) == len(rref(field, chain)):
                break
            chain.append(w)
        basis = rref(field, chain)
        if len(basis) != 2:
            continue
        # irreducible iff no invariant line inside
        code = Code(field, len(basis[0]), basis)
        if any(rref(field, [w, vec_mat(field, w, a)]) == rref(field, [w])
               for w in code.nonzero_codewords()):
            continue
        # faithful iff the restricted shift has the full order 15, read
        # off as the lcm of the orbit lengths on nonzero codewords
        o = 1
        for w in code.nonzero_codewords():
            steps, x = 1, vec_mat(field, w, a)
            while x != w:
                x = vec_mat(field, x, a)
                steps += 1
            o = math.lcm(o, steps)
        if o == 15:
            found.add(basis)
    dec = equidistant_code_pipeline(4).decomposition
    reported = {c.code.basis for c in dec.components
                if c.code.dim == 2 and c.faithful}
    assert found == reported
    assert len(found) == 2


def test_random_semisimple_reconstruction():
    # build block-diagonal semisimple matrices from random distinct
    # irreducibles, conjugate by a random invertible matrix, and check
    # the decomposition recovers the dimensions exactly
    rng = random.Random(11)
    for p in (2, 3, 7):
        k = GF(p, 1)
        for _ in range(6):
            polys: list = []
            dim = 0
            while dim < 12:
                deg = rng.randrange(1, 5)
                cand = tuple(rng.randrange(k.q) for _ in range(deg)) + (1,)
                if cand[0] == 0:
                    continue
                factors = irreducible_factors(k, cand)
                f0 = factors[0][0]
                if len(f0) == 1 or f0 in polys or f0[0] == 0:
                    continue
                polys.append(f0)
                dim += len(f0) - 1
            n = dim
            a = _companion_blocks(k, polys)
            while True:
                s = [[rng.randrange(k.q) for _ in range(n)] for _ in range(n)]
                if len(rref(k, s)) == n:
                    break
            sinv = _invert(k, s)
            conj = mat_mul(k, mat_mul(k, sinv, a), s)
            dec = decompose_invariant(conj, k)
            assert sorted(len(f) - 1 for f in polys) == \
                sorted(c.code.dim for c in dec.components)
            assert sorted(f for f in polys) == \
                sorted(c.factor for c in dec.components)


def _invert(k, m):
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(m)]
    red = rref(k, aug)
    assert len(red) == n
    return [list(row[n:]) for row in red]


def test_weight_helper():
    assert weight((0, 1, 0, 2, 3)) == 3
    assert weight(()) == 0
