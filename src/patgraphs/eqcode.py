"""Equidistant two-dimensional codes cut out of a twisted shift matrix.

Vectors are int sequences and matrices lists of rows, acting on the
right (an invariant C has C * A <= C); the decomposition factors the
charpoly by Berlekamp's algorithm, which is deterministic, and spins,
for each factor, combinations of one shared set of Krylov rows
e_j A**i.  The shift A is a weighted n-cycle with
A**n = c * I, so its order is n * ord(c); A is monomial, so a regular
orbit on nonzero codewords gives them the weight of basis[0], and an
irreducible restriction is regular exactly when its charpoly is
primitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gf import (
    GF,
    Poly,
    _is_irreducible,
    poly_divmod,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_mulmod,
    poly_powmod,
    poly_scale,
    poly_sub,
    poly_trim,
)
from .numth import VerificationError, check, factorize, validate_parameters

Vec = tuple[int, ...]
Mat = list[list[int]]

# -- factoring over GF(q) ----------------------------------------------------


def poly_deriv(k: GF, a: Poly) -> Poly:
    # i * a[i], where the integer i mod p encodes the field element i * 1
    mul = k.mul_table
    return poly_trim([mul[i % k.p][c] for i, c in enumerate(a)][1:])


def _pth_root(k: GF, a: Poly) -> Poly:
    """p-th root of a polynomial with zero derivative (all exponents
    divisible by p); coefficientwise inverse Frobenius."""
    out = []
    for i in range(0, len(a), k.p):
        out.append(k.pow(a[i], k.q // k.p) if a[i] else 0)
    check(all(c == 0 for i, c in enumerate(a) if i % k.p), "not a p-th power")
    return poly_trim(out)


def poly_radical(k: GF, g: Poly) -> Poly:
    """Product of the distinct monic irreducible factors of g."""
    g = poly_monic(k, g)
    if len(g) <= 1:
        return (1,)
    dg = poly_deriv(k, g)
    if not dg:
        return poly_radical(k, _pth_root(k, g))
    u = poly_gcd(k, g, dg)
    v = poly_divmod(k, g, u)[0]  # factors whose multiplicity p does not divide
    w = u
    while True:
        d = poly_gcd(k, w, v)
        if len(d) <= 1:
            break
        w = poly_divmod(k, w, d)[0]
    if len(w) <= 1:
        return poly_monic(k, v)
    return poly_mul(k, poly_monic(k, v), poly_radical(k, w))


def _berlekamp(k: GF, g: Poly) -> list[Poly]:
    """The monic irreducible factors of a monic squarefree g of degree n
    (Berlekamp 1967).  The v of degree below n with v**q = v mod g are
    the left kernel of Q - I, Q having the rows x**(q*i) mod g, and its
    dimension is the number of irreducible factors; every factor f is the
    product of gcd(f, v - s) over s in GF(q), and a kernel basis parts
    any two irreducible factors, so its vectors split g completely."""
    n = len(g) - 1
    h = poly_powmod(k, (0, 1), k.q, g)
    powers: list[Poly] = [(1,)]
    for _ in range(n - 1):
        powers.append(poly_mulmod(k, powers[-1], h, g))
    rows = []
    for i, power in enumerate(powers):
        row = list(power) + [0] * (n - len(power))
        row[i] = k.sub(row[i], 1)
        rows.append(row + [int(i == j) for j in range(n)])
    # the identity part of each reduced row of [Q - I | I] whose Q - I
    # part is zero: together a basis of the left kernel
    kernel = [poly_trim(r[n:]) for r in rref(k, rows) if not any(r[:n])]
    factors = [g]
    for v in kernel:
        if len(factors) == len(kernel):
            break
        split = []
        for f in factors:
            w = poly_divmod(k, v, f)[1]
            if len(w) <= 1:
                split.append(f)
                continue
            for s in range(k.q):
                d = poly_gcd(k, f, poly_sub(k, w, (s,)))
                if len(d) > 1:
                    split.append(d)
        factors = split
    check(len(factors) == len(kernel),
          "Berlekamp split disagrees with the kernel dimension")
    return factors


def irreducible_factors(k: GF, g: Poly) -> list[tuple[Poly, int]]:
    """Monic irreducible factors with multiplicities, canonically sorted."""
    g = poly_monic(k, poly_trim(g))
    if len(g) <= 1:
        raise ValueError("cannot factor a constant polynomial")
    radical = poly_radical(k, g)
    repeated = poly_divmod(k, g, radical)[0]  # 1 when g is squarefree
    out = []
    for f in sorted(_berlekamp(k, radical), key=lambda f: (len(f), f)):
        m = 1
        rest = repeated
        while True:
            quo, rem = poly_divmod(k, rest, f)
            if rem:
                break
            m += 1
            rest = quo
        out.append((f, m))
    check(sum((len(f) - 1) * m for f, m in out) == len(g) - 1,
          "factor degrees do not add up to the degree")
    return out


def poly_order(k: GF, g: Poly) -> int:
    """Least e with g | x**e - 1, for irreducible g with g(0) != 0."""
    if not g or g[0] == 0:
        raise ValueError("polynomial order needs a nonzero constant term")
    d = len(g) - 1
    e = k.q**d - 1
    for ell in factorize(e):
        while e % ell == 0 and poly_powmod(k, (0, 1), e // ell, g) == (1,):
            e //= ell
    return e


# -- matrices over GF(q) ------------------------------------------------------


def mat_identity(n: int) -> Mat:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_scalar(n: int, c: int) -> Mat:
    return [[c if i == j else 0 for j in range(n)] for i in range(n)]


def _check_entries(k: GF, rows):
    """Reject an entry outside [0, q) before any table lookup, where a
    negative one would index a table from its end."""
    q = k.q
    if not all(0 <= x < q for row in rows for x in row):
        raise ValueError(f"an entry is not an element of GF({q})")


def _combine(k: GF, v, rows) -> list[int]:
    """The linear combination sum of v[j] * rows[j]."""
    add, mul = k.add_table, k.mul_table
    acc = [0] * len(rows[0])
    for c, row in zip(v, rows):
        if c:
            m = mul[c]
            acc = [add[x][m[y]] for x, y in zip(acc, row)]
    return acc


def mat_mul(k: GF, a: Mat, b: Mat) -> Mat:
    return [_combine(k, row, b) for row in a]


def vec_mat(k: GF, v, a: Mat) -> Vec:
    return tuple(_combine(k, v, a))


def mat_pow(k: GF, a: Mat, e: int) -> Mat:
    out = mat_identity(len(a))
    while e:
        if e & 1:
            out = mat_mul(k, out, a)
        a = mat_mul(k, a, a)
        e >>= 1
    return out


def rref(k: GF, rows) -> tuple[Vec, ...]:
    """Reduced row echelon form; returns the nonzero rows, pivots 1."""
    rows = [list(r) for r in rows]
    _check_entries(k, rows)
    if not rows:
        return ()
    add, mul, neg = k.add_table, k.mul_table, k.neg_table
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        m = mul[k.inv(rows[rank][col])]
        prow = rows[rank] = [m[c] for c in rows[rank]]
        for i, row in enumerate(rows):
            c = row[col]
            if c and i != rank:
                m = mul[neg[c]]
                rows[i] = [add[x][m[y]] for x, y in zip(row, prow)]
        rank += 1
        if rank == len(rows):
            break
    return tuple(tuple(r) for r in rows[:rank] if any(r))


def vec_reduce(k: GF, v, basis) -> Vec:
    """Reduce v against RREF basis rows; zero result means membership."""
    add, mul, neg = k.add_table, k.mul_table, k.neg_table
    v = list(v)
    for row in basis:
        piv = next(j for j, c in enumerate(row) if c)
        if v[piv]:
            m = mul[neg[v[piv]]]
            v = [add[x][m[y]] for x, y in zip(v, row)]
    return tuple(v)


def charpoly(k: GF, a: Mat) -> Poly:
    """Characteristic polynomial via Hessenberg reduction."""
    n = len(a)
    h = [list(row) for row in a]
    _check_entries(k, h)
    add, mul, neg = k.add_table, k.mul_table, k.neg_table
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        inv = mul[k.inv(h[m][m - 1])]
        for i in range(m + 1, n):
            if h[i][m - 1]:
                u = inv[h[i][m - 1]]
                mu = mul[neg[u]]
                h[i] = [add[x][mu[y]] for x, y in zip(h[i], h[m])]
                mu = mul[u]
                for row in h:
                    row[m] = add[row[m]][mu[row[i]]]
    polys: list[Poly] = [(1,)]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        pm = poly_sub(k, (0,) + prev, poly_scale(k, prev, h[m - 1][m - 1]))
        prod = 1
        for i in range(m - 2, -1, -1):
            prod = mul[prod][h[i + 1][i]]
            if prod == 0:
                break
            coef = mul[h[i][m - 1]][prod]
            if coef:
                pm = poly_sub(k, pm, poly_scale(k, polys[i], coef))
        polys.append(pm)
    cp = polys[n]
    check(len(cp) == n + 1, "characteristic polynomial has the wrong degree")
    return cp


# -- codes and the shift matrix ----------------------------------------------


@dataclass(frozen=True)
class Code:
    """A linear code given by its canonical RREF basis."""

    field: GF
    n: int
    basis: tuple[Vec, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v) -> bool:
        return not any(vec_reduce(self.field, v, self.basis))

    def codewords(self):
        """All q**dim codewords, scanned in coefficient order."""
        k = self.field
        coeffs = [0] * self.dim
        for idx in range(k.q**self.dim):
            t = idx
            for i in range(self.dim):
                t, coeffs[i] = divmod(t, k.q)
            yield (tuple(_combine(k, coeffs, self.basis)) if self.basis
                   else (0,) * self.n)

    def nonzero_codewords(self):
        for w in self.codewords():
            if any(w):
                yield w


def weight(v) -> int:
    return sum(1 for c in v if c)


def weight_profile(code: Code) -> dict[int, int]:
    out: dict[int, int] = {}
    for w in code.nonzero_codewords():
        wt = weight(w)
        out[wt] = out.get(wt, 0) + 1
    return out


@dataclass(frozen=True)
class ShiftMatrix:
    """The twisted cyclic shift acting on F_q**n, n = q + 1."""

    field: GF
    n: int
    diag: tuple[int, ...]
    mat: tuple[Vec, ...]
    order: int
    power_scalar: int  # mat**n is this scalar

    def rows(self) -> Mat:
        return [list(r) for r in self.mat]


def build_shift_matrix(field: GF) -> ShiftMatrix:
    """Diagonal-times-rotation matrix A whose n-th power is the scalar
    c = eta * lambda**2.  A is an n-cycle with nonzero weights, so A**k
    has a zero diagonal for 0 < k < n and its order is n * ord(c)."""
    q = field.q
    n = q + 1
    eta, lam = field.unit_generators()
    etalam = field.mul(eta, lam)
    diag = [etalam] * n
    diag[1] = lam
    check(all(diag), "shift matrix has a zero weight")
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][(i + 1) % n] = diag[i]
    scalar = field.mul(eta, field.mul(lam, lam))
    check(mat_pow(field, a, n) == mat_scalar(n, scalar),
          "shift matrix power identity failed")
    order = n * field.order(scalar)
    check(order == n * (q - 1),
          f"shift matrix order {order} != n(q-1) = {n * (q - 1)}")
    return ShiftMatrix(field, n, tuple(diag), tuple(tuple(r) for r in a),
                       order, scalar)


# -- invariant decomposition ---------------------------------------------------


@dataclass(frozen=True)
class Component:
    code: Code
    factor: Poly
    order: int  # order of the restricted action
    kernel_order: int
    faithful: bool


@dataclass(frozen=True)
class InvariantDecomposition:
    field: GF
    order: int  # order of the full matrix
    components: tuple[Component, ...]
    degenerate: bool
    change_of_basis: tuple[Vec, ...]  # stacked component bases, invertible


def decompose_invariant(mat, field: GF) -> InvariantDecomposition:
    """Split F_q**n into minimal invariant subspaces of a semisimple matrix.

    For a factor f**m of the charpoly chi, the f-primary part is the
    image of h(A), h = chi / f**m (Hoffman and Kunze 1971, ch. 7): it is
    spanned by the rows e_j h(A), combinations of the Krylov rows
    e_j A**i, which are computed once per j and shared by every factor.
    Each such w outside the span found so far spins to a component w,
    wA, ..., wA**(d-1), d = deg f, whose RREF is its canonical basis.

    Raises ValueError when the matrix is singular or its multiplicative
    order is divisible by the characteristic (both mean non-semisimple
    input, which the spinning construction does not cover): the latter
    shows as a w with wA**d outside its spin, that is w f(A) != 0.
    """
    a = [list(r) for r in mat]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    _check_entries(field, a)
    cp = charpoly(field, a)
    factors = irreducible_factors(field, cp)
    if any(f == (0, 1) for f, _ in factors):
        raise ValueError("matrix is singular; no finite order")
    full_order = 1
    orders = {}
    for f, _ in factors:
        orders[f] = poly_order(field, f)
        full_order = full_order * orders[f] // math.gcd(full_order, orders[f])
    # rows e_j A**i for i <= deg h, the longest h of any factor
    depth = n - min((len(f) - 1) * m for f, m in factors) + 1
    krylov: dict[int, list[list[int]]] = {}
    components = []
    for f, mult in factors:
        d = len(f) - 1
        h = cp
        for _ in range(mult):
            h = poly_divmod(field, h, f)[0]
        span: tuple[Vec, ...] = ()
        for j in range(n):
            if len(span) == d * mult:
                break
            if j not in krylov:
                chain = [[int(i == j) for i in range(n)]]
                while len(chain) < depth:
                    chain.append(_combine(field, chain[-1], a))
                krylov[j] = chain
            w = _combine(field, h, krylov[j])
            if not any(vec_reduce(field, w, span)):
                continue
            rows = [w]
            for _ in range(d - 1):
                rows.append(_combine(field, rows[-1], a))
            basis = rref(field, rows)
            check(len(basis) == d, "cyclic vector spun to the wrong dimension")
            if any(vec_reduce(field, _combine(field, rows[-1], a), basis)):
                raise ValueError(
                    "matrix order divisible by the characteristic "
                    f"(the {f}-primary part is not killed by {f})")
            ko = full_order // orders[f]
            components.append(Component(Code(field, n, basis), f,
                                        orders[f], ko, ko == 1))
            span = rref(field, span + basis)
        check(len(span) == d * mult,
              f"the {f}-primary part has dimension {len(span)}, "
              f"not {d * mult}")
    components.sort(key=lambda c: c.code.basis)
    cob = [list(r) for c in components for r in c.code.basis]
    check(len(cob) == n and len(rref(field, cob)) == n,
          "components do not sum directly to the full space")
    return InvariantDecomposition(field, full_order, tuple(components),
                                  full_order == 1,
                                  tuple(tuple(r) for r in cob))


# -- the code-finding driver ---------------------------------------------------


@dataclass(frozen=True)
class EqcodeResult:
    field: GF
    shift: ShiftMatrix
    decomposition: InvariantDecomposition
    code: Code


def equidistant_code_pipeline(q: int) -> EqcodeResult:
    """Build the shift matrix for q, decompose, and pick the canonical
    faithful two-dimensional component."""
    ps = validate_parameters(q)
    if not ps.valid:
        raise ValueError(f"q = {q}: {ps.violation}")
    field = GF(ps.p, ps.f)
    shift = build_shift_matrix(field)
    dec = decompose_invariant(shift.rows(), field)
    for comp in dec.components:
        if comp.faithful and comp.code.dim == 2:
            return EqcodeResult(field, shift, dec, comp.code)
    raise VerificationError(
        f"no faithful 2-dimensional component for q = {q}")


def find_faithful_irreducible_code(q: int) -> Code:
    return equidistant_code_pipeline(q).code


def is_regular_on_nonzero(code: Code, shift: ShiftMatrix) -> bool:
    """True when the shift powers sweep out every nonzero codeword from
    the first basis vector, i.e. the cyclic action is regular."""
    return is_regular_span(code.field, code.basis, shift.mat)


def is_regular_span(k: GF, basis, mat) -> bool:
    """True when the powers of mat sweep out every nonzero vector of the
    span of an RREF basis from its first row.

    The span must be invariant, else VerificationError: each basis row's
    image lies in the span, which by linearity is the whole check.  The
    restriction R, read off the pivot columns, is then regular on the
    nonzero vectors exactly when its charpoly g is irreducible of degree
    dim and of order q**dim - 1: R then acts as multiplication by a
    primitive root of g in GF(q**dim), while a reducible g leaves a
    proper invariant subspace, and an irreducible g of smaller order an
    orbit of that size (Lidl and Niederreiter 1997, Thm 3.3).
    """
    _check_entries(k, basis)
    _check_entries(k, mat)
    pivots = [next(j for j, c in enumerate(row) if c) for row in basis]
    check(all(row[j] == (r == s) for r, row in enumerate(basis)
              for s, j in enumerate(pivots)), "basis is not in RREF")
    restricted = []
    for row in basis:
        img = vec_mat(k, row, mat)
        check(not any(vec_reduce(k, img, basis)),
              "span is not invariant under the matrix")
        restricted.append([img[j] for j in pivots])
    if not basis:
        return False
    g = charpoly(k, restricted)
    # g = x is singular: R sends a nonzero vector to 0
    return (g != (0, 1) and _is_irreducible(k, g)
            and poly_order(k, g) == k.q ** len(basis) - 1)
