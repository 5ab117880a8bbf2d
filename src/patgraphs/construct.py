"""Wreath-product constructions twisted by a shifted tuple.

The central objects: a twisting element theta = d0*tau inside X wr C_n,
the elementary abelian subgroup E cut out of F^n by the invariant
decomposition of theta's measured conjugation matrix, the point
stabilizer H = E:<theta>, the full group G = T^n<theta>, and the
bipartite variant G = G*:<o> with H = <a>:<b, tau>.  permgrp.affine_group
is the one proof that both H are affine: it proves every premise from
the permutations, and their orders |V| |C| come from that proof, with
no chain of H.  An element of X wr C_n is a plain permutation of the n*d
points of its imprimitive action, built by `wreath` and multiplied like
any other, and its component at block i is read back from the slice
perm[i*d:(i+1)*d].  Everything is verified as it is built, except the
facts about T^n meet H: graphcert derives that group once, and certify
checks what it must be.  E is never listed: its coordinate kernels are
read from the code's witness over GF(p).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from math import gcd

from .atlas import AlmostSimpleSeed, seed_pgl2, seed_symmetric
from .eqcode import (
    Code,
    InvariantDecomposition,
    build_shift_matrix,
    charpoly,
    decompose_invariant,
    rref,
)
from .gf import GF
from .numth import VerificationError, check
from .permgrp import (
    AffineGroup,
    DirectPower,
    Perm,
    PermGroup,
    affine_group,
    pconj,
    pid,
    pinv,
    pmul,
    porder,
    ppow,
    same_double_coset,
    socle_group,
)

# -- elements of X wr C_n ------------------------------------------------


def wreath(components, shift: int, d: int) -> Perm:
    """The element (x_0, ..., x_{n-1})*tau^shift of X wr C_n in its
    action on n*d points: x_i carries block i to block i + shift."""
    n = len(components)
    img = []
    for i, comp in enumerate(components):
        off = ((i + shift) % n) * d
        img.extend(off + y for y in comp)
    return tuple(img)


def _wreath_parts(perm: Perm, d: int) -> tuple[tuple[Perm, ...], int]:
    """The components and shift of a wreath element, the shift read from
    the block that point 0 lands in."""
    n = len(perm) // d
    shift = perm[0] // d
    comps = tuple(tuple(y - ((i + shift) % n) * d
                        for y in perm[i * d:(i + 1) * d]) for i in range(n))
    if any(sorted(c) != list(range(d)) for c in comps):
        raise ValueError("permutation does not respect the blocks")
    return comps, shift


# -- the twisting element ----------------------------------------------


def wreath_length(seed: AlmostSimpleSeed) -> int:
    """Number of coordinates of the wreath product for this seed."""
    if seed.family == "psl28-gamma":
        # order of theta must be q^2 - 1 with single-coordinate twist b
        return (seed.q**2 - 1) // porder(seed.b)
    return seed.q + 1


THETA_READINGS = ("primary", "trailing-identity", "trailing-square")


def build_theta(seed: AlmostSimpleSeed, reading: str = "primary") -> Perm:
    """The twisting element theta = d0*tau as a permutation of the n*d
    points, with d0 deviating from its constant value in exactly one
    coordinate; verified to have order q^2 - 1.  The alternative readings
    place a second deviation in the last coordinate of the single-twist
    pattern."""
    d = seed.degree
    n = wreath_length(seed)
    q = seed.q
    ident = pid(d)
    if seed.family == "psl28-gamma":
        comps = [seed.b] * n
        comps[1] = ident
        if reading == "trailing-identity":
            comps[n - 1] = ident
        elif reading == "trailing-square":
            comps[n - 1] = ppow(seed.b, 2)
        elif reading != "primary":
            raise ValueError(f"unknown reading {reading!r}")
    else:
        c = seed.c if seed.c is not None else ident
        bc = pmul(seed.b, c)
        comps = [bc] * n
        comps[1] = seed.b
    theta = wreath(comps, 1, d)
    check(porder(theta) == q * q - 1,
          f"theta has order {porder(theta)}, expected {q * q - 1}")
    if reading == "primary":
        c = seed.c if seed.c is not None else ident
        bb = ppow(seed.b, 2)
        head = pmul(bb, c)
        check(ppow(theta, n) == wreath((head,) * n, 0, d),
              "theta^n is not the constant tuple b^2*c")
        # b and c commute, generating the complement of the seed's affine
        # R (c is 1 for psl28-gamma), so <b^2, c> has order at most
        # |b^2| |c|; the cyclic <b^2 c> inside it meets that only as
        # <b^2> x <c>.  theta^n is diagonal, and x -> (x, ..., x) is an
        # isomorphism onto the diagonal, so orders on d points are orders
        # of the diagonal
        check(porder(head) == porder(bb) * porder(c),
              "<theta^n> is not <b^2> x <c>")
    return theta


# -- the measured conjugation action on F^n -----------------------------


def _coefficient_table(seed: AlmostSimpleSeed) -> dict[Perm, tuple[int, ...]]:
    """Every element of F written in coordinates over the generators.
    The generators commute and have order p, and their products are
    distinct, so the table inverts a group isomorphism GF(p)^f -> F."""
    p = seed.field.p
    f = len(seed.F)
    check(all(ppow(g, p) == pid(seed.degree)
              and all(pmul(g, h) == pmul(h, g) for h in seed.F)
              for g in seed.F), "F is not elementary abelian")
    table = {}
    for coeffs in itertools.product(range(p), repeat=f):
        el = pid(seed.degree)
        for g, e in zip(seed.F, coeffs):
            el = pmul(el, ppow(g, e))
        check(el not in table, "F generators are not independent")
        table[el] = coeffs
    return table


def _coordinates(table, perm: Perm, d: int) -> tuple | None:
    """The coordinates over GF(p) of a permutation in F^n, read block by
    block through the coefficient table; None outside F^n, where some
    block's piece, moved back to 0..d-1, is no key of the table."""
    blocks = [table.get(tuple(y - off for y in perm[off:off + d]))
              for off in range(0, len(perm), d)]
    if None in blocks:
        return None
    return tuple(c for block in blocks for c in block)


def conjugation_matrix(seed: AlmostSimpleSeed, theta: Perm):
    """The matrix over GF(p) of x -> theta^-1 * x * theta on F^n, in the
    coordinate-major basis of replicated F generators.  Measured from
    the group action rather than assumed."""
    d = seed.degree
    n = len(theta) // d
    table = _coefficient_table(seed)
    ident = pid(d)
    embedded = [wreath((ident,) * i + (g,) + (ident,) * (n - 1 - i), 0, d)
                for i in range(n) for g in seed.F]
    rows = tuple(_coordinates(table, pconj(x, theta), d) for x in embedded)
    if None in rows:
        raise ValueError("F^n is not invariant under theta")
    return rows, seed.field.prime_field


def _blowup_over_prime(k: GF, mat):
    """Rewrite a matrix over GF(p^f) as an nf x nf matrix over GF(p) in
    the power basis, row-major blocks."""
    f = k.f
    n = len(mat)
    big = [[0] * (n * f) for _ in range(n * f)]
    for r in range(n):
        for c in range(n):
            a = mat[r][c]
            for j in range(f):
                prod = k.mul(a, k.p**j)
                digits = k.digits(prod)
                for j2 in range(f):
                    big[r * f + j][c * f + j2] = digits[j2]
    return tuple(tuple(row) for row in big)


def verify_code_model_similarity(seed: AlmostSimpleSeed, conj) -> None:
    """The measured action and the shift matrix from the code
    construction, blown up to GF(p), have the same charpoly over GF(p).
    That is necessary for the two to be similar, but it is not a proof
    of similarity."""
    k = seed.field
    prime = k.prime_field
    model = _blowup_over_prime(k, build_shift_matrix(k).rows())
    check(charpoly(prime, [list(r) for r in model])
          == charpoly(prime, [list(r) for r in conj]),
          "measured conjugation is not similar to the shift-matrix model")


# -- E, H, and G --------------------------------------------------------


@dataclass(frozen=True)
class PAConstruction:
    seed: AlmostSimpleSeed
    n: int
    block_degree: int
    theta: Perm
    E: tuple[Perm, ...]
    H: PermGroup
    o: Perm | None
    code_witness: tuple[tuple[int, ...], ...]
    qualifying: int
    G: PermGroup | None = None


@dataclass(frozen=True)
class RegularComponents:
    """The invariant decomposition of theta's conjugation matrix, and the
    components of dimension 2f and order q^2 - 1, the candidates for E:
    each is spun for an irreducible factor of degree 2f, and so regular."""
    theta: Perm
    conj: tuple[tuple[int, ...], ...]
    decomposition: InvariantDecomposition
    codes: tuple[Code, ...]


def regular_components(seed: AlmostSimpleSeed,
                       theta: Perm) -> RegularComponents:
    q = seed.q
    conj, prime = conjugation_matrix(seed, theta)
    dec = decompose_invariant([list(r) for r in conj], prime)
    codes = tuple(c.code for c in dec.components
                  if c.code.dim == 2 * seed.field.f and c.order == q * q - 1)
    return RegularComponents(theta, conj, dec, codes)


def coordinate_column_spaces(k: GF, witness, f: int) -> list[tuple]:
    """The column space, in RREF, of the witness block at each coordinate."""
    return [rref(k, [[row[i * f + j] for row in witness] for j in range(f)])
            for i in range(len(witness[0]) // f)]


def build_E_and_H(seed: AlmostSimpleSeed, components: RegularComponents,
                  component_index: int = 0) -> PAConstruction:
    """Cut E out of F^n via the invariant decomposition of the measured
    conjugation matrix, then prove H = E:<theta> affine by affine_group.
    theta is components.theta, the element whose conjugation matrix
    `components` decomposes, and E is cut from the regular component of
    the given index.  E is never listed: the coefficient table inverts an
    isomorphism phi: GF(p)^f -> F, and phi^n maps the witness span onto E;
    its 2f generators are built by `wreath` from the witness rows, block
    by block, and its coordinate kernels are read from the witness."""
    theta = components.theta
    d = seed.degree
    n = len(theta) // d
    q = seed.q
    qualifying = components.codes
    check(bool(qualifying), "no regular component of dimension 2f found")
    if not 0 <= component_index < len(qualifying):
        raise ValueError(
            f"component index {component_index} out of range: only "
            f"{len(qualifying)} components qualify")
    witness = qualifying[component_index].basis
    prime = seed.field.prime_field
    table = _coefficient_table(seed)
    element = {coeffs: el for el, coeffs in table.items()}
    f = len(seed.F)

    # phi^n is injective, so the 2f witness rows give 2f generators of E,
    # whose order q^2 = p^(2f) affine_group proves below
    check(len(witness) == 2 * f and prime.p ** f == q,
          "E does not have order q^2")
    E = tuple(wreath([element[v[i * f:(i + 1) * f]] for i in range(n)], 0, d)
              for v in witness)

    # E projects to coordinate i onto phi(rowspace B_i), B_i the witness
    # block there, with kernel the left null space of B_i: of dimension
    # 2f - rank >= f, never trivial, and equal for two blocks exactly
    # when their column spaces are.  Only the classical family with
    # n = q + 1 projects onto all of F with pairwise distinct kernels
    classical = seed.family != "psl28-gamma"
    spaces = coordinate_column_spaces(prime, witness, f)
    for i, space in enumerate(spaces):
        check(len(space) == f if classical else 0 < len(space) < f,
              f"projection of E to coordinate {i} is not "
              + ("F" if classical else "proper"))
    check(not classical or len(set(spaces)) == n,
          "coordinate kernels of E are not distinct")

    # H = E:<theta> as an AffineGroup, which proves from the permutations
    # that E is elementary abelian, that theta normalizes E and is
    # transitive on E minus 1, and that E meets <theta> trivially; |H| =
    # |E| |theta| is then its order, and H acts on the cosets of <theta>
    # 2-transitively, as the affine group on E
    H = affine_group(list(E) + [theta], -1, degree=n * d, seed=seed.T.seed)
    check(isinstance(H, AffineGroup) and H.order() == q * q * (q * q - 1),
          "H is not the affine group E:<theta> of order q^2(q^2-1)")

    o = None if seed.o is None else wreath((seed.o,) * n, 0, d)
    return PAConstruction(seed, n, d, theta, E, H, o, witness,
                          len(qualifying))


def assemble_G(pa: PAConstruction) -> PAConstruction:
    """G = T^n <theta>, which holds the socle T^n it was built over.  Its
    order proves T^n meet <theta> = <theta^(n |X:T|)>: |G : T^n| is
    |<theta> : <theta> meet T^n|, and a cyclic group has one subgroup of
    each order.  A wrong |X:T|, or a shift not prime to n, fails it."""
    seed = pa.seed
    T = seed.T
    M = DirectPower(T, pa.n)
    G = socle_group(list(M.gens) + [pa.theta], M)
    check(G.order() == T.order()**pa.n * pa.n * seed.index_XT,
          "G has the wrong order")
    return replace(pa, G=G)


def product_action_construction(q: int, family: str = "pgl2",
                                component_index: int = 0,
                                seed: int = 0) -> PAConstruction:
    """The full pipeline: seed, theta, E, H, G for the product-action
    family of valency q^2, every group sifted from the given seed."""
    if family == "pgl2":
        base = seed_pgl2(q, seed=seed)
    elif family == "symmetric":
        base = seed_symmetric(q, seed=seed)
    else:
        raise ValueError(f"unknown family {family!r}")
    # the conjugation matrix compared with the code model is the one
    # regular_components has just measured from theta
    components = regular_components(base, build_theta(base))
    pa = build_E_and_H(base, components, component_index)
    verify_code_model_similarity(base, components.conj)
    return assemble_G(pa)


# -- twisted centralizer ------------------------------------------------


@dataclass(frozen=True)
class TwistedCentralizer:
    """C_M(theta) and N_M(<theta>) for M = T^n, with the solutions of
    theta^m = theta^j grouped by exponent (j = 1 is the centralizer)."""
    centralizer: PermGroup
    normalizer: PermGroup
    by_exponent: dict[int, tuple[Perm, ...]]

    @property
    def normalizer_elements(self) -> tuple[Perm, ...]:
        out = []
        for els in self.by_exponent.values():
            out.extend(els)
        return tuple(sorted(out))


def twisted_centralizer(T: PermGroup, theta: Perm) -> TwistedCentralizer:
    """Solve theta^m = theta^j over m in T^n by coordinate propagation,
    for every exponent j that a conjugate of theta can equal.  theta is a
    wreath element on blocks of T's degree, whose components and shift,
    and those of its powers, are read back from its blocks."""
    d = T.degree
    dcomp, s = _wreath_parts(theta, d)
    dinv = [pinv(x) for x in dcomp]
    n = len(dcomp)
    if gcd(s, n) != 1:
        raise ValueError("theta's shift must be an n-cycle on coordinates")
    order = porder(theta)
    t_elements = T.elements()
    walk = [(k * s) % n for k in range(n)]
    by_exponent: dict[int, tuple[Perm, ...]] = {}
    solutions = []
    for j in range(1, order):
        if (j * s) % n != s % n or gcd(j, order) != 1:
            continue
        fcomp = _wreath_parts(ppow(theta, j), d)[0]
        found = []
        for t0 in t_elements:
            t = {0: t0}
            for i in walk[:-1]:
                t[(i + s) % n] = pmul(pmul(dinv[i], t[i]), fcomp[i])
            last = walk[-1]
            if pmul(dcomp[last], t[0]) == pmul(t[last], fcomp[last]):
                found.append(wreath([t[i] for i in range(n)], 0, d))
        if found:
            by_exponent[j] = tuple(found)
            solutions.extend(found)
    cent = by_exponent.get(1, ())
    centralizer = PermGroup(list(cent), degree=n * d, upper_bound=len(cent),
                            seed=T.seed)
    normalizer = PermGroup(solutions, degree=n * d, upper_bound=len(solutions),
                           seed=T.seed)
    return TwistedCentralizer(centralizer, normalizer, by_exponent)


@dataclass(frozen=True)
class Valency64Construction:
    pa: PAConstruction
    tc: TwistedCentralizer
    g: Perm
    double_coset_classes: int
    classes_up_to_normalizer: int
    h_normalizer: Perm | None
    reading: str


def _two_elements(elements) -> list[Perm]:
    out = []
    for x in elements:
        o = porder(x)
        if o > 1 and o & (o - 1) == 0:
            out.append(x)
    return out


def valency64_construction(seed: AlmostSimpleSeed, report: ReadingReport,
                           component_index: int = 0
                           ) -> Valency64Construction:
    """The valency-64 family over the psl28-gamma seed: PSL(2,8)^21
    twisted by the order-63 element, with the edge element g found
    among the 2-elements of N_M(<theta>).  `report` is the reading's
    ReadingReport from theta_reading_counts: theta, the regular
    components E is cut from and the twisted centralizer are its own,
    and a rejected reading fails with the report's reason.

    The commuting part C_M(theta) carries the S_3 structure; the full
    normalizer is three times larger, but its 2-elements coincide with
    the centralizer's, so the edge search is unaffected.  Of the three
    involutions, exactly one normalizes H; the other two generate G
    with H, and conjugation by the first swaps their double cosets, so
    the edge class is unique up to that explicit graph isomorphism.
    """
    if report.rejected is not None:
        raise VerificationError(report.rejected)
    pa = assemble_G(build_E_and_H(seed, report.components, component_index))
    tc = report.tc
    cent = tc.by_exponent[1]
    check(tc.centralizer.order() == 6, "C_M(theta) does not have order 6")
    check(not all(pmul(x, y) == pmul(y, x)
                  for x in cent for y in cent),
          "C_M(theta) is abelian, expected S_3")
    check(len(_two_elements(cent)) == 3,
          "C_M(theta) does not have three involutions")
    check(set(_two_elements(cent))
          == set(_two_elements(tc.normalizer_elements)),
          "normalizer has 2-elements outside the centralizer")
    # candidate edge elements: 2-elements of G joining H up to G, decided
    # through the socle; the others are kept if <H, x> = H u Hx
    candidates = []
    h_normalizers = []
    for x in _two_elements(tc.normalizer_elements):
        check(pa.G.contains(x), "a 2-element of N_M(<theta>) is not in G")
        if pa.G.generated_by([*pa.H.gens, x]):
            candidates.append(x)
        elif (all(pa.H.contains(pconj(h, x)) for h in pa.H.gens)
              and pa.H.contains(pmul(x, x)) and not pa.H.contains(x)):
            h_normalizers.append(x)
    check(bool(candidates), "no 2-element of N_M(<theta>) joins H up to G")
    classes = []
    for x in candidates:
        if not any(same_double_coset(pa.H, x, y) for y in classes):
            classes.append(x)
    reduced = len(classes)
    h_norm = None
    if len(classes) == 2 and len(h_normalizers) == 1:
        h_norm = h_normalizers[0]
        if same_double_coset(pa.H, pconj(classes[0], h_norm), classes[1]):
            reduced = 1
    check(reduced == 1,
          f"expected a unique edge class up to conjugation by the "
          f"H-normalizing involution, got {len(classes)} double cosets "
          f"and {reduced} after reduction")
    return Valency64Construction(pa, tc, classes[0], len(classes), reduced,
                                 h_norm, report.reading)


@dataclass(frozen=True)
class ReadingReport:
    """Counts produced by one reading of the twist pattern, with the
    regular components and twisted centralizer they were read from, for
    the caller that goes on to build the reading."""
    reading: str
    theta_order: int | None
    rejected: str | None
    component_count: int | None = None
    dimensions: tuple[int, ...] | None = None
    regular_count: int | None = None
    centralizer_order: int | None = None
    normalizer_order: int | None = None
    involutions: int | None = None
    components: RegularComponents | None = field(default=None, repr=False,
                                                 compare=False)
    tc: TwistedCentralizer | None = field(default=None, repr=False,
                                          compare=False)


def theta_reading_counts(seed: AlmostSimpleSeed,
                         reading: str) -> ReadingReport:
    """The verifiable counts for one reading of the ambiguous pattern
    over the psl28-gamma seed."""
    try:
        theta = build_theta(seed, reading)
    except VerificationError as err:
        return ReadingReport(reading, None, str(err))
    rc = regular_components(seed, theta)
    dims = tuple(sorted(c.code.dim for c in rc.decomposition.components))
    q = seed.q
    tc = twisted_centralizer(seed.T, theta)
    return ReadingReport(
        reading, q * q - 1, None, len(dims), dims, len(rc.codes),
        tc.centralizer.order(), tc.normalizer.order(),
        len(_two_elements(tc.normalizer_elements)), rc, tc)


def compare_theta_readings(
        seed: AlmostSimpleSeed) -> tuple[ReadingReport, ...]:
    """All readings of the ambiguous pattern over the psl28-gamma seed,
    with their counts.  The viable readings must agree on every count; a
    disagreement is a loud failure carrying both reports."""
    reports = tuple(theta_reading_counts(seed, r) for r in THETA_READINGS)
    viable = [r for r in reports if r.rejected is None]
    check(len(viable) >= 1, "no viable reading of the twist pattern")
    first = viable[0]
    for other in viable[1:]:
        # reports compare by their counts alone once the names agree
        check(replace(other, reading=first.reading) == first,
              f"twist-pattern readings disagree: {first} vs {other}")
    return reports


# -- the bipartite family ----------------------------------------------


@dataclass(frozen=True)
class BipartiteConstruction:
    p: int
    seed: AlmostSimpleSeed
    n: int
    block_degree: int
    bold_a: Perm
    bold_b: Perm
    tau: Perm
    o: Perm
    Gstar: PermGroup
    G: PermGroup
    H: PermGroup
    K: PermGroup


def bipartite_construction(p: int, family: str = "symmetric",
                           seed: int = 0) -> BipartiteConstruction:
    """The valency-p bipartite family on p-1 coordinates: G = G*:<o>
    with H = <a, b, tau> and K = <b, tau>, every group sifted from the
    given seed."""
    if family == "symmetric":
        base = seed_symmetric(p, bipartite=True, seed=seed)
    elif family == "pgl2":
        base = seed_pgl2(p, bipartite=True, seed=seed)
    else:
        raise ValueError(f"unknown family {family!r}")
    n = p - 1
    d = base.degree
    bold_a = wreath((base.a,) * n, 0, d)
    bold_b = wreath((base.b,) * n, 0, d)
    tau = wreath((pid(d),) * n, 1, d)
    o = wreath([pmul(ppow(base.b, i), base.c) for i in range(n)], 0, d)
    binv = wreath((pinv(base.b),) * n, 0, d)
    # the three displayed relations
    check(pconj(o, tau) == pmul(binv, o), "o^tau is not b^-1 * o")
    check(pconj(bold_b, o) == binv, "b^o is not b^-1")
    check(pconj(tau, o) == pmul(binv, tau), "tau^o is not b^-1 * tau")
    check(pmul(o, o) == pid(n * d), "o is not an involution")

    T = base.T
    M = DirectPower(T, n)
    star_gens = list(M.gens) + [bold_b, tau]
    Gstar = socle_group(star_gens, M)
    check(Gstar.order() == T.order()**n * n * 2, "Gstar has the wrong order")
    G = socle_group(list(Gstar.gens) + [o], M)
    # H = <a>:K as an AffineGroup, K = <b, tau>: orders proven from the
    # affine structure, with no Schreier check
    H = affine_group([bold_a, bold_b, tau], 1, degree=n * d, seed=seed)
    check(isinstance(H, AffineGroup) and H.order() == p * (p - 1)**2
          and H.complement.order() == (p - 1)**2,
          "H or K has the wrong order")
    K = H.complement
    return BipartiteConstruction(p, base, n, d, bold_a, bold_b, tau, o,
                                 Gstar, G, H, K)
