"""Wreath-product constructions twisted by a shifted tuple.

The central objects: a twisting element theta = d0*tau inside X wr C_n,
the elementary abelian subgroup E cut out of F^n by the invariant
decomposition of theta's measured conjugation matrix, the point
stabilizer H = E:<theta>, the full group G = T^n<theta>, and the
bipartite variant G = G*:<o>.  Everything is verified as it is built;
a returned construction doubles as a certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import gcd

from .atlas import AlmostSimpleSeed, seed_pgl2, seed_psl28_gamma, seed_symmetric
from .eqcode import (
    build_shift_matrix,
    charpoly,
    decompose_invariant,
    vec_mat,
)
from .gf import GF
from .numth import VerificationError, check
from .permgrp import (
    DirectPower,
    Perm,
    PermGroup,
    filtered_intersection_with_product,
    pconj,
    pid,
    pinv,
    pmul,
    porder,
    ppow,
    socle_bound,
)

# -- wreath elements ----------------------------------------------------


@dataclass(frozen=True)
class WreathElement:
    """An element (x_0, ..., x_{n-1})*tau^shift of X wr C_n; the shift
    moves block i to block i + shift."""
    components: tuple[Perm, ...]
    shift: int

    @property
    def n(self) -> int:
        return len(self.components)


def wid(n: int, d: int) -> WreathElement:
    return WreathElement((pid(d),) * n, 0)


def wtau(n: int, d: int) -> WreathElement:
    return WreathElement((pid(d),) * n, 1)


def wmul(a: WreathElement, b: WreathElement) -> WreathElement:
    n = a.n
    comps = tuple(pmul(a.components[i], b.components[(i + a.shift) % n])
                  for i in range(n))
    return WreathElement(comps, (a.shift + b.shift) % n)


def winv(a: WreathElement) -> WreathElement:
    n = a.n
    comps = tuple(pinv(a.components[(i - a.shift) % n]) for i in range(n))
    return WreathElement(comps, (-a.shift) % n)


def wpow(a: WreathElement, e: int) -> WreathElement:
    d = len(a.components[0])
    if e < 0:
        return wpow(winv(a), -e)
    out = wid(a.n, d)
    while e:
        if e & 1:
            out = wmul(out, a)
        e >>= 1
        if e:
            a = wmul(a, a)
    return out


def flatten(w: WreathElement, d: int) -> Perm:
    n = w.n
    img = [0] * (n * d)
    for i, comp in enumerate(w.components):
        off = i * d
        toff = ((i + w.shift) % n) * d
        for x in range(d):
            img[off + x] = toff + comp[x]
    return tuple(img)


def unflatten(perm: Perm, n: int, d: int) -> WreathElement:
    """Recover the wreath form of a block-respecting permutation."""
    shift = None
    comps = []
    for i in range(n):
        t = perm[i * d] // d
        s = (t - i) % n
        if shift is None:
            shift = s
        elif s != shift:
            raise ValueError("permutation does not shift blocks uniformly")
        comp = []
        for x in range(d):
            y = perm[i * d + x] - t * d
            if y < 0 or y >= d:
                raise ValueError("permutation does not respect the blocks")
            comp.append(y)
        comps.append(tuple(comp))
    return WreathElement(tuple(comps), shift)


def embed_block(g: Perm, i: int, n: int) -> WreathElement:
    d = len(g)
    comps = [pid(d)] * n
    comps[i] = tuple(g)
    return WreathElement(tuple(comps), 0)


# -- the twisting element ----------------------------------------------


def wreath_length(seed: AlmostSimpleSeed) -> int:
    """Number of coordinates of the wreath product for this seed."""
    if seed.family == "psl28-gamma":
        # order of theta must be q^2 - 1 with single-coordinate twist b
        return (seed.q**2 - 1) // porder(seed.b)
    return seed.q + 1


THETA_READINGS = ("primary", "trailing-identity", "trailing-square")


def build_theta(seed: AlmostSimpleSeed, reading: str = "primary") -> WreathElement:
    """The twisting element theta = d0*tau, with d0 deviating from its
    constant value in exactly one coordinate; verified to have order
    q^2 - 1.  The alternative readings place a second deviation in the
    last coordinate of the single-twist pattern."""
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
    theta = WreathElement(tuple(comps), 1)
    flat = flatten(theta, d)
    check(porder(flat) == q * q - 1,
          f"theta has order {porder(flat)}, expected {q * q - 1}")
    if reading == "primary":
        c = seed.c if seed.c is not None else ident
        head = pmul(ppow(seed.b, 2), c)
        check(wpow(theta, n) == WreathElement((head,) * n, 0),
              "theta^n is not the constant tuple b^2*c")
        power = PermGroup([flatten(wpow(theta, n), d)], degree=n * d)
        bb = flatten(WreathElement((ppow(seed.b, 2),) * n, 0), d)
        cc = flatten(WreathElement((c,) * n, 0), d)
        span = PermGroup([bb, cc], degree=n * d)
        check(power.order() == span.order() and power.contains(bb)
              and power.contains(cc),
              "<theta^n> is not <b^2> x <c>")
    return theta


def verify_product_intersection_with_cycle(seed: AlmostSimpleSeed,
                                           theta: WreathElement) -> None:
    """T^n meets <theta> exactly in <theta^(n*|X:T|)>."""
    d = seed.degree
    n = theta.n
    order = porder(flatten(theta, d))
    step = n * seed.index_XT
    power = wid(n, d)
    for e in range(1, order + 1):
        power = wmul(power, theta)
        inside = power.shift == 0 and all(
            seed.T.contains(c) for c in power.components)
        check(inside == (e % step == 0),
              f"theta^{e} membership in T^n contradicts the divisor rule")


# -- the measured conjugation action on F^n -----------------------------


def _coefficient_table(seed: AlmostSimpleSeed) -> dict[Perm, tuple[int, ...]]:
    """Every element of F written in coordinates over the generators."""
    p = seed.field.p
    f = len(seed.F)
    table = {}
    for coeffs in itertools.product(range(p), repeat=f):
        el = pid(seed.degree)
        for g, e in zip(seed.F, coeffs):
            el = pmul(el, ppow(g, e))
        check(el not in table, "F generators are not independent")
        table[el] = coeffs
    return table


def conjugation_matrix(seed: AlmostSimpleSeed, theta: WreathElement):
    """The matrix over GF(p) of x -> theta^-1 * x * theta on F^n, in the
    coordinate-major basis of replicated F generators.  Measured from
    the group action rather than assumed."""
    d = seed.degree
    n = theta.n
    f = len(seed.F)
    prime = seed.field.prime_field
    table = _coefficient_table(seed)
    theta_flat = flatten(theta, d)
    rows = []
    for i in range(n):
        for g in seed.F:
            image = pconj(flatten(embed_block(g, i, n), d), theta_flat)
            w = unflatten(image, n, d)
            if w.shift != 0:
                raise ValueError("F^n is not invariant under theta")
            row = [0] * (n * f)
            for j, comp in enumerate(w.components):
                coeffs = table.get(comp)
                if coeffs is None:
                    raise ValueError("F^n is not invariant under theta")
                row[j * f:(j + 1) * f] = coeffs
            rows.append(tuple(row))
    return tuple(rows), prime


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
    """The measured action is similar over GF(p) to the shift matrix
    from the code construction, confirming that some GF(q)-structure on
    F^n makes the conjugation GF(q)-linear."""
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
    theta: WreathElement
    theta_perm: Perm
    E: tuple[Perm, ...]
    H: PermGroup
    o: Perm | None
    code_witness: tuple[tuple[int, ...], ...]
    conj_matrix: tuple[tuple[int, ...], ...]
    qualifying: int
    G: PermGroup | None = None
    socle_transitive: bool | None = None
    non_diagonal: bool | None = None


def _vector_to_wreath(seed: AlmostSimpleSeed, vec, n: int) -> WreathElement:
    f = len(seed.F)
    d = seed.degree
    comps = []
    for i in range(n):
        el = pid(d)
        for g, e in zip(seed.F, vec[i * f:(i + 1) * f]):
            el = pmul(el, ppow(g, e))
        comps.append(el)
    return WreathElement(tuple(comps), 0)


def _is_regular_component(prime: GF, basis, mat) -> bool:
    """The matrix action on the span sweeps every nonzero vector from
    the first basis vector."""
    target = prime.p ** len(basis) - 1
    start = tuple(basis[0])
    seen = {start}
    v = start
    for _ in range(target - 1):
        v = vec_mat(prime, v, mat)
        if v in seen:
            return False
        seen.add(v)
    return vec_mat(prime, v, mat) == start


def build_E_and_H(seed: AlmostSimpleSeed, theta: WreathElement,
                  component_index: int = 0) -> PAConstruction:
    """Cut E out of F^n via the invariant decomposition of the measured
    conjugation matrix, then verify the affine structure of H = E:<theta>."""
    d = seed.degree
    n = theta.n
    q = seed.q
    f = seed.field.f
    conj, prime = conjugation_matrix(seed, theta)
    dec = decompose_invariant([list(r) for r in conj], prime)
    qualifying = []
    for comp in dec.components:
        if comp.code.dim != 2 * f or comp.order != q * q - 1:
            continue
        if _is_regular_component(prime, comp.code.basis, conj):
            qualifying.append(comp)
    check(bool(qualifying), "no regular component of dimension 2f found")
    if component_index >= len(qualifying):
        raise ValueError(
            f"component index {component_index} out of range: only "
            f"{len(qualifying)} components qualify")
    code = qualifying[component_index].code
    witness = code.basis
    E = tuple(flatten(_vector_to_wreath(seed, v, n), d) for v in witness)
    theta_flat = flatten(theta, d)

    # elementary abelian of order q^2
    Egrp = PermGroup(E, degree=n * d)
    check(Egrp.order() == q * q, "E does not have order q^2")
    for g in E:
        check(ppow(g, prime.p) == pid(n * d), "E is not elementary abelian")
        for h in E:
            check(pmul(g, h) == pmul(h, g), "E is not abelian")

    # theta-conjugation is transitive on the nonidentity elements
    span = list(code.codewords())
    all_elements = {flatten(_vector_to_wreath(seed, v, n), d) for v in span}
    orbit = set()
    x = E[0]
    for _ in range(q * q - 1):
        orbit.add(x)
        x = pconj(x, theta_flat)
    check(x == E[0] and len(orbit) == q * q - 1
          and orbit == all_elements - {pid(n * d)},
          "theta-conjugation is not transitive on E minus identity")

    # projections and coordinate kernels; only the classical family with
    # n = q + 1 projects onto all of F with pairwise distinct kernels
    f_set = set(_coefficient_table(seed))
    classical = seed.family != "psl28-gamma"
    kernels = []
    for i in range(n):
        proj = set()
        kern = set()
        for v in span:
            w = _vector_to_wreath(seed, v, n)
            proj.add(w.components[i])
            if w.components[i] == pid(d):
                kern.add(v)
        if classical:
            check(proj == f_set,
                  f"projection of E to coordinate {i} is not F")
        else:
            check(1 < len(proj) < len(f_set),
                  f"projection of E to coordinate {i} is not proper")
        check(len(kern) > 1, f"coordinate kernel {i} of E is trivial")
        kernels.append(frozenset(kern))
    if classical:
        check(len(set(kernels)) == n,
              "coordinate kernels of E are not distinct")

    H = PermGroup(list(E) + [theta_flat], degree=n * d)
    check(H.order() == q * q * (q * q - 1),
          "H does not have the affine order q^2(q^2-1)")
    from .permgrp import action_report, coset_action
    theta_grp = PermGroup([theta_flat], degree=n * d)
    ca = coset_action(H, theta_grp)
    check(ca.group.degree == q * q, "coset space of <theta> in H is not q^2")
    check(action_report(ca.group).two_transitive,
          "H is not 2-transitive on the cosets of <theta>")

    o_flat = None
    if seed.o is not None:
        o_flat = flatten(WreathElement((seed.o,) * n, 0), d)
    return PAConstruction(seed, n, d, theta, theta_flat, E, H, o_flat,
                          witness, conj, len(qualifying))


def assemble_G(pa: PAConstruction) -> PAConstruction:
    """G = T^n <theta>, with socle transitivity on [G:H] and the
    subdirect, non-diagonal structure of T^n meet H all verified."""
    seed = pa.seed
    n = pa.n
    d = pa.block_degree
    T = seed.T
    M = DirectPower(T, n)
    gens = list(M.gens) + [pa.theta_perm]
    G = PermGroup(gens, degree=n * d, upper_bound=socle_bound(gens, M))
    check(G.order() == T.order()**n * n * seed.index_XT,
          "G has the wrong order")
    meet = filtered_intersection_with_product(pa.H, M)
    # socle transitivity: |T^n| * |H| = |G| * |T^n meet H|
    check(T.order()**n * pa.H.order() == G.order() * meet.order(),
          "T^n is not transitive on the coset space")
    # subdirect: the classical family projects T^n meet H onto R meet T
    # in every coordinate; otherwise a proper nontrivial subgroup of T,
    # the same one in every coordinate
    rt = filtered_intersection_with_product(seed.R, seed.T)
    rt_set = set(rt.elements())
    elements = meet.elements()
    projections = []
    for i in range(n):
        proj = {x[i * d:(i + 1) * d] for x in elements}
        proj = frozenset(tuple(y - i * d for y in block) for block in proj)
        projections.append(proj)
    if seed.family != "psl28-gamma":
        for i, proj in enumerate(projections):
            check(proj == rt_set,
                  f"projection {i} of T^n meet H is not R meet T")
    else:
        for i, proj in enumerate(projections):
            check(1 < len(proj) < T.order(),
                  f"projection {i} of T^n meet H is not proper nontrivial")
            check(proj == projections[0],
                  f"projection {i} of T^n meet H varies by coordinate")
    # non-diagonal: the first-coordinate kernel is nontrivial
    kernel = [x for x in elements if x[:d] == tuple(range(d))]
    non_diagonal = len(kernel) > 1
    check(non_diagonal, "T^n meet H projects injectively, diagonal type")
    return replace(pa, G=G, socle_transitive=True, non_diagonal=non_diagonal)


def product_action_construction(q: int, family: str = "pgl2",
                                component_index: int = 0) -> PAConstruction:
    """The full pipeline: seed, theta, E, H, G for the product-action
    family of valency q^2."""
    if family == "pgl2":
        seed = seed_pgl2(q)
    elif family == "symmetric":
        seed = seed_symmetric(q)
    else:
        raise ValueError(f"unknown family {family!r}")
    theta = build_theta(seed)
    verify_product_intersection_with_cycle(seed, theta)
    pa = build_E_and_H(seed, theta, component_index)
    verify_code_model_similarity(seed, pa.conj_matrix)
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


def twisted_centralizer(T: PermGroup, theta: WreathElement) -> TwistedCentralizer:
    """Solve theta^m = theta^j over m in T^n by coordinate propagation,
    for every exponent j that a conjugate of theta can equal."""
    n = theta.n
    d = len(theta.components[0])
    s = theta.shift
    if gcd(s, n) != 1:
        raise ValueError("theta's shift must be an n-cycle on coordinates")
    order = porder(flatten(theta, d))
    t_elements = T.elements()
    walk = [(k * s) % n for k in range(n)]
    by_exponent: dict[int, tuple[Perm, ...]] = {}
    all_flat = []
    for j in range(1, order):
        if (j * s) % n != s % n or gcd(j, order) != 1:
            continue
        dcomp = theta.components
        fcomp = wpow(theta, j).components
        found = []
        for t0 in t_elements:
            t = {0: t0}
            for i in walk[:-1]:
                t[(i + s) % n] = pmul(pmul(pinv(dcomp[i]), t[i]), fcomp[i])
            last = walk[-1]
            if pmul(dcomp[last], t[0]) == pmul(t[last], fcomp[last]):
                comps = tuple(t[i] for i in range(n))
                found.append(flatten(WreathElement(comps, 0), d))
        if found:
            by_exponent[j] = tuple(found)
            all_flat.extend(found)
    cent = by_exponent.get(1, ())
    centralizer = PermGroup(list(cent), degree=n * d, upper_bound=len(cent))
    normalizer = PermGroup(all_flat, degree=n * d, upper_bound=len(all_flat))
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


def _same_double_coset(H: PermGroup, x: Perm, y: Perm) -> bool:
    """x and y lie in the same double coset HxH."""
    target = H.canonical_coset_rep(y)
    for h in H.elements():
        if H.canonical_coset_rep(pmul(x, h)) == target:
            return True
    return False


def _two_elements(elements) -> list[Perm]:
    out = []
    for x in elements:
        o = porder(x)
        if o > 1 and o & (o - 1) == 0:
            out.append(x)
    return out


def valency64_construction(component_index: int = 0,
                           reading: str = "primary") -> Valency64Construction:
    """The valency-64 family: PSL(2,8)^21 twisted by the order-63
    element, with the edge element g found among the 2-elements of
    N_M(<theta>).

    The commuting part C_M(theta) carries the S_3 structure; the full
    normalizer is three times larger, but its 2-elements coincide with
    the centralizer's, so the edge search is unaffected.  Of the three
    involutions, exactly one normalizes H; the other two generate G
    with H, and conjugation by the first swaps their double cosets, so
    the edge class is unique up to that explicit graph isomorphism.
    """
    seed = seed_psl28_gamma()
    theta = build_theta(seed, reading)
    verify_product_intersection_with_cycle(seed, theta)
    pa = build_E_and_H(seed, theta, component_index)
    pa = assemble_G(pa)
    tc = twisted_centralizer(seed.T, theta)
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
    # candidate edge elements: nontrivial 2-elements joining H up to G
    M = DirectPower(seed.T, pa.n)
    candidates = []
    h_normalizers = []
    for x in _two_elements(tc.normalizer_elements):
        gens = list(pa.H.gens) + [x]
        joined = PermGroup(gens, degree=M.degree,
                           upper_bound=socle_bound(gens, M)).order()
        if joined == pa.G.order():
            candidates.append(x)
        elif joined == 2 * pa.H.order():
            h_normalizers.append(x)
    check(bool(candidates), "no 2-element of N_M(<theta>) joins H up to G")
    classes = []
    for x in candidates:
        if not any(_same_double_coset(pa.H, x, y) for y in classes):
            classes.append(x)
    reduced = len(classes)
    h_norm = None
    if len(classes) == 2 and len(h_normalizers) == 1:
        h_norm = h_normalizers[0]
        if _same_double_coset(pa.H, pconj(classes[0], h_norm), classes[1]):
            reduced = 1
    check(reduced == 1,
          f"expected a unique edge class up to conjugation by the "
          f"H-normalizing involution, got {len(classes)} double cosets "
          f"and {reduced} after reduction")
    return Valency64Construction(pa, tc, classes[0], len(classes), reduced,
                                 h_norm, reading)


@dataclass(frozen=True)
class ReadingReport:
    """Counts produced by one reading of the twist pattern."""
    reading: str
    theta_order: int | None
    rejected: str | None
    component_count: int | None = None
    dimensions: tuple[int, ...] | None = None
    regular_count: int | None = None
    centralizer_order: int | None = None
    normalizer_order: int | None = None
    involutions: int | None = None


def theta_reading_counts(reading: str) -> ReadingReport:
    """The verifiable counts for one reading of the ambiguous pattern."""
    seed = seed_psl28_gamma()
    try:
        theta = build_theta(seed, reading)
    except VerificationError as err:
        return ReadingReport(reading, None, str(err))
    conj, prime = conjugation_matrix(seed, theta)
    dec = decompose_invariant([list(r) for r in conj], prime)
    dims = tuple(sorted(c.code.dim for c in dec.components))
    q = seed.q
    f = 3
    regular = sum(1 for c in dec.components
                  if c.code.dim == 2 * f and c.order == q * q - 1
                  and _is_regular_component(prime, c.code.basis, conj))
    tc = twisted_centralizer(seed.T, theta)
    return ReadingReport(
        reading, q * q - 1, None, len(dec.components), dims, regular,
        tc.centralizer.order(), tc.normalizer.order(),
        len(_two_elements(tc.normalizer_elements)))


def compare_theta_readings() -> tuple[ReadingReport, ...]:
    """All readings of the ambiguous pattern, with their counts.  The
    viable readings must agree on every count; a disagreement is a
    loud failure carrying both reports."""
    reports = tuple(theta_reading_counts(r) for r in THETA_READINGS)
    viable = [r for r in reports if r.rejected is None]
    check(len(viable) >= 1, "no viable reading of the twist pattern")
    first = viable[0]
    for other in viable[1:]:
        same = (first.component_count == other.component_count
                and first.dimensions == other.dimensions
                and first.regular_count == other.regular_count
                and first.centralizer_order == other.centralizer_order
                and first.normalizer_order == other.normalizer_order
                and first.involutions == other.involutions)
        check(same, f"twist-pattern readings disagree: {first} vs {other}")
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
    meet: PermGroup


def bipartite_construction(p: int, family: str = "symmetric") -> BipartiteConstruction:
    """The valency-p bipartite family on p-1 coordinates: G = G*:<o>
    with H = <a, b, tau> and K = <b, tau>."""
    if family == "symmetric":
        seed = seed_symmetric(p, bipartite=True)
    elif family == "pgl2":
        seed = seed_pgl2(p, bipartite=True)
    else:
        raise ValueError(f"unknown family {family!r}")
    n = p - 1
    d = seed.degree
    bold_a = flatten(WreathElement((seed.a,) * n, 0), d)
    bold_b = flatten(WreathElement((seed.b,) * n, 0), d)
    tau = flatten(wtau(n, d), d)
    o_w = WreathElement(tuple(pmul(ppow(seed.b, i), seed.c)
                              for i in range(n)), 0)
    o = flatten(o_w, d)
    binv = flatten(WreathElement((pinv(seed.b),) * n, 0), d)
    # the three displayed relations
    check(pconj(o, tau) == pmul(binv, o), "o^tau is not b^-1 * o")
    check(pconj(bold_b, o) == binv, "b^o is not b^-1")
    check(pconj(tau, o) == pmul(binv, tau), "tau^o is not b^-1 * tau")
    check(pmul(o, o) == pid(n * d), "o is not an involution")

    T = seed.T
    M = DirectPower(T, n)
    star_gens = list(M.gens) + [bold_b, tau]
    Gstar = PermGroup(star_gens, degree=n * d,
                      upper_bound=socle_bound(star_gens, M))
    check(Gstar.order() == T.order()**n * n * 2, "Gstar has the wrong order")
    check(not Gstar.contains(o), "o lies in Gstar")
    gens = list(Gstar.gens) + [o]
    G = PermGroup(gens, degree=n * d, upper_bound=socle_bound(gens, M))
    check(G.order() == 2 * Gstar.order(), "Gstar does not have index 2")
    H = PermGroup([bold_a, bold_b, tau], degree=n * d)
    K = PermGroup([bold_b, tau], degree=n * d)
    check(H.order() == p * (p - 1)**2 and K.order() == (p - 1)**2,
          "H or K has the wrong order")
    for g in H.gens:
        check(Gstar.contains(g), "H is not inside Gstar")
    # T^(p-1) meet H is the diagonal <a, b^2>
    meet = filtered_intersection_with_product(H, M)
    expected = PermGroup([bold_a, ppow(bold_b, 2)], degree=n * d)
    check(meet.order() == expected.order() == p * (p - 1) // 2,
          "T^(p-1) meet H is not <a, b^2>")
    for g in expected.gens:
        check(meet.contains(g), "T^(p-1) meet H mismatch")
    elements = meet.elements()
    for i in range(n):
        proj = {x[i * d:(i + 1) * d] for x in elements}
        check(len(proj) == len(elements),
              f"projection {i} of T^(p-1) meet H is not injective")
    return BipartiteConstruction(p, seed, n, d, bold_a, bold_b, tau, o,
                                 Gstar, G, H, K, meet)
