"""Concrete seed groups on projective lines and on prime residue sets.

Each seed packages an almost simple group X with socle T, a regular
normal subgroup F of an affine subgroup R = F:(<b> x <c>), and the
distinguished elements used downstream to twist product-action groups.
Construction verifies every structural claim it relies on, so a seed
that is returned is already a checked certificate.  Every affine R, the
standard F:<b, c> and the bipartite <a>:<b>, is proven by
permgrp.affine_group, which gives its order and R meet T with no chain
of R; psl28-gamma's F:<sigma> is not affine and is a plain PermGroup.
Every group on d points is sifted to a bound proven from its generators
(mobius_bound, alternating_bound), its checked relations, or the order of
a group it is checked to lie in.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd

from .gf import GF, make_field
from .numth import VerificationError, check, is_prime, validate_parameters
from .permgrp import (
    AffineGroup,
    Perm,
    PermGroup,
    affine_group,
    alternating_bound,
    orbit_partition,
    pconj,
    pid,
    pinv,
    pmul,
    porder,
    ppow,
)


@dataclass(frozen=True)
class AlmostSimpleSeed:
    """A verified seed (X, T, R = F:(<b> x <c>)) over GF(q) with its
    distinguished elements; `a` and `o` may be absent by family."""
    family: str
    q: int
    field: GF
    degree: int
    X: PermGroup
    T: PermGroup
    R: PermGroup
    index_XT: int
    F: tuple[Perm, ...]
    a: Perm | None
    b: Perm
    c: Perm | None
    o: Perm | None


# -- projective-line permutations -------------------------------------


def projective_translation(k: GF, c: int) -> Perm:
    """x -> x + c fixing infinity (labeled q)."""
    return tuple(k.add(x, c) for x in range(k.q)) + (k.q,)


def projective_scaling(k: GF, c: int) -> Perm:
    """x -> c*x fixing 0 and infinity."""
    return tuple(k.mul(x, c) for x in range(k.q)) + (k.q,)


def projective_inversion(k: GF, gamma: int) -> Perm:
    """x -> gamma/x, swapping 0 and infinity."""
    img = [k.q] + [k.mul(gamma, k.inv(x)) for x in range(1, k.q)]
    return tuple(img) + (0,)


def projective_frobenius(k: GF) -> Perm:
    """x -> x^p fixing infinity."""
    return tuple(k.pow(x, k.p) for x in range(k.q)) + (k.q,)


def mobius_bound(gens, k: GF) -> int | None:
    """|PGL(2, q)| if every generator, a permutation of the q+1 projective
    points, is a Mobius map x -> (alpha x + beta)/(gamma x + delta), and
    |PSL(2, q)| if each alpha delta - beta gamma is a nonzero square too;
    None otherwise.  A group that meets |PSL(2, q)| is the atlas's
    PSL(2, q) (Dixon and Mortimer 1996, on PGL(2, q) on the projective
    line).  The images A, B, C of infinity, 0 and 1 fix the matrix up to a
    scalar, which scales the determinant by a square: in homogeneous
    coordinates its columns are lam A and mu B with lam A + mu B = C, by
    Cramer's rule.  The other q - 2 points confirm the map."""
    q, square = k.q, True
    for g in gens:
        (a1, a2), (b1, b2), (c1, c2) = ((1, 0) if y == q else (y, 1)
                                        for y in (g[q], g[0], g[1]))
        lam = k.sub(k.mul(c1, b2), k.mul(c2, b1))
        mu = k.sub(k.mul(a1, c2), k.mul(a2, c1))
        al, be, ga, de = (k.mul(lam, a1), k.mul(mu, b1), k.mul(lam, a2),
                          k.mul(mu, b2))
        det = k.sub(k.mul(al, de), k.mul(be, ga))
        if det == 0:
            return None
        for x in range(2, q):
            den = k.add(k.mul(ga, x), de)
            if g[x] != (q if den == 0 else
                        k.mul(k.add(k.mul(al, x), be), k.inv(den))):
                return None
        square = square and (q % 2 == 0 or k.pow(det, (q - 1) // 2) == 1)
    return q * (q * q - 1) // (gcd(2, q - 1) if square else 1)


def pgl2(k: GF, seed: int) -> PermGroup:
    """PGL(2, q) on the q+1 projective points, sifted to mobius_bound."""
    mu = k.generator
    gens = [projective_translation(k, k.p**i) for i in range(k.f)]
    gens.append(projective_scaling(k, mu))
    gens.append(projective_inversion(k, k.neg(1)))
    return PermGroup(gens, upper_bound=mobius_bound(gens, k), seed=seed)


def psl2(k: GF, seed: int) -> PermGroup:
    """PSL(2, q) on the q+1 projective points, sifted to mobius_bound."""
    mu = k.generator
    gens = [projective_translation(k, k.p**i) for i in range(k.f)]
    gens.append(projective_scaling(k, k.mul(mu, mu)))
    gens.append(projective_inversion(k, k.neg(1)))
    return PermGroup(gens, upper_bound=mobius_bound(gens, k), seed=seed)


# -- prime-residue permutations ---------------------------------------


def residue_translation(p: int) -> Perm:
    return tuple((x + 1) % p for x in range(p))


def residue_scaling(p: int, g: int) -> Perm:
    return tuple((g * x) % p for x in range(p))


def residue_scaled_inversion(p: int, nu: int) -> Perm:
    """x -> nu/x on nonzero residues, fixing 0."""
    return (0,) + tuple(nu * pow(x, p - 2, p) % p for x in range(1, p))


def least_nonresidue(p: int) -> int:
    for nu in range(2, p):
        if pow(nu, (p - 1) // 2, p) == p - 1:
            return nu
    raise VerificationError(f"no quadratic non-residue modulo {p}")


# -- shared verification ----------------------------------------------


def _verify_affine_pair(seed: AlmostSimpleSeed) -> None:
    """The invariants every standard seed must satisfy.  R is affine_group's
    F:<b, c>, which proves F elementary abelian of order at most q and
    <b, c> of order at most |b| |c|, so |R| = q(q - 1) proves both."""
    q = seed.q
    two = gcd(2, q - 1)
    check(porder(seed.b) == (q - 1) // two, "b has the wrong order")
    c_order = 1 if seed.c == pid(seed.degree) else porder(seed.c)
    check(c_order == two, "c has the wrong order")
    check(isinstance(seed.R, AffineGroup) and seed.R.order() == q * (q - 1),
          "R is not AGL_1(q)")
    for g in seed.R.gens:
        check(seed.X.contains(g), "R is not inside X")
    # R meet T is F:<b, c^{|X:T|}>, walked under <b, c> alone
    meet = seed.R.meet(seed.T)
    expected = [*seed.F, seed.b, ppow(seed.c, seed.index_XT)]
    check(all(meet.contains(g) for g in expected), "R meet T mismatch")
    check(meet.order() == q * (q - 1) // seed.index_XT
          and meet.generated_by(expected), "R meet T has the wrong order")
    # the distinguished involution
    o = seed.o
    check(o is not None and pmul(o, o) == pid(seed.degree)
          and o != pid(seed.degree), "o is not an involution")
    check(seed.T.contains(o), "o is not in the socle")
    bc = seed.R.complement
    for g in bc.gens:
        check(bc.contains(pconj(g, o)), "o does not normalize <b, c>")
    check(pmul(o, seed.c) == pmul(seed.c, o), "o does not commute with c")
    # F, b and c lie in R, inside X, and o in T, inside X
    check(seed.X.generated_by([*seed.F, seed.b, seed.c, o]),
          "<F, b, c, o> is not all of X")


def _verify_bipartite_pair(seed: AlmostSimpleSeed) -> None:
    """The invariants for the valency-p bipartite seeds: a of order p,
    b of order p-1, and an involution c inverting b with c*b^((p-1)/2)
    outside the socle."""
    p = seed.q
    check(porder(seed.a) == p, "a does not have order p")
    check(porder(seed.b) == p - 1, "b does not have order p-1")
    check(isinstance(seed.R, AffineGroup) and seed.R.order() == p * (p - 1),
          "R is not AGL_1(p)")
    c = seed.c
    check(pmul(c, c) == pid(seed.degree) and c != pid(seed.degree),
          "c is not an involution")
    check(pconj(seed.b, c) == pinv(seed.b), "c does not invert b")
    # c normalizes <b>, so |<b, c>| <= |b| |c| = 2(p-1)
    dihedral = PermGroup([seed.b, c], degree=seed.degree,
                         upper_bound=2 * (p - 1), seed=seed.T.seed)
    check(dihedral.order() == 2 * (p - 1), "<b, c> is not dihedral of "
          "order 2(p-1)")
    half_turn = ppow(seed.b, (p - 1) // 2)
    check(not seed.T.contains(pmul(c, half_turn)),
          "c * b^((p-1)/2) lies in the socle")
    check(seed.X.order() == seed.index_XT * seed.T.order(),
          "socle index mismatch")


def _reflection_off_socle(T: PermGroup, b: Perm, inv0: Perm,
                          p: int) -> Perm:
    """The first reflection c = b^j * inv0 of the bipartite seeds, b of
    order p - 1, with c * b^((p-1)/2) outside the socle T."""
    half_turn = ppow(b, (p - 1) // 2)
    for j in range(p - 1):
        c = pmul(ppow(b, j), inv0)
        if not T.contains(pmul(c, half_turn)):
            return c
    raise VerificationError("no reflection avoids the socle condition")


# -- seed constructors -------------------------------------------------


def seed_pgl2(q: int, bipartite: bool = False,
              seed: int = 0) -> AlmostSimpleSeed:
    """Seed with X = PGL(2, q) and T = PSL(2, q) on q+1 points.

    The standard form realizes R = F:(<b> x <c>) with translations F
    and the distinguished involution o: x -> gamma/x.  The bipartite
    form (prime q only) renames: a of order q, b of order q-1, c an
    involution inverting b with c*b^((q-1)/2) outside T.  Every group
    is sifted from the given seed.
    """
    if bipartite:
        if not is_prime(q) or q < 5:
            raise ValueError(f"bipartite seeds need a prime q >= 5, got {q}")
    else:
        ps = validate_parameters(q)
        if not ps.valid:
            raise ValueError(f"q = {q}: {ps.violation}")
        if q == 3:
            raise ValueError("q = 3 is excluded: PSL(2,3) is not simple")
    k = make_field(q)
    degree = q + 1
    mu = k.generator
    X = pgl2(k, seed)
    T = psl2(k, seed)
    two = gcd(2, q - 1)
    check(X.order() == q * (q * q - 1), "PGL(2,q) has the wrong order")
    check(T.order() == q * (q * q - 1) // two, "PSL(2,q) has the wrong order")
    for g in T.gens:
        check(X.contains(g), "socle is not inside X")
    F = tuple(projective_translation(k, k.p**i) for i in range(k.f))
    scale = projective_scaling(k, mu)
    if bipartite:
        a = projective_translation(k, 1)
        b = scale
        c = _reflection_off_socle(T, b, projective_inversion(k, 1), q)
        R = affine_group([a, b], 1, degree, seed)
        out = AlmostSimpleSeed("pgl2-bipartite", q, k, degree, X, T, R,
                               two, F, a, b, c, None)
        _verify_bipartite_pair(out)
        return out
    a = scale
    b = ppow(a, two)
    c = ppow(a, (q - 1) // two)
    o = None
    for gamma in range(1, q):
        cand = projective_inversion(k, gamma)
        if T.contains(cand):
            o = cand
            break
    check(o is not None, "no inversion map lands in the socle")
    check(pconj(a, o) == pinv(a), "o does not invert a")
    R = affine_group([*F, b, c], len(F), degree, seed)
    out = AlmostSimpleSeed("pgl2", q, k, degree, X, T, R, two, F, a, b, c, o)
    _verify_affine_pair(out)
    return out


def seed_symmetric(p: int, bipartite: bool = False,
                   seed: int = 0) -> AlmostSimpleSeed:
    """Seed with X = S_p and T = A_p on the residues modulo p.

    The standard form takes F = <x -> x+1>, a: x -> g*x, b = a^2,
    c = a^((p-1)/2) = (x -> -x), and o = c*d for the inverting
    involution d: x -> nu/x with nu the least non-residue.  The
    bipartite form renames as in seed_pgl2.  Every group is sifted from
    the given seed.
    """
    if bipartite:
        if not is_prime(p) or p < 5:
            raise ValueError(f"bipartite seeds need a prime p >= 5, got {p}")
    else:
        if not is_prime(p) or p < 7:
            raise ValueError(f"standard symmetric seeds need a prime "
                             f"p >= 7, got {p}")
        ps = validate_parameters(p)
        if not ps.valid:
            raise ValueError(f"p = {p}: {ps.violation}")
    degree = p
    k = make_field(p)
    trans = residue_translation(p)
    a_scale = residue_scaling(p, k.generator)
    pcycle = trans
    X = PermGroup([pcycle, (1, 0) + tuple(range(2, p))],
                  upper_bound=factorial(p), seed=seed)
    tgens = [pcycle, (1, 2, 0) + tuple(range(3, p))]
    T = PermGroup(tgens, upper_bound=alternating_bound(tgens, p), seed=seed)
    check(X.order() == factorial(p), "S_p has the wrong order")
    check(T.order() == factorial(p) // 2, "A_p has the wrong order")
    F = (trans,)
    if bipartite:
        a = trans
        b = a_scale
        c = _reflection_off_socle(T, b, residue_scaled_inversion(p, 1), p)
        R = affine_group([a, b], 1, degree, seed)
        out = AlmostSimpleSeed("symmetric-bipartite", p, k, degree, X, T, R,
                               2, F, a, b, c, None)
        _verify_bipartite_pair(out)
        return out
    a = a_scale
    b = ppow(a, 2)
    c = ppow(a, (p - 1) // 2)
    nu = least_nonresidue(p)
    d = residue_scaled_inversion(p, nu)
    o = pmul(c, d)
    check(pconj(a, d) == pinv(a), "d does not invert a")
    # d normalizes <a>, so |<a, d>| <= |a| |d|
    check(PermGroup([a, d], degree=degree, upper_bound=porder(a) * porder(d),
                    seed=seed).order() == 2 * (p - 1),
          "<a, d> is not dihedral of order 2(p-1)")
    check(pmul(c, d) == pmul(d, c), "c is not central in <a, d>")
    R = affine_group([*F, b, c], len(F), degree, seed)
    out = AlmostSimpleSeed("symmetric", p, k, degree, X, T, R, 2, F, a, b, c,
                           o)
    _verify_affine_pair(out)
    check(all(T.contains(g) for g in [*F, b, o]) and T.generated_by([*F, b, o]),
          "<F, b, o> is not all of the socle")
    return out


def seed_psl28_gamma(seed: int = 0) -> AlmostSimpleSeed:
    """Seed with T = PSL(2, 8) inside X = T:<sigma> of order 1512 on the
    nine projective points, sigma the Frobenius map x -> x^2; F is the
    translation Sylow 2-subgroup of T and b = sigma.  Every group is
    sifted from the given seed."""
    k = make_field(8)
    degree = 9
    T = psl2(k, seed)
    check(T.order() == 504, "PSL(2,8) has the wrong order")
    sigma = projective_frobenius(k)
    X = PermGroup(list(T.gens) + [sigma], seed=seed)
    check(X.order() == 1512, "PSL(2,8):3 has the wrong order")
    F = tuple(projective_translation(k, k.p**i) for i in range(3))
    Fgrp = PermGroup(F, degree=degree, seed=seed)
    check(Fgrp.order() == 8, "translation subgroup has the wrong order")
    check(porder(sigma) == 3, "the field automorphism does not have order 3")
    for g in F:
        check(Fgrp.contains(pconj(g, sigma)),
              "the field automorphism does not normalize F")
    # N_T(F) and N_X(F) from structure: a normalizer of F permutes the
    # points F fixes, here only infinity, so N_T(F) <= T_inf and
    # N_X(F) <= X_inf, of orders |T|/9 and |X|/9 as T is transitive.
    # <F, x -> mu*x> and <F, x -> mu*x, sigma> lie in T and X, normalize
    # F and meet those orders, so they are N_T(F) and N_X(F)
    check([x for x in range(degree) if all(g[x] == x for g in F)] == [8],
          "F does not fix infinity alone")
    check(len(orbit_partition(T.gens, degree)) == 1,
          "PSL(2,8) is not transitive on the projective line")
    scale = projective_scaling(k, k.generator)
    check(all(T.contains(g) for g in F + (scale,)),
          "F:<x -> mu*x> is not in T")
    for g in F:
        check(Fgrp.contains(pconj(g, scale)), "x -> mu*x does not normalize F")
    check(PermGroup(list(F) + [scale], seed=seed).order()
          == T.order() // degree == 56, "N_T(F) has the wrong order")
    check(PermGroup(list(F) + [scale, sigma], seed=seed).order()
          == X.order() // degree == 168, "N_X(F) has the wrong order")
    R = PermGroup(list(F) + [sigma], degree=degree, seed=seed)
    check(R.order() == 24, "F:<b> has the wrong order")
    return AlmostSimpleSeed("psl28-gamma", 8, k, degree, X, T, R,
                            3, F, None, sigma, None, None)
