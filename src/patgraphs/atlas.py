"""Concrete seed groups on projective lines and on prime residue sets.

Each seed packages an almost simple group X with socle T, a regular
normal subgroup F of an affine subgroup R = F:(<b> x <c>), and the
distinguished elements used downstream to twist product-action groups.
Construction verifies every structural claim it relies on, so a seed
that is returned is already a checked certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, gcd

from .gf import GF, make_field
from .numth import VerificationError, check, is_prime, validate_parameters
from .permgrp import (
    Perm,
    PermGroup,
    filtered_intersection_with_product,
    normalizer_by_enumeration,
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


def projective_neg_inversion(k: GF) -> Perm:
    """x -> -1/x, swapping 0 and infinity."""
    img = [k.q] + [k.neg(k.inv(x)) for x in range(1, k.q)]
    return tuple(img) + (0,)


def projective_frobenius(k: GF) -> Perm:
    """x -> x^p fixing infinity."""
    return tuple(k.pow(x, k.p) for x in range(k.q)) + (k.q,)


def pgl2(k: GF) -> PermGroup:
    """PGL(2, q) on the q+1 projective points."""
    mu = k.generator
    gens = [projective_translation(k, k.p**i) for i in range(k.f)]
    gens.append(projective_scaling(k, mu))
    gens.append(projective_neg_inversion(k))
    return PermGroup(gens)


def psl2(k: GF) -> PermGroup:
    """PSL(2, q) on the q+1 projective points."""
    mu = k.generator
    gens = [projective_translation(k, k.p**i) for i in range(k.f)]
    gens.append(projective_scaling(k, k.mul(mu, mu)))
    gens.append(projective_neg_inversion(k))
    return PermGroup(gens)


# -- prime-residue permutations ---------------------------------------


def residue_translation(p: int) -> Perm:
    return tuple((x + 1) % p for x in range(p))


def residue_scaling(p: int, g: int) -> Perm:
    return tuple((g * x) % p for x in range(p))


def residue_inversion(p: int) -> Perm:
    """x -> 1/x on nonzero residues, fixing 0."""
    return (0,) + tuple(pow(x, p - 2, p) for x in range(1, p))


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
    """The invariants every standard seed must satisfy."""
    q = seed.q
    two = gcd(2, q - 1)
    check(PermGroup(seed.F, degree=seed.degree).order() == q,
          "F does not have order q")
    check(porder(seed.b) == (q - 1) // two, "b has the wrong order")
    c_order = 1 if seed.c == pid(seed.degree) else porder(seed.c)
    check(c_order == two, "c has the wrong order")
    check(seed.R.order() == q * (q - 1), "R is not AGL_1(q)")
    for g in seed.R.gens:
        check(seed.X.contains(g), "R is not inside X")
    # R meet T is F:<b, c^{|X:T|}>
    meet = filtered_intersection_with_product(seed.R, seed.T)
    expected = PermGroup(list(seed.F) + [seed.b, ppow(seed.c, seed.index_XT)],
                         degree=seed.degree)
    check(meet.order() == expected.order() == q * (q - 1) // seed.index_XT,
          "R meet T has the wrong order")
    for g in expected.gens:
        check(meet.contains(g), "R meet T mismatch")
    # the distinguished involution
    o = seed.o
    check(o is not None and pmul(o, o) == pid(seed.degree)
          and o != pid(seed.degree), "o is not an involution")
    check(seed.T.contains(o), "o is not in the socle")
    bc = PermGroup([seed.b, seed.c], degree=seed.degree)
    for g in bc.gens:
        check(bc.contains(pconj(g, o)), "o does not normalize <b, c>")
    check(pmul(o, seed.c) == pmul(seed.c, o), "o does not commute with c")
    full = PermGroup(list(seed.F) + [seed.b, seed.c, o], degree=seed.degree)
    check(full.order() == seed.X.order(), "<F, b, c, o> is not all of X")


def _verify_bipartite_pair(seed: AlmostSimpleSeed) -> None:
    """The invariants for the valency-p bipartite seeds: a of order p,
    b of order p-1, and an involution c inverting b with c*b^((p-1)/2)
    outside the socle."""
    p = seed.q
    check(porder(seed.a) == p, "a does not have order p")
    check(porder(seed.b) == p - 1, "b does not have order p-1")
    check(seed.R.order() == p * (p - 1), "R is not AGL_1(p)")
    c = seed.c
    check(pmul(c, c) == pid(seed.degree) and c != pid(seed.degree),
          "c is not an involution")
    check(pconj(seed.b, c) == pinv(seed.b), "c does not invert b")
    dihedral = PermGroup([seed.b, c], degree=seed.degree)
    check(dihedral.order() == 2 * (p - 1), "<b, c> is not dihedral of "
          "order 2(p-1)")
    half_turn = ppow(seed.b, (p - 1) // 2)
    check(not seed.T.contains(pmul(c, half_turn)),
          "c * b^((p-1)/2) lies in the socle")
    check(seed.X.order() == seed.index_XT * seed.T.order(),
          "socle index mismatch")


# -- seed constructors -------------------------------------------------


def seed_pgl2(q: int, bipartite: bool = False) -> AlmostSimpleSeed:
    """Seed with X = PGL(2, q) and T = PSL(2, q) on q+1 points.

    The standard form realizes R = F:(<b> x <c>) with translations F
    and the distinguished involution o: x -> gamma/x.  The bipartite
    form (prime q only) renames: a of order q, b of order q-1, c an
    involution inverting b with c*b^((q-1)/2) outside T.
    """
    if bipartite:
        if not is_prime(q) or q < 5:
            raise ValueError(f"bipartite seeds need a prime q >= 5, got {q}")
    else:
        ps = validate_parameters(q)
        if not ps.valid:
            raise ValueError(f"q = {q} rejected: {ps.violation}")
        if q == 3:
            raise ValueError("q = 3 is excluded: PSL(2,3) is not simple")
    k = make_field(q)
    degree = q + 1
    mu = k.generator
    X = pgl2(k)
    T = psl2(k)
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
        inv0 = projective_inversion(k, 1)
        half = (q - 1) // 2
        c = None
        for j in range(q - 1):
            cand = pmul(ppow(b, j), inv0)
            if not T.contains(pmul(cand, ppow(b, half))):
                c = cand
                break
        check(c is not None, "no reflection avoids the socle condition")
        R = PermGroup([a, b], degree=degree)
        seed = AlmostSimpleSeed("pgl2-bipartite", q, k, degree, X, T, R,
                                two, F, a, b, c, None)
        _verify_bipartite_pair(seed)
        return seed
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
    R = PermGroup(list(F) + [b, c], degree=degree)
    seed = AlmostSimpleSeed("pgl2", q, k, degree, X, T, R, two, F, a, b, c,
                            o)
    _verify_affine_pair(seed)
    return seed


def seed_symmetric(p: int, bipartite: bool = False) -> AlmostSimpleSeed:
    """Seed with X = S_p and T = A_p on the residues modulo p.

    The standard form takes F = <x -> x+1>, a: x -> g*x, b = a^2,
    c = a^((p-1)/2) = (x -> -x), and o = c*d for the inverting
    involution d: x -> nu/x with nu the least non-residue.  The
    bipartite form renames as in seed_pgl2.
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
            raise ValueError(f"p = {p} rejected: {ps.violation}")
    degree = p
    k = make_field(p)
    trans = residue_translation(p)
    a_scale = residue_scaling(p, k.generator)
    pcycle = trans
    X = PermGroup([pcycle, (1, 0) + tuple(range(2, p))])
    T = PermGroup([pcycle, (1, 2, 0) + tuple(range(3, p))])
    check(X.order() == factorial(p), "S_p has the wrong order")
    check(T.order() == factorial(p) // 2, "A_p has the wrong order")
    F = (trans,)
    if bipartite:
        a = trans
        b = a_scale
        inv0 = residue_inversion(p)
        half = (p - 1) // 2
        c = None
        for j in range(p - 1):
            cand = pmul(ppow(b, j), inv0)
            if not T.contains(pmul(cand, ppow(b, half))):
                c = cand
                break
        check(c is not None, "no reflection avoids the socle condition")
        R = PermGroup([a, b], degree=degree)
        seed = AlmostSimpleSeed("symmetric-bipartite", p, k, degree, X, T, R,
                                2, F, a, b, c, None)
        _verify_bipartite_pair(seed)
        return seed
    a = a_scale
    b = ppow(a, 2)
    c = ppow(a, (p - 1) // 2)
    nu = least_nonresidue(p)
    d = residue_scaled_inversion(p, nu)
    o = pmul(c, d)
    check(pconj(a, d) == pinv(a), "d does not invert a")
    check(PermGroup([a, d], degree=degree).order() == 2 * (p - 1),
          "<a, d> is not dihedral of order 2(p-1)")
    check(pmul(c, d) == pmul(d, c), "c is not central in <a, d>")
    R = PermGroup(list(F) + [b, c], degree=degree)
    seed = AlmostSimpleSeed("symmetric", p, k, degree, X, T, R, 2, F, a, b, c,
                            o)
    _verify_affine_pair(seed)
    check(PermGroup(list(F) + [b, o], degree=degree).order() == T.order(),
          "<F, b, o> is not all of the socle")
    return seed


def seed_psl28_gamma() -> AlmostSimpleSeed:
    """Seed with T = PSL(2, 8) inside X = T:<sigma> of order 1512 on the
    nine projective points, sigma the Frobenius map x -> x^2; F is the
    translation Sylow 2-subgroup of T and b = sigma."""
    k = make_field(8)
    degree = 9
    T = psl2(k)
    check(T.order() == 504, "PSL(2,8) has the wrong order")
    sigma = projective_frobenius(k)
    X = PermGroup(list(T.gens) + [sigma])
    check(X.order() == 1512, "PSL(2,8):3 has the wrong order")
    F = tuple(projective_translation(k, k.p**i) for i in range(3))
    Fgrp = PermGroup(F, degree=degree)
    check(Fgrp.order() == 8, "translation subgroup has the wrong order")
    check(porder(sigma) == 3, "the field automorphism does not have order 3")
    for g in F:
        check(Fgrp.contains(pconj(g, sigma)),
              "the field automorphism does not normalize F")
    check(normalizer_by_enumeration(T, Fgrp).order() == 56,
          "N_T(F) has the wrong order")
    check(normalizer_by_enumeration(X, Fgrp).order() == 168,
          "N_X(F) has the wrong order")
    R = PermGroup(list(F) + [sigma], degree=degree)
    check(R.order() == 24, "F:<b> has the wrong order")
    return AlmostSimpleSeed("psl28-gamma", 8, k, degree, X, T, R,
                            3, F, None, sigma, None, None)
