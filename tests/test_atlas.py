from math import gcd

import pytest

from patgraphs.atlas import (
    least_nonresidue,
    mobius_bound,
    pgl2,
    projective_inversion,
    projective_translation,
    psl2,
    residue_scaled_inversion,
    seed_pgl2,
    seed_psl28_gamma,
    seed_symmetric,
)
from patgraphs.gf import make_field
from patgraphs.permgrp import (
    PermGroup,
    alternating_bound,
    cycles,
    filtered_intersection_with_product,
    pconj,
    perm_from_cycles,
    pid,
    pinv,
    pmul,
    porder,
    ppow,
)


def test_pgl2_7_frozen():
    s = seed_pgl2(7)
    assert s.X.order() == 336
    assert s.T.order() == 168
    assert s.R.order() == 42
    assert s.index_XT == 2
    meet = filtered_intersection_with_product(s.R, s.T)
    assert meet.order() == 21
    # least gamma with x -> gamma/x inside the socle is 3
    assert s.o == projective_inversion(make_field(7), 3)
    assert s.T.contains(s.o) and porder(s.o) == 2
    assert pconj(s.a, s.o) == pinv(s.a)
    assert pmul(s.o, s.c) == pmul(s.c, s.o)


def test_pgl2_4_frozen():
    s = seed_pgl2(4)
    assert s.X.order() == s.T.order() == 60
    assert s.index_XT == 1
    assert s.c == pid(5)
    assert s.R.order() == 12
    assert filtered_intersection_with_product(s.R, s.T).order() == 12


def test_pgl2_8_frozen():
    s = seed_pgl2(8)
    assert s.X.order() == s.T.order() == 504
    assert s.index_XT == 1
    assert s.R.order() == 56
    assert porder(s.b) == 7


def test_pgl2_affine_structure_sweep():
    from math import gcd
    for q in (4, 7, 8, 11, 16):
        s = seed_pgl2(q)
        two = gcd(2, q - 1)
        assert PermGroup(s.F, degree=q + 1).order() == q
        assert porder(s.b) == (q - 1) // two
        assert s.R.order() == q * (q - 1)
        meet = filtered_intersection_with_product(s.R, s.T)
        assert meet.order() == q * (q - 1) // s.index_XT
        full = PermGroup(list(s.F) + [s.b, s.c, s.o], degree=q + 1)
        assert full.order() == s.X.order()


def test_symmetric_7_frozen():
    s = seed_symmetric(7)
    assert s.X.order() == 5040
    assert s.T.order() == 2520
    assert s.R.order() == 42
    assert filtered_intersection_with_product(s.R, s.T).order() == 21
    # c: x -> -x is a product of three transpositions
    assert sorted(len(c) for c in cycles(s.c)) == [2, 2, 2]
    assert not s.T.contains(s.c)
    # o lands in the alternating socle and <F, b, o> fills it
    assert s.T.contains(s.o)
    assert PermGroup(list(s.F) + [s.b, s.o], degree=7).order() == 2520


def test_symmetric_inverting_involution():
    for p in (7, 11):
        s = seed_symmetric(p)
        nu = least_nonresidue(p)
        d = residue_scaled_inversion(p, nu)
        assert pconj(s.a, d) == pinv(s.a)
        assert PermGroup([s.a, d], degree=p).order() == 2 * (p - 1)
        assert pmul(s.c, d) == pmul(d, s.c)
        assert s.o == pmul(s.c, d)
        transpositions = (p - 1) // 2
        assert sorted(len(c) for c in cycles(d)) == [2] * transpositions
        assert sorted(len(c) for c in cycles(s.c)) == [2] * transpositions


def test_symmetric_11_parity():
    s = seed_symmetric(11)
    # c and d are both odd (five transpositions), so o = cd is even
    assert not s.T.contains(s.c)
    assert s.T.contains(s.o)
    assert s.R.order() == 110


def test_psl28_gamma_frozen():
    s = seed_psl28_gamma()
    assert s.X.order() == 1512
    assert s.T.order() == 504
    assert s.index_XT == 3
    assert porder(s.b) == 3
    Fgrp = PermGroup(s.F, degree=9)
    assert Fgrp.order() == 8
    for g in s.F:
        assert Fgrp.contains(pconj(g, s.b))
    # the normalizer orders the seed proves from structure, by brute force
    for group, order in ((s.T, 56), (s.X, 168)):
        assert sum(all(Fgrp.contains(pconj(t, x)) for t in s.F)
                   for x in group.elements()) == order
    assert s.a is None and s.c is None and s.o is None


def test_bipartite_seeds_p5():
    for builder, socle_order in ((seed_symmetric, 60), (seed_pgl2, 60)):
        s = builder(5, bipartite=True)
        assert s.T.order() == socle_order
        assert porder(s.a) == 5
        assert porder(s.b) == 4
        assert s.R.order() == 20
        assert porder(s.c) == 2
        assert pconj(s.b, s.c) == pinv(s.b)
        assert PermGroup([s.b, s.c], degree=s.degree).order() == 8
        assert not s.T.contains(pmul(s.c, ppow(s.b, 2)))
        assert s.o is None


def test_bipartite_seed_p7():
    s = seed_symmetric(7, bipartite=True)
    assert porder(s.a) == 7 and porder(s.b) == 6
    assert s.R.order() == 42
    assert not s.T.contains(pmul(s.c, ppow(s.b, 3)))


def test_seed_preconditions():
    with pytest.raises(ValueError):
        seed_pgl2(5)
    with pytest.raises(ValueError):
        seed_pgl2(3)
    with pytest.raises(ValueError):
        seed_pgl2(2)
    with pytest.raises(ValueError):
        seed_symmetric(12)
    with pytest.raises(ValueError):
        seed_symmetric(13)  # 2-part of 13+1 is too small
    with pytest.raises(ValueError):
        seed_symmetric(5)  # standard form needs p >= 7
    with pytest.raises(ValueError):
        seed_pgl2(4, bipartite=True)
    with pytest.raises(ValueError):
        seed_symmetric(9, bipartite=True)


def test_translations_commute():
    k = make_field(8)
    t1 = projective_translation(k, 1)
    t2 = projective_translation(k, 2)
    assert pmul(t1, t2) == pmul(t2, t1)
    assert porder(t1) == 2


def test_every_X_and_T_is_certified_by_its_bound():
    # PGL(2, q) and PSL(2, q) meet the Mobius bounds of their generators,
    # S_p meets p! and A_p the parity bound p!/2, in every family
    for q in (4, 5, 7, 8, 9, 11):
        k = make_field(q)
        for group, order in ((pgl2(k, 0), q * (q * q - 1)),
                             (psl2(k, 0), q * (q * q - 1) // gcd(2, q - 1))):
            assert group.order() == order and group.certified_by == "bound"
    seeds = ([seed_pgl2(q) for q in (4, 7, 8, 11)]
             + [seed_symmetric(p) for p in (7, 11)]
             + [make(p, bipartite=True) for p in (5, 7)
                for make in (seed_pgl2, seed_symmetric)])
    for s in seeds:
        assert s.X.certified_by == s.T.certified_by == "bound", s.family
    assert seed_psl28_gamma().T.certified_by == "bound"


def test_mobius_bound_reads_each_generator():
    k = make_field(7)
    T, X = psl2(k, 0), pgl2(k, 0)
    assert mobius_bound(T.gens, k) == 168
    assert mobius_bound(X.gens, k) == 336
    # x -> gamma/x has determinant -gamma: -3 = 2^2 is a square mod 7,
    # and -1 is not
    assert mobius_bound([projective_inversion(k, 3)], k) == 168
    assert mobius_bound([projective_inversion(k, 1)], k) == 336
    # relabelled by one transposition of projective points, PSL(2, 7)
    # holds maps that are not Mobius, so no bound is proven
    swap = perm_from_cycles(8, [(0, 2)])
    assert mobius_bound([pconj(g, swap) for g in T.gens], k) is None
    assert mobius_bound([swap], k) is None
    # every Mobius map lies in PGL(2, q), and those of square determinant
    # in the atlas's PSL(2, q)
    for x in X.elements():
        assert mobius_bound([x], k) == (168 if T.contains(x) else 336)


def test_alternating_bound_needs_every_generator_even():
    three = perm_from_cycles(5, [(0, 1, 2)])
    five = perm_from_cycles(5, [(0, 1, 2, 3, 4)])
    assert alternating_bound([three, five], 5) == 60
    assert alternating_bound([three, five, perm_from_cycles(5, [(0, 1)])],
                             5) is None
    assert alternating_bound([perm_from_cycles(5, [(0, 1), (2, 3)])], 5) == 60
