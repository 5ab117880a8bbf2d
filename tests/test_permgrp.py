import random

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from patgraphs.gf import GF
from patgraphs.numth import VerificationError
from patgraphs.permgrp import (
    DirectPower,
    PermGroup,
    action_report,
    coset_action,
    cycles,
    filtered_intersection_with_product,
    normalizer_by_enumeration,
    orbit_partition,
    pconj,
    perm_from_cycles,
    pid,
    pinv,
    pmul,
    porder,
    ppow,
    socle_bound,
)


def mobius_psl2(q, field=None):
    """PSL(2, q) on q+1 points, built directly from Mobius maps; the
    point at infinity is labeled q."""
    k = field or GF(*_pf(q))
    inf = q

    def mk(f):
        return tuple(f(x) for x in range(q + 1))

    def shift(c):
        return lambda x: inf if x == inf else k.add(x, c)

    def neg_inv(x):
        if x == inf:
            return 0
        if x == 0:
            return inf
        return k.neg(k.inv(x))

    g = k.unit_generators()
    mu = k.mul(g.odd_part, g.two_part)  # a primitive element
    sq = k.mul(mu, mu)

    def scale(x):
        return inf if x == inf else k.mul(x, sq)

    gens = [mk(shift(k.p**i)) for i in range(k.f)]
    gens.append(mk(scale))
    gens.append(mk(neg_inv))
    return PermGroup(gens)


def _pf(q):
    p, n = q, 1
    for cand in range(2, q):
        if q % cand == 0:
            p = cand
            break
    f = 0
    while q > 1:
        q //= p
        f += 1
    return p, f


def test_perm_helpers():
    a = perm_from_cycles(5, [(0, 1, 2)])
    b = perm_from_cycles(5, [(2, 3)])
    # left factor applies first
    assert pmul(a, b)[0] == 1 and pmul(a, b)[1] == 3
    assert pmul(a, pinv(a)) == pid(5)
    assert ppow(a, 3) == pid(5)
    assert ppow(a, -1) == pinv(a)
    assert porder(perm_from_cycles(6, [(0, 1, 2), (3, 4)])) == 6
    assert porder(pid(4)) == 1
    assert cycles(perm_from_cycles(6, [(3, 4), (0, 1, 2)])) == \
        [(0, 1, 2), (3, 4)]
    g = perm_from_cycles(5, [(0, 3)])
    assert pconj(a, g) == perm_from_cycles(5, [(3, 1, 2)])


def test_symmetric_and_alternating_orders():
    s5 = PermGroup([perm_from_cycles(5, [(0, 1, 2, 3, 4)]),
                    perm_from_cycles(5, [(0, 1)])])
    assert s5.order() == 120
    a5 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),
                    perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
    assert a5.order() == 60
    assert not a5.contains(perm_from_cycles(5, [(0, 1)]))
    assert a5.contains(perm_from_cycles(5, [(0, 1), (2, 3)]))
    assert a5.contains(pid(5))
    with pytest.raises(ValueError):
        a5.contains((0, 1, 2))


def test_rejects_non_permutations():
    with pytest.raises(ValueError):
        PermGroup([(0, 0, 1)])
    with pytest.raises(ValueError):
        PermGroup([], degree=None)


def test_random_groups_against_sympy():
    rng = random.Random(5)
    for _ in range(60):
        d = rng.randrange(3, 13)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            img = list(range(d))
            rng.shuffle(img)
            gens.append(tuple(img))
        mine = PermGroup(gens, degree=d)
        theirs = PermutationGroup([Permutation(list(g)) for g in gens])
        assert mine.order() == theirs.order()
        assert len(orbit_partition(mine.gens, d)) == len(theirs.orbits())
        for _ in range(6):
            img = list(range(d))
            rng.shuffle(img)
            x = tuple(img)
            assert mine.contains(x) == theirs.contains(Permutation(list(x)))
        # an actual element must pass membership
        x = pid(d)
        for _ in range(5):
            x = pmul(x, gens[rng.randrange(len(gens))])
        assert mine.contains(x)


def test_transitivity_predicates_against_sympy():
    rng = random.Random(9)
    checked = 0
    while checked < 25:
        d = rng.randrange(4, 10)
        gens = []
        for _ in range(2):
            img = list(range(d))
            rng.shuffle(img)
            gens.append(tuple(img))
        mine = PermGroup(gens, degree=d)
        rep = action_report(mine)
        theirs = PermutationGroup([Permutation(list(g)) for g in gens])
        assert rep.transitive == theirs.is_transitive()
        if rep.transitive:
            assert rep.primitive == theirs.is_primitive()
            checked += 1


def test_psl27_two_transitive():
    g = mobius_psl2(7)
    assert g.order() == 168
    rep = action_report(g)
    assert rep.transitive and rep.two_transitive and rep.primitive
    assert not rep.regular and not rep.semiregular


def test_psl28_order():
    g = mobius_psl2(8)
    assert g.order() == 504
    assert action_report(g).two_transitive


def test_cyclic_group_report():
    c4 = PermGroup([perm_from_cycles(4, [(0, 1, 2, 3)])])
    rep = action_report(c4)
    assert rep.transitive and rep.regular and rep.semiregular
    assert not rep.two_transitive and not rep.primitive
    assert rep.blocks == ((0, 2), (1, 3))
    c6 = PermGroup([perm_from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    assert action_report(c6).blocks == ((0, 2, 4), (1, 3, 5))


def test_regular_and_semiregular_flags():
    klein = PermGroup([perm_from_cycles(4, [(0, 1), (2, 3)]),
                       perm_from_cycles(4, [(0, 2), (1, 3)])])
    rep = action_report(klein)
    assert rep.regular and rep.primitive is False
    half = PermGroup([perm_from_cycles(4, [(0, 1), (2, 3)])])
    rep = action_report(half)
    assert rep.semiregular and not rep.transitive and not rep.regular
    s3 = PermGroup([perm_from_cycles(3, [(0, 1, 2)]),
                    perm_from_cycles(3, [(0, 1)])])
    rep = action_report(s3)
    assert rep.transitive and not rep.semiregular


def test_trivial_group():
    t = PermGroup([], degree=5)
    assert t.order() == 1
    assert t.contains(pid(5))
    assert not t.contains(perm_from_cycles(5, [(0, 1)]))
    assert t.elements() == [pid(5)]
    rep = action_report(t)
    assert not rep.transitive and rep.semiregular and not rep.regular


def test_direct_power():
    a5 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),
                    perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
    dp = DirectPower(a5, 5)
    assert dp.order() == 60**5 == 777_600_000
    # the generic chain reproduces the closed-form order
    chain = PermGroup(dp.gens, degree=25)
    assert chain.order() == 60**5
    inside = list(range(25))
    inside[10], inside[11], inside[12] = 11, 12, 10
    odd = list(range(25))
    odd[0], odd[1] = 1, 0
    crossing = list(range(25))
    crossing[0], crossing[5] = 5, 0
    # the second round answers from the per-piece memo
    for _ in range(2):
        assert dp.contains(tuple(inside))
        assert not dp.contains(tuple(odd))
        assert not dp.contains(tuple(crossing))


def test_arbitrary_precision_orders():
    psl28 = mobius_psl2(8)
    dp = DirectPower(psl28, 21)
    assert dp.order() == 504**21
    assert dp.order() * 63 == 504**21 * 63
    big = DirectPower(mobius_psl2(7), 8)
    chain = PermGroup(big.gens, degree=64, upper_bound=168**8)
    assert chain.order() == 168**8
    assert chain.certified_by == "bound"


def test_known_order_mismatch_raises():
    a5_gens = [perm_from_cycles(5, [(0, 1, 2)]),
               perm_from_cycles(5, [(0, 1, 2, 3, 4)])]
    # an upper bound below the order fails on every query, not just the
    # first, and under the former keyword too
    for bounded in (PermGroup(a5_gens, upper_bound=30),
                    PermGroup(a5_gens, known_order=30)):
        for _ in range(2):
            with pytest.raises(VerificationError):
                bounded.order()
        with pytest.raises(VerificationError):
            bounded.contains(pid(5))
    # a bound above the order falls back to the Schreier check, which
    # returns the exact order, never the bound
    loose = PermGroup(a5_gens, upper_bound=120)
    assert loose.order() == 60 and loose.certified_by == "schreier"
    tight = PermGroup(a5_gens, upper_bound=60)
    assert tight.order() == 60 and tight.certified_by == "bound"
    assert PermGroup(a5_gens).certified_by is None
    assert PermGroup(a5_gens).order() == 60


def test_socle_bound():
    a5 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),
                    perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
    M = DirectPower(a5, 3)
    tau = tuple((x + 5) % 15 for x in range(15))
    swap = perm_from_cycles(15, [(0, 1)])
    # <M, tau, swap> = S5 wr C3 and <M, tau> = A5 wr C3
    gens = list(M.gens) + [tau, swap]
    assert socle_bound(gens, M) == 60**3 * 24 == 120**3 * 3
    wreath = PermGroup(gens, degree=15, upper_bound=socle_bound(gens, M))
    assert wreath.order() == PermGroup(gens, degree=15).order() == 120**3 * 3
    assert wreath.certified_by == "bound"
    assert socle_bound(list(M.gens) + [tau], M) == 60**3 * 3
    # without M among the generators the bound is only an upper bound:
    # <tau> has order 3, proven by the Schreier check
    cyclic = PermGroup([tau], degree=15, upper_bound=socle_bound([tau], M))
    assert cyclic.order() == 3 and cyclic.certified_by == "schreier"
    # a generator that does not normalize M gives no bound
    assert socle_bound([perm_from_cycles(15, [(0, 5)])], M) is None


def test_order_stable_across_base_and_seed():
    g = mobius_psl2(7)
    for hint in ([4, 2, 0], [7, 5, 3, 1], [0]):
        assert PermGroup(g.gens, base_hint=hint).order() == 168
    for seed in (1, 2, 3):
        assert PermGroup(g.gens, seed=seed).order() == 168
    # the fundamental orbit lengths multiply to the order either way
    alt = PermGroup(g.gens, base_hint=[6, 2])
    prod = 1
    for orb in alt.fundamental_orbits():
        prod *= len(orb)
    assert prod == 168


def test_elements_enumeration():
    s4 = PermGroup([perm_from_cycles(4, [(0, 1, 2, 3)]),
                    perm_from_cycles(4, [(0, 1)])])
    els = s4.elements()
    assert len(els) == 24 == len(set(els))
    assert pid(4) in els
    for x in els[:8]:
        assert s4.contains(x)
    s5 = PermGroup([perm_from_cycles(5, [(0, 1, 2, 3, 4)]),
                    perm_from_cycles(5, [(0, 1)])])
    with pytest.raises(ValueError):
        s5.elements(limit=50)


def test_canonical_coset_reps():
    s4 = PermGroup([perm_from_cycles(4, [(0, 1, 2, 3)]),
                    perm_from_cycles(4, [(0, 1)])])
    s3 = PermGroup([perm_from_cycles(4, [(0, 1, 2)]),
                    perm_from_cycles(4, [(0, 1)])])
    reps = {}
    for x in s4.elements():
        rep = s3.canonical_coset_rep(x)
        key = frozenset(pmul(h, x) for h in s3.elements())
        assert rep in key
        assert reps.setdefault(key, rep) == rep
    assert len(reps) == 4
    assert len(set(reps.values())) == 4


def test_coset_action_point_stabilizer():
    s4 = PermGroup([perm_from_cycles(4, [(0, 1, 2, 3)]),
                    perm_from_cycles(4, [(0, 1)])])
    s3 = PermGroup([perm_from_cycles(4, [(0, 1, 2)]),
                    perm_from_cycles(4, [(0, 1)])])
    ca = coset_action(s4, s3)
    assert ca.group.degree == 4
    assert len(ca.representatives) == 4
    # faithful for a core-free point stabilizer
    assert ca.group.order() == 24
    rep = action_report(ca.group)
    assert rep.two_transitive and rep.primitive
    # labeling is consistent: index_of tracks right multiplication
    for x in s4.elements()[:10]:
        i = ca.index_of(x)
        for gi, g in enumerate(s4.gens):
            target = ca.index_of(pmul(x, g))
            assert ca.group.gens[gi][i] == target


def test_coset_action_errors():
    a4 = PermGroup([perm_from_cycles(4, [(0, 1, 2)]),
                    perm_from_cycles(4, [(0, 1), (2, 3)])])
    s2 = PermGroup([perm_from_cycles(4, [(0, 1)])])
    with pytest.raises(ValueError):
        coset_action(a4, s2)
    s5 = PermGroup([perm_from_cycles(5, [(0, 1, 2, 3, 4)]),
                    perm_from_cycles(5, [(0, 1)])])
    triv = PermGroup([], degree=5)
    with pytest.raises(ValueError):
        coset_action(s5, triv, limit=10)
    with pytest.raises(ValueError):
        coset_action(s5, PermGroup([perm_from_cycles(4, [(0, 1)])]))


def test_filtered_intersection():
    s4 = PermGroup([perm_from_cycles(4, [(0, 1, 2, 3)]),
                    perm_from_cycles(4, [(0, 1)])])
    s3 = PermGroup([perm_from_cycles(4, [(0, 1, 2)]),
                    perm_from_cycles(4, [(0, 1)])])
    a4 = PermGroup([perm_from_cycles(4, [(0, 1, 2)]),
                    perm_from_cycles(4, [(0, 1), (2, 3)])])
    c3 = filtered_intersection_with_product(s3, a4)
    assert c3.order() == 3
    assert c3.contains(perm_from_cycles(4, [(0, 1, 2)]))
    assert not c3.contains(perm_from_cycles(4, [(0, 1)]))
    assert filtered_intersection_with_product(s4, a4).order() == 12


def test_normalizers():
    s4 = PermGroup([perm_from_cycles(4, [(0, 1, 2, 3)]),
                    perm_from_cycles(4, [(0, 1)])])
    c4 = PermGroup([perm_from_cycles(4, [(0, 1, 2, 3)])])
    assert normalizer_by_enumeration(s4, c4).order() == 8
    a5 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),
                    perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
    c5 = PermGroup([perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
    assert normalizer_by_enumeration(a5, c5).order() == 10


def test_affine_group_primitive():
    # AGL_1(16) on the 16 field elements, and the subgroup generated by
    # translations and the cube of the multiplier (order divisible by 5,
    # a primitive prime divisor of 2^4 - 1): both act primitively
    k = GF(2, 4)
    translations = []
    for c in (1, 2, 4, 8):
        translations.append(tuple(k.add(x, c) for x in range(16)))
    g = k.unit_generators()
    mu = k.mul(g.odd_part, g.two_part)
    mult = tuple(k.mul(x, mu) for x in range(16))
    agl = PermGroup(translations + [mult])
    assert agl.order() == 16 * 15
    rep = action_report(agl)
    assert rep.two_transitive and rep.primitive
    sub = PermGroup(translations + [ppow(mult, 3)])
    assert sub.order() == 16 * 5
    rep = action_report(sub)
    assert rep.primitive and not rep.two_transitive
