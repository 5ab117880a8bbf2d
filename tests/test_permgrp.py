import random

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from patgraphs import permgrp
from patgraphs.atlas import seed_pgl2
from patgraphs.construct import (
    bipartite_construction,
    build_E_and_H,
    build_theta,
    product_action_construction,
    regular_components,
)
from patgraphs.gf import GF
from patgraphs.graphcert import certify
from patgraphs.numth import VerificationError
from patgraphs.permgrp import (
    DirectPower,
    PermGroup,
    action_report,
    coset_action,
    cycles,
    filtered_intersection_with_product,
    is_two_transitive,
    orbit_partition,
    pconj,
    perm_from_cycles,
    pid,
    pinv,
    pmul,
    porder,
    ppow,
    socle_group,
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


def test_two_transitivity_without_the_order():
    s5 = PermGroup([perm_from_cycles(5, [(0, 1, 2, 3, 4)]),
                    perm_from_cycles(5, [(0, 1)])])
    a5 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),
                    perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
    c5 = PermGroup([perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
    # S2 wr S3 on six points: transitive, imprimitive
    wreath = PermGroup([perm_from_cycles(6, [(0, 1)]),
                        perm_from_cycles(6, [(0, 2, 4), (1, 3, 5)]),
                        perm_from_cycles(6, [(0, 2), (1, 3)])])
    two = PermGroup([perm_from_cycles(2, [(0, 1)])])
    # fixes 0 and is transitive on the other points
    intransitive = PermGroup([perm_from_cycles(4, [(1, 2, 3)])])
    for group, expected in ((s5, True), (a5, True), (two, True),
                            (c5, False), (wreath, False),
                            (intransitive, False), (PermGroup([], degree=1),
                                                    True)):
        fresh = PermGroup(group.gens, degree=group.degree)
        assert is_two_transitive(fresh) is expected
        assert fresh._levels is None
        assert action_report(group).two_transitive is expected
    with pytest.raises(ValueError):
        is_two_transitive(PermGroup([], degree=0))


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
    # the second round answers from the per-block cache
    for _ in range(2):
        assert dp.contains(tuple(inside))
        assert not dp.contains(tuple(odd))
        assert not dp.contains(tuple(crossing))


def test_slice_keyed_socle_kernels_match_the_per_piece_definitions():
    # DirectPower.contains caches each block's verdict under its raw
    # slice, and _PowerCosets buckets cosets by each block's least image;
    # both must agree with the per-piece definitions: x lies in M = T^n
    # when every block's piece lies in T, and My = Mr when y*r^-1 does
    a5 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),
                    perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
    n, d = 4, 5
    M = DirectPower(a5, n)

    def in_M(x):
        pieces = [tuple(v - i * d for v in x[i * d:(i + 1) * d])
                  for i in range(n)]
        return all(min(p) >= 0 and max(p) < d and a5.contains(p)
                   for p in pieces)

    # G = S_5 wr C_4; its odd elements and block-crossing permutations
    # lie outside M
    odd = perm_from_cycles(20, [(0, 1)])
    tau = tuple((x + d) % 20 for x in range(20))
    G = list(M.gens) + [odd, tau]
    rng = random.Random(24)

    def word(gens, length):
        x = pid(20)
        for _ in range(length):
            x = pmul(x, rng.choice(gens))
        return x

    queries = [word(G, 12) for _ in range(20)]
    queries += [pmul(word(G, 6), perm_from_cycles(20, [(2, 7)]))
                for _ in range(5)]
    queries += [tuple(rng.sample(range(20), 20)) for _ in range(5)]
    assert any(map(in_M, queries)) and not all(map(in_M, queries))
    # an image past either end of the domain, tested before the identity
    broken = [(*range(19), -1), (20, *range(1, 20)), pid(20)]
    # the second round answers from the per-block cache
    for x in 2 * (broken + queries):
        assert M.contains(x) == in_M(x)
    # each query again, moved within its coset by an element of M
    ys = queries + [pmul(word(list(M.gens), 8), y) for y in queries]
    locate = M._coset_labeler()
    labels = [locate(y) for y in ys]
    # labels are handed out in order of first sight
    assert list(dict.fromkeys(labels)) == list(range(len(set(labels))))
    for y, label in zip(ys, labels):
        for r, other in zip(ys, labels):
            assert (label == other) == in_M(pmul(y, pinv(r)))


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
    # <M, tau, swap> = S5 wr C3 and <M, tau> = A5 wr C3: the walked bound
    # is met, and a chain on the same generators agrees
    for extra, order in (([tau, swap], 60**3 * 24), ([tau], 60**3 * 3)):
        gens = list(M.gens) + extra
        group = socle_group(gens, M)
        assert group.order() == order and group.certified_by == "bound"
        oracle = PermGroup(gens, degree=15, upper_bound=order)
        assert oracle.order() == PermGroup(gens, degree=15).order() == order
        assert oracle.certified_by == "bound"
    # a list without all of M's generators fails before any walk: <tau>
    # has order 3, and M's generators but one still generate <M, tau>
    for gens in ([tau], [tau] + list(M.gens)[1:]):
        with pytest.raises(VerificationError,
                           match="do not list every generator of T\\^n"):
            socle_group(gens, M)
    # with M's generators, a generator that does not normalize M fails
    with pytest.raises(VerificationError, match="does not normalize T\\^n"):
        socle_group(list(M.gens) + [perm_from_cycles(15, [(0, 5)])], M)
    with pytest.raises(ValueError, match="not a permutation"):
        socle_group([(0,) * 15], M)


def test_socle_group_validates_each_generator_once(monkeypatch):
    # PermGroup.__init__ checks the list; socle_group checks it no more
    a5 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),
                    perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
    M = DirectPower(a5, 3)
    tau = tuple((x + 5) % 15 for x in range(15))
    gens = list(M.gens) + [tau]
    checked = []
    is_permutation = permgrp._is_permutation

    def counting(x, degree):
        if degree == M.degree:
            checked.append(x)
        return is_permutation(x, degree)

    monkeypatch.setattr(permgrp, "_is_permutation", counting)
    assert socle_group(gens, M).order() == 60**3 * 3
    assert checked == gens


def test_socle_extension_orders_and_tests_membership_without_a_chain():
    a5 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),
                    perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
    M = DirectPower(a5, 3)
    tau = tuple((x + 5) % 15 for x in range(15))
    swap = perm_from_cycles(15, [(0, 1)])
    rng = random.Random(3)
    # with M's generators, order and membership come through M, with no
    # chain
    for extra, order in (([tau, swap], 120**3 * 3), ([tau], 60**3 * 3),
                         ([swap], 120 * 60**2), ([], 60**3)):
        gens = list(M.gens) + extra
        group = socle_group(gens, M)
        assert group.order() == order
        assert group.certified_by == "bound"
        oracle = PermGroup(gens, degree=15, upper_bound=order)
        queries = [swap, tau, pmul(swap, tau), pid(15),
                   perm_from_cycles(15, [(0, 5)])]
        queries += [tuple(rng.sample(range(15), 15)) for _ in range(20)]
        for x in queries:
            assert group.contains(x) == oracle.contains(x)
        assert group._levels is None
        with pytest.raises(ValueError):
            group.contains((0,) * 15)
        with pytest.raises(ValueError):
            group.contains(pid(14))
        # any other query builds the chain, sifted to the same order
        assert len(group.base()) > 0 and group.order() == order
    # without all of M's generators, or with one that does not normalize
    # M, there is no group
    with pytest.raises(VerificationError):
        socle_group([tau] + list(M.gens)[1:], M)
    with pytest.raises(VerificationError):
        socle_group(list(M.gens) + [perm_from_cycles(15, [(0, 5)])], M)


def _socle_queries(group, extra, rng):
    """The generators, products of them, the given elements and random
    permutations of the domain."""
    gens = list(group.gens)
    queries = gens + list(extra)
    x = pid(group.degree)
    for _ in range(6):
        a, b = rng.choice(gens), rng.choice(gens)
        queries.append(pmul(a, b))
        x = pmul(x, a)
        queries.append(x)
    queries += [tuple(rng.sample(range(group.degree), group.degree))
                for _ in range(6)]
    return queries


@pytest.mark.parametrize("kind,value", [("q", 4), ("q", 7), ("q", 8),
                                        ("p", 5), ("p", 7)])
def test_socle_groups_match_bounded_sift(kind, value):
    # G and G* are ordered and tested through the socle; a chain sifted to
    # the same bound must agree on the order and on every membership query
    rng = random.Random(value)
    if kind == "q":
        pa = product_action_construction(value)
        groups = [pa.G]
        extra = [x for x in (pa.o, pa.theta) if x is not None]
        extra += list(pa.H.gens)
    else:
        bc = bipartite_construction(value)
        groups = [bc.Gstar, bc.G]
        extra = [bc.o, bc.bold_a, bc.bold_b, bc.tau]
    for group in groups:
        assert group.certified_by == "bound"
        oracle = PermGroup(group.gens, degree=group.degree,
                           upper_bound=group.order())
        assert oracle.order() == group.order()
        answers = []
        for x in _socle_queries(group, extra, rng):
            answers.append(group.contains(x))
            assert answers[-1] == oracle.contains(x)
        assert set(answers) == {True, False}
        assert group._levels is None
    if kind == "p":
        assert not bc.Gstar.contains(bc.o) and bc.G.contains(bc.o)


def _projections_against_enumeration(M, sub):
    """Check pi_i(sub), generated by the pieces of sub's generators,
    against the set of pieces of every element, and the kernel of pi_0
    against the elements trivial on block 0; returns which projections
    are injective."""
    elements = sub.elements()
    assert len(elements) == sub.order()
    d = M.factor.degree
    injective = []
    for i in range(M.copies):
        pieces = {tuple(y - i * d for y in x[i * d:(i + 1) * d])
                  for x in elements}
        proj = M.projection(sub, i)
        assert proj.degree == d
        assert proj.order() == len(pieces), f"projection {i}"
        assert all(proj.contains(x) for x in pieces)
        injective.append(len(pieces) == len(elements))
        assert (proj.order() == sub.order()) == injective[-1]
    kernel = [x for x in elements if x[:d] == pid(d)]
    assert sub.order() // M.projection(sub, 0).order() == len(kernel)
    return injective


@pytest.mark.parametrize("kind,value", [("q", 4), ("q", 7), ("q", 8),
                                        ("p", 5), ("p", 7), ("v64", 8)])
def test_projections_by_generators_match_enumeration(kind, value, request):
    # pi_i(T^n meet H) from its generators, against brute force
    if kind == "q":
        c = product_action_construction(value)
    elif kind == "p":
        c = bipartite_construction(value)
    else:
        c = request.getfixturevalue("v64")
    cert = certify(c)
    injective = _projections_against_enumeration(cert.G.socle, cert.meet)
    # the bipartite meet is diagonal, the product-action one is not
    assert all(injective) == (kind == "p")


def test_projections_differ_by_block():
    # <(c3, 1, c5), (1, c2, 1)> in A5^3 projects to C3, C2 and C5
    a5 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),
                    perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
    M = DirectPower(a5, 3)
    sub = PermGroup([perm_from_cycles(15, [(0, 1, 2), (10, 11, 12, 13, 14)]),
                     perm_from_cycles(15, [(5, 6), (7, 8)])])
    assert sub.order() == 30
    assert [M.projection(sub, i).order() for i in range(3)] == [3, 2, 5]
    assert _projections_against_enumeration(M, sub) == [False] * 3


def test_order_stable_across_base_and_seed():
    g = mobius_psl2(7)
    for seed in (1, 2, 3):
        grp = PermGroup(g.gens, seed=seed)
        assert grp.seed == seed
        assert grp.order() == 168


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


def _filtered(small, big):
    return {x for x in small.elements() if big.contains(x)}


def test_intersection_matches_filtering():
    # the coset walk against the filtering it replaced
    s4 = PermGroup([perm_from_cycles(4, [(0, 1, 2, 3)]),
                    perm_from_cycles(4, [(0, 1)])])
    a4 = PermGroup([perm_from_cycles(4, [(0, 1, 2)]),
                    perm_from_cycles(4, [(0, 1), (2, 3)])])
    s5 = PermGroup([perm_from_cycles(5, [(0, 1, 2, 3, 4)]),
                    perm_from_cycles(5, [(0, 1)])])
    a5 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),
                    perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
    d10 = PermGroup([perm_from_cycles(5, [(0, 1, 2, 3, 4)]),
                     perm_from_cycles(5, [(1, 4), (2, 3)])])
    s4_in_s5 = PermGroup([perm_from_cycles(5, [(0, 1, 2, 3)]),
                          perm_from_cycles(5, [(0, 1)])])
    for small, big, order in ((s4, a4, 12), (a4, s4, 12), (s5, a5, 60),
                              (a5, s4_in_s5, 12), (s5, d10, 10)):
        meet = filtered_intersection_with_product(small, big)
        assert meet.order() == order
        assert set(meet.elements()) == _filtered(small, big)
        assert meet.certified_by == "bound"


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


# -- the product kernels against the plain generator-expression forms --


def _ref_mul(a, b):
    return tuple(b[i] for i in a)


def _ref_inv(a):
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def _ref_pow(a, e):
    if e < 0:
        a, e = _ref_inv(a), -e
    out = tuple(range(len(a)))
    for _ in range(e):
        out = _ref_mul(out, a)
    return out


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 64, 156])
def test_kernels_match_reference(degree):
    rng = random.Random(degree)
    for _ in range(20):
        a = tuple(rng.sample(range(degree), degree))
        b = tuple(rng.sample(range(degree), degree))
        assert pmul(a, b) == _ref_mul(a, b)
        assert type(pmul(a, b)) is tuple
        assert pinv(a) == _ref_inv(a)
        for e in (-3, -1, 0, 1, 2, 5):
            assert ppow(a, e) == _ref_pow(a, e)


def _wreath_s5_c3():
    # S5 wr C3 on three blocks of five points
    gens = [perm_from_cycles(15, [(0, 1)]),
            perm_from_cycles(15, [(0, 1, 2, 3, 4)]),
            perm_from_cycles(15, [(0, 5, 10), (1, 6, 11), (2, 7, 12),
                                  (3, 8, 13), (4, 9, 14)])]
    return PermGroup(gens)


def _assert_transversal_inverses_of(lvl):
    assert set(lvl.inverse) == set(lvl.transversal)
    for q, u in lvl.transversal.items():
        assert u[lvl.beta] == q
        assert lvl.inverse[q] == pinv(u)


def test_level_extend_inverts_by_one_product():
    # extend alone, with no sift around it: after each generator, every
    # stored inverse is the inverse of its transversal element
    a5 = [perm_from_cycles(5, [(0, 1, 2)]), perm_from_cycles(5, [(2, 3, 4)])]
    for gens in (a5, list(_wreath_s5_c3().gens)):
        lvl = permgrp._Level(0)
        lvl.transversal[0] = lvl.inverse[0] = pid(len(gens[0]))
        for g in gens:
            lvl.extend(g)
            _assert_transversal_inverses_of(lvl)


def test_chain_inverses_are_transversal_inverses():
    a5 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),
                    perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
    wreath = _wreath_s5_c3()
    assert a5.order() == 60
    assert wreath.order() == 120**3 * 3
    for group in (a5, wreath):
        for lvl in group._levels:
            _assert_transversal_inverses_of(lvl)


def test_chain_inverses_of_q7_H(pa7):
    assert pa7.H.order() == 49 * 48
    for lvl in pa7.H._levels:
        _assert_transversal_inverses_of(lvl)


def test_schreier_generators_use_transversal_inverses(pa7):
    # each generator is u_i * g * u_(i^g)^-1 with the true inverse, in the
    # order the walk yields them, and lies in the subgroup
    s5 = PermGroup([perm_from_cycles(5, [(0, 1, 2, 3, 4)]),
                    perm_from_cycles(5, [(0, 1)])])
    a4 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),
                    perm_from_cycles(5, [(0, 1), (2, 3)])])
    theta = PermGroup([pa7.theta])
    for group, sub in ((s5, a4), (_wreath_s5_c3(), DirectPower(s5, 3)),
                       (pa7.H, theta)):
        walk = permgrp._coset_walk(group.gens, pid(group.degree),
                                   sub._coset_labeler())
        ident = pid(group.degree)
        expected = []
        for i, u in enumerate(walk.transversal):
            for g, img in zip(walk.gens, walk.action):
                s = _ref_mul(_ref_mul(u, g),
                             _ref_inv(walk.transversal[img[i]]))
                if s != ident and s not in expected:
                    expected.append(s)
        got = list(walk.schreier_generators())
        assert got == expected
        assert all(sub.contains(s) for s in got)


def test_point_walk_matches_the_coset_walk(pa7):
    # _point_walk walks orbit points, and yields the Schreier
    # generators of the generic walk labeled by y[0], in the same order,
    # on H's action on the neighbours at q = 7 and q = 27
    seed = seed_pgl2(27)
    pa27 = build_E_and_H(seed, regular_components(seed, build_theta(seed)))
    for pa in (pa7, pa27):
        action = permgrp.coset_stabilizer(pa.H, pa.H, pa.o)[1]
        assert action.degree == pa.seed.q**2
        labels = {}
        walk = permgrp._coset_walk(
            action.gens, pid(action.degree),
            lambda y: labels.setdefault(y[0], len(labels)))
        expected = list(walk.schreier_generators())
        walked = permgrp._point_walk(action, 0).schreier_generators()
        assert list(walked) == expected


def test_two_transitivity_stops_early_at_q27(monkeypatch):
    # is_two_transitive merges the stabilizer's orbits one Schreier
    # generator at a time and stops once the other points are one class,
    # so on H's action on the neighbours at q = 27 it takes fewer than all
    seed = seed_pgl2(27)
    pa27 = build_E_and_H(seed, regular_components(seed, build_theta(seed)))
    action = permgrp.coset_stabilizer(pa27.H, pa27.H, pa27.o)[1]
    full = list(permgrp._point_walk(action, 0).schreier_generators())
    taken = []
    walk = permgrp._CosetOrbit.schreier_generators

    def counted(self):
        for s in walk(self):
            taken.append(s)
            yield s

    monkeypatch.setattr(permgrp._CosetOrbit, "schreier_generators", counted)
    assert is_two_transitive(action)
    assert 0 < len(taken) < len(full)
    assert taken == full[:len(taken)]


def test_stabilizer_gens_fix_the_point(pa7):
    s5 = PermGroup([perm_from_cycles(5, [(0, 1, 2, 3, 4)]),
                    perm_from_cycles(5, [(0, 1)])])
    for group in (s5, _wreath_s5_c3(), pa7.H):
        orbit = next(o for o in orbit_partition(group.gens, group.degree)
                     if 0 in o)
        gens = list(permgrp._point_walk(group, 0).schreier_generators())
        assert gens and all(s[0] == 0 for s in gens)
        stab = PermGroup(gens, degree=group.degree)
        assert stab.order() * len(orbit) == group.order()
