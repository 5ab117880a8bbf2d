"""Wreath constructions: the twisting element, the measured conjugation
action, E and H, the assembled G, the bipartite family, and twisted
centralizers, against frozen orders and structure counts."""

import random

import pytest

from patgraphs import permgrp
from patgraphs.atlas import seed_pgl2, seed_psl28_gamma, seed_symmetric
from patgraphs.numth import VerificationError
from patgraphs.construct import (
    WreathElement,
    bipartite_construction,
    build_E_and_H,
    build_theta,
    compare_theta_readings,
    conjugation_matrix,
    embed_block,
    flatten,
    product_action_construction,
    twisted_centralizer,
    unflatten,
    verify_code_model_similarity,
    verify_product_intersection_with_cycle,
    wid,
    winv,
    wmul,
    wpow,
    wreath_length,
    wtau,
)
from patgraphs.eqcode import mat_order
from patgraphs.permgrp import (
    DirectPower,
    PermGroup,
    filtered_intersection_with_product,
    pconj,
    pid,
    pinv,
    pmul,
    porder,
    ppow,
)


def random_wreath(rng, n, d):
    comps = tuple(tuple(rng.sample(range(d), d)) for _ in range(n))
    return WreathElement(comps, rng.randrange(n))


def test_flattening_is_a_homomorphism():
    rng = random.Random(11)
    n, d = 4, 5
    for _ in range(150):
        a, b = random_wreath(rng, n, d), random_wreath(rng, n, d)
        assert flatten(wmul(a, b), d) == pmul(flatten(a, d), flatten(b, d))
        assert flatten(winv(a), d) == pinv(flatten(a, d))
        e = rng.randrange(-6, 7)
        assert flatten(wpow(a, e), d) == ppow(flatten(a, d), e)
        assert unflatten(flatten(a, d), n, d) == a


def test_conjugation_by_tau_rotates_components():
    rng = random.Random(12)
    n, d = 5, 4
    x = WreathElement(random_wreath(rng, n, d).components, 0)
    tau = wtau(n, d)
    rotated = wmul(wmul(winv(tau), x), tau)
    assert rotated.components == (x.components[-1],) + x.components[:-1]
    assert rotated.shift == 0


def test_unflatten_rejects_block_breaking_permutations():
    straddle = (4, 1, 2, 3, 0) + tuple(range(5, 12))
    with pytest.raises(ValueError):
        unflatten(straddle, 3, 4)
    swap_first_two = (1, 0) + tuple(range(2, 12))
    assert unflatten(swap_first_two, 3, 4).shift == 0
    assert unflatten(swap_first_two, 6, 2).shift == 0


def test_theta_orders_and_lengths():
    for q, order in ((4, 15), (7, 48), (8, 63)):
        seed = seed_pgl2(q)
        theta = build_theta(seed)
        assert wreath_length(seed) == q + 1
        assert theta.n == q + 1
        assert porder(flatten(theta, seed.degree)) == order
    seed = seed_psl28_gamma()
    theta = build_theta(seed)
    assert wreath_length(seed) == 21
    assert porder(flatten(theta, seed.degree)) == 63
    # single deviating coordinate carries the identity
    assert theta.components[1] == pid(seed.degree)
    assert all(theta.components[i] == seed.b for i in range(21) if i != 1)


def test_trailing_square_reading_is_rejected_by_order():
    seed = seed_psl28_gamma()
    with pytest.raises(VerificationError, match="order 21"):
        build_theta(seed, "trailing-square")


def test_product_intersection_divisor_rule():
    for q in (4, 7):
        seed = seed_pgl2(q)
        verify_product_intersection_with_cycle(seed, build_theta(seed))


def test_conjugation_matrix_shapes_and_orders():
    for q, size, p, order in ((4, 10, 2, 15), (7, 8, 7, 48)):
        seed = seed_pgl2(q)
        conj, prime = conjugation_matrix(seed, build_theta(seed))
        assert len(conj) == size and len(conj[0]) == size
        assert prime.p == p
        assert mat_order(prime, [list(r) for r in conj], 4 * order) == order
        verify_code_model_similarity(seed, conj)


def test_pure_shift_conjugation_matrix_is_a_permutation():
    seed = seed_pgl2(4)
    n = 5
    f = len(seed.F)
    conj, prime = conjugation_matrix(seed, wtau(n, seed.degree))
    for i in range(n):
        for j in range(f):
            row = conj[i * f + j]
            expect = ((i + 1) % n) * f + j
            assert row[expect] == 1 and sum(row) == 1


def test_valency64_conjugation_matrix():
    seed = seed_psl28_gamma()
    conj, prime = conjugation_matrix(seed, build_theta(seed))
    assert len(conj) == 63 and prime.p == 2
    assert mat_order(prime, [list(r) for r in conj], 63 * 4) == 63


def test_E_and_H_frozen_orders():
    for q, e_order, h_order, qualifying in ((4, 16, 240, 2), (7, 49, 2352, 4)):
        seed = seed_pgl2(q)
        pa = build_E_and_H(seed, build_theta(seed))
        E = PermGroup(pa.E, degree=pa.n * pa.block_degree)
        assert E.order() == e_order
        assert pa.H.order() == h_order
        assert pa.qualifying == qualifying


def test_component_index_selects_other_components():
    seed = seed_pgl2(7)
    theta = build_theta(seed)
    pa = build_E_and_H(seed, theta, component_index=3)
    assert pa.H.order() == 2352
    with pytest.raises(ValueError, match="out of range"):
        build_E_and_H(seed, theta, component_index=4)


def test_assembled_G_q4(pa4):
    assert pa4.G.order() == 3_888_000_000 == 60**5 * 5
    assert pa4.G.order() // pa4.H.order() == 16_200_000
    assert pa4.non_diagonal and pa4.socle_transitive
    meet = filtered_intersection_with_product(pa4.H,
                                              DirectPower(pa4.seed.T, 5))
    assert meet.order() == 48


def test_assembled_G_q7(pa7):
    assert pa7.G.order() == 168**8 * 16
    seed = pa7.seed
    meet = filtered_intersection_with_product(pa7.H, DirectPower(seed.T, 8))
    assert meet.order() == 147
    d = seed.degree
    elements = meet.elements()
    for i in range(8):
        proj = {x[i * d:(i + 1) * d] for x in elements}
        assert len(proj) == 21
    assert pa7.non_diagonal


def test_G_is_certified_by_its_socle_bound(monkeypatch):
    # every sift seed reaches the socle bound, so no G chain falls back
    # to the full Schreier check
    for seed in (0, 1, 2, 3):
        monkeypatch.setattr(permgrp, "DEFAULT_SEED", seed)
        for q in (4, 8):
            assert product_action_construction(q).G.certified_by == "bound"


def test_symmetric_family_pipeline():
    pa = product_action_construction(7, family="symmetric")
    t_order = pa.seed.T.order()
    assert t_order == 2520
    assert pa.G.order() == t_order**8 * 8 * 2
    assert pa.H.order() == 2352


def test_pipeline_rejects_invalid_q():
    with pytest.raises(ValueError):
        product_action_construction(5)
    with pytest.raises(ValueError):
        product_action_construction(9)


def test_bipartite_p5(bip5_symmetric, bip5_pgl2):
    for bc in (bip5_symmetric, bip5_pgl2):
        assert bc.H.order() == 80
        assert bc.K.order() == 16
        assert bc.Gstar.order() == 60**4 * 8
        assert bc.G.order() == 60**4 * 16
        assert bc.meet.order() == 10
        assert porder(bc.o) == 2
        assert not bc.Gstar.contains(bc.o)
        assert pconj(bc.bold_b, bc.o) == pinv(bc.bold_b)
    assert bip5_symmetric.n * bip5_symmetric.block_degree == 20
    assert bip5_pgl2.n * bip5_pgl2.block_degree == 24


def test_bipartite_p7():
    bc = bipartite_construction(7, "symmetric")
    assert bc.H.order() == 7 * 36
    assert bc.K.order() == 36
    assert bc.G.order() == 2520**6 * 24
    assert bc.meet.order() == 21


def test_twisted_centralizer_of_pure_shift_is_diagonal():
    seed = seed_pgl2(4)
    T = seed.T
    d = seed.degree
    tc = twisted_centralizer(T, wtau(3, d))
    assert tc.centralizer.order() == 60
    assert tc.normalizer.order() == 60
    sample = T.gens[0]
    diag = flatten(WreathElement((sample,) * 3, 0), d)
    assert tc.centralizer.contains(diag)
    assert sorted(tc.by_exponent) == [1]


def test_twisted_centralizer_requires_full_cycle():
    seed = seed_pgl2(4)
    broken = WreathElement((pid(seed.degree),) * 4, 2)
    with pytest.raises(ValueError, match="n-cycle"):
        twisted_centralizer(seed.T, broken)


def test_valency64_twisted_centralizer():
    seed = seed_psl28_gamma()
    tc = twisted_centralizer(seed.T, build_theta(seed))
    assert tc.centralizer.order() == 6
    assert tc.normalizer.order() == 18
    assert sorted(tc.by_exponent) == [1, 22, 43]
    assert all(len(v) == 6 for v in tc.by_exponent.values())
    cent = tc.by_exponent[1]
    assert sorted(porder(x) for x in cent) == [1, 2, 2, 2, 3, 3]


def test_valency64_construction(v64):
    pa = v64.pa
    assert pa.qualifying == 6
    assert pa.H.order() == 4032
    assert pa.G.order() == 504**21 * 63
    index = pa.G.order() // pa.H.order()
    assert index == 2**57 * 3**42 * 7**21
    assert 504**21 == index * 2**6
    assert v64.tc.centralizer.order() == 6
    assert v64.tc.normalizer.order() == 18
    assert v64.double_coset_classes == 2
    assert v64.classes_up_to_normalizer == 1
    assert porder(v64.g) == 2
    assert v64.h_normalizer is not None
    # the H-normalizing involution fixes H and swaps the two edge classes
    assert pconj(v64.h_normalizer, v64.h_normalizer) == v64.h_normalizer
    for gen in pa.H.gens:
        assert pa.H.contains(pconj(gen, v64.h_normalizer))


def test_theta_reading_comparison():
    reports = compare_theta_readings()
    by_name = {r.reading: r for r in reports}
    assert by_name["trailing-square"].rejected is not None
    primary = by_name["primary"]
    alt = by_name["trailing-identity"]
    assert primary.rejected is None and alt.rejected is None
    assert primary.component_count == alt.component_count == 13
    assert primary.dimensions == alt.dimensions == (1, 2, 3, 3) + (6,) * 9
    assert primary.regular_count == alt.regular_count == 6
    assert primary.centralizer_order == alt.centralizer_order == 6
    assert primary.normalizer_order == alt.normalizer_order == 18
    assert primary.involutions == alt.involutions == 3


def test_embedding_blocks_commute_disjointly():
    seed = seed_pgl2(4)
    d = seed.degree
    a = flatten(embed_block(seed.F[0], 0, 3), d)
    b = flatten(embed_block(seed.F[1], 2, 3), d)
    assert pmul(a, b) == pmul(b, a)
    assert wid(3, d).components == (pid(d),) * 3
