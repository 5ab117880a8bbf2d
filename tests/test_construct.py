"""Wreath constructions: the twisting element, the measured conjugation
action, E and H, the assembled G, the bipartite family, and twisted
centralizers, against frozen orders and structure counts."""

import dataclasses
import random

import pytest

from patgraphs import construct
from patgraphs.atlas import seed_pgl2, seed_psl28_gamma, seed_symmetric
from patgraphs.numth import VerificationError
from patgraphs.construct import (
    assemble_G,
    bipartite_construction,
    build_E_and_H,
    build_theta,
    compare_theta_readings,
    conjugation_matrix,
    product_action_construction,
    regular_components,
    theta_reading_counts,
    twisted_centralizer,
    valency64_construction,
    verify_code_model_similarity,
    wreath,
    wreath_length,
)
from patgraphs.eqcode import Code, decompose_invariant
from patgraphs.graphcert import certify
from patgraphs.permgrp import (
    AffineGroup,
    DirectPower,
    PermGroup,
    affine_group,
    filtered_intersection_with_product,
    pconj,
    perm_from_cycles,
    pid,
    pinv,
    pmul,
    porder,
    ppow,
)


def random_components(rng, n, d):
    return tuple(tuple(rng.sample(range(d), d)) for _ in range(n))


def test_wreath_follows_the_product_law():
    # (x, s)(y, t) = ((x_i * y_(i+s))_i, s + t): the flat permutations
    # multiply as the elements of X wr C_n they stand for, and the
    # components and shift read back are those they were built from
    rng = random.Random(11)
    n, d = 4, 5
    for _ in range(50):
        x, y = random_components(rng, n, d), random_components(rng, n, d)
        s, t = rng.randrange(n), rng.randrange(n)
        product = [pmul(x[i], y[(i + s) % n]) for i in range(n)]
        assert pmul(wreath(x, s, d), wreath(y, t, d)) == wreath(product,
                                                                s + t, d)
        assert construct._wreath_parts(wreath(x, s, d), d) == (x, s)


def test_conjugation_by_tau_rotates_components():
    rng = random.Random(12)
    n, d = 5, 4
    comps = random_components(rng, n, d)
    tau = wreath((pid(d),) * n, 1, d)
    assert pconj(wreath(comps, 0, d), tau) == wreath(comps[-1:] + comps[:-1],
                                                     0, d)


def test_conjugation_matrix_rejects_a_theta_breaking_blocks():
    # a theta that carries a point across blocks takes an embedded F
    # generator outside F^n, so its conjugate has no coordinates
    seed = seed_pgl2(4)
    d = seed.degree
    straddle = perm_from_cycles(5 * d, [(0, d)])
    with pytest.raises(ValueError, match="not invariant"):
        conjugation_matrix(seed, straddle)


def test_theta_orders_and_lengths():
    for q, order in ((4, 15), (7, 48), (8, 63)):
        seed = seed_pgl2(q)
        theta = build_theta(seed)
        assert wreath_length(seed) == q + 1
        assert len(theta) == (q + 1) * seed.degree
        assert porder(theta) == order
    seed = seed_psl28_gamma()
    theta = build_theta(seed)
    assert wreath_length(seed) == 21
    assert porder(theta) == 63
    # single deviating coordinate carries the identity
    comps = [seed.b] * 21
    comps[1] = pid(seed.degree)
    assert theta == wreath(comps, 1, seed.degree)


def test_trailing_square_reading_is_rejected_by_order():
    seed = seed_psl28_gamma()
    with pytest.raises(VerificationError, match="order 21"):
        build_theta(seed, "trailing-square")


def test_valency64_construction_fails_a_rejected_reading():
    # the report of the trailing-square reading holds no theta, and the
    # construction fails with the reason the report gives
    seed = seed_psl28_gamma()
    report = theta_reading_counts(seed, "trailing-square")
    assert "order 21" in report.rejected
    with pytest.raises(VerificationError) as err:
        valency64_construction(seed, report)
    assert str(err.value) == report.rejected


def test_conjugation_matrix_shapes_and_orders():
    for q, size, p, order in ((4, 10, 2, 15), (7, 8, 7, 48)):
        seed = seed_pgl2(q)
        conj, prime = conjugation_matrix(seed, build_theta(seed))
        assert len(conj) == size and len(conj[0]) == size
        assert prime.p == p
        assert decompose_invariant(conj, prime).order == order
        verify_code_model_similarity(seed, conj)


def test_pure_shift_conjugation_matrix_is_a_permutation():
    seed = seed_pgl2(4)
    n = 5
    f = len(seed.F)
    conj, prime = conjugation_matrix(seed,
                                     wreath((pid(seed.degree),) * n, 1,
                                            seed.degree))
    for i in range(n):
        for j in range(f):
            row = conj[i * f + j]
            expect = ((i + 1) % n) * f + j
            assert row[expect] == 1 and sum(row) == 1


def test_valency64_conjugation_matrix():
    seed = seed_psl28_gamma()
    conj, prime = conjugation_matrix(seed, build_theta(seed))
    assert len(conj) == 63 and prime.p == 2
    assert decompose_invariant(conj, prime).order == 63


def test_E_and_H_frozen_orders():
    for q, e_order, h_order, qualifying in ((4, 16, 240, 2), (7, 49, 2352, 4)):
        seed = seed_pgl2(q)
        pa = build_E_and_H(seed, regular_components(seed, build_theta(seed)))
        E = PermGroup(pa.E, degree=pa.n * pa.block_degree)
        assert E.order() == e_order
        assert pa.H.order() == h_order
        assert pa.qualifying == qualifying


def test_E_and_H_are_certified_by_their_bounds(monkeypatch):
    # H = E:<theta> is an AffineGroup, whose order |E| |theta| comes from
    # affine_group's proof: the only chains sifted are those of E and
    # <theta>, and under every sift seed each meets its proven bound and
    # never falls back to the full Schreier check; H's order builds no
    # chain of H
    completed = []
    complete = PermGroup._complete

    def recording(self, ident):
        complete(self, ident)
        completed.append(self)

    monkeypatch.setattr(PermGroup, "_complete", recording)
    for seed in (0, 1, 2, 3):
        for q in (4, 8):
            base = seed_pgl2(q, seed=seed)
            rc = regular_components(base, build_theta(base))
            completed.clear()
            pa = build_E_and_H(base, rc)
            H = pa.H
            assert isinstance(H, AffineGroup)
            assert H.order() == q * q * (q * q - 1)
            assert H.translations.order() == q * q
            assert H.complement.order() == q * q - 1
            assert {id(x) for x in completed} == {
                id(H.translations), id(H.complement)}
            assert all(x.certified_by == "bound" for x in completed)
            assert H.certified_by == "bound" and H._levels is None


E_AND_H_SEEDS = [(seed_pgl2, 4), (seed_pgl2, 7), (seed_pgl2, 8),
                 (seed_symmetric, 7), (seed_psl28_gamma, None)]


def _seed(make, q):
    return make() if q is None else make(q)


@pytest.mark.parametrize("make,q", E_AND_H_SEEDS)
def test_E_and_H_list_no_codeword(monkeypatch, make, q):
    # E is proven from its 2f witness rows; no codeword is enumerated
    def refuse(self):
        raise AssertionError("Code.codewords was called")

    monkeypatch.setattr(Code, "codewords", refuse)
    seed = _seed(make, q)
    pa = build_E_and_H(seed, regular_components(seed, build_theta(seed)))
    assert pa.H.order() == seed.q**2 * (seed.q**2 - 1)
    assert len(pa.E) == 2 * seed.field.f


@pytest.mark.parametrize("make,q", E_AND_H_SEEDS)
def test_column_spaces_match_a_codeword_oracle(make, q):
    # the rank-based projection and kernel verdicts against the
    # projections and kernels of every codeword, coordinate by coordinate
    seed = _seed(make, q)
    pa = build_E_and_H(seed, regular_components(seed, build_theta(seed)))
    prime = seed.field.prime_field
    f = len(seed.F)
    code = Code(prime, len(pa.code_witness[0]), pa.code_witness)
    words = list(code.codewords())
    assert len(words) == seed.q**2
    spaces = construct.coordinate_column_spaces(prime, pa.code_witness, f)
    kernels = []
    for i, space in enumerate(spaces):
        blocks = [w[i * f:(i + 1) * f] for w in words]
        assert len(set(blocks)) == prime.p ** len(space)
        kernels.append(frozenset(w for w, b in zip(words, blocks)
                                 if not any(b)))
        assert len(kernels[i]) == prime.p ** (2 * f - len(space)) > 1
    for i in range(pa.n):
        for j in range(pa.n):
            assert (kernels[i] == kernels[j]) == (spaces[i] == spaces[j])
    if seed.family == "psl28-gamma":
        assert all(0 < len(s) < f for s in spaces)
    else:
        assert all(len(s) == f for s in spaces)
        assert len(set(kernels)) == pa.n


def test_component_index_selects_other_components():
    seed = seed_pgl2(7)
    rc = regular_components(seed, build_theta(seed))
    pa = build_E_and_H(seed, rc, component_index=3)
    assert pa.H.order() == 2352
    with pytest.raises(ValueError, match="out of range"):
        build_E_and_H(seed, rc, component_index=4)


def test_theta_must_be_transitive_on_E():
    # q = 8's invariant 6-dimensional component on which theta has order
    # 21: E is elementary abelian of order 64 and <E, theta> still has
    # order 64 * 63.  build_E_and_H rejects it by its coordinate kernels
    # first; affine_group makes a plain group of it too, as theta is not
    # transitive on E minus 1, the premise that H's 2-transitivity on the
    # cosets of <theta> is argued from
    seed = seed_pgl2(8)
    theta = build_theta(seed)
    rc = regular_components(seed, theta)
    [slow] = [c.code for c in rc.decomposition.components
              if c.code.dim == 6 and c.order == 21]
    with pytest.raises(VerificationError,
                       match="coordinate kernels of E are not distinct"):
        build_E_and_H(seed, dataclasses.replace(rc, codes=(slow,)))
    table = construct._coefficient_table(seed)
    element = {coeffs: el for el, coeffs in table.items()}
    n, d, f = len(theta) // seed.degree, seed.degree, len(seed.F)
    E = [wreath([element[v[i * f:(i + 1) * f]] for i in range(n)], 0, d)
         for v in slow.basis]
    assert PermGroup(E, degree=n * d).order() == 64
    assert PermGroup([*E, theta]).order() == 64 * 63
    H = affine_group([*E, theta], -1, degree=n * d)
    assert type(H) is PermGroup


def test_assembled_G_q4(pa4):
    assert pa4.G.order() == 3_888_000_000 == 60**5 * 5
    assert pa4.G.order() // pa4.H.order() == 16_200_000
    meet = filtered_intersection_with_product(pa4.H,
                                              DirectPower(pa4.seed.T, 5))
    assert meet.order() == certify(pa4).meet.order() == 48


def test_product_intersection_divisor_rule(pa4, pa7):
    # T^n meets <theta> in <theta^m>, m = n |X:T|: theta^m lies in T^n
    # and theta^(m/r) does not for any prime r dividing m, which is the
    # fact assemble_G's order |G| = |T|^n * n * |X:T| proves
    for pa in (pa4, pa7):
        seed = pa.seed
        m = pa.n * seed.index_XT
        assert pa.G.order() == seed.T.order()**pa.n * m
        assert pa.G.socle.contains(ppow(pa.theta, m))
        for r in {r for r in range(2, m + 1)
                  if m % r == 0 and all(r % s for s in range(2, r))}:
            assert not pa.G.socle.contains(ppow(pa.theta, m // r))


def test_product_intersection_walk_catches_a_wrong_index(pa7):
    # |G| = |T|^n * n * |X:T| holds exactly when T^n meets <theta> in
    # <theta^(n |X:T|)>; a wrong |X:T|, or a theta whose shift is not
    # prime to n, fails assemble_G's order check
    seed = pa7.seed
    wrong = [dataclasses.replace(pa7, seed=dataclasses.replace(
        seed, index_XT=index)) for index in (1, 3)]
    shift2 = wreath((pid(seed.degree),) * 8, 2, seed.degree)
    wrong.append(dataclasses.replace(pa7, theta=shift2))
    for pa in wrong:
        with pytest.raises(VerificationError, match="G has the wrong order"):
            assemble_G(pa)


def test_assemble_G_compares_projections_by_membership(pa4):
    # a conjugate of R meets T in a subgroup of the same order as R meet
    # T, so equal orders alone would pass it; the seed is conjugated with
    # F, b and c, from which certify builds R meet T
    seed = pa4.seed
    rt = filtered_intersection_with_product(seed.R, seed.T)
    t = next(x for x in seed.T.gens
             if not all(rt.contains(pconj(y, x)) for y in rt.gens))
    R = PermGroup([pconj(x, t) for x in seed.R.gens], degree=seed.degree)
    moved = dataclasses.replace(pa4, seed=dataclasses.replace(
        seed, R=R, F=tuple(pconj(x, t) for x in seed.F),
        b=pconj(seed.b, t), c=pconj(seed.c, t)), G=None)
    with pytest.raises(VerificationError,
                       match="projection 0 of T\\^n meet H is not R meet T"):
        certify(assemble_G(moved))


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
    # non-diagonal: pi_0 has a nontrivial kernel
    assert certify(pa7).meet.order() == 147 > 21


def test_G_is_certified_by_its_socle_bound():
    # every sift seed reaches the socle bound, so no G chain falls back
    # to the full Schreier check
    for seed in (0, 1, 2, 3):
        for q in (4, 8):
            pa = product_action_construction(q, seed=seed)
            assert pa.G.certified_by == "bound"


def test_socle_groups_store_the_orders_they_prove(monkeypatch):
    # M = T^n, G and G* prove their orders as they are made, from |T| and
    # one walk of the cosets of M: each reports "bound", and asking for
    # its order builds no chain
    pa, bc = product_action_construction(7), bipartite_construction(5)
    chains = []
    ensure = PermGroup._ensure_chain
    monkeypatch.setattr(PermGroup, "_ensure_chain",
                        lambda self: chains.append(self) or ensure(self))
    for group, order in ((pa.G.socle, 168**8), (pa.G, 168**8 * 16),
                         (bc.G.socle, 60**4), (bc.Gstar, 60**4 * 8),
                         (bc.G, 60**4 * 16)):
        assert group.order() == order
        assert group.certified_by == "bound"
    assert chains == []


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
        assert certify(bc).meet.order() == 10
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
    assert certify(bc).meet.order() == 21


def test_twisted_centralizer_of_pure_shift_is_diagonal():
    seed = seed_pgl2(4)
    T = seed.T
    d = seed.degree
    tc = twisted_centralizer(T, wreath((pid(d),) * 3, 1, d))
    assert tc.centralizer.order() == 60
    assert tc.normalizer.order() == 60
    sample = T.gens[0]
    diag = wreath((sample,) * 3, 0, d)
    assert tc.centralizer.contains(diag)
    assert sorted(tc.by_exponent) == [1]


def test_twisted_centralizer_requires_full_cycle():
    seed = seed_pgl2(4)
    broken = wreath((pid(seed.degree),) * 4, 2, seed.degree)
    with pytest.raises(ValueError, match="n-cycle"):
        twisted_centralizer(seed.T, broken)
    straddle = perm_from_cycles(4 * seed.degree, [(0, seed.degree)])
    with pytest.raises(ValueError, match="does not respect the blocks"):
        twisted_centralizer(seed.T, straddle)


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
    reports = compare_theta_readings(seed_psl28_gamma())
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
    a = wreath((seed.F[0], pid(d), pid(d)), 0, d)
    b = wreath((pid(d), pid(d), seed.F[1]), 0, d)
    assert pmul(a, b) == pmul(b, a)
    assert wreath((pid(d),) * 3, 0, d) == pid(3 * d)
