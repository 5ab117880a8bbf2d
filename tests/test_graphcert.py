"""Coset-graph certificates, checked two ways: toy instances are small
enough to enumerate, so the local certificate is compared against the
graph it describes; the large instances get the certificate only, with
frozen orders."""

import dataclasses
import json
from math import factorial, gcd

import pytest

from patgraphs import graphcert
from patgraphs.atlas import (
    mobius_bound,
    projective_scaling,
    projective_translation,
    psl2,
)
from patgraphs.cli import main
from patgraphs.construct import product_action_construction, wreath
from patgraphs.gf import make_field
from patgraphs.graphcert import (
    _COMMON_KEYS,
    _KIND_KEYS,
    SmallGraph,
    _family,
    _leaves,
    _shape,
    certificate_payload,
    certify,
    edge_list_text,
    edge_stabilizer,
    enumerate_small_graph,
    graph_girth,
    graph_is_bipartite,
    graph_is_connected,
    local_certificate,
    not_double_cover_test,
    standard_double_cover,
    two_arc_orbit_count,
    two_arcs,
    verify_certificate,
)
from patgraphs.numth import VerificationError
from patgraphs.permgrp import (
    DirectPower,
    PermGroup,
    alternating_bound,
    coset_action,
    filtered_intersection_with_product,
    orbit_partition,
    pconj,
    perm_from_cycles,
    pid,
    pinv,
    pmul,
    socle_group,
)


def sym(n):
    return PermGroup([perm_from_cycles(n, [(0, 1)]),
                      perm_from_cycles(n, [tuple(range(n))])])


@pytest.fixture(scope="module")
def k4_setup():
    G = sym(4)
    H = PermGroup([perm_from_cycles(4, [(0, 1)]),
                   perm_from_cycles(4, [(0, 1, 2)])])
    g = perm_from_cycles(4, [(2, 3)])
    return G, H, g


@pytest.fixture(scope="module")
def petersen_setup():
    G = sym(5)
    H = PermGroup([perm_from_cycles(5, [(0, 1)]),
                   perm_from_cycles(5, [(2, 3)]),
                   perm_from_cycles(5, [(2, 3, 4)])])
    g = perm_from_cycles(5, [(0, 2), (1, 3)])
    return G, H, g


# -- small-graph basics ---------------------------------------------------


def test_small_graph_rejects_loops_and_asymmetry():
    with pytest.raises(ValueError, match="loop"):
        SmallGraph(2, ((0, 1), (0,)))
    with pytest.raises(ValueError, match="not symmetric"):
        SmallGraph(3, ((1,), (0, 2), ()))


def test_graph_helpers_on_a_path():
    path = SmallGraph(3, ((1,), (0, 2), (1,)))
    assert graph_is_connected(path)
    assert graph_is_bipartite(path)
    assert graph_girth(path) is None
    assert path.edges() == [(0, 1), (1, 2)]
    assert edge_list_text(path) == "0 1\n1 2\n"


# -- toy enumerations -----------------------------------------------------


def test_k4_enumeration(k4_setup):
    G, H, g = k4_setup
    sg = enumerate_small_graph(G, H, g)
    assert sg.vertices == 4
    assert all(sg.degree(v) == 3 for v in range(4))
    assert graph_girth(sg) == 3
    assert graph_is_connected(sg)
    assert len(two_arcs(sg)) == 4 * 3 * 2


def test_petersen_enumeration(petersen_setup):
    G, H, g = petersen_setup
    sg = enumerate_small_graph(G, H, g)
    assert sg.vertices == 10
    assert all(sg.degree(v) == 3 for v in range(10))
    assert graph_girth(sg) == 5
    assert graph_is_connected(sg)
    assert not graph_is_bipartite(sg)


def test_enumeration_precondition_errors(k4_setup):
    G, H, _ = k4_setup
    with pytest.raises(ValueError, match="outside"):
        enumerate_small_graph(G, H, perm_from_cycles(4, [(0, 1)]))
    with pytest.raises(ValueError, match="squared"):
        enumerate_small_graph(G, H, perm_from_cycles(4, [(1, 2, 3)]))
    with pytest.raises(ValueError, match="limit"):
        enumerate_small_graph(G, H, perm_from_cycles(4, [(2, 3)]), limit=3)


def test_local_certificate_matches_enumeration(k4_setup, petersen_setup):
    for G, H, g in (k4_setup, petersen_setup):
        sg = enumerate_small_graph(G, H, g)
        cert = local_certificate(G, H, g)
        assert cert.valency == sg.degree(0)
        assert cert.connected == graph_is_connected(sg)
        # the graph carries G's action on its vertices, the coset action
        assert sg.vertex_action == tuple(coset_action(G, H).group.gens)
        orbit_count = two_arc_orbit_count(sg, list(sg.vertex_action))
        assert cert.locally_2transitive == (orbit_count == 1)
        assert cert.all_conditions
        assert cert.valency * cert.intersection_order == cert.stabilizer_order


def test_local_certificate_of_a_disconnected_graph():
    # Cos(S5, <(0 1 2)>, (2 3)): <H, g> is S4 fixing 4, below the bound
    # |G| = 120 it is sifted to, so its order comes from the Schreier
    # check and the certificate finds five components of valency 3
    G = sym(5)
    H = PermGroup([perm_from_cycles(5, [(0, 1, 2)])])
    g = perm_from_cycles(5, [(2, 3)])
    joined = PermGroup([*H.gens, g], degree=5, upper_bound=G.order())
    assert joined.order() == 24 and joined.certified_by == "schreier"
    cert = local_certificate(G, H, g)
    sg = enumerate_small_graph(G, H, g)
    assert cert.valency == 3 == sg.degree(0)
    assert not cert.connected and not graph_is_connected(sg)
    assert not cert.locally_2transitive
    ca = coset_action(G, H)
    assert two_arc_orbit_count(sg, list(ca.group.gens)) == 2


def _a5_wreath(n):
    """M = T^n for T = A_5 on blocks of 5 points, G = T wr C_n, and the
    shift that generates C_n."""
    a5 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),
                    perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
    M = DirectPower(a5, n)
    shift = wreath((pid(5),) * n, 1, 5)
    return M, socle_group([*M.gens, shift], M), shift


def test_socle_path_reports_a_full_diagonal_disconnected(monkeypatch):
    # H the full diagonal {(t, t)} of A_5^2 and g the block swap: K =
    # <H, g> meet T^2 is H, a full diagonal in two blocks, so pi_0(K) is
    # T but pi_01(K), sifted to |T|^2 on 10 points, has order |T|
    M, G, swap = _a5_wreath(2)
    H = PermGroup([wreath((t, t), 0, 5) for t in M.factor.gens])
    bounds = []
    complete = PermGroup._complete

    def recording(self, ident):
        bounds.append((self.degree, self._upper_bound))
        return complete(self, ident)

    monkeypatch.setattr(PermGroup, "_complete", recording)
    cert = local_certificate(G, H, swap)
    assert (10, 60**2) in bounds
    assert not cert.connected
    assert not PermGroup.generated_by(G, [*H.gens, swap])


def test_socle_path_agrees_with_the_sift():
    # <H, g> = G exactly when the bounded sift says so: through a proper
    # <H, g>M, a proper projection, full diagonals and several orbits on
    # the blocks, against the sift of <H, g> to |G|
    e = pid(5)
    M2, G2, swap = _a5_wreath(2)
    M3, G3, cycle = _a5_wreath(3)
    t0, t1 = M2.factor.gens
    cases = [
        # T x 1 and the swap: T wr C_2
        (M2, G2, [wreath((t, e), 0, 5) for t in (t0, t1)], swap, True),
        # <H, g> = T^2, of index 2 in G
        (M2, G2, [wreath((t, t), 0, 5) for t in (t0, t1)],
         wreath((t0, e), 0, 5), False),
        # <(t0, 1), swap> = <t0> wr C_2: pi_0(K) has order 3
        (M2, G2, [wreath((t0, e), 0, 5)], swap, False),
        # G = T^2 with blocks 0 and 1 in orbits of their own
        (M2, socle_group(M2.gens, M2), [wreath((t, t), 0, 5)
                                         for t in (t0, t1)],
         wreath((t0, e), 0, 5), True),
        # a diagonal over blocks 0 and 1, and T on block 2: the 3-cycle
        # moves the diagonal, and together they give T^3
        (M3, G3, [wreath((t, t, e), 0, 5) for t in (t0, t1)]
         + [wreath((e, e, t), 0, 5) for t in (t0, t1)], cycle, True),
        # the full diagonal of T^3
        (M3, G3, [wreath((t, t, t), 0, 5) for t in (t0, t1)], cycle, False),
    ]
    # K a product of full diagonals over the cosets of a subgroup of
    # Z_n, which the n-cycle permutes: diag{0, 2} x diag{1, 3} in T^4,
    # and in T^6 over {0, 2, 4}, {1, 3, 5} and over {0, 3}, {1, 4},
    # {2, 5}; each is found by the pair of one minimal class
    for n, step in ((4, 2), (6, 2), (6, 3)):
        M, G, shift = _a5_wreath(n)
        gens = [wreath(tuple(t if k % step == r else e for k in range(n)),
                       0, 5) for r in range(step) for t in (t0, t1)]
        cases.append((M, G, gens, shift, False))
    for M, G, gens, g, connected in cases:
        H = PermGroup(gens, degree=M.degree)
        cert = local_certificate(G, H, g)
        assert G.socle is M and cert.connected == connected
        assert PermGroup.generated_by(G, [*H.gens, g]) == connected


def test_leaves_walk_any_depth():
    # the walk keeps its own stack: a tree far deeper than Python's
    # recursion limit has one leaf, and leaves come in document order
    tree = leaf = {}
    for _ in range(5_000):
        leaf["k"] = leaf = {}
    leaf["k"] = 1
    assert list(_leaves(tree).values()) == [1]
    assert list(_leaves({"b": {"y": 1, "x": {}}, "a": [2]})) == [
        ("b", "y"), ("b", "x"), ("a",)]


def test_local_certificate_needs_g_in_G(petersen_setup):
    _, H, g = petersen_setup
    with pytest.raises(VerificationError, match="H or g is not in G"):
        local_certificate(PermGroup(H.gens), H, g)


def test_edge_stabilizer_orders(k4_setup, petersen_setup):
    G4, H4, g4 = k4_setup
    assert edge_stabilizer(H4, g4).order() == 2
    G5, H5, g5 = petersen_setup
    assert edge_stabilizer(H5, g5).order() == 4


def test_edge_stabilizer_matches_filtering(k4_setup, petersen_setup, pa4,
                                           pa7):
    # the coset walk against the filtering it replaced
    cases = [(H, g) for _, H, g in (k4_setup, petersen_setup)]
    cases += [(pa.H, pa.o) for pa in (pa4, pa7)]
    for H, g in cases:
        meet = edge_stabilizer(H, g)
        brute = {x for x in H.elements()
                 if H.contains(pmul(pmul(g, x), pinv(g)))}
        assert meet.order() == len(brute)
        assert set(meet.elements()) == brute
        assert meet.certified_by == "bound"


def test_socle_meet_matches_filtering(pa4, pa7):
    for pa, order in ((pa4, 48), (pa7, 147)):
        M = DirectPower(pa.seed.T, pa.n)
        meet = filtered_intersection_with_product(pa.H, M)
        brute = {x for x in pa.H.elements() if M.contains(x)}
        assert meet.order() == len(brute) == order
        assert set(meet.elements()) == brute
        assert meet.certified_by == "bound"


# -- double covers --------------------------------------------------------


def test_double_cover_of_k4_is_the_cube(k4_setup):
    G, H, g = k4_setup
    k4 = enumerate_small_graph(G, H, g)
    cube = standard_double_cover(k4)
    assert cube.vertices == 8
    assert all(cube.degree(v) == 3 for v in range(8))
    assert graph_is_connected(cube)
    assert graph_is_bipartite(cube)
    assert graph_girth(cube) == 4
    assert cube.bipartition == (tuple(range(4)), tuple(range(4, 8)))


def test_double_cover_of_bipartite_graphs_disconnects():
    square = SmallGraph(4, ((1, 3), (0, 2), (1, 3), (0, 2)))
    cover = standard_double_cover(square)
    assert cover.vertices == 8
    assert not graph_is_connected(cover)
    assert graph_girth(cover) == 4
    edge = SmallGraph(2, ((1,), (0,)))
    cover = standard_double_cover(edge)
    assert cover.vertices == 4
    assert not graph_is_connected(cover)
    assert all(cover.degree(v) == 1 for v in range(4))


def test_double_cover_twice(petersen_setup):
    G, H, g = petersen_setup
    pet = enumerate_small_graph(G, H, g)
    once = standard_double_cover(pet)
    assert graph_is_connected(once) and graph_is_bipartite(once)
    twice = standard_double_cover(once)
    assert twice.vertices == 4 * pet.vertices
    assert not graph_is_connected(twice)
    assert all(twice.degree(v) == 3 for v in range(twice.vertices))


# -- certificates for the main constructions ------------------------------


def test_certificate_q4(pa4):
    cert = certify(pa4)
    assert cert.kind == "product-action"
    assert cert.parameter == 4
    assert cert.local.group_order == 3_888_000_000
    assert cert.local.stabilizer_order == 240
    assert cert.local.intersection_order == 15
    assert cert.valency == 16
    assert cert.local.all_conditions
    assert cert.theorem1_case == "i"
    assert cert.case_witness == 5
    assert not cert.ii_possible
    assert cert.double_cover_verdict == "untested"
    assert cert.socle_transitive
    assert not cert.diagonal_type


def test_certify_needs_a_socle_transitive_H(pa4):
    # H = E is still inside G, but T^n is not transitive on its cosets,
    # and no certificate is returned for it
    with pytest.raises(VerificationError,
                       match="T\\^n is not transitive on the coset space"):
        certify(dataclasses.replace(pa4, H=PermGroup(pa4.E)))


def test_certificate_q7(pa7):
    cert = certify(pa7)
    assert cert.local.group_order == 168**8 * 16
    assert cert.local.stabilizer_order == 2352
    assert cert.local.intersection_order == 48
    assert cert.valency == 49
    assert cert.local.all_conditions
    assert cert.theorem1_case == "iii"
    assert cert.socle_transitive
    assert not cert.diagonal_type


def test_certificate_valency64(v64):
    cert = certify(v64)
    assert cert.parameter == 8
    assert cert.local.stabilizer_order == 4032
    assert cert.local.intersection_order == 63
    assert cert.valency == 64
    assert cert.local.all_conditions
    vertices = cert.local.group_order // cert.local.stabilizer_order
    assert vertices == 2**57 * 3**42 * 7**21
    assert cert.arc_regular_socle
    assert 504**21 == vertices * 2**6
    assert cert.theorem1_case == "i"
    assert cert.ii_possible
    assert cert.socle_transitive


def test_certificate_bipartite_p5(bip5_symmetric, bip5_pgl2):
    for bip in (bip5_symmetric, bip5_pgl2):
        cert = certify(bip)
        assert cert.kind == "bipartite"
        assert cert.valency == 5
        assert cert.local.stabilizer_order == 80
        assert cert.local.intersection_order == 16
        assert cert.local.all_conditions
        assert cert.gstar_index == 2
        assert cert.g_swaps_halves
        assert cert.double_cover_verdict == "is_not"
        assert cert.socle_transitive
        assert cert.diagonal_type
        assert cert.theorem1_case is None
        assert cert.arc_regular_socle


def test_not_double_cover_is_only_refuted(bip5_symmetric):
    bc = bip5_symmetric
    M = DirectPower(bc.seed.T, bc.n)
    assert not_double_cover_test(bc.H, M, 5) == "is_not"
    # in the power of X the replicated b lies in the socle product, and
    # membership decides nothing
    wider = DirectPower(bc.seed.X, bc.n)
    assert wider.contains(bc.bold_b)
    assert not_double_cover_test(bc.H, wider, 5) == "untested"
    # b is found by its order p - 1, with p the valency; with none of
    # that order the chain has nothing to test, and refutes nothing
    assert not_double_cover_test(bc.H, M, 7) == "untested"


# -- serialization --------------------------------------------------------


def test_certificate_roundtrip_q4(pa4):
    cert = certify(pa4)
    payload = json.loads(json.dumps(certificate_payload(cert)))
    assert payload["orders"]["G"] == "3888000000"
    assert payload["valency"] == 16
    report = verify_certificate(payload)
    assert report.ok
    assert report.failures == ()
    assert report.recomputed["intersection"] == "15"


def test_certificate_roundtrip_bipartite(bip5_symmetric):
    bip = bip5_symmetric
    cert = certify(bip)
    payload = json.loads(json.dumps(certificate_payload(cert)))
    report = verify_certificate(payload)
    assert report.ok


def test_schema_lists_every_key_the_writer_emits(pa4, bip5_symmetric):
    for construction in (pa4, bip5_symmetric):
        payload = certificate_payload(certify(construction))
        schema = {**_COMMON_KEYS, **_KIND_KEYS[payload["kind"]]}
        assert set(_leaves(payload)) == {tuple(path.split("."))
                                         for path in schema}


def test_tampered_certificate_is_rejected(bip5_symmetric):
    bip = bip5_symmetric
    cert = certify(bip)
    payload = json.loads(json.dumps(certificate_payload(cert)))
    payload["valency"] = 6
    report = verify_certificate(payload)
    assert not report.ok
    assert any("valency" in f for f in report.failures)
    payload["valency"] = 5
    payload["orders"]["G"] = str(int(payload["orders"]["G"]) * 2)
    report = verify_certificate(payload)
    assert not report.ok
    assert any(f.startswith("orders.G: stated") for f in report.failures)


def _agammal_1_8():
    # x -> x + 1, x -> mu*x and x -> x^2 on GF(8): solvable, transitive
    # on 8 points, of order 168 = |PSL(2, 7)|
    k = make_field(8)
    return [[k.add(x, 1) for x in range(8)],
            [k.mul(x, k.generator) for x in range(8)],
            [k.mul(x, x) for x in range(8)]]


def test_family_needs_the_atlas_group(pa7):
    T = PermGroup([tuple(g) for g in _agammal_1_8()])
    assert T.order() == 168
    assert _family("product-action", T.gens, 8, 8) is None
    fit, fitted = _family("product-action", pa7.seed.T.gens, 8, 8)
    assert fit == ("pgl2", 7) and fitted.order() == 168
    # d = 7 would give q = 6 for pgl2, which is not a prime power
    assert _family("product-action", sym(7).gens, 7, 7) is None
    # a fit proves T simple: PSL(2, 3) is A_4, and A_4 and A_3 are not
    # simple; the bipartite families need a prime q >= 5
    assert _family("product-action", psl2(make_field(3), 0).gens, 4, 4) is None
    a4 = PermGroup([perm_from_cycles(4, [(0, 1, 2)]),
                    perm_from_cycles(4, [(1, 2, 3)])])
    assert a4.order() == 12
    assert _family("product-action", a4.gens, 4, 5) is None
    assert _family("bipartite", a4.gens, 4, 3) is None
    assert _family("bipartite", [(1, 2, 0)], 3, 2) is None


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16])
def test_a_mobius_group_meeting_the_psl2_order_is_the_atlas_group(q):
    # Mobius maps of square determinant lie in the atlas's PSL(2, q), so a
    # group of them that meets |PSL(2, q)| contains psl2's generators: the
    # implication that lets _family drop the containment test
    k = make_field(q)
    order = q * (q * q - 1) // gcd(2, q - 1)
    # the atlas's generators conjugated by x -> mu*x, whose determinant mu
    # is a non-square for odd q
    scale = projective_scaling(k, k.generator)
    gens = [pconj(x, scale) for x in psl2(k, 0).gens]
    assert set(gens) != set(psl2(k, 0).gens)
    assert mobius_bound(gens, k) == order
    T = PermGroup(gens, upper_bound=order)
    assert T.order() == order and T.certified_by == "bound"
    assert all(T.contains(x) for x in psl2(k, 0).gens)
    # the Borel subgroup F:<x -> mu^2 x> proves the bound, is smaller,
    # and fits no family
    borel = [projective_translation(k, k.p ** i) for i in range(k.f)]
    borel.append(projective_scaling(k, k.mul(k.generator, k.generator)))
    assert mobius_bound(borel, k) == order
    assert PermGroup(borel).order() == q * (q - 1) // gcd(2, q - 1)
    assert _family("product-action", borel, q + 1, q + 1, k) is None
    fit, fitted = _family("product-action", gens, q + 1, q + 1, k)
    assert fit == ("pgl2", q) and fitted.order() == order


def test_verify_rejects_a_socle_factor_outside_the_atlas(pa7, tmp_path,
                                                          capsys):
    payload = certificate_payload(certify(pa7))
    payload["generators"]["socle_factor"] = _agammal_1_8()
    path = tmp_path / "agl.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 3
    assert "fits no family" in capsys.readouterr().err


def _record_fitted_factors(monkeypatch):
    """What _family returns for every socle factor it is asked to fit."""
    seen = []
    family = graphcert._family

    def recording(kind, gens, d, n, field=None, seed=0):
        seen.append(family(kind, gens, d, n, field, seed))
        return seen[-1]

    monkeypatch.setattr(graphcert, "_family", recording)
    return seen


def test_verify_orders_T_by_the_bound_of_its_generators(
        monkeypatch, pa4, pa7, v64, bip5_symmetric, bip5_pgl2):
    # verify_certificate sifts the socle factor to the bound its
    # generators prove for the fitted shape: the Mobius bound |PSL(2, q)|
    # on the projective line, or p!/2 for even generators
    seen = _record_fitted_factors(monkeypatch)
    for construction in (pa4, pa7, v64, bip5_symmetric, bip5_pgl2,
                         product_action_construction(7, "symmetric")):
        payload = certificate_payload(certify(construction))
        seen.clear()
        assert verify_certificate(payload).ok
        [(_, T)] = seen
        assert T.certified_by == "bound", T.degree


def _agammal_1_8_in_its_place(payload):
    payload["generators"]["socle_factor"] = _agammal_1_8()


def _odd_generator_added(payload):
    factor = payload["generators"]["socle_factor"]
    factor.append(list(perm_from_cycles(len(factor[0]), [(0, 1)])))


def _relabelled_by_a_transposition(payload):
    factor = payload["generators"]["socle_factor"]
    swap = perm_from_cycles(len(factor[0]), [(0, 2)])
    payload["generators"]["socle_factor"] = [list(pconj(tuple(x), swap))
                                             for x in factor]


FORGERIES = [_relabelled_by_a_transposition, _agammal_1_8_in_its_place,
             _odd_generator_added]


def _forged_payload(forge, pa7, bip5_symmetric) -> dict:
    """A PSL(2, 7) relabelled by one transposition of projective points,
    or the solvable AGammaL(1, 8), in q = 7's certificate; A_5 with an odd
    generator added in the symmetric p = 5 one."""
    construction = bip5_symmetric if forge is _odd_generator_added else pa7
    payload = certificate_payload(certify(construction))
    forge(payload)
    return payload


def _old_family(kind, gens, d, n):
    """The fit that _family replaced, kept as its oracle: |T| by the
    Schreier check, then, for a transitive T of the shape, the order of
    A_q, or that of PSL(2, q) and the atlas's generators in T."""
    fit = _shape(kind, d, n)
    T = PermGroup(gens, degree=d)
    if fit is None or len(orbit_partition(T.gens, d)) != 1:
        return None
    q = fit[1]
    if q == d:
        return fit if T.order() == factorial(q) // 2 else None
    if T.order() != q * (q * q - 1) // gcd(2, q - 1):
        return None
    return fit if all(T.contains(x) for x in psl2(make_field(q), 0).gens) \
        else None


def test_family_agrees_with_the_schreier_and_containment_rule(
        pa4, pa7, v64, bip5_symmetric, bip5_pgl2):
    cases = [("product-action", c.seed.T.gens, c.seed.degree, c.n)
             for c in (pa4, pa7, v64.pa,
                       product_action_construction(7, "symmetric"))]
    cases += [("bipartite", c.seed.T.gens, c.seed.degree, c.n)
              for c in (bip5_symmetric, bip5_pgl2)]
    for forge in FORGERIES:
        payload = _forged_payload(forge, pa7, bip5_symmetric)
        cases.append((payload["kind"], payload["generators"]["socle_factor"],
                      payload["block_degree"], payload["blocks"]))
    fits = []
    for args in cases:
        fitted = _family(*args)
        fits.append(fitted and fitted[0])
        assert fits[-1] == _old_family(*args), args[2:]
    assert fits == [("pgl2", 4), ("pgl2", 7), ("psl28-gamma", 8),
                    ("symmetric", 7), ("symmetric-bipartite", 5),
                    ("pgl2-bipartite", 5), None, None, None]


def _no_schreier_check(monkeypatch):
    """The groups that run PermGroup._verify."""
    checked = []
    verify = PermGroup._verify

    def verifying(self, ident):
        checked.append(self)
        return verify(self, ident)

    monkeypatch.setattr(PermGroup, "_verify", verifying)
    return checked


@pytest.mark.parametrize("forge", FORGERIES,
                         ids=lambda forge: forge.__name__.strip("_"))
def test_forged_socle_factors_fit_no_family_unordered(
        monkeypatch, tmp_path, capsys, pa7, bip5_symmetric, forge):
    # the relabelled PSL(2, 7) and the solvable AGammaL(1, 8) are not
    # Mobius, and A_5 with an odd generator added is not even: no bound
    # is proven, so the socle factor fits no family, exit 3, and is never
    # ordered
    payload = _forged_payload(forge, pa7, bip5_symmetric)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(payload))
    checked = _no_schreier_check(monkeypatch)
    capsys.readouterr()
    assert main(["verify", str(path)]) == 3
    assert "the socle factor fits no family" in capsys.readouterr().err
    assert checked == []
    # an unbounded oracle orders each forgery by the Schreier check
    oracle = PermGroup(payload["generators"]["socle_factor"],
                       degree=payload["block_degree"])
    assert oracle.order() == (120 if forge is _odd_generator_added else 168)
    assert oracle.certified_by == "schreier"


def test_family_rejects_reach_size_forgeries_unordered(monkeypatch):
    # S_47 in the symmetric-bipartite shape and A_48 in the pgl2 shape at
    # q = 47: an odd transposition and a non-Mobius 3-cycle prove no
    # bound, so neither is sifted nor Schreier-checked
    checked = _no_schreier_check(monkeypatch)
    chains = []
    ensure = PermGroup._ensure_chain
    monkeypatch.setattr(PermGroup, "_ensure_chain",
                        lambda self: chains.append(self) or ensure(self))
    s47 = [perm_from_cycles(47, [(0, 1)]),
           perm_from_cycles(47, [tuple(range(47))])]
    a48 = [perm_from_cycles(48, [(0, 1, 2)]),
           perm_from_cycles(48, [tuple(range(1, 48))])]
    assert _shape("bipartite", 47, 46) == ("symmetric-bipartite", 47)
    assert _shape("product-action", 48, 48) == ("pgl2", 47)
    assert _family("bipartite", s47, 47, 46) is None
    assert _family("product-action", a48, 48, 48) is None
    assert checked == [] and chains == []
    # they are S_47 and A_48, as their own bounds show
    assert PermGroup(s47, upper_bound=factorial(47)).order() == factorial(47)
    assert PermGroup(a48, upper_bound=alternating_bound(a48, 48)).order() \
        == factorial(48) // 2


def test_diagonal_type_needs_every_projection_injective(bip5_symmetric):
    # H = <(a, 1, 1, 1), b>: T^n meet H = <(a, 1, 1, 1), b^2> projects
    # injectively to block 0 but to a group of order 2 on block 1
    bip = bip5_symmetric
    cert = certify(bip)
    payload = json.loads(json.dumps(certificate_payload(cert)))
    d = bip.block_degree
    a0 = wreath((bip.seed.a,) + (pid(d),) * (bip.n - 1), 0, d)
    payload["generators"]["H"] = [list(a0), list(bip.bold_b)]
    report = verify_certificate(payload)
    assert ("checks.diagonal_type: stated True, recomputed False"
            in report.failures)


def test_toy_graph_matches_its_own_coset_recipe(k4_setup):
    # the adjacency produced from double-coset representatives agrees
    # with a direct membership test on a toy instance
    G, H, g = k4_setup
    sg = enumerate_small_graph(G, H, g)
    ca = coset_action(G, H)
    hg = {pmul(pmul(h1, g), h2)
          for h1 in H.elements() for h2 in H.elements()}
    for u in range(sg.vertices):
        for v in range(sg.vertices):
            in_hgh = pmul(ca.representatives[v],
                          pinv(ca.representatives[u])) in hg
            assert in_hgh == (v in sg.adjacency[u])
