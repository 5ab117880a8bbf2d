"""Forged certificates, one broken premise each.  A forgery's payload
is written by certificate_payload for the forged groups, H a plain
PermGroup, so every leaf is what the coset walks derive for them; each
is pinned by the sha256 of its JSON and by what verify prints for it.
verify must accept a forgery as written and reject it with a verdict
flipped, and certify must reject the forged construction on the verdict
that is really false.

verify rebuilds H as an AffineGroup V:C where it can, and reads H meet
H^g from the affine lemma when g normalizes C and V.gens[0]^(g^-1) is
outside H.  A forgery that breaks one of those premises must reach the
walk, and the walk's pinned output is the oracle for what it derives."""

import dataclasses
import hashlib
import json

import pytest

from patgraphs import permgrp
from patgraphs.cli import main
from patgraphs.construct import BipartiteConstruction
from patgraphs.graphcert import _derive, _family, certificate_payload, certify
from patgraphs.numth import VerificationError
from patgraphs.permgrp import (
    AffineGroup,
    PermGroup,
    affine_group,
    coset_stabilizer,
    filtered_intersection_with_product,
    is_two_transitive,
    pmul,
    ppow,
)

# sha256 of json.dumps(payload, sort_keys=True)
DIGESTS = {
    # H = <E, theta^3>: of order 80, not locally 2-transitive
    "q4-theta-cubed":
        "002eac7ca144c485fbf069fd954788f2d49b6715d7cf1bdeeebed7bc97a46ec8",
    # H = <E minus its first generator, theta>: the same group, since
    # theta's conjugates of the rest span E, with another generator list
    "q4-E-first-dropped":
        "6d1ac71f2cf54079cd2bc41282701b93b9b88eb12c0b99ad5da534b69b92376a",
    # H = <E, theta^2, theta>: the same group with one generator more
    "q4-extra-generator":
        "573d239bb8d2b63b5c359c80d95419eb8ad829bf787a14beef6437e46efda2d1",
    # H = <a, b>: of order 20, T^4 not transitive on its cosets in G*
    "p5-tau-dropped":
        "2aee233b733c660bccd8ed1fbaf0cb631488c4bf614af60703dd08f09a87e623",
    # H = <a, b, tau^2>: of order 40, on two orbits of blocks, so T^4 is
    # not transitive on its cosets in G* and the graph is disconnected
    "p5-tau-squared":
        "269e978744cb18083ae8fa5938b6634742e45439aab257091ec0fefbb5726be1",
    # H = <a, b^2, tau>: b^2 does not act on <a> as a primitive root, H
    # has no replicated generator of order p - 1 for the double-cover
    # chain, and the valency is 10, not p
    "p5-b-squared":
        "623c2debd36de2fa545bad77645aca711ca4f07364b2b429862b8bca421cf999",
    # H = <e_0 theta, E minus e_0, theta>: H itself, but the generators
    # before theta neither commute nor have order p
    "q4-E-first-times-theta":
        "117dec7903091fe2062d026680cb514f01bb17f7573df6217e5e3893d3adb708",
    # g = o e_0: the same double coset HoH, but g does not normalize
    # <theta>, and g^2 is not in H
    "q4-g-times-e":
        "2a83c9851a31f7847c54eec6a94839e7595464cc2d13842115af43712c4cfbc7",
    # g = o a: o normalizes K = <b, tau>, and o a does not; g^2 is not
    # in H
    "p5-g-times-a":
        "6d7460941a5f6faf702ca048044b53eded7926e96ebc27f6f9a58cff01f732a8",
}

# what verify prints for each forgery as written
RECOMPUTED = {
    "q4-theta-cubed": "{'G': '3888000000', 'H': '80', 'intersection': '5', "
                      "'valency': 16}",
    "q4-E-first-dropped": "{'G': '3888000000', 'H': '240', "
                          "'intersection': '15', 'valency': 16}",
    "q4-extra-generator": "{'G': '3888000000', 'H': '240', "
                          "'intersection': '15', 'valency': 16}",
    "p5-tau-dropped": "{'G': '207360000', 'H': '20', 'intersection': '4', "
                      "'valency': 5}",
    "p5-tau-squared": "{'G': '207360000', 'H': '40', 'intersection': '8', "
                      "'valency': 5}",
    "p5-b-squared": "{'G': '207360000', 'H': '40', 'intersection': '4', "
                    "'valency': 10}",
    "q4-E-first-times-theta": "{'G': '3888000000', 'H': '240', "
                              "'intersection': '15', 'valency': 16}",
    "q4-g-times-e": "{'G': '3888000000', 'H': '240', 'intersection': '15', "
                    "'valency': 16}",
    "p5-g-times-a": "{'G': '207360000', 'H': '80', 'intersection': '16', "
                    "'valency': 5}",
}

# the affine premise each forgery breaks, so that verify walks the orbit
# of Hg: V's generators commute with one prime order, C normalizes V, C
# is transitive on V minus 1, g normalizes C.  The two others keep every
# premise, and verify reads their local facts from the lemma
WALKED = {
    "q4-theta-cubed": "<theta^3> has an orbit of 5 on E minus 1",
    "q4-E-first-dropped": "theta does not normalize <E minus e_0>",
    "q4-extra-generator": "theta^2 does not commute with E",
    "p5-b-squared": "<b^2, tau> has an orbit of 2 on <a> minus 1",
    "q4-E-first-times-theta": "e_0 theta does not commute with E",
    "q4-g-times-e": "o e_0 does not normalize <theta>",
    "p5-g-times-a": "o a does not normalize <b, tau>",
}


# each forgery's construction fixture, its H generators from it, and
# its edge element if not the construction's o
FORGED = {
    "q4-theta-cubed": ("pa4", lambda c: [*c.E, ppow(c.theta, 3)], None),
    "q4-E-first-dropped": ("pa4", lambda c: [*c.E[1:], c.theta], None),
    "q4-extra-generator": ("pa4",
                           lambda c: [*c.E, ppow(c.theta, 2), c.theta],
                           None),
    "p5-tau-dropped": ("bip5_symmetric", lambda c: [c.bold_a, c.bold_b],
                       None),
    "p5-tau-squared": ("bip5_symmetric",
                       lambda c: [c.bold_a, c.bold_b, ppow(c.tau, 2)], None),
    "p5-b-squared": ("bip5_symmetric",
                     lambda c: [c.bold_a, ppow(c.bold_b, 2), c.tau], None),
    "q4-E-first-times-theta": (
        "pa4", lambda c: [pmul(c.E[0], c.theta), *c.E[1:], c.theta], None),
    "q4-g-times-e": ("pa4", lambda c: [*c.E, c.theta],
                     lambda c: pmul(c.o, c.E[0])),
    "p5-g-times-a": ("bip5_symmetric",
                     lambda c: [c.bold_a, c.bold_b, c.tau],
                     lambda c: pmul(c.o, c.bold_a)),
}


@pytest.fixture
def forged(request):
    """The forged construction of each name: the built one with H
    replaced by a plain PermGroup, and g if forged."""
    def build(name):
        fixture, gens, edge = FORGED[name]
        bc = request.getfixturevalue(fixture)
        return dataclasses.replace(
            bc, H=PermGroup(gens(bc), degree=bc.H.degree),
            o=bc.o if edge is None else edge(bc))
    return build


@pytest.fixture
def labelled(monkeypatch):
    """The generator sets of the groups whose right cosets are labelled
    by canonical representatives: H's, when H meet H^g is walked."""
    out = []
    init = permgrp._CanonicalCosets.__init__

    def recording(self, group):
        out.append(frozenset(group.gens))
        init(self, group)

    monkeypatch.setattr(permgrp._CanonicalCosets, "__init__", recording)
    return out


def _payload(c) -> dict:
    bipartite = isinstance(c, BipartiteConstruction)
    kind = "bipartite" if bipartite else "product-action"
    fit, _ = _family(kind, c.seed.T.gens, c.seed.degree, c.n)
    cert = _derive(c.G, c.H, c.o, fit, c.Gstar if bipartite else None)
    # G decides connectivity through its socle, as the sift to |G| does
    assert cert.local.connected == PermGroup.generated_by(c.G,
                                                          [*c.H.gens, c.o])
    return certificate_payload(cert)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_forged_payload_is_pinned_and_verified(tmp_path, capsys, forged,
                                               labelled, name):
    payload = _payload(forged(name))
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
    path = tmp_path / "forged.json"
    path.write_text(text)
    capsys.readouterr()
    labelled.clear()
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == (f"certificate OK: recomputed "
                                       f"{RECOMPUTED[name]}\n")
    H = frozenset(map(tuple, payload["generators"]["H"]))
    assert (H in labelled) == (name in WALKED)
    checks = payload["checks"]
    checks["locally_2transitive"] = not checks["locally_2transitive"]
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 3
    assert "checks.locally_2transitive: stated" in capsys.readouterr().err


@pytest.mark.parametrize("name,message", [
    ("q4-theta-cubed", "certificate conditions failed"),
    ("p5-tau-dropped", "T\\^n is not transitive on the coset space"),
    ("p5-tau-squared", "T\\^n is not transitive on the coset space"),
    ("p5-b-squared", "the groups show family None"),
])
def test_certify_rejects_the_forged_construction(forged, name, message):
    # certify walks T^n meet H for the H it is given: |T^5 meet H| is 16
    # for <E, theta^3>, and T^5 is transitive on its cosets
    with pytest.raises(VerificationError, match=message):
        certify(forged(name))


def test_g_normalizing_theta_with_E_in_H_g_fails_by_the_walk(
        tmp_path, capsys, labelled, pa4):
    # no product-action payload breaks only the last premise: g = theta
    # normalizes <theta>, and E lies in H^g = H, so the walk finds
    # valency 1, which _derive rejects
    payload = certificate_payload(certify(pa4))
    payload["generators"]["g"] = list(pa4.theta)
    path = tmp_path / "g-theta.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    labelled.clear()
    assert main(["verify", str(path)]) == 3
    assert capsys.readouterr() == (
        "", "FAILED: valency 1 is not the square of a prime power\n")
    assert frozenset(map(tuple, payload["generators"]["H"])) in labelled


@pytest.mark.parametrize("name", [
    "pa4", "pa7", "v64", "bip5_symmetric", "bip5_pgl2", *sorted(FORGED)])
def test_affine_paths_agree_with_the_walks(request, forged, labelled,
                                           monkeypatch, name):
    # H rebuilt as verify rebuilds it: the lemma and the Dedekind law
    # give what the walks give for a plain PermGroup of H's generators,
    # |H meet H^g|, the valency, local 2-transitivity and |T^n meet H|
    if name in FORGED:
        c = forged(name)
    else:
        c = request.getfixturevalue(name)
    g = c.g if name == "v64" else c.o
    c = c.pa if name == "v64" else c
    split = 1 if isinstance(c, BipartiteConstruction) else -1
    H = affine_group(c.H.gens, split, degree=c.H.degree)
    M = c.G.socle
    plain = PermGroup(H.gens, degree=H.degree)
    meet, neighbours = coset_stabilizer(plain, plain, g)
    socle_meet = filtered_intersection_with_product(plain, M)
    meet_walks = []
    walk = filtered_intersection_with_product

    def recording(small, big):
        meet_walks.append(frozenset(small.gens))
        return walk(small, big)

    monkeypatch.setattr("patgraphs.permgrp.filtered_intersection_with_product",
                        recording)
    labelled.clear()
    assert H.local_action(g) == (meet.order(), neighbours.degree,
                                 is_two_transitive(neighbours))
    assert H.meet(M).order() == socle_meet.order()
    # the constructions and two forgeries keep every premise; a forged g
    # breaks only the premises about g
    walked = name in WALKED
    assert isinstance(H, AffineGroup) == (not walked
                                          or FORGED[name][2] is not None)
    assert (frozenset(H.gens) in labelled) == walked
    if isinstance(H, AffineGroup):
        assert meet_walks == [frozenset(H.complement.gens)]
