"""Forged certificates, one broken premise each.  A forgery's payload
is written by certificate_payload for the forged groups, so every leaf
is what today's walks derive for them; each is pinned by the sha256 of
its JSON.  verify must accept a forgery as written and reject it with a
verdict flipped, and certify must reject the forged construction on the
verdict that is really false."""

import dataclasses
import hashlib
import json

import pytest

from patgraphs.cli import main
from patgraphs.construct import BipartiteConstruction
from patgraphs.graphcert import _derive, _family, certificate_payload, certify
from patgraphs.numth import VerificationError
from patgraphs.permgrp import PermGroup, ppow

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
}


# each forgery's construction fixture and its H generators from it
FORGED_H = {
    "q4-theta-cubed": ("pa4", lambda c: [*c.E, ppow(c.theta, 3)]),
    "q4-E-first-dropped": ("pa4", lambda c: [*c.E[1:], c.theta]),
    "q4-extra-generator": ("pa4",
                           lambda c: [*c.E, ppow(c.theta, 2), c.theta]),
    "p5-tau-dropped": ("bip5_symmetric", lambda c: [c.bold_a, c.bold_b]),
    "p5-tau-squared": ("bip5_symmetric",
                       lambda c: [c.bold_a, c.bold_b, ppow(c.tau, 2)]),
    "p5-b-squared": ("bip5_symmetric",
                     lambda c: [c.bold_a, ppow(c.bold_b, 2), c.tau]),
}


@pytest.fixture
def forged(request):
    """The forged construction of each name: the built one with H
    replaced."""
    def build(name):
        fixture, gens = FORGED_H[name]
        bc = request.getfixturevalue(fixture)
        return dataclasses.replace(bc, H=PermGroup(gens(bc),
                                                   degree=bc.H.degree))
    return build


def _payload(c) -> dict:
    bipartite = isinstance(c, BipartiteConstruction)
    kind = "bipartite" if bipartite else "product-action"
    cert = _derive(c.G, c.H, c.o, _family(kind, c.seed.T, c.n),
                   c.Gstar if bipartite else None)
    # G decides connectivity through its socle, as the sift to |G| does
    assert cert.local.connected == PermGroup.generated_by(c.G,
                                                          [*c.H.gens, c.o])
    return certificate_payload(cert)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_forged_payload_is_pinned_and_verified(tmp_path, capsys, forged,
                                               name):
    payload = _payload(forged(name))
    text = json.dumps(payload, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
    path = tmp_path / "forged.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 0
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
