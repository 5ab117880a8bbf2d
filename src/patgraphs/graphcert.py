"""Coset-graph certificates.

The large constructions cannot be enumerated, so 2-arc-transitivity is
certified locally: the edge stabilizer H meet H^g, the valency, local
2-transitivity of H on the neighborhood, and connectivity, <H, g> = G
for H and g checked to lie in G, a question G itself answers
(PermGroup.generated_by).  The local facts are H's to answer
(PermGroup.local_action): an affine H = V:C, rebuilt by affine_group
with each premise proven from its generators, reads them from the
affine lemma when g normalizes C, with no walk of the cosets of H; any
other H walks the orbit of Hg.  A G built over its socle T^n answers it
through T^n, with no chain of <H, g>; that needs T simple, which the
family fit proves, so certify and verify_certificate fit it first, by
_family: T's generators prove the order of A_q or the atlas's PSL(2, q),
and T meets it.  Toy instances have no socle: <H, g> is sifted to the
proven bound |G| there, and they are enumerated in full and
cross-checked against the same local certificate.

Every verdict of a certificate has one derivation, _derive, which both
certify (from a construction's groups) and verify_certificate (from the
groups rebuilt out of a payload's generators) call: T^n meet H, derived
there once (for an affine H by the Dedekind law, from a walk under C
alone) and never enumerated, socle transitivity, the diagonal type
from the projections of its generators, the parameter and Theorem 1
case from the valency, the family, and the bipartite index, half-swap
and double-cover verdicts; certify alone checks them.  The format has
one writer, certificate_payload: verify_certificate compares its output
for the rebuilt groups with the payload, leaf by leaf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial, gcd, isqrt

from .atlas import mobius_bound
from .construct import BipartiteConstruction, PAConstruction, Valency64Construction
from .gf import GF, make_field
from .numth import check, classify_valency_case, is_prime, prime_power
from .permgrp import (
    DirectPower,
    Perm,
    PermGroup,
    affine_group,
    alternating_bound,
    coset_action,
    coset_stabilizer,
    pid,
    pmul,
    porder,
    ppow,
    socle_group,
)

ENUMERATION_LIMIT = 10**6

CERTIFICATE_FORMAT = "patgraphs-certificate-1"

# the types of a payload's values, by name: JSON true and false are not
# counts, orders are decimal strings, and a trailing ? also allows null
_TYPES = {
    "count": lambda x: type(x) is int and x > 0,
    "bool": lambda x: type(x) is bool,
    "str": lambda x: type(x) is str,
    "order": lambda x: type(x) is str and x.isascii() and x.isdigit(),
    "perm": lambda x: type(x) is list and all(type(v) is int for v in x),
    "perms": lambda x: type(x) is list and all(map(_TYPES["perm"], x)),
}

# the keys certificate_payload writes, for every kind and for each kind,
# with the type of each
_COMMON_KEYS = {
    "format": "str", "kind": "str", "family": "str?",
    "degree": "count", "blocks": "count", "block_degree": "count",
    "valency": "count", "parameter": "count", "theorem1_case": "str?",
    "ii_possible": "bool?", "case_witness": "count?",
    "double_cover_verdict": "str",
    "generators.G": "perms", "generators.H": "perms", "generators.g": "perm",
    "generators.socle_factor": "perms",
    "orders.G": "order", "orders.H": "order", "orders.intersection": "order",
    "orders.socle_factor": "order",
    "checks.connected": "bool", "checks.locally_2transitive": "bool",
    "checks.g_square_in_H": "bool", "checks.g_outside_H": "bool",
    "checks.socle_transitive": "bool", "checks.diagonal_type": "bool",
}
_KIND_KEYS = {
    "product-action": {"arc_regular_socle": "bool",
                       "generators.theta": "perm", "generators.E": "perms"},
    "bipartite": {"gstar_index": "count", "g_swaps_halves": "bool",
                  "generators.gstar": "perms", "orders.Gstar": "order"},
}


# -- small graphs --------------------------------------------------------


@dataclass(frozen=True)
class SmallGraph:
    """A simple undirected graph with 0-indexed vertices; a coset graph
    also carries the generators of G's action on its vertices."""
    vertices: int
    adjacency: tuple[tuple[int, ...], ...]
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    vertex_action: tuple[Perm, ...] = field(default=(), compare=False,
                                            repr=False)

    def __post_init__(self):
        for u, nbrs in enumerate(self.adjacency):
            if u in nbrs:
                raise ValueError(f"loop at vertex {u}")
            for v in nbrs:
                if u not in self.adjacency[v]:
                    raise ValueError(f"edge {u}-{v} is not symmetric")

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.vertices)
                for v in self.adjacency[u] if u < v]


def graph_is_connected(sg: SmallGraph) -> bool:
    if sg.vertices == 0:
        return True
    seen = {0}
    queue = [0]
    while queue:
        u = queue.pop()
        for v in sg.adjacency[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == sg.vertices


def graph_is_bipartite(sg: SmallGraph) -> bool:
    color: dict[int, int] = {}
    for start in range(sg.vertices):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in sg.adjacency[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return False
    return True


def graph_girth(sg: SmallGraph) -> int | None:
    """Length of a shortest cycle, or None for a forest."""
    best = None
    for start in range(sg.vertices):
        dist = {start: 0}
        parent = {start: -1}
        queue = [start]
        k = 0
        while k < len(queue):
            u = queue[k]
            k += 1
            for v in sg.adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v:
                    cycle = dist[u] + dist[v] + 1
                    if best is None or cycle < best:
                        best = cycle
    return best


def two_arcs(sg: SmallGraph) -> list[tuple[int, int, int]]:
    """All ordered paths (u, v, w) with u != w."""
    out = []
    for v in range(sg.vertices):
        for u in sg.adjacency[v]:
            for w in sg.adjacency[v]:
                if u != w:
                    out.append((u, v, w))
    return out


def two_arc_orbit_count(sg: SmallGraph, vertex_gens: list[Perm]) -> int:
    """Orbits of the vertex action on the 2-arcs of the graph."""
    arcs = set(two_arcs(sg))
    orbits = 0
    while arcs:
        seed_arc = arcs.pop()
        orbits += 1
        queue = [seed_arc]
        while queue:
            u, v, w = queue.pop()
            for g in vertex_gens:
                img = (g[u], g[v], g[w])
                if img in arcs:
                    arcs.remove(img)
                    queue.append(img)
    return orbits


# -- local certificates --------------------------------------------------


@dataclass(frozen=True)
class LocalCertificate:
    """The computable core of the 2-arc-transitivity criterion for
    Cos(G, H, HgH): vertex-transitivity comes with the coset
    construction, so connectivity, the local action, and the
    g-conditions are the three facts to certify."""
    group_order: int
    stabilizer_order: int
    intersection_order: int
    valency: int
    connected: bool
    locally_2transitive: bool
    g_square_in_H: bool
    g_outside_H: bool

    @property
    def all_conditions(self) -> bool:
        return (self.connected and self.locally_2transitive
                and self.g_square_in_H and self.g_outside_H)


def edge_stabilizer(H: PermGroup, g: Perm) -> PermGroup:
    """H meet H^g, the stabilizer of the coset Hg under right
    multiplication by H: x lies in H^g exactly when Hgx = Hg.  Its orbit
    is the q^2 neighbours of the vertex H, not the elements of H."""
    return coset_stabilizer(H, H, g)[0]


def local_certificate(G: PermGroup, H: PermGroup,
                      g: Perm) -> LocalCertificate:
    """H meet H^g, the valency and local 2-transitivity are what H's type
    reads off (PermGroup.local_action): an AffineGroup V:C whose C g
    normalizes, with V.gens[0]^(g^-1) outside H, has H meet H^g = C,
    valency |V| and a 2-transitive local action by the affine lemma; any
    other H walks the orbit of Hg under H, whose length is the valency
    and whose action is H's on the neighbours.  H and g must lie in G,
    and the graph is connected exactly when <H, g> = G, which G decides:
    a G built over its socle through it, once _family has fitted the
    socle's factor and so proven it simple, and any other by the sift of
    <H, g> to the proven bound |G|."""
    check(all(G.contains(x) for x in [*H.gens, g]), "H or g is not in G")
    intersection, valency, two_transitive = H.local_action(g)
    return LocalCertificate(
        group_order=G.order(),
        stabilizer_order=H.order(),
        intersection_order=intersection,
        valency=valency,
        connected=G.generated_by([*H.gens, g]),
        locally_2transitive=two_transitive,
        g_square_in_H=H.contains(pmul(g, g)),
        g_outside_H=not H.contains(g),
    )


# -- full certificates for the main constructions ------------------------


@dataclass(frozen=True)
class CosetGraphCertificate:
    """The verdicts of a certificate, with the groups they were derived
    from: G, which holds the socle T^n, the vertex stabilizer H, the edge
    element g, T^n meet H and its projections, and G* if bipartite."""
    kind: str
    family: str | None
    parameter: int
    local: LocalCertificate
    theorem1_case: str | None
    ii_possible: bool | None
    case_witness: int | None
    double_cover_verdict: str
    socle_transitive: bool
    diagonal_type: bool
    arc_regular_socle: bool
    G: PermGroup
    H: PermGroup
    g: Perm
    meet: PermGroup
    projections: tuple[PermGroup, ...]
    gstar: PermGroup | None = None
    gstar_index: int | None = None
    g_swaps_halves: bool | None = None

    @property
    def valency(self) -> int:
        return self.local.valency


def not_double_cover_test(H: PermGroup, M: DirectPower, p: int) -> str:
    """Necessary-condition chain for the bipartite graph of valency p: a
    standard double cover would force the replicated b, the generator of
    H with one nonidentity piece on every block and order p - 1, into
    the socle product M, so non-membership refutes it; membership decides
    nothing, and without such a generator the chain cannot run."""
    for x in H.gens:
        pieces = {M.piece(x, i) for i in range(M.copies)}
        if len(pieces) == 1 and pid(M.factor.degree) not in pieces \
                and porder(x) == p - 1:
            return "untested" if M.contains(x) else "is_not"
    return "untested"


def _shape(kind: str, d: int, n: int) -> tuple[str, int] | None:
    """The seed family whose socle T^n has n blocks of d points, with its
    parameter q (the valency when bipartite); None if none fits or q is
    too small.  The shapes exclude one another, so at most one fits.  q is
    a prime power, at least 4 for PSL(2, q) and 5 for A_q, and a prime of
    at least 5 in the bipartite families, as their seeds require."""
    shapes = {
        "product-action": [("pgl2", d - 1, n == d),
                           ("symmetric", d, n == d + 1),
                           ("psl28-gamma", 8, (d, n) == (9, 21))],
        "bipartite": [("pgl2-bipartite", d - 1, n == d - 2),
                      ("symmetric-bipartite", d, n == d - 1)],
    }
    bipartite = kind == "bipartite"
    for family, q, fits in shapes[kind]:
        if (fits and q >= (5 if bipartite or q == d else 4)
                and (is_prime(q) if bipartite else prime_power(q))):
            return family, q
    return None


def _family(kind: str, gens, d: int, n: int, field: GF | None = None,
            seed: int = 0) -> tuple[tuple[str, int], PermGroup] | None:
    """The _shape of n blocks of d points, with the socle factor T =
    <gens>, if the generators prove exactly its order and T meets it:
    q!/2 by alternating_bound when q = d, and |PSL(2, q)| by mobius_bound
    on the atlas's q + 1 projective points otherwise; `field` is GF(q) if
    the caller has it.  Even generators put T in A_q, and Mobius maps of
    square determinant put it in the atlas's PSL(2, q), so meeting the
    order makes T that group, nonabelian simple and transitive.  A T whose
    generators prove no such bound is not that group, and is never
    ordered; one that proves it is sifted to it from the seed.  The
    generators must be permutations of the d points."""
    fit = _shape(kind, d, n)
    if fit is None:
        return None
    q = fit[1]
    if q == d:
        bound, order = alternating_bound(gens, d), factorial(q) // 2
    else:
        k = field if field and field.q == q else make_field(q)
        bound, order = mobius_bound(gens, k), q * (q * q - 1) // gcd(2, q - 1)
    if bound != order:
        return None
    T = PermGroup(gens, degree=d, upper_bound=bound, seed=seed)
    return (fit, T) if T.order() == bound else None


def _derive(G: PermGroup, H: PermGroup, g: Perm, fit: tuple[str, int],
            gstar: PermGroup | None = None) -> CosetGraphCertificate:
    """Every verdict of a certificate, from the groups alone: G, built
    over its socle M = T^n, with the vertex stabilizer H and edge element
    g, G* when the graph is bipartite, and the fit (family and parameter)
    that _family finds for M, which proves T simple for the connectivity
    proof through M.  Once local_certificate has checked that H and g lie
    in G, T^n meet H is derived once, by H's type (PermGroup.meet): for
    an AffineGroup V:C with V in T^n as V (T^n meet C) by the Dedekind
    law, otherwise by a walk of the cosets of T^n under H; it is
    projected through its generators.  certify and verify_certificate
    call it."""
    M = G.socle
    local = local_certificate(G, H, g)
    meet = H.meet(M)
    projections = tuple(M.projection(meet, i) for i in range(M.copies))
    valency = local.valency
    family, fitted = fit
    top = G if gstar is None else gstar
    fields = dict(
        local=local, G=G, H=H, g=g, meet=meet, projections=projections,
        # the socle is transitive on the cosets of H in top
        socle_transitive=(all(top.contains(x) for x in H.gens)
                          and M.order() * H.order()
                          == top.order() * meet.order()),
        # every projection pi_i of T^n meet H is injective, which needs
        # |T^n meet H| to divide |T|: no chain is built otherwise
        diagonal_type=(M.factor.order() % meet.order() == 0
                       and all(proj.order() == meet.order()
                               for proj in projections)),
        # |T^n| = |G:H| * valency: the socle is regular on the arcs
        arc_regular_socle=M.order() * H.order() == G.order() * valency,
    )
    if gstar is not None:
        return CosetGraphCertificate(
            kind="bipartite", parameter=valency,
            family=family if fitted == valency else None,
            theorem1_case=None, ii_possible=None, case_witness=None,
            double_cover_verdict=not_double_cover_test(H, M, valency),
            gstar=gstar, gstar_index=G.order() // gstar.order(),
            g_swaps_halves=not gstar.contains(g), **fields)
    q = isqrt(valency)
    power = prime_power(valency)
    check(q * q == valency and power is not None,
          f"valency {valency} is not the square of a prime power")
    case = classify_valency_case(*power, M.copies)
    return CosetGraphCertificate(
        kind="product-action", parameter=q,
        family=family if fitted == q else None,
        theorem1_case=case.label, ii_possible=case.ii_possible,
        case_witness=case.witness,
        double_cover_verdict="untested", **fields)


def certify(construction) -> CosetGraphCertificate:
    """Certificate for a product-action or bipartite construction, from
    its groups, G among them built over its socle; the one place that
    checks the verdicts a construction must have.  The edge element g is
    the searched one of a valency-64 construction, and the replicated
    seed involution o of any other."""
    if isinstance(construction, Valency64Construction):
        g, construction = construction.g, construction.pa
        kind, gstar = "product-action", None
    elif isinstance(construction, PAConstruction):
        kind, gstar, g = "product-action", None, construction.o
    elif isinstance(construction, BipartiteConstruction):
        kind, gstar, g = "bipartite", construction.Gstar, construction.o
    else:
        raise TypeError(f"cannot certify {type(construction).__name__}")
    if g is None:
        raise ValueError("no edge element available for this seed")
    if construction.G is None:
        raise ValueError("construction is missing the assembled G")
    seed = construction.seed
    fitted = _family(kind, seed.T.gens, seed.degree, construction.n,
                     seed.field, seed.T.seed)
    check(fitted is not None, "the socle factor fits no family")
    cert = _derive(construction.G, construction.H, g, fitted[0], gstar)
    check(cert.family == seed.family, f"the groups show family "
          f"{cert.family!r}, not the seed's {seed.family!r}")
    check(cert.socle_transitive, "T^n is not transitive on the coset space")
    check(cert.diagonal_type == (kind == "bipartite"),
          f"diagonal type {cert.diagonal_type} for a {kind} construction")
    check(cert.local.all_conditions,
          f"certificate conditions failed: {cert.local}")
    if kind == "bipartite":
        check(cert.gstar_index == 2, "Gstar does not have index 2")
        check(cert.g_swaps_halves, "g lies in Gstar")
        # |<a, b^2>| is divisible by the coprime p and (p - 1)/2
        p, a = construction.p, construction.bold_a
        b2 = ppow(construction.bold_b, 2)
        check(porder(a) == p and porder(b2) == (p - 1) // 2
              and cert.meet.order() == p * (p - 1) // 2
              and cert.meet.contains(a) and cert.meet.contains(b2),
              "T^(p-1) meet H is not <a, b^2>")
        return cert
    # subdirect; a projection inside the target, sifted to its order,
    # is all of it when it meets that bound
    if seed.family != "psl28-gamma":
        # the atlas proved R meet T = F:<b, c^|X:T|>, of order
        # q(q - 1)/|X:T|, when it built the seed
        target = PermGroup([*seed.F, seed.b, ppow(seed.c, seed.index_XT)],
                           degree=seed.degree,
                           upper_bound=seed.q * (seed.q - 1) // seed.index_XT,
                           seed=seed.T.seed)
        name = "R meet T"
    else:
        target, name = cert.projections[0], "projection 0"
        check(1 < target.order() < seed.T.order(),
              "projection 0 of T^n meet H is not proper nontrivial")
    for i, proj in enumerate(cert.projections):
        check(all(target.contains(x) for x in proj.gens)
              and target.generated_by(proj.gens),
              f"projection {i} of T^n meet H is not {name}")
    return cert


# -- full enumeration for toy instances ----------------------------------


def enumerate_small_graph(G: PermGroup, H: PermGroup, g: Perm,
                          limit: int = ENUMERATION_LIMIT) -> SmallGraph:
    """The coset graph Cos(G, H, HgH) as an explicit graph: vertices are
    the right cosets of H, and Hx ~ Hy exactly when y*x^-1 lies in the
    double coset HgH.  G acts on them by its coset action, built once
    under the limit."""
    g = tuple(g)
    if not G.contains(g):
        raise ValueError("g must lie in G")
    if not H.contains(pmul(g, g)):
        raise ValueError("g squared must lie in H")
    if H.contains(g):
        raise ValueError("g must lie outside H")
    index = G.order() // H.order()
    if index > limit:
        raise ValueError(f"index {index} exceeds the enumeration limit "
                         f"{limit}")
    ca = coset_action(G, H, limit=limit)
    # one representative per right coset of H inside HgH
    arc_reps = {}
    for h in H.elements():
        gh = pmul(g, h)
        arc_reps.setdefault(H.canonical_coset_rep(gh), gh)
    reps = list(arc_reps.values())
    adjacency = []
    for x in ca.representatives:
        nbrs = {ca.index_of(pmul(r, x)) for r in reps}
        adjacency.append(tuple(sorted(nbrs)))
    return SmallGraph(index, tuple(adjacency),
                      vertex_action=tuple(ca.group.gens))


def edge_list_text(sg: SmallGraph) -> str:
    """One 'u v' line per edge, 0-indexed, u < v."""
    return "".join(f"{u} {v}\n" for u, v in sg.edges())


def standard_double_cover(sg: SmallGraph) -> SmallGraph:
    """Vertices V x {0, 1}, with (u, 0) adjacent to (v, 1) exactly when
    u ~ v.  Connected exactly when the input is connected and
    non-bipartite."""
    n = sg.vertices
    adjacency = []
    for u in range(n):
        adjacency.append(tuple(v + n for v in sg.adjacency[u]))
    for u in range(n):
        adjacency.append(tuple(sg.adjacency[u]))
    return SmallGraph(2 * n, tuple(adjacency),
                      bipartition=(tuple(range(n)), tuple(range(n, 2 * n))))


# -- serialization --------------------------------------------------------


def certificate_payload(cert: CosetGraphCertificate) -> dict:
    """A JSON-ready dictionary carrying the certificate verdicts plus
    everything needed to recompute them: generators, the edge element,
    the socle factor, and exact orders as decimal strings.  The one
    writer of the format: verify_certificate compares what it writes for
    the rebuilt groups with the payload it was given."""
    local, M = cert.local, cert.G.socle
    payload = {
        "format": CERTIFICATE_FORMAT,
        "kind": cert.kind,
        "family": cert.family,
        "parameter": cert.parameter,
        "degree": cert.G.degree,
        "blocks": M.copies,
        "block_degree": M.factor.degree,
        "orders": {
            "G": str(local.group_order),
            "H": str(local.stabilizer_order),
            "intersection": str(local.intersection_order),
            "socle_factor": str(M.factor.order()),
        },
        "valency": cert.valency,
        "checks": {
            "connected": local.connected,
            "locally_2transitive": local.locally_2transitive,
            "g_square_in_H": local.g_square_in_H,
            "g_outside_H": local.g_outside_H,
            "socle_transitive": cert.socle_transitive,
            "diagonal_type": cert.diagonal_type,
        },
        "theorem1_case": cert.theorem1_case,
        "ii_possible": cert.ii_possible,
        "case_witness": cert.case_witness,
        "double_cover_verdict": cert.double_cover_verdict,
        "generators": {
            "G": [list(x) for x in cert.G.gens],
            "H": [list(x) for x in cert.H.gens],
            "g": list(cert.g),
            "socle_factor": [list(x) for x in M.factor.gens],
        },
    }
    if cert.kind == "bipartite":
        payload["orders"]["Gstar"] = str(cert.gstar.order())
        payload["generators"]["gstar"] = [list(x) for x in cert.gstar.gens]
        payload.update(gstar_index=cert.gstar_index,
                       g_swaps_halves=cert.g_swaps_halves)
    else:
        # H = E:<theta> lists E's generators, then theta
        payload["generators"].update(theta=list(cert.H.gens[-1]),
                                     E=[list(x) for x in cert.H.gens[:-1]])
        payload["arc_regular_socle"] = cert.arc_regular_socle
    return payload


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple[str, ...]
    recomputed: dict


def verify_certificate(payload: dict, seed: int = 0) -> VerificationReport:
    """Rebuild the groups from the payload's generator arrays, sifted
    from the given seed, derive every verdict with certify's own code,
    serialize it with certificate_payload and compare the JSON trees
    leaf by leaf.  Before any walk of cosets of T^n, the socle factor
    must fit a family by certify's own _family, the one group of T built;
    _derive then checks that H and g lie in G before it walks the cosets
    of H or of T^n."""
    _check_shape(payload)
    verdict = payload["double_cover_verdict"]
    check(payload["kind"] == "bipartite" or verdict == "untested",
          f"double_cover_verdict: stated {verdict!r}, a product-action "
          f"certificate is 'untested'")
    gens, kind = payload["generators"], payload["kind"]
    d, n = payload["block_degree"], payload["blocks"]
    fitted = _family(kind, gens["socle_factor"], d, n, seed=seed)
    check(fitted is not None, "the socle factor fits no family")
    fit, T = fitted
    M = DirectPower(T, n)
    # orders are proven from the generators; the payload's are only compared
    G = socle_group(gens["G"], M)
    gstar = socle_group(gens["gstar"], M) if kind == "bipartite" else None
    # H = E:<theta> lists E's generators, then theta; H = <a>:<b, tau>
    # lists a first.  H is an AffineGroup only if every premise is proven
    H = affine_group(gens["H"], 1 if kind == "bipartite" else -1,
                     degree=payload["degree"], seed=seed)
    g = tuple(gens["g"])
    cert = _derive(G, H, g, fit, gstar)
    stated, written = _leaves(payload), certificate_payload(cert)
    failures = tuple(_mismatch(path, stated[path], value)
                     for path, value in _leaves(written).items()
                     if stated[path] != value)
    recomputed = {key: written["orders"][key]
                  for key in ("G", "H", "intersection")}
    return VerificationReport(not failures, failures,
                              {**recomputed, "valency": written["valency"]})


def _leaves(tree) -> dict:
    """Each leaf of a JSON tree by its path, the tuple of keys leading to
    it, in document order: a nonempty object is not a leaf, anything
    else, lists included, is.  Distinct trees have distinct leaves: the
    top-level key "orders.G" and the key G under orders are two paths.
    The walk keeps its own stack, so no nesting depth overflows Python's."""
    out = {}
    stack = [((), tree)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, dict) and node:
            stack.extend(((*path, key), value)
                         for key, value in reversed(node.items()))
        else:
            out[path] = node
    return out


def _dotted(path: tuple) -> str:
    """A path as dotted text, with any key that holds a dot quoted."""
    return ".".join(repr(k) if "." in str(k) else str(k) for k in path)


def _mismatch(path: tuple, stated, recomputed) -> str:
    """'path: stated X, recomputed Y' for two differing leaves, narrowed
    to the first differing item of lists of one length."""
    while type(stated) is type(recomputed) is list \
            and len(stated) == len(recomputed):
        i = next(i for i, (x, y) in enumerate(zip(stated, recomputed))
                 if x != y)
        path, stated, recomputed = (*path, i), stated[i], recomputed[i]
    return f"{_dotted(path)}: stated {stated!r}, recomputed {recomputed!r}"


def _check_shape(payload) -> None:
    """The certificate's format and kind are known, its keys are those
    certificate_payload writes for its kind, each of its type, g
    permutes blocks * block_degree = degree points, so no domain is
    longer than the payload's arrays, and each generator of the socle
    factor permutes block_degree points; ValueError otherwise."""
    if not isinstance(payload, dict):
        raise ValueError("certificate is not a JSON object")
    fmt = payload.get("format")
    if fmt != CERTIFICATE_FORMAT:
        raise ValueError(f"unknown certificate format {fmt!r}")
    kind = payload.get("kind")
    if kind not in _KIND_KEYS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    leaves = _leaves(payload)
    for dotted, name in {**_COMMON_KEYS, **_KIND_KEYS[kind]}.items():
        path = tuple(dotted.split("."))
        if path not in leaves:
            raise ValueError(f"{kind} certificate lacks {dotted}")
        node = leaves.pop(path)
        if not (node is None and name.endswith("?")
                or _TYPES[name.rstrip("?")](node)):
            raise ValueError(f"{kind} certificate has a {dotted} of the "
                             f"wrong type ({type(node).__name__})")
    if leaves:
        # one path, cut short, and a count: a deep object makes one long
        path = _dotted(next(iter(leaves)))
        path = path if len(path) <= 80 else path[:77] + "..."
        more = f" and {len(leaves) - 1} more" if len(leaves) > 1 else ""
        raise ValueError(f"{kind} certificate has unknown key {path}{more}")
    degree, g = payload["degree"], payload["generators"]["g"]
    d = payload["block_degree"]
    if not (payload["blocks"] * d == degree == len(g)
            and sorted(g) == list(range(degree))):
        raise ValueError(f"{kind} certificate's generators.g is not a "
                         f"permutation of its blocks * block_degree points")
    if any(sorted(x) != list(range(d))
           for x in payload["generators"]["socle_factor"]):
        raise ValueError(f"{kind} certificate's generators.socle_factor "
                         f"has one not a permutation of block_degree points")

