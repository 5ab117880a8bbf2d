"""Coset-graph certificates.

The large constructions cannot be enumerated, so 2-arc-transitivity is
certified locally: the edge stabilizer H meet H^g, the valency, local
2-transitivity of H on the neighborhood, and connectivity via the order
of <H, g>.  Toy instances are enumerated in full and cross-checked
against the same local certificate.

Every verdict of a certificate has one derivation, _derive, which both
certify (from a construction's groups) and verify_certificate (from the
groups rebuilt out of a payload's generators) call: socle transitivity,
the diagonal type of T^n meet H from the projections of its generators,
the parameter and Theorem 1 case from the valency, and the bipartite
index, half-swap and double-cover verdicts.  T^n meet H is never
enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .construct import BipartiteConstruction, PAConstruction, Valency64Construction
from .numth import check, classify_valency_case, prime_power
from .permgrp import (
    DirectPower,
    Perm,
    PermGroup,
    coset_action,
    coset_stabilizer,
    filtered_intersection_with_product,
    is_two_transitive,
    pid,
    pmul,
    porder,
    socle_bound,
    socle_extension,
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

# the keys verify_certificate reads, for every kind and for each kind,
# with the type of each
_COMMON_KEYS = {
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
    "product-action": {"arc_regular_socle": "bool"},
    "bipartite": {"gstar_index": "count", "g_swaps_halves": "bool",
                  "generators.gstar": "perms", "orders.Gstar": "order"},
}


# -- small graphs --------------------------------------------------------


@dataclass(frozen=True)
class SmallGraph:
    """A simple undirected graph with 0-indexed vertices."""
    vertices: int
    adjacency: tuple[tuple[int, ...], ...]
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None = None

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


def local_certificate(G_order: int, H: PermGroup, g: Perm,
                      M: DirectPower | None = None) -> LocalCertificate:
    """The valency is the length of the orbit of Hg under H, and local
    2-transitivity is read off H's action on that orbit, both from the
    walk that gives edge_stabilizer.  With M, a direct power normalized
    by H and g, the order of <H, g> is sifted to its socle bound."""
    meet, neighbours = coset_stabilizer(H, H, g)
    valency = neighbours.degree
    gens = list(H.gens) + [g]
    joined = PermGroup(gens, degree=H.degree,
                       upper_bound=M and socle_bound(gens, M),
                       seed=H.seed).order()
    return LocalCertificate(
        group_order=G_order,
        stabilizer_order=H.order(),
        intersection_order=meet.order(),
        valency=valency,
        connected=joined == G_order,
        locally_2transitive=is_two_transitive(neighbours),
        g_square_in_H=H.contains(pmul(g, g)),
        g_outside_H=not H.contains(g),
    )


# -- full certificates for the main constructions ------------------------


@dataclass(frozen=True)
class CosetGraphCertificate:
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
    socle_factor_order: int
    gstar_order: int | None = None
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
    nothing."""
    for x in H.gens:
        pieces = {M.piece(x, i) for i in range(M.copies)}
        if len(pieces) == 1 and pid(M.factor.degree) not in pieces \
                and porder(x) == p - 1:
            return "untested" if M.contains(x) else "is_not"
    raise ValueError("H has no replicated generator of order p - 1")


def _derive(G: PermGroup, H: PermGroup, g: Perm, M: DirectPower,
            meet: PermGroup, gstar: PermGroup | None = None,
            family: str | None = None) -> CosetGraphCertificate:
    """Every verdict of a certificate, from the groups alone: G with the
    vertex stabilizer H and edge element g, G* when the graph is
    bipartite, the socle M = T^n, and meet = M meet H, read through its
    generators, never its elements.  certify and verify_certificate both
    call it; family is carried, not derived."""
    local = local_certificate(G.order(), H, g, M)
    valency = local.valency
    top = G if gstar is None else gstar
    fields = dict(
        family=family,
        local=local,
        socle_factor_order=M.factor.order(),
        # the socle is transitive on the cosets of H in top
        socle_transitive=(all(top.contains(x) for x in H.gens)
                          and M.order() * H.order()
                          == top.order() * meet.order()),
        # every projection pi_i of T^n meet H is injective
        diagonal_type=all(M.projection(meet, i).order() == meet.order()
                          for i in range(M.copies)),
        # |T^n| = |G:H| * valency: the socle is regular on the arcs
        arc_regular_socle=M.order() * H.order() == G.order() * valency,
    )
    if gstar is not None:
        return CosetGraphCertificate(
            kind="bipartite", parameter=valency, theorem1_case=None,
            ii_possible=None, case_witness=None,
            double_cover_verdict=not_double_cover_test(H, M, valency),
            gstar_order=gstar.order(),
            gstar_index=G.order() // gstar.order(),
            g_swaps_halves=not gstar.contains(g), **fields)
    q = isqrt(valency)
    power = prime_power(valency)
    check(q * q == valency and power is not None,
          f"valency {valency} is not the square of a prime power")
    case = classify_valency_case(*power, M.copies)
    return CosetGraphCertificate(
        kind="product-action", parameter=q, theorem1_case=case.label,
        ii_possible=case.ii_possible, case_witness=case.witness,
        double_cover_verdict="untested", **fields)


def certify(construction, g: Perm | None = None) -> CosetGraphCertificate:
    """Certificate for a product-action or bipartite construction, from
    its groups and the T^n meet H it computed.  g defaults to the
    replicated seed involution; the valency-64 family passes its
    searched element."""
    if isinstance(construction, Valency64Construction):
        return certify(construction.pa, construction.g)
    if isinstance(construction, PAConstruction):
        gstar = None
    elif isinstance(construction, BipartiteConstruction):
        gstar = construction.Gstar
    else:
        raise TypeError(f"cannot certify {type(construction).__name__}")
    if g is None:
        g = construction.o
    if g is None:
        raise ValueError("no edge element available for this seed")
    if construction.G is None:
        raise ValueError("construction is missing the assembled G")
    seed = construction.seed
    return _derive(construction.G, construction.H, g,
                   DirectPower(seed.T, construction.n), construction.meet,
                   gstar, seed.family)


# -- full enumeration for toy instances ----------------------------------


def enumerate_small_graph(G: PermGroup, H: PermGroup, g: Perm,
                          limit: int = ENUMERATION_LIMIT) -> SmallGraph:
    """The coset graph Cos(G, H, HgH) as an explicit graph: vertices are
    the right cosets of H, and Hx ~ Hy exactly when y*x^-1 lies in the
    double coset HgH."""
    g = tuple(g)
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
    return SmallGraph(index, tuple(adjacency))


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


def _perm_list(perms) -> list[list[int]]:
    return [list(p) for p in perms]


def certificate_payload(cert: CosetGraphCertificate,
                        construction, g: Perm) -> dict:
    """A JSON-ready dictionary carrying the certificate verdicts plus
    everything needed to recompute them: generators, the edge element,
    the socle factor, and exact orders as decimal strings."""
    if isinstance(construction, Valency64Construction):
        construction = construction.pa
    c = construction
    if cert.kind == "bipartite":
        extra = {"gstar": _perm_list(c.Gstar.gens)}
        verdicts = {"gstar_index": cert.gstar_index,
                    "g_swaps_halves": cert.g_swaps_halves}
    else:
        extra = {"theta": list(c.theta_perm), "E": _perm_list(c.E)}
        verdicts = {"arc_regular_socle": cert.arc_regular_socle}
    return {
        "format": CERTIFICATE_FORMAT,
        "kind": cert.kind,
        "family": cert.family,
        "parameter": cert.parameter,
        "degree": c.G.degree,
        "blocks": c.n,
        "block_degree": c.block_degree,
        "orders": {
            "G": str(cert.local.group_order),
            "H": str(cert.local.stabilizer_order),
            "intersection": str(cert.local.intersection_order),
            "socle_factor": str(cert.socle_factor_order),
            **({"Gstar": str(cert.gstar_order)}
               if cert.kind == "bipartite" else {}),
        },
        "valency": cert.valency,
        "checks": {
            "connected": cert.local.connected,
            "locally_2transitive": cert.local.locally_2transitive,
            "g_square_in_H": cert.local.g_square_in_H,
            "g_outside_H": cert.local.g_outside_H,
            "socle_transitive": cert.socle_transitive,
            "diagonal_type": cert.diagonal_type,
        },
        "theorem1_case": cert.theorem1_case,
        "ii_possible": cert.ii_possible,
        "case_witness": cert.case_witness,
        "double_cover_verdict": cert.double_cover_verdict,
        "generators": {
            "G": _perm_list(c.G.gens),
            "H": _perm_list(c.H.gens),
            "g": list(g),
            "socle_factor": _perm_list(c.seed.T.gens),
            **extra,
        },
        **verdicts,
    }


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple[str, ...]
    recomputed: dict


def verify_certificate(payload: dict, seed: int = 0) -> VerificationReport:
    """Rebuild the groups from the payload's generator arrays, sifted
    from the given seed, derive every verdict with certify's own code,
    and compare it with the stated one.  Only family is not compared."""
    failures = []

    def expect(name, stated, recomputed):
        if stated != recomputed:
            failures.append(f"{name}: stated {stated!r}, recomputed "
                            f"{recomputed!r}")

    _check_shape(payload)
    if payload["kind"] == "product-action":
        verdict = payload["double_cover_verdict"]
        check(verdict == "untested", f"double_cover_verdict: stated "
              f"{verdict!r}, a product-action certificate is 'untested'")
    gens = payload["generators"]
    H = PermGroup([tuple(x) for x in gens["H"]], degree=payload["degree"],
                  seed=seed)
    T = PermGroup([tuple(x) for x in gens["socle_factor"]],
                  degree=payload["block_degree"], seed=seed)
    M = DirectPower(T, payload["blocks"])
    # orders are proven from the generators; the payload's are only compared
    G = _socle_group(gens["G"], M)
    gstar = (_socle_group(gens["gstar"], M)
             if payload["kind"] == "bipartite" else None)
    cert = _derive(G, H, tuple(gens["g"]), M,
                   filtered_intersection_with_product(H, M), gstar)
    local = cert.local
    orders = payload["orders"]
    checks = payload["checks"]
    expect("socle factor order", int(orders["socle_factor"]),
           cert.socle_factor_order)
    expect("order of G", int(orders["G"]), local.group_order)
    expect("order of H", int(orders["H"]), local.stabilizer_order)
    expect("intersection order", int(orders["intersection"]),
           local.intersection_order)
    expect("valency", payload["valency"], local.valency)
    expect("parameter", payload["parameter"], cert.parameter)
    for name in ("connected", "locally_2transitive", "g_square_in_H",
                 "g_outside_H"):
        expect(name, checks[name], getattr(local, name))
    for name in ("socle_transitive", "diagonal_type"):
        expect(name, checks[name], getattr(cert, name))
    names = ["theorem1_case", "ii_possible", "case_witness",
             "double_cover_verdict"]
    if gstar is None:
        names.append("arc_regular_socle")
    else:
        expect("order of Gstar", int(orders["Gstar"]), cert.gstar_order)
        names += ["gstar_index", "g_swaps_halves"]
    for name in names:
        expect(name, payload[name], getattr(cert, name))
    recomputed = {
        "G": str(local.group_order),
        "H": str(local.stabilizer_order),
        "intersection": str(local.intersection_order),
        "valency": local.valency,
    }
    return VerificationReport(not failures, tuple(failures), recomputed)


def _check_shape(payload) -> None:
    """The certificate's format and kind are known and every key that
    verify_certificate reads is present and of its type; ValueError
    otherwise."""
    if not isinstance(payload, dict):
        raise ValueError("certificate is not a JSON object")
    fmt = payload.get("format")
    if fmt != CERTIFICATE_FORMAT:
        raise ValueError(f"unknown certificate format {fmt!r}")
    kind = payload.get("kind")
    if kind not in _KIND_KEYS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    for path, name in {**_COMMON_KEYS, **_KIND_KEYS[kind]}.items():
        node = payload
        for key in path.split("."):
            if not isinstance(node, dict) or key not in node:
                raise ValueError(f"{kind} certificate lacks {path}")
            node = node[key]
        if not (node is None and name.endswith("?")
                or _TYPES[name.rstrip("?")](node)):
            raise ValueError(f"{kind} certificate has a {path} of the "
                             f"wrong type ({type(node).__name__})")


def _socle_group(gens, M: DirectPower) -> PermGroup:
    """<gens> ordered and tested through the socle M when the list holds
    every generator of M and normalizes M (socle_extension); otherwise
    sifted to socle_bound, or by the Schreier check when some generator
    does not normalize M."""
    gens = [tuple(x) for x in gens]
    group = socle_extension(gens, M)
    if group is None:
        group = PermGroup(gens, degree=M.degree,
                          upper_bound=socle_bound(gens, M), seed=M.seed)
    return group
