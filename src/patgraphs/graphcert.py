"""Coset-graph certificates.

The large constructions cannot be enumerated, so 2-arc-transitivity is
certified locally: the edge stabilizer H meet H^g, the valency, local
2-transitivity of H on the neighborhood, and connectivity via the order
of <H, g>.  Toy instances are enumerated in full and cross-checked
against the same local certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import BipartiteConstruction, PAConstruction, Valency64Construction
from .numth import check, classify_valency_case
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

# the keys verify_certificate reads, for every kind and for each kind
_COMMON_KEYS = (
    "degree", "blocks", "block_degree", "valency", "double_cover_verdict",
    "generators.G", "generators.H", "generators.g", "generators.socle_factor",
    "orders.G", "orders.H", "orders.intersection", "orders.socle_factor",
    "checks.connected", "checks.locally_2transitive", "checks.g_square_in_H",
    "checks.g_outside_H", "checks.socle_transitive", "checks.diagonal_type",
)
_KIND_KEYS = {
    "product-action": ("arc_regular_socle",),
    "bipartite": ("parameter", "gstar_index", "g_swaps_halves",
                  "generators.gstar", "orders.Gstar"),
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
                       upper_bound=M and socle_bound(gens, M)).order()
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
    family: str
    parameter: int
    local: LocalCertificate
    theorem1_case: str | None
    ii_possible: bool | None
    case_witness: int | None
    double_cover_verdict: str
    socle_transitive: bool
    diagonal_type: bool
    gstar_index: int | None = None
    g_swaps_halves: bool | None = None
    arc_regular_socle: bool | None = None

    @property
    def valency(self) -> int:
        return self.local.valency


def not_double_cover_test(bc: BipartiteConstruction) -> str:
    """Necessary-condition chain: a standard double cover would force
    the replicated b into the socle product, so non-membership refutes
    it; membership decides nothing."""
    M = DirectPower(bc.seed.T, bc.n)
    return "untested" if M.contains(bc.bold_b) else "is_not"


def certify(construction, g: Perm | None = None) -> CosetGraphCertificate:
    """Certificate for a product-action or bipartite construction.  For
    product-action constructions g defaults to the replicated seed
    involution; the valency-64 family passes its searched element."""
    if isinstance(construction, Valency64Construction):
        return certify(construction.pa, construction.g)
    if isinstance(construction, PAConstruction):
        pa = construction
        if g is None:
            g = pa.o
        if g is None:
            raise ValueError("no edge element available for this seed")
        if pa.G is None:
            raise ValueError("construction is missing the assembled G")
        local = local_certificate(pa.G.order(), pa.H, g,
                                  DirectPower(pa.seed.T, pa.n))
        q = pa.seed.q
        field = pa.seed.field
        case = classify_valency_case(field.p, 2 * field.f, pa.n)
        socle = pa.seed.T.order() ** pa.n
        vertex_count = pa.G.order() // pa.H.order()
        return CosetGraphCertificate(
            kind="product-action",
            family=pa.seed.family,
            parameter=q,
            local=local,
            theorem1_case=case.label,
            ii_possible=case.ii_possible,
            case_witness=case.witness,
            double_cover_verdict="untested",
            socle_transitive=bool(pa.socle_transitive),
            diagonal_type=not pa.non_diagonal,
            arc_regular_socle=socle == vertex_count * local.valency,
        )
    if isinstance(construction, BipartiteConstruction):
        bc = construction
        if g is None:
            g = bc.o
        local = local_certificate(bc.G.order(), bc.H, g,
                                  DirectPower(bc.seed.T, bc.n))
        socle = bc.seed.T.order() ** bc.n
        half_vertices = bc.Gstar.order() // bc.H.order()
        h_inside = all(bc.Gstar.contains(x) for x in bc.H.gens)
        return CosetGraphCertificate(
            kind="bipartite",
            family=bc.seed.family,
            parameter=bc.p,
            local=local,
            theorem1_case=None,
            ii_possible=None,
            case_witness=None,
            double_cover_verdict=not_double_cover_test(bc),
            socle_transitive=(socle * bc.H.order()
                              == bc.Gstar.order() * bc.meet.order())
                             and h_inside,
            diagonal_type=True,
            gstar_index=bc.G.order() // bc.Gstar.order(),
            g_swaps_halves=not bc.Gstar.contains(g),
            arc_regular_socle=socle == 2 * half_vertices * local.valency,
        )
    raise TypeError(f"cannot certify {type(construction).__name__}")


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
    if isinstance(construction, PAConstruction):
        pa = construction
        seed = pa.seed
        big = pa.G
        extra = {
            "theta": list(pa.theta_perm),
            "E": _perm_list(pa.E),
        }
    else:
        bc = construction
        seed = bc.seed
        big = bc.G
        extra = {"gstar": _perm_list(bc.Gstar.gens)}
    payload = {
        "format": CERTIFICATE_FORMAT,
        "kind": cert.kind,
        "family": cert.family,
        "parameter": cert.parameter,
        "degree": big.degree,
        "blocks": construction.n,
        "block_degree": construction.block_degree,
        "orders": {
            "G": str(cert.local.group_order),
            "H": str(cert.local.stabilizer_order),
            "intersection": str(cert.local.intersection_order),
            "socle_factor": str(seed.T.order()),
            **({"Gstar": str(bc.Gstar.order())}
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
            "G": _perm_list(big.gens),
            "H": _perm_list((pa if cert.kind == "product-action"
                             else bc).H.gens),
            "g": list(g),
            "socle_factor": _perm_list(seed.T.gens),
        },
    }
    if cert.kind == "bipartite":
        payload["gstar_index"] = cert.gstar_index
        payload["g_swaps_halves"] = cert.g_swaps_halves
        payload["generators"].update(extra)
    else:
        payload["arc_regular_socle"] = cert.arc_regular_socle
        payload["generators"].update(extra)
    return payload


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple[str, ...]
    recomputed: dict


def verify_certificate(payload: dict) -> VerificationReport:
    """Recompute every subcheck of a serialized certificate from its
    generator arrays and compare with the stated verdicts."""
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
    degree = payload["degree"]
    gens = payload["generators"]
    g = tuple(gens["g"])
    H = PermGroup([tuple(x) for x in gens["H"]], degree=degree)
    n = payload["blocks"]
    d = payload["block_degree"]
    T = PermGroup([tuple(x) for x in gens["socle_factor"]], degree=d)
    expect("socle factor order", int(payload["orders"]["socle_factor"]),
           T.order())
    M = DirectPower(T, n)
    # orders are proven from the generators; the payload's are only compared
    G_order = _socle_group(gens["G"], M).order()
    expect("order of G", int(payload["orders"]["G"]), G_order)
    expect("order of H", int(payload["orders"]["H"]), H.order())
    local = local_certificate(G_order, H, g, M)
    expect("intersection order", int(payload["orders"]["intersection"]),
           local.intersection_order)
    expect("valency", payload["valency"], local.valency)
    checks = payload["checks"]
    expect("connected", checks["connected"], local.connected)
    expect("locally_2transitive", checks["locally_2transitive"],
           local.locally_2transitive)
    expect("g_square_in_H", checks["g_square_in_H"], local.g_square_in_H)
    expect("g_outside_H", checks["g_outside_H"], local.g_outside_H)

    meet = filtered_intersection_with_product(H, M).elements()
    if payload["kind"] == "bipartite":
        gstar = _socle_group(gens["gstar"], M)
        expect("order of Gstar", int(payload["orders"]["Gstar"]),
               gstar.order())
        expect("index of Gstar", payload["gstar_index"],
               G_order // gstar.order())
        expect("g_swaps_halves", payload["g_swaps_halves"],
               not gstar.contains(g))
        expect("socle_transitive", checks["socle_transitive"],
               T.order()**n * H.order() == gstar.order() * len(meet))
        projections_injective = all(
            len({x[i * d:(i + 1) * d] for x in meet}) == len(meet)
            for i in range(n))
        expect("diagonal_type", checks["diagonal_type"],
               projections_injective)
        expect("double_cover_verdict", payload["double_cover_verdict"],
               _bipartite_verdict_from_payload(payload, M))
    else:
        expect("socle_transitive", checks["socle_transitive"],
               T.order()**n * H.order() == G_order * len(meet))
        kernel = [x for x in meet if x[:d] == tuple(range(d))]
        expect("diagonal_type", checks["diagonal_type"], len(kernel) <= 1)
        expect("arc_regular_socle", payload["arc_regular_socle"],
               T.order()**n == (G_order // H.order()) * local.valency)
    recomputed = {
        "G": str(G_order),
        "H": str(H.order()),
        "intersection": str(local.intersection_order),
        "valency": local.valency,
    }
    return VerificationReport(not failures, tuple(failures), recomputed)


def _check_shape(payload) -> None:
    """The certificate's format and kind are known and every key that
    verify_certificate reads is present; ValueError otherwise."""
    if not isinstance(payload, dict):
        raise ValueError("certificate is not a JSON object")
    fmt = payload.get("format")
    if fmt != CERTIFICATE_FORMAT:
        raise ValueError(f"unknown certificate format {fmt!r}")
    kind = payload.get("kind")
    if kind not in _KIND_KEYS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    for path in _COMMON_KEYS + _KIND_KEYS[kind]:
        node = payload
        for key in path.split("."):
            if not isinstance(node, dict) or key not in node:
                raise ValueError(f"{kind} certificate lacks {path}")
            node = node[key]


def _socle_group(gens, M: DirectPower) -> PermGroup:
    """<gens> ordered and tested through the socle M when the list holds
    every generator of M and normalizes M (socle_extension); otherwise
    sifted to socle_bound, or by the Schreier check when some generator
    does not normalize M."""
    gens = [tuple(x) for x in gens]
    group = socle_extension(gens, M)
    if group is None:
        group = PermGroup(gens, degree=M.degree,
                          upper_bound=socle_bound(gens, M))
    return group


def _bipartite_verdict_from_payload(payload: dict, M: PermGroup) -> str:
    degree = payload["degree"]
    n = payload["blocks"]
    d = payload["block_degree"]
    gens = payload["generators"]
    # bold b is recovered as the diagonal H generator of order p - 1
    for x in gens["H"]:
        x = tuple(x)
        blocks = [tuple(y - i * d for y in x[i * d:(i + 1) * d])
                  for i in range(n)]
        if len(set(blocks)) == 1 and blocks[0] != pid(d) \
                and porder(x) == payload["parameter"] - 1:
            return "untested" if M.contains(x) else "is_not"
    raise ValueError("certificate does not contain the replicated "
                     "order-(p-1) generator")
