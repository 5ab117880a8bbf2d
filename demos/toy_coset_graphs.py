"""Toy coset graphs, enumerated in full and checked against the local
certificate.

Cos(S_4, S_3, transposition) is the complete graph K_4 and
Cos(S_5, S_2 x S_3, (0 2)(1 3)) is the Petersen graph.  For instances
this small the 2-arc orbits can be counted directly, which is exactly
what the local certificate claims to decide; the two must agree.
"""

from patgraphs.graphcert import (
    enumerate_small_graph,
    graph_girth,
    graph_is_bipartite,
    graph_is_connected,
    local_certificate,
    standard_double_cover,
    two_arc_orbit_count,
)
from patgraphs.permgrp import PermGroup, perm_from_cycles


def show(name, G, H, g):
    sg = enumerate_small_graph(G, H, g)
    cert = local_certificate(G, H, g)
    orbits = two_arc_orbit_count(sg, list(sg.vertex_action))
    print(f"{name}: {sg.vertices} vertices, valency {sg.degree(0)}, "
          f"girth {graph_girth(sg)}")
    print(f"  certificate: valency {cert.valency}, locally 2-transitive "
          f"{cert.locally_2transitive}")
    print(f"  2-arc orbits by direct count: {orbits} "
          f"(agreement: {cert.locally_2transitive == (orbits <= 1)})")
    return sg


S4 = PermGroup([perm_from_cycles(4, [(0, 1)]),
                perm_from_cycles(4, [(0, 1, 2, 3)])])
S3 = PermGroup([perm_from_cycles(4, [(0, 1)]),
                perm_from_cycles(4, [(0, 1, 2)])])
k4 = show("K_4", S4, S3, perm_from_cycles(4, [(2, 3)]))

S5 = PermGroup([perm_from_cycles(5, [(0, 1)]),
                perm_from_cycles(5, [(0, 1, 2, 3, 4)])])
S2xS3 = PermGroup([perm_from_cycles(5, [(0, 1)]),
                   perm_from_cycles(5, [(2, 3)]),
                   perm_from_cycles(5, [(2, 3, 4)])])
pet = show("Petersen", S5, S2xS3, perm_from_cycles(5, [(0, 2), (1, 3)]))

# the standard double cover of K_4 is the 3-cube; covering a connected
# bipartite graph disconnects it
cube = standard_double_cover(k4)
print(f"\ncover of K_4: {cube.vertices} vertices, 3-regular "
      f"{all(cube.degree(v) == 3 for v in range(8))}, girth "
      f"{graph_girth(cube)}, bipartite {graph_is_bipartite(cube)}")
twice = standard_double_cover(cube)
print(f"cover of the cube: connected {graph_is_connected(twice)} "
      f"({twice.vertices} vertices)")
