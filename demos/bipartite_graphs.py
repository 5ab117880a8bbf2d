"""Bipartite valency-p graphs on p - 1 blocks.

For an odd prime p the seed group is PGL(2,p) or S_{p+1} with its
affine subgroup F:(<b> x <c>); the construction replicates a and b
diagonally across p - 1 coordinates, adjoins the coordinate rotation
tau and a twisted involution o, and takes H = <a, b, tau> inside the
index-2 subgroup G* of G = <G*, o>.  The coset graph through o is
bipartite with the two G*-orbits as halves.

The standard-double-cover question is settled negatively when the
replicated b lies outside the socle product: a cover would force it
in.  Membership proves nothing, so the verdict is never "is".
"""

from patgraphs.construct import bipartite_construction
from patgraphs.graphcert import certify, not_double_cover_test
from patgraphs.permgrp import DirectPower

for p, family in ((5, "symmetric"), (5, "pgl2"), (7, "pgl2")):
    bc = bipartite_construction(p, family)
    cert = certify(bc)
    lc = cert.local
    print(f"p = {p}, family {family}: {bc.n} blocks of degree "
          f"{bc.block_degree}")
    print(f"  |G| = {lc.group_order}, |G:G*| = {cert.gstar_index}")
    print(f"  |H| = {lc.stabilizer_order}, |K| = {bc.K.order()}, "
          f"valency {lc.valency}")
    print(f"  o swaps the halves: {cert.g_swaps_halves}")
    print(f"  connected {lc.connected}, locally 2-transitive "
          f"{lc.locally_2transitive}")
    print(f"  diagonal type {cert.diagonal_type} "
          f"(|T^(p-1) meet H| = {cert.meet.order()}, injective projections)")
    print(f"  standard double cover verdict: {cert.double_cover_verdict}")
    print()

# the verdict machinery only ever refutes: run it against a wider socle
# product, the power of X, in which the replicated b does lie
bc = bipartite_construction(5)
wider = DirectPower(bc.seed.X, bc.n)
print(f"doctored input (socle T^(p-1) widened to X^(p-1), which contains "
      f"b): verdict {not_double_cover_test(bc.H, wider, bc.p)}")
