"""The valency-64 instance on 21 blocks of PSL(2,8).

Here the seed is PSL(2,8) extended by its field automorphism b of
order 3, and the twist pattern places b on every coordinate except
index 1.  The full run takes about half a second (0.4-0.5 s on a
2-core Xeon, Python 3.11).

The stated twist pattern admits more than one reading, so all of them
are computed: any reading that survives the order check must agree
with the others on every published count, and one reading (a trailing
square) is rejected outright because its twist has order 21 instead
of 63.

Two measured facts differ from the narrative this family comes from
and are asserted as measured:

* the full normalizer of <theta> in the socle has order 18; the order-6
  S_3 acting on everything else is the centralizer of theta;
* the involutions joining H to G fall into two double cosets HgH that
  the H-normalizing involution swaps, so the edge element is unique up
  to that conjugation (the two graphs are isomorphic).
"""

from patgraphs.atlas import seed_psl28_gamma
from patgraphs.construct import compare_theta_readings, valency64_construction
from patgraphs.graphcert import certify

psl28 = seed_psl28_gamma()
for rep in compare_theta_readings(psl28):
    if rep.rejected:
        print(f"reading {rep.reading}: rejected ({rep.rejected})")
    else:
        print(f"reading {rep.reading}: {rep.component_count} subspaces, "
              f"dims {sorted(rep.dimensions)}, {rep.regular_count} regular")
    if rep.reading == "primary":
        primary = rep
print()

v64 = valency64_construction(psl28, primary)
tc = v64.tc
print(f"centralizer of theta: order {tc.centralizer.order()} "
      f"(non-abelian, three involutions)")
print(f"normalizer of <theta>: order {tc.normalizer.order()}, "
      f"solution exponents {sorted(tc.by_exponent)}")
print(f"double cosets of joining involutions: {v64.double_coset_classes}, "
      f"classes up to the H-normalizer: {v64.classes_up_to_normalizer}")

cert = certify(v64)
lc = cert.local
vertices = lc.group_order // lc.stabilizer_order
print(f"|G| = {lc.group_order}")
print(f"|H| = {lc.stabilizer_order}, |H meet H^g| = {lc.intersection_order}, "
      f"valency {lc.valency}")
print(f"vertices = 2^57 * 3^42 * 7^21: {vertices == 2**57 * 3**42 * 7**21}")
print(f"socle order = vertices * 2^6 (arc-regular socle): "
      f"{504**21 == vertices * 2**6}")
print(f"connected {lc.connected}, locally 2-transitive "
      f"{lc.locally_2transitive}")
