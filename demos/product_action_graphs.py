"""Product-action constructions for q = 4 and q = 7.

The equidistant code is transported into a wreath product: the twist
element theta shifts q + 1 coordinates while multiplying by seed
elements, the code becomes an elementary abelian group E of order q**2
inside the base, and H = E:<theta> sits inside G = T wr C_n extended by
the twist.  The coset graph on [G : H] through a replicated involution
is connected, G-vertex-transitive and locally 2-transitive, hence
2-arc-transitive; the graphs are far too large to enumerate, so the
certificate carries exactly those facts.
"""

from patgraphs.construct import product_action_construction
from patgraphs.graphcert import certificate_payload, certify, verify_certificate

for q in (4, 7):
    pa = product_action_construction(q)
    cert = certify(pa)
    lc = cert.local
    print(f"q = {q}: {pa.n} blocks of degree {pa.block_degree}, "
          f"seed {pa.seed.family}")
    print(f"  |G| = {lc.group_order}")
    print(f"  |H| = {lc.stabilizer_order}, |H meet H^g| = "
          f"{lc.intersection_order}, valency {lc.valency}")
    print(f"  vertices: {lc.group_order // lc.stabilizer_order}")
    print(f"  connected {lc.connected}, locally 2-transitive "
          f"{lc.locally_2transitive}")
    print(f"  socle transitive {cert.socle_transitive}, diagonal type "
          f"{cert.diagonal_type}")
    print(f"  valency case {cert.theorem1_case}"
          + (f" via primitive prime divisor {cert.case_witness}"
             if cert.case_witness else ""))
    # round-trip the certificate through JSON and recompute every check
    payload = certificate_payload(cert)
    report = verify_certificate(payload)
    print(f"  independent recomputation: ok = {report.ok}")
    print()
