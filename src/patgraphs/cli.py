"""Command-line pipelines.

Each subcommand runs one construction end to end, prints a short
report, and optionally writes a machine-checkable JSON certificate that
the `verify` subcommand recomputes from scratch.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .construct import (
    bipartite_construction,
    build_E_and_H,
    compare_theta_readings,
    product_action_construction,
    valency64_construction,
)
from .atlas import seed_psl28_gamma
from .eqcode import (
    equidistant_code_pipeline,
    is_regular_on_nonzero,
    weight,
)
from .graphcert import (
    ENUMERATION_LIMIT,
    certificate_payload,
    certify,
    edge_list_text,
    enumerate_small_graph,
    graph_girth,
    graph_is_bipartite,
    graph_is_connected,
    local_certificate,
    two_arc_orbit_count,
    verify_certificate,
)
from .numth import VerificationError, check
from .permgrp import PermGroup, perm_from_cycles

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_REJECTED = 2
EXIT_FAILED = 3


def indented_json(obj, pad: str = "\n") -> str:
    """The text `json.dumps(obj, indent=2, sort_keys=True)` gives, built
    without the pure-Python encoder that `indent` selects.

    `pad` is the newline and indent of the line `obj` starts on.  A list
    of plain ints, the bulk of every certificate, is joined in one call;
    a bool is an int but is written `true` or `false`, so only `int`
    itself takes that path.  Every other leaf goes through `json.dumps`.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return ("{" + inner + ("," + inner).join(
            [_key_text(key) + ": " + indented_json(value, inner)
             for key, value in sorted(obj.items())]) + pad + "}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        if set(map(type, obj)) == {int}:
            items = map(str, obj)
        else:
            items = [indented_json(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(obj)


def _key_text(key) -> str:
    """A dict key as `json.dumps` writes it: an int, float, bool or None
    key becomes the string of its own JSON text."""
    if isinstance(key, str):
        return json.dumps(key)
    if key is None or isinstance(key, (int, float)):
        return json.dumps(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _emit(path: str | None, payload: dict) -> None:
    """Write `payload` as a certificate: `indented_json` and a newline,
    the bytes of `json.dumps(payload, indent=2, sort_keys=True) + "\n"`."""
    _write_text(path, indented_json(payload) + "\n")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        return
    # the same bytes on every platform: JSON is written ASCII-escaped and
    # edge lists are digits, and no newline is translated to CRLF
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    print(f"wrote {path}")


# -- subcommand bodies ----------------------------------------------------


def _run_edc(args: argparse.Namespace) -> int:
    q = args.q
    res = equidistant_code_pipeline(q)
    code = res.code
    if not is_regular_on_nonzero(code, res.shift):
        print("FAILED: shift orbit is not regular", file=sys.stderr)
        return EXIT_FAILED
    # a monomial shift keeps weights; the orbit of basis[0] is every word
    check(all(weight(r) == 1 for r in (*res.shift.mat, *zip(*res.shift.mat))),
          "shift matrix is not monomial")
    profile = {weight(code.basis[0]): q * q - 1}
    dims = [c.code.dim for c in res.decomposition.components]
    faithful = sum(1 for c in res.decomposition.components if c.faithful)
    if q in profile:
        _emit(args.out, {
            "q": q,
            "n": q + 1,
            "basis": [list(r) for r in code.basis],
            "weights": {str(w): c for w, c in profile.items()},
            "shift": [list(r) for r in res.shift.mat],
            "shift_order": res.shift.order,
            "components": [{"dim": c.code.dim, "faithful": c.faithful,
                            "order": c.order}
                           for c in res.decomposition.components],
        })
    print(f"q = {q}: [{q + 1},2]_{q} code, basis {list(code.basis)}")
    print(f"shift matrix order {res.shift.order} = n(q-1); "
          f"A^n = scalar {res.shift.power_scalar}")
    print(f"weights of the {q * q - 1} nonzero codewords: {profile}")
    print("orbit of the first basis vector under the shift is regular: True")
    print(f"decomposition: {len(dims)} components, dimensions {dims}, "
          f"{faithful} faithful")
    if q not in profile:
        print("FAILED: code is not equidistant of weight q", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def _print_certificate(cert) -> None:
    lc = cert.local
    print(f"|G| = {lc.group_order}")
    print(f"|H| = {lc.stabilizer_order}, |H meet H^g| = "
          f"{lc.intersection_order}, valency {lc.valency}")
    print(f"connected: {lc.connected}; locally 2-transitive: "
          f"{lc.locally_2transitive}; g^2 in H: {lc.g_square_in_H}; "
          f"g outside H: {lc.g_outside_H}")
    print(f"socle transitive: {cert.socle_transitive}; diagonal type: "
          f"{cert.diagonal_type}")
    if cert.theorem1_case is not None:
        extra = " (case ii also possible)" if cert.ii_possible else ""
        print(f"valency case: {cert.theorem1_case}"
              f"{f' via prime {cert.case_witness}' if cert.case_witness else ''}"
              f"{extra}")
    if cert.gstar_index is not None:
        print(f"index of G* in G: {cert.gstar_index}; g swaps the halves: "
              f"{cert.g_swaps_halves}")
    print(f"standard double cover verdict: {cert.double_cover_verdict}")


def _run_construct(args: argparse.Namespace) -> int:
    pa = product_action_construction(args.q, args.family,
                                     args.component_index, seed=args.seed)
    cert = certify(pa)
    _emit(args.out, certificate_payload(cert))
    print(f"product-action construction, family {args.family}, "
          f"q = {args.q}, {pa.n} blocks of degree {pa.block_degree}")
    _print_certificate(cert)
    return EXIT_OK


def _run_bipartite(args: argparse.Namespace) -> int:
    bc = bipartite_construction(args.p, args.family, seed=args.seed)
    cert = certify(bc)
    _emit(args.out, certificate_payload(cert))
    print(f"bipartite construction, family {args.family}, p = {args.p}, "
          f"{bc.n} blocks of degree {bc.block_degree}")
    print(f"|H| = {bc.H.order()}, |K| = {bc.K.order()}, "
          f"|H:K| = {bc.H.order() // bc.K.order()}")
    _print_certificate(cert)
    return EXIT_OK


def _run_example_2_6(args: argparse.Namespace) -> int:
    psl28 = seed_psl28_gamma(seed=args.seed)
    reports = compare_theta_readings(psl28)
    chosen = next(r for r in reports if r.reading == args.reading)
    v64 = valency64_construction(psl28, chosen, args.component_index)
    orders = [build_E_and_H(psl28, chosen.components, i).H.order()
              for i in range(6)]
    cert = certify(v64)
    _emit(args.out, certificate_payload(cert))
    for rep in reports:
        if rep.rejected is not None:
            print(f"reading {rep.reading}: rejected ({rep.rejected})")
        else:
            print(f"reading {rep.reading}: {rep.component_count} minimal "
                  f"invariant subspaces, dimensions {list(rep.dimensions)}, "
                  f"{rep.regular_count} regular, centralizer order "
                  f"{rep.centralizer_order}, normalizer order "
                  f"{rep.normalizer_order}, {rep.involutions} involutions")
    print("viable readings agree on every count")
    print(f"H candidates from the 6 regular components, orders {orders}")
    tc = v64.tc
    print(f"centralizer of theta in the socle: order "
          f"{tc.centralizer.order()} (S_3: non-abelian, three involutions)")
    print(f"normalizer of <theta> in the socle: order "
          f"{tc.normalizer.order()}, exponents {sorted(tc.by_exponent)}")
    print(f"edge involutions joining to G: {v64.double_coset_classes} double "
          f"cosets, {v64.classes_up_to_normalizer} class up to the "
          f"H-normalizing involution")
    _print_certificate(cert)
    vertices = cert.local.group_order // cert.local.stabilizer_order
    print(f"|G:H| = 2^57 * 3^42 * 7^21 exactly: "
          f"{vertices == 2**57 * 3**42 * 7**21}")
    print(f"|M| = |V| * 2^6 (socle arc-regular): {cert.arc_regular_socle}")
    return EXIT_OK


_PRESETS = {
    "k4": (4, "(0 1);(0 1 2 3)", "(0 1);(0 1 2)", "(2 3)"),
    "petersen": (5, "(0 1);(0 1 2 3 4)", "(0 1);(2 3);(2 3 4)",
                 "(0 2)(1 3)"),
}


def parse_permutation(text: str, degree: int):
    """A permutation from cycle notation like '(0 1)(2 3)'."""
    text = text.strip()
    if text in ("", "()"):
        return tuple(range(degree))
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"cannot parse permutation {text!r}")
    cycs = []
    for chunk in text[1:-1].split(")("):
        points = [int(t) for t in chunk.replace(",", " ").split()]
        if len(points) != len(set(points)):
            raise ValueError(f"repeated point in cycle ({chunk})")
        if any(x < 0 or x >= degree for x in points):
            raise ValueError(f"point out of range in cycle ({chunk})")
        cycs.append(tuple(points))
    return perm_from_cycles(degree, cycs)


def parse_generators(text: str, degree: int):
    return [parse_permutation(part, degree)
            for part in text.split(";") if part.strip()]


def _run_toy(args: argparse.Namespace) -> int:
    if args.preset is not None:
        degree, group_gens, subgroup_gens, edge = _PRESETS[args.preset]
    else:
        if None in (args.degree, args.group_gens, args.subgroup_gens,
                    args.edge_element):
            print("rejected: toy needs --preset or all of --degree, "
                  "--group, --subgroup, --g", file=sys.stderr)
            return EXIT_REJECTED
        degree = args.degree
        group_gens = args.group_gens
        subgroup_gens = args.subgroup_gens
        edge = args.edge_element
    G = PermGroup(parse_generators(group_gens, degree), degree=degree,
                  seed=args.seed)
    H = PermGroup(parse_generators(subgroup_gens, degree), degree=degree,
                  seed=args.seed)
    g = parse_permutation(edge, degree)
    sg = enumerate_small_graph(G, H, g, args.limit)
    cert = local_certificate(G, H, g)
    orbits = two_arc_orbit_count(sg, list(sg.vertex_action))
    degrees = sorted({sg.degree(v) for v in range(sg.vertices)})
    # valency 1 leaves no 2-arcs, and a 1-point action is 2-transitive
    agree = (degrees == [cert.valency]
             and cert.connected == graph_is_connected(sg)
             and cert.locally_2transitive == (orbits <= 1))
    if agree:
        _write_text(args.out, edge_list_text(sg))
    print(f"{sg.vertices} vertices, degrees {degrees}, girth "
          f"{graph_girth(sg)}, connected {graph_is_connected(sg)}, "
          f"bipartite {graph_is_bipartite(sg)}")
    print(f"local certificate: valency {cert.valency}, intersection order "
          f"{cert.intersection_order}, locally 2-transitive "
          f"{cert.locally_2transitive}, connected {cert.connected}")
    print(f"2-arc orbits under G: {orbits}")
    print(f"certificate agrees with enumeration: {agree}")
    if not agree:
        print("FAILED: local certificate disagrees with the enumerated "
              "graph", file=sys.stderr)
        return EXIT_FAILED
    return EXIT_OK


def _run_verify(args: argparse.Namespace) -> int:
    with open(args.certificate) as fh:
        try:
            payload = json.load(fh)
        except RecursionError:
            # the parser recurses once per level of nesting
            raise ValueError("certificate nests too deeply to parse") from None
    report = verify_certificate(payload, seed=args.seed)
    if report.ok:
        print(f"certificate OK: recomputed {report.recomputed}")
        return EXIT_OK
    print(f"FAILED: {report.failures[0]}", file=sys.stderr)
    for failure in report.failures[1:]:
        print(f"        {failure}", file=sys.stderr)
    return EXIT_FAILED


_BODIES = {
    "edc": _run_edc,
    "construct": _run_construct,
    "bipartite": _run_bipartite,
    "example-2-6": _run_example_2_6,
    "toy": _run_toy,
    "verify": _run_verify,
}


def run(args: argparse.Namespace) -> int:
    try:
        code = _BODIES[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # a closed stdout (say `| head`) is not bad input; as the Python
        # docs advise, devnull takes its place for the final flush
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except ValueError as err:
        print(f"rejected: {err}", file=sys.stderr)
        return EXIT_REJECTED
    except VerificationError as err:
        print(f"FAILED: {err}", file=sys.stderr)
        return EXIT_FAILED
    except (KeyError, json.JSONDecodeError, OSError) as err:
        print(f"rejected: {err!r}", file=sys.stderr)
        return EXIT_REJECTED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.

    Building it costs about a millisecond per call, more than many
    subcommands take, so `main` reuses it.  That is safe because the
    parser is a constant, like `_BODIES`: it holds no argv, seed or
    result, and `parse_args` builds a fresh namespace from the defaults
    each time without changing the parser.  It is not built at import,
    which would slow every import of this module.
    """
    parser = argparse.ArgumentParser(
        prog="patgraphs",
        description="Equidistant codes, product-action groups, and "
                    "certified 2-arc-transitive coset graphs.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON certificate or "
                        "edge list here")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized sifting phase "
                             "(results are seed-independent)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("edc", parents=[common],
                       help="equidistant code pipeline")
    p.add_argument("--q", type=int, required=True)

    p = sub.add_parser("construct", parents=[common],
                       help="product-action construction and certificate")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--family", choices=["pgl2", "symmetric"],
                   default="pgl2")
    p.add_argument("--component-index", type=int, default=0)

    p = sub.add_parser("bipartite", parents=[common],
                       help="bipartite construction and certificate")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--family", choices=["symmetric", "pgl2"],
                   default="symmetric")

    p = sub.add_parser("example-2-6", parents=[common],
                       help="the valency-64 instance on 21 blocks")
    p.add_argument("--component-index", type=int, default=0)
    p.add_argument("--reading", default="primary",
                   choices=["primary", "trailing-identity"])

    p = sub.add_parser("toy", parents=[common],
                       help="enumerate a small coset graph and cross-check")
    p.add_argument("--preset", choices=sorted(_PRESETS))
    p.add_argument("--degree", type=int)
    p.add_argument("--group", dest="group_gens",
                   help="generators in cycle notation, ';'-separated")
    p.add_argument("--subgroup", dest="subgroup_gens")
    p.add_argument("--g", dest="edge_element")
    p.add_argument("--limit", type=int, default=ENUMERATION_LIMIT)

    p = sub.add_parser("verify", parents=[common],
                       help="recompute every subcheck of a certificate")
    p.add_argument("certificate")
    return parser


def main(argv=None) -> int:
    return run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
