"""Command-line plumbing: exit codes, reports, certificate round-trips,
and end-to-end determinism on the fast pipelines."""

import argparse
import copy
import hashlib
import json
import os
import subprocess
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from patgraphs import cli, construct, gf, graphcert, permgrp
from patgraphs.atlas import (
    projective_scaling,
    seed_pgl2,
    seed_psl28_gamma,
    seed_symmetric,
)
from patgraphs.cli import main, parse_generators, parse_permutation
from patgraphs.graphcert import _leaves, certificate_payload, certify
from patgraphs.permgrp import DirectPower, PermGroup


def test_edc_q7_report(capsys):
    assert main(["edc", "--q", "7"]) == 0
    out = capsys.readouterr().out
    assert "4 components" in out
    assert "4 faithful" in out
    assert "{7: 48}" in out
    assert "order 48" in out


def test_edc_fails_a_non_regular_orbit_without_enumerating(monkeypatch,
                                                           capsys):
    def enumerated(code):
        raise AssertionError("weight_profile enumerated the code")

    monkeypatch.setattr(cli, "is_regular_on_nonzero", lambda code, s: False)
    monkeypatch.setattr("patgraphs.eqcode.weight_profile", enumerated)
    assert main(["edc", "--q", "7"]) == 3
    assert "shift orbit is not regular" in capsys.readouterr().err


def test_edc_outputs_match_benchmark_golden(tmp_path):
    # the benchmark's frozen sha256 of every edc output it runs
    golden_file = Path(__file__).parent.parent / "perfbench" / "golden.json"
    golden = json.loads(golden_file.read_text())
    qs = sorted(int(key[len("edc_q"):]) for key in golden
                if key.startswith("edc_q"))
    assert qs == [3, 4, 7, 8, 11, 16, 19, 23, 27, 31, 43, 47]
    for q in qs:
        out = tmp_path / f"edc_q{q}.json"
        assert main(["edc", "--q", str(q), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == golden[f"edc_q{q}"], f"edc --q {q} output changed"


def test_certificates_match_benchmark_golden(tmp_path):
    # the benchmark's frozen sha256 of every certificate it emits; q = 7
    # and q = 8 also under several sift seeds, which must not matter
    golden_file = Path(__file__).parent.parent / "perfbench" / "golden.json"
    golden = json.loads(golden_file.read_text())
    runs = [("construct", "--q", q, seeds)
            for q, seeds in ((4, [0]), (7, range(4)), (8, range(4)),
                             (11, [0]))]
    runs += [("bipartite", "--p", p, [0]) for p in (5, 11, 13)]
    for command, flag, value, seeds in runs:
        key = f"{flag[2]}{value}"
        for seed in seeds:
            out = tmp_path / f"{key}_{seed}.json"
            assert main([command, flag, str(value), "--seed", str(seed),
                         "--out", str(out)]) == 0
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            assert digest == golden[key], f"{key} under seed {seed} changed"


# sha256 of the example-2-6 certificates: golden.json holds no
# psl28-gamma theta and no twisted centralizer, which both readings use
EXAMPLE_2_6_DIGESTS = {
    "primary":
        "4c962e65d0749e6c4c9d3d075415cde8f44d7f02f9633e912e61ac2a7ca6fc0f",
    "trailing-identity":
        "e9447213edff032481979aff039e69bcb315f7d2a8327f79cb6a5a9f1cab9dbe",
}


@pytest.mark.parametrize("reading", sorted(EXAMPLE_2_6_DIGESTS))
def test_example_2_6_certificates_are_frozen(tmp_path, reading):
    out = tmp_path / f"{reading}.json"
    assert main(["example-2-6", "--reading", reading,
                 "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == EXAMPLE_2_6_DIGESTS[reading], f"{reading} changed"


def _indented_oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "symmetric", "--q", "7"],
    ["bipartite", "--family", "pgl2", "--p", "5"],
    ["edc", "--q", "27"],
])
def test_certificates_unpinned_elsewhere_match_the_indent_encoder(
        tmp_path, monkeypatch, argv):
    # no digest fixes these certificates, so json.dumps is their oracle
    emitted = []
    emit = cli._emit

    def recording(path, payload):
        emitted.append(payload)
        emit(path, payload)

    monkeypatch.setattr(cli, "_emit", recording)
    out = tmp_path / "cert.json"
    assert main(argv + ["--out", str(out)]) == 0
    [payload] = emitted
    expected = _indented_oracle(payload) + "\n"
    assert out.read_bytes() == expected.encode("ascii")


@pytest.mark.parametrize("tree", [
    {}, [], (), {"a": {}, "b": []}, [[], {}], [[[]], {"x": {}}],
    [1, True, 2], [False, 0], [None, 3, -4], [True], [None],
    ['say "hi"', "back\\slash", "tab\tline\nnul\x00unit\x1fdel\x7f",
     "café 中 \U0001f600"],
    {'k"ey\\': 1, "ünïcøde": [1], "\n": "\x01"},
    2**64 + 1, [2**70, -2**65, 0], {"big": [[3**50]]},
    (1, 2, (3, (4,))), {"t": (), "u": ((1, True),)},
    {1: "a", 2: [3], -5: {}}, {1.5: 0, -0.25: [1]}, {True: 1, False: 0},
    {None: [None]},
    [0.5, -0.0, 1e100, 3], "x", 0, None, True, 2.5,
    {"b": [[1, 2], [3, 4]], "a": {"z": 1, "y": [True, "s", [5]]}},
])
def test_indented_json_matches_the_indent_encoder(tree):
    assert cli.indented_json(tree) == _indented_oracle(tree)


@pytest.mark.parametrize("tree", [{(1, 2): 0}, [1, object()], {"a": {1, 2}}])
def test_indented_json_rejects_what_json_rejects(tree):
    with pytest.raises(TypeError):
        _indented_oracle(tree)
    with pytest.raises(TypeError):
        cli.indented_json(tree)


def test_main_builds_its_parser_once(monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    for _ in range(3):
        assert main(["edc", "--q", "3"]) == 0
    # one build makes the top-level parser once, and each subparser once
    assert progs.count("patgraphs") == 1
    assert len(progs) == len(set(progs))


def _bare_construct():
    args = cli.build_parser().parse_args(["construct", "--q", "4"])
    return args.seed, args.family, args.out


def test_the_parser_carries_nothing_between_runs(tmp_path, capsys):
    out = tmp_path / "s7.json"
    assert main(["construct", "--q", "7", "--seed", "5", "--family",
                 "symmetric", "--out", str(out)]) == 0
    assert _bare_construct() == (0, "pgl2", None)
    for argv, code in ((["construct", "--q", "seven"], 2),
                       (["construct", "--bogus"], 2),
                       (["construct", "--help"], 0)):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == code
        assert _bare_construct() == (0, "pgl2", None)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    assert "certificate OK" in capsys.readouterr().out


class _ClosedStdout:
    """A stdout whose reader has gone away, as under `| head`."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_is_not_bad_input(tmp_path, monkeypatch, capsys):
    normal = tmp_path / "normal.json"
    assert main(["bipartite", "--p", "5", "--out", str(normal)]) == 0
    capsys.readouterr()
    cert = tmp_path / "closed.json"
    with open(tmp_path / "stdout.txt", "w") as sink:
        monkeypatch.setattr("sys.stdout", _ClosedStdout(sink.fileno()))
        code = main(["bipartite", "--p", "5", "--out", str(cert)])
        monkeypatch.undo()
    assert code == cli.EXIT_CLOSED_STDOUT == 1
    assert cert.read_bytes() == normal.read_bytes()
    assert capsys.readouterr().err == ""


def test_edc_rejects_bad_q(capsys):
    assert main(["edc", "--q", "6"]) == 2
    assert "rejected" in capsys.readouterr().err
    assert main(["edc", "--q", "2"]) == 2


def test_construct_q5_rejected_with_clause(capsys):
    assert main(["construct", "--family", "pgl2", "--q", "5"]) == 2
    err = capsys.readouterr().err
    assert "rejected" in err
    assert "2-part" in err and "odd" in err


def test_parameter_rejections_say_rejected_once(capsys):
    # the seeds and the code pipeline name the violated clause, and run
    # adds the one "rejected:" prefix; edc prints the pipeline's text
    for argv, line in (
            (["construct", "--q", "2"],
             "rejected: q = 2: n = 3 is too small (need n > 3)"),
            (["edc", "--q", "2"],
             "rejected: q = 2: n = 3 is too small (need n > 3)"),
            (["construct", "--family", "symmetric", "--q", "13"],
             "rejected: p = 13: n = 14 has 2-part 2**1 < 4 while q = 13 "
             "is odd")):
        assert main(argv) == 2
        assert capsys.readouterr().err == line + "\n"


def test_toy_reports_a_given_degree_of_zero(capsys):
    # --degree 0 is given, so toy goes on to the real fault, a point
    # outside the empty domain, and does not call --degree missing
    assert main(["toy", "--degree", "0", "--group", "(0 1)",
                 "--subgroup", "()", "--g", "()"]) == 2
    assert capsys.readouterr().err == \
        "rejected: point out of range in cycle (0 1)\n"
    assert main(["toy", "--group", "(0 1)", "--subgroup", "()",
                 "--g", "()"]) == 2
    assert "needs --preset or all of --degree" in capsys.readouterr().err


def test_construct_q4_certificate_roundtrip(tmp_path, capsys):
    cert = tmp_path / "c4.json"
    assert main(["construct", "--q", "4", "--out", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "|G| = 3888000000" in out
    assert "valency 16" in out
    assert main(["verify", str(cert)]) == 0
    assert "certificate OK" in capsys.readouterr().out


def test_construct_is_deterministic(tmp_path):
    # the sift seed changes only speed: certificates are byte-identical
    for command in (["construct", "--q", "4"], ["bipartite", "--p", "5"]):
        certs = []
        for seed in (0, 1, 2, 3):
            out = tmp_path / f"{command[0]}-{seed}.json"
            assert main(command + ["--out", str(out),
                                   "--seed", str(seed)]) == 0
            certs.append(out.read_bytes())
        assert len(set(certs)) == 1


def _module_state():
    """Every patgraphs module's attributes, containers copied, so that a
    rebinding or an in-place change shows as a difference."""
    return {name: {key: copy.copy(value)
                   if isinstance(value, (dict, list, set)) else value
                   for key, value in vars(module).items()}
            for name, module in list(sys.modules.items())
            if name.split(".")[0] == "patgraphs"}


@pytest.mark.parametrize("extra", [[], ["--seed", "5"]])
def test_a_run_leaves_no_module_state(extra):
    before = _module_state()
    assert main(["construct", "--q", "4"] + extra) == 0
    assert _module_state() == before


def test_bipartite_certificate_roundtrip(tmp_path, capsys):
    cert = tmp_path / "b5.json"
    assert main(["bipartite", "--p", "5", "--out", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "valency 5" in out
    assert "is_not" in out
    assert main(["verify", str(cert)]) == 0


def test_verify_flags_tampering(tmp_path, capsys):
    cert = tmp_path / "b5.json"
    main(["bipartite", "--p", "5", "--out", str(cert)])
    payload = json.loads(cert.read_text())
    payload["checks"]["connected"] = False
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "FAILED" in err and "connected" in err


def test_forged_order_is_rejected_under_every_seed(tmp_path, capsys):
    # a partial orbit product as |G|, with the verdicts it implies
    cert = tmp_path / "c4.json"
    assert main(["construct", "--q", "4", "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    payload["orders"]["G"] = "1296000000"
    payload["checks"]["socle_transitive"] = False
    payload["arc_regular_socle"] = False
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(payload))
    capsys.readouterr()
    for seed in (0, 1, 2, 3):
        assert main(["verify", "--seed", str(seed), str(forged)]) == 3
        assert "orders.G: stated '1296000000'" in capsys.readouterr().err


def test_construct_builds_its_field_once(monkeypatch):
    built = []
    init = gf.GF.__init__

    def counting(self, p, f):
        built.append((p, f))
        init(self, p, f)

    monkeypatch.setattr(gf.GF, "__init__", counting)
    assert main(["construct", "--q", "8"]) == 0
    # GF(8) and the prime field it builds its tables with
    assert built == [(2, 3), (2, 1)]


def test_example_2_6_builds_theta_once_per_reading(monkeypatch):
    built = []
    build = construct.build_theta

    def counting(seed, reading="primary"):
        built.append(reading)
        return build(seed, reading)

    monkeypatch.setattr(construct, "build_theta", counting)
    assert main(["example-2-6"]) == 0
    # the chosen reading is built from its report, with the theta there
    assert built == list(construct.THETA_READINGS)


def test_verify_builds_its_field_once(tmp_path, monkeypatch):
    cert = tmp_path / "q8.json"
    assert main(["construct", "--q", "8", "--out", str(cert)]) == 0
    built = []
    init = gf.GF.__init__

    def counting(self, p, f):
        built.append((p, f))
        init(self, p, f)

    monkeypatch.setattr(gf.GF, "__init__", counting)
    assert main(["verify", str(cert)]) == 0
    # the family gate proves T is the atlas PSL(2, 8) once, and the
    # derived certificate reuses that fit
    assert built == [(2, 3), (2, 1)]


def test_construct_and_verify_never_enumerate_H(tmp_path, monkeypatch):
    # the edge stabilizer, T^n meet H and the socle bound walk cosets, and
    # the projections of T^n meet H come from its generators: no group
    # at all is enumerated
    enumerated = []
    elements = permgrp.PermGroup.elements

    def recording(self, limit=permgrp.ELEMENT_LIMIT):
        enumerated.append(self.order())
        return elements(self, limit)

    monkeypatch.setattr(permgrp.PermGroup, "elements", recording)
    for command in (["construct", "--q", "7"], ["bipartite", "--p", "5"]):
        cert = tmp_path / f"{command[0]}.json"
        assert main(command + ["--out", str(cert)]) == 0
        assert main(["verify", str(cert)]) == 0
    assert enumerated == []
    # example-2-6 lists T only for twisted_centralizer, once per viable
    # reading; the seed's normalizer orders come from its structure
    assert main(["example-2-6"]) == 0
    assert enumerated == [504, 504]


def _record_completed_chains(monkeypatch):
    """The generator sets of every chain completed by random sifting."""
    completed = []
    complete = permgrp.PermGroup._complete

    def recording(self, ident):
        completed.append(frozenset(self.gens))
        return complete(self, ident)

    monkeypatch.setattr(permgrp.PermGroup, "_complete", recording)
    return completed


def test_build_theta_builds_no_chain_on_all_points(monkeypatch):
    # theta^n is the constant tuple b^2 c, and <b^2 c> = <b^2> x <c> is
    # read from the orders of b^2, c and b^2 c: no chain at all
    completed = _record_completed_chains(monkeypatch)
    for seed in (seed_pgl2(11), seed_pgl2(8), seed_symmetric(7),
                 seed_psl28_gamma()):
        completed.clear()
        construct.build_theta(seed)
        assert completed == [], seed.family


def test_each_run_walks_T_n_meet_H_once(tmp_path, monkeypatch):
    # construct, bipartite and verify each build one DirectPower and
    # walk the cosets of T^n once, in _derive: under C, the complement of
    # the AffineGroup H = V:C, since T^n meet H = V (T^n meet C) by the
    # Dedekind law, and never under H itself; construct walks R meet T
    # once, in the atlas, likewise under R's complement <b, c> and never
    # under R, and certify builds the group that the atlas proved equal
    # to it from the seed's F, b and c
    R = seed_pgl2(7).R
    assert isinstance(R, permgrp.AffineGroup)
    bc = frozenset(R.complement.gens)
    powers, walks = [], []
    init = permgrp.DirectPower.__init__
    meet = permgrp.filtered_intersection_with_product

    def building(self, factor, copies):
        powers.append(copies)
        init(self, factor, copies)

    def walking(small, big):
        walks.append(frozenset(small.gens))
        return meet(small, big)

    monkeypatch.setattr(permgrp.DirectPower, "__init__", building)
    monkeypatch.setattr(permgrp, "filtered_intersection_with_product",
                        walking)
    for command in (["construct", "--q", "7"], ["bipartite", "--p", "5"]):
        cert = tmp_path / f"{command[0]}.json"
        for argv in (command + ["--out", str(cert)], ["verify", str(cert)]):
            powers.clear()
            walks.clear()
            assert main(argv) == 0
            H = [tuple(x) for x in
                 json.loads(cert.read_text())["generators"]["H"]]
            # E's generators, then theta; a, then b and tau
            C = frozenset(H[-1:] if command[0] == "construct" else H[1:])
            assert len(powers) == 1 and walks.count(C) == 1, argv
            assert frozenset(H) not in walks, argv
            assert frozenset(R.gens) not in walks, argv
            assert walks.count(bc) == (argv[:3] == ["construct", "--q", "7"])


def test_each_run_reads_H_meet_H_g_from_the_affine_lemma(tmp_path,
                                                          monkeypatch):
    # construct, bipartite and verify label no coset of H: H meet H^g,
    # the valency and the local action come from the affine structure of
    # H, whose order meets its proven bound |V| |C|
    derived, labelled = [], []
    derive = graphcert._derive
    label = permgrp._CanonicalCosets.__init__

    def deriving(G, H, *args):
        derived.append(H)
        return derive(G, H, *args)

    def labelling(self, group):
        labelled.append(frozenset(group.gens))
        label(self, group)

    monkeypatch.setattr(graphcert, "_derive", deriving)
    monkeypatch.setattr(permgrp._CanonicalCosets, "__init__", labelling)
    for command in (["construct", "--q", "7"], ["bipartite", "--p", "5"]):
        cert = tmp_path / f"{command[0]}.json"
        for argv in (command + ["--out", str(cert)], ["verify", str(cert)]):
            derived.clear()
            labelled.clear()
            assert main(argv) == 0
            [H] = derived
            assert isinstance(H, permgrp.AffineGroup), argv
            assert H.certified_by == "bound", argv
            assert frozenset(H.gens) not in labelled, argv


def test_affine_groups_run_no_schreier_check(tmp_path, monkeypatch):
    # every order on d points is sifted to a bound proven from its
    # generators, and every affine R and H is ordered by affine_group's
    # proof: construct --q 7 and 11 and symmetric 7, bipartite --p 5 and
    # 13 and pgl2 5, both fits of the socle factor in both kinds, and the
    # verify of each run no Schreier check at all.  example-2-6 still runs
    # some, for psl28-gamma's X and normalizer checks, but none for an
    # AffineGroup, and the five example-2-6 H's built only for their
    # orders (components 1 to 5) complete no chain of degree 189, while
    # component 0's H, which the edge search queries, completes one
    made, checked = [], []
    init = permgrp.AffineGroup.__init__
    verify = permgrp.PermGroup._verify

    def making(self, gens, V, C):
        made.append(V.degree)
        init(self, gens, V, C)

    def verifying(self, ident):
        checked.append(self)
        return verify(self, ident)

    monkeypatch.setattr(permgrp.AffineGroup, "__init__", making)
    monkeypatch.setattr(permgrp.PermGroup, "_verify", verifying)
    completed = _record_completed_chains(monkeypatch)
    for command, degrees in (
            (["construct", "--q", "7"], {8, 64}),
            (["construct", "--q", "11"], {12, 144}),
            (["construct", "--family", "symmetric", "--q", "7"], {7, 56}),
            (["bipartite", "--p", "5"], {5, 20}),
            (["bipartite", "--p", "13"], {13, 156}),
            (["bipartite", "--family", "pgl2", "--p", "5"], {6, 24})):
        cert = tmp_path / f"{'-'.join(command)}.json"
        for argv in (command + ["--out", str(cert)], ["verify", str(cert)]):
            made.clear()
            checked.clear()
            assert main(argv) == 0
            assert set(made) == (degrees if argv[0] != "verify"
                                 else {max(degrees)}), argv
            assert checked == [], argv
    made.clear()
    checked.clear()
    completed.clear()
    assert main(["example-2-6", "--out", str(tmp_path / "c.json")]) == 0
    assert set(made) == {189}
    assert checked
    assert not [x for x in checked if isinstance(x, permgrp.AffineGroup)]
    psl28 = seed_psl28_gamma()
    report = construct.theta_reading_counts(psl28, "primary")
    H = [construct.build_E_and_H(psl28, report.components, i).H
         for i in range(6)]
    assert {x.degree for x in H} == {189}
    assert frozenset(H[0].gens) in completed
    assert not [x for x in H[1:] if frozenset(x.gens) in completed]


def test_connectivity_builds_no_chain_of_H_and_g(tmp_path, monkeypatch):
    # <H, g> = G is proven through the socle: construct, bipartite and
    # verify complete no chain whose generators include g
    completed = _record_completed_chains(monkeypatch)
    for command in (["construct", "--q", "11"], ["bipartite", "--p", "13"]):
        cert = tmp_path / f"{command[0]}.json"
        for argv in (command + ["--out", str(cert)], ["verify", str(cert)]):
            completed.clear()
            assert main(argv) == 0
            g = tuple(json.loads(cert.read_text())["generators"]["g"])
            assert completed
            assert not [gens for gens in completed if g in gens], argv


def test_connectivity_orders_one_pair_per_minimal_class(tmp_path,
                                                       monkeypatch):
    # <H, g> cycles the 12 blocks regularly, so the classes of the finest
    # invariant partitions joining block 0 to another are the cosets of
    # the subgroups of Z_12, and the minimal ones are of orders 2 and 3:
    # G orders pi_0j(K) to |T|^2 for two blocks j, not 11, and agrees
    # with the sift of <H, g> to |G|
    pairs, inside = [], []
    generates = permgrp._SocleExtension.generated_by
    complete = permgrp.PermGroup._complete

    def deciding(self, gens):
        inside.append(self.socle)
        try:
            verdict = generates(self, gens)
        finally:
            inside.pop()
        assert verdict == permgrp.PermGroup.generated_by(self, gens)
        return verdict

    def recording(self, ident):
        if inside:
            T = inside[-1].factor
            if (self.degree, self._upper_bound) == (2 * T.degree,
                                                    T.order() ** 2):
                pairs.append(self.gens)
        return complete(self, ident)

    monkeypatch.setattr(permgrp.PermGroup, "_complete", recording)
    monkeypatch.setattr(permgrp._SocleExtension, "generated_by", deciding)
    for command in (["construct", "--q", "11"], ["bipartite", "--p", "13"]):
        cert = tmp_path / f"{command[0]}.json"
        for argv in (command + ["--out", str(cert)], ["verify", str(cert)]):
            pairs.clear()
            assert main(argv) == 0
            assert len(pairs) == 2, argv


def test_every_chain_sifts_from_the_run_seed(tmp_path, monkeypatch):
    # the seed is passed down and inherited, never read from a global
    seeds = []
    complete = permgrp.PermGroup._complete

    def recording(self, ident):
        seeds.append(self.seed)
        return complete(self, ident)

    monkeypatch.setattr(permgrp.PermGroup, "_complete", recording)
    commands = [["example-2-6"], ["toy", "--preset", "petersen"]]
    for command in (["construct", "--q", "7"], ["bipartite", "--p", "5"]):
        cert = tmp_path / f"{command[0]}.json"
        commands += [command + ["--out", str(cert)], ["verify", str(cert)]]
    for command in commands:
        assert main(command + ["--seed", "5"]) == 0
        assert seeds and set(seeds) == {5}, command
        seeds.clear()


def test_G_and_Gstar_need_no_chain(tmp_path, monkeypatch):
    # G and G* are ordered and tested through the socle, in construct
    # and in verify; the stabilizers still sift
    completed = _record_completed_chains(monkeypatch)
    for command in (["construct", "--q", "7"], ["bipartite", "--p", "5"]):
        cert = tmp_path / f"{command[0]}.json"
        assert main(command + ["--out", str(cert)]) == 0
        assert main(["verify", str(cert)]) == 0
        gens = json.loads(cert.read_text())["generators"]
        socle_groups = [frozenset(tuple(x) for x in gens[key])
                        for key in ("G", "gstar") if key in gens]
        assert completed
        assert not set(socle_groups) & set(completed)
        completed.clear()


def test_verify_falls_back_without_the_socle_generators(tmp_path, capsys,
                                                        monkeypatch):
    # one generator of T^n replaced by its product with another: the list
    # still generates G, but no longer holds T^n's generators, a format
    # the writer never emits, so verify rejects it before any chain of G
    cert = tmp_path / "c4.json"
    assert main(["construct", "--q", "4", "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    G = payload["generators"]["G"]
    G[0] = list(permgrp.pmul(tuple(G[0]), tuple(G[1])))
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(payload))
    completed = _record_completed_chains(monkeypatch)
    capsys.readouterr()
    assert main(["verify", str(changed)]) == 3
    assert ("do not list every generator of T^n"
            in capsys.readouterr().err)
    assert frozenset(tuple(x) for x in G) not in completed


def test_verify_rejects_a_socle_normalizer_list_at_once(tmp_path, capsys,
                                                        monkeypatch, v64):
    # example-2-6 with generators.G the point stabilizer
    # N_T(F) = <F, x -> mu*x> of T, of order 56, in each of the 21 blocks,
    # plus theta: the list normalizes T^n without containing it, and
    # verify rejects it without sifting it towards the socle bound
    seed = v64.pa.seed
    stabilizer = PermGroup(
        list(seed.F) + [projective_scaling(seed.field, seed.field.generator)])
    assert stabilizer.order() == 56 and v64.pa.n == 21
    payload = certificate_payload(certify(v64))
    gens = payload["generators"]
    G = [list(x) for x in DirectPower(stabilizer, v64.pa.n).gens]
    gens["G"] = G + [gens["theta"]]
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(payload))
    completed = _record_completed_chains(monkeypatch)
    capsys.readouterr()
    assert main(["verify", str(path)]) == 3
    assert ("do not list every generator of T^n"
            in capsys.readouterr().err)
    # only the socle factor's chain, which the family gate builds
    assert completed == [frozenset(map(tuple, gens["socle_factor"]))]


def _edited_q4(tmp_path, edit):
    cert = tmp_path / "c4.json"
    assert main(["construct", "--q", "4", "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    edit(payload)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(payload))
    return edited


@pytest.mark.parametrize("key,value,code,message", [
    ("format", "bogus-9", 2, "unknown certificate format 'bogus-9'"),
    ("kind", "nonsense", 2, "unknown certificate kind 'nonsense'"),
    ("kind", "bipartite", 2, "bipartite certificate lacks"),
    ("double_cover_verdict", "is_not", 3, "double_cover_verdict"),
])
def test_verify_rejects_before_group_work(tmp_path, capsys, monkeypatch,
                                          key, value, code, message):
    edited = _edited_q4(tmp_path, lambda payload: payload.update({key: value}))
    capsys.readouterr()

    def no_groups(*args, **kwargs):
        raise AssertionError("a group was built")

    monkeypatch.setattr(permgrp.PermGroup, "__init__", no_groups)
    assert main(["verify", str(edited)]) == code
    err = capsys.readouterr().err
    assert message in err and "Error(" not in err


@pytest.fixture(scope="module")
def small_certificates(tmp_path_factory):
    """The q = 4 and p = 5 certificates, as payloads."""
    out = {}
    for command in (["construct", "--q", "4"], ["bipartite", "--p", "5"]):
        cert = tmp_path_factory.mktemp("certs") / "cert.json"
        assert main(command + ["--out", str(cert)]) == 0
        out[command[0]] = json.loads(cert.read_text())
    return out


@pytest.mark.parametrize("command,key,value", [
    ("construct", "family", "symmetric"),
    ("bipartite", "family", "pgl2-bipartite"),
    ("construct", "theorem1_case", "iii"),
    ("construct", "case_witness", 7),
    ("construct", "ii_possible", True),
    ("construct", "parameter", 7),
    ("bipartite", "parameter", 7),
    ("bipartite", "theorem1_case", "i"),
    ("bipartite", "ii_possible", True),
])
def test_verify_recomputes_every_derived_field(tmp_path, capsys,
                                               small_certificates,
                                               command, key, value):
    # every field is derived again, the family from T's degree, the
    # number of blocks and |T|; the bipartite parameter too, so it is
    # never the order that locates b
    payload = json.loads(json.dumps(small_certificates[command]))
    assert payload[key] != value
    payload[key] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(edited)]) == 3
    assert f"{key}: stated {value!r}" in capsys.readouterr().err


def test_verify_rejects_ill_typed_fields(tmp_path, capsys, monkeypatch,
                                        small_certificates):
    # each was a TypeError traceback, a pass or a failed check
    edits = [("blocks", "5"), ("generators.g", None), ("generators.H", 5),
             ("block_degree", None), ("valency", "16"),
             ("checks.connected", "yes")]

    def no_groups(*args, **kwargs):
        raise AssertionError("a group was built")

    monkeypatch.setattr(permgrp.PermGroup, "__init__", no_groups)
    for path, value in edits:
        payload = json.loads(json.dumps(small_certificates["construct"]))
        *parents, last = path.split(".")
        node = payload
        for key in parents:
            node = node[key]
        node[last] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(payload))
        assert main(["verify", str(edited)]) == 2
        err = capsys.readouterr().err
        assert f"{path} of the wrong type" in err and "Error(" not in err


def _edited(path, value):
    """Another value of the leaf's type: a count plus one, a bool
    flipped, an order plus one, another string with "x" appended, a
    value for a null, and a permutation, or a list's first, with the
    images of 0 and 1 swapped."""
    if type(value) is bool:
        return not value
    if type(value) is int:
        return value + 1
    if type(value) is str:
        return str(int(value) + 1) if path[0] == "orders" else value + "x"
    if value is None:
        return {"theorem1_case": "i", "ii_possible": True,
                "case_witness": 5}[path[-1]]
    perms = type(value[0]) is list
    perm = list(value[0]) if perms else list(value)
    perm[0], perm[1] = perm[1], perm[0]
    return [perm, *value[1:]] if perms else perm


@pytest.mark.parametrize("construction",
                         ["pa4", "pa7", "bip5_symmetric", "v64"])
def test_every_leaf_edit_is_rejected(tmp_path, capsys, request,
                                     construction):
    # q = 4, q = 7, bipartite p = 5 and example-2-6: every leaf edited
    # once, one unknown key added, and a false orders.G followed by a
    # top-level key "orders.G" with the true order; each exits 2 or 3
    payload = certificate_payload(
        certify(request.getfixturevalue(construction)))
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    assert main(["verify", str(path)]) == 0

    def edit(base, leaf, value):
        edited = json.loads(json.dumps(base))
        reduce(getitem, leaf[:-1], edited)[leaf[-1]] = value
        return edited

    edits = {".".join(leaf): edit(payload, leaf, _edited(leaf, value))
             for leaf, value in _leaves(payload).items()}
    edits["unknown"] = edit(payload, ("unknown",), 1)
    true_order = payload["orders"]["G"]
    edits["orders.G alias"] = edit(
        edit(payload, ("orders", "G"), str(int(true_order) + 1)),
        ("orders.G",), true_order)
    accepted = []
    for name, edited in edits.items():
        path.write_text(json.dumps(edited))
        if main(["verify", str(path)]) not in (2, 3):
            accepted.append(name)
    capsys.readouterr()
    assert len(edits) > 25 and accepted == []


def _swap_first_images(perms):
    perms[0][0], perms[0][1] = perms[0][1], perms[0][0]


@pytest.mark.parametrize("construction,edit", [
    # T trivial: the socle walk would list the elements of G
    ("pa4", lambda gens: gens.update(socle_factor=[])),
    # an H of order about 3.3e30 outside G: T^n meet H would walk its
    # cosets of T^n
    ("pa7", lambda gens: _swap_first_images(gens["H"])),
])
def test_forged_generators_fail_at_once(tmp_path, request, construction,
                                        edit):
    payload = certificate_payload(
        certify(request.getfixturevalue(construction)))
    edit(payload["generators"])
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(payload))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "patgraphs.cli", "verify",
                           str(path)], env=env, capture_output=True,
                          text=True, timeout=10)
    assert proc.returncode == 3, proc.stderr


def test_verify_rejects_a_generator_outside_the_domain(tmp_path, capsys):
    # an image past the last point was an IndexError traceback; a socle
    # factor's is caught before its bound is read from its generators
    def edit_G(payload):
        payload["generators"]["G"][-1][0] = payload["degree"]

    def edit_socle_factor(payload):
        payload["generators"]["socle_factor"][0][0] = payload["block_degree"]

    for edit in (edit_G, edit_socle_factor):
        edited = _edited_q4(tmp_path, edit)
        capsys.readouterr()
        assert main(["verify", str(edited)]) == 2
        assert "not a permutation" in capsys.readouterr().err


def test_bug_is_a_traceback_not_a_failed_check(monkeypatch):
    def broken(config):
        raise AssertionError("a bug, not a failed check")

    monkeypatch.setitem(cli._BODIES, "edc", broken)
    with pytest.raises(AssertionError, match="a bug"):
        main(["edc", "--q", "7"])


def test_verify_rejects_unreadable_input(tmp_path, capsys):
    garbage = tmp_path / "x.json"
    garbage.write_text("not json")
    assert main(["verify", str(garbage)]) == 2
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    schema = tmp_path / "schema.json"
    schema.write_text("{}")
    assert main(["verify", str(schema)]) == 2


@pytest.mark.parametrize("text", [
    # an array too deep for the parser
    lambda cert: "[" * 200_000 + "]" * 200_000,
    # a certificate with about 995 levels of objects under one key, near
    # the parser's own limit: where the parser takes it, the leaf walk
    # must not overflow
    lambda cert: (cert[:-1] + ', "extra": ' + '{"k": ' * 995 + "1"
                  + "}" * 995 + "}"),
], ids=["deep-array", "deep-object"])
def test_verify_rejects_deeply_nested_json(tmp_path, capsys,
                                           small_certificates, text):
    # each was a RecursionError traceback with exit 1
    nested = tmp_path / "nested.json"
    nested.write_text(text(json.dumps(small_certificates["construct"])))
    capsys.readouterr()
    assert main(["verify", str(nested)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("rejected:") and "Traceback" not in err
    # the deep object's one unknown path is cut short
    assert len(err) < 200


def test_verify_names_one_unknown_key_and_a_count(tmp_path, capsys,
                                                   small_certificates):
    # 1,000 unknown keys were listed in full on one line
    payload = dict(small_certificates["construct"])
    payload.update({f"extra{i:04}": i for i in range(1000)})
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == ("rejected: product-action certificate "
                                       "has unknown key extra0000 and 999 "
                                       "more\n")


def test_verify_compares_a_null_family(tmp_path, capsys,
                                       small_certificates):
    # certificate_payload writes a null family when the valency is not
    # the fitted parameter, so null is well formed; on the q = 4
    # certificate it is compared with the family and fails
    payload = dict(small_certificates["construct"], family=None)
    path = tmp_path / "null.json"
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 3
    assert "family: stated None, recomputed 'pgl2'" in capsys.readouterr().err


def test_toy_presets(tmp_path, capsys):
    edges = tmp_path / "k4.txt"
    assert main(["toy", "--preset", "k4", "--out", str(edges)]) == 0
    out = capsys.readouterr().out
    assert "4 vertices" in out
    assert "agrees with enumeration: True" in out
    assert edges.read_text() == "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    assert main(["toy", "--preset", "petersen"]) == 0
    out = capsys.readouterr().out
    assert "10 vertices" in out and "girth 5" in out


def test_toy_builds_its_coset_action_once(monkeypatch):
    # the graph and its 2-arc orbits share one coset action, built under
    # --limit
    limits = []
    build = permgrp.coset_action

    def counting(group, subgroup, limit=permgrp.INDEX_LIMIT):
        limits.append(limit)
        return build(group, subgroup, limit)

    monkeypatch.setattr(graphcert, "coset_action", counting)
    monkeypatch.setattr(cli, "coset_action", counting, raising=False)
    assert main(["toy", "--preset", "petersen", "--limit", "50"]) == 0
    assert limits == [50]


def test_toy_explicit_flags(capsys):
    assert main(["toy", "--degree", "5",
                 "--group", "(0 1);(0 1 2 3 4)",
                 "--subgroup", "(0 1);(2 3);(2 3 4)",
                 "--g", "(0 2)(1 3)"]) == 0
    assert "10 vertices" in capsys.readouterr().out


def test_toy_disconnected_graphs_agree(capsys):
    # 12 disjoint edges: no 2-arcs, so no orbits on them, and the action
    # of H on its one neighbour is 2-transitive; the two sides agree
    assert main(["toy", "--degree", "4", "--group", "(0 1);(0 1 2 3)",
                 "--subgroup", "(0 1)", "--g", "(2 3)"]) == 0
    out = capsys.readouterr().out
    assert "degrees [1]" in out and "2-arc orbits under G: 0" in out
    assert "agrees with enumeration: True" in out
    # <H, g> = <(0 1 2), (2 3)> is S4 fixing 4, below |G| = 120: the
    # |G|-bounded sift falls back to the Schreier check and finds the
    # graph disconnected, as the enumeration does
    assert main(["toy", "--degree", "5", "--group", "(0 1);(0 1 2 3 4)",
                 "--subgroup", "(0 1 2)", "--g", "(2 3)"]) == 0
    out = capsys.readouterr().out
    assert "degrees [3]" in out and "connected False" in out
    assert "locally 2-transitive False, connected False" in out
    assert "agrees with enumeration: True" in out


def test_negative_component_index_is_out_of_range(capsys):
    for argv in (["construct", "--q", "4", "--component-index", "-1"],
                 ["example-2-6", "--component-index", "-1"]):
        assert main(argv) == 2
        assert "out of range" in capsys.readouterr().err


def test_toy_rejects_g_outside_G(capsys):
    # g was looked up among the cosets of H before, and the coset action
    # failed with an internal message
    assert main(["toy", "--degree", "3", "--group", "(0 1 2)",
                 "--subgroup", "()", "--g", "(0 1)"]) == 2
    assert "rejected: g must lie in G" in capsys.readouterr().err


def test_toy_validation_errors(capsys):
    assert main(["toy", "--degree", "4", "--group", "(0 1)"]) == 2
    assert main(["toy", "--degree", "4", "--group", "bogus",
                 "--subgroup", "()", "--g", "(0 1)"]) == 2
    assert main(["toy", "--preset", "k4", "--limit", "2"]) == 2


def test_permutation_parsing():
    assert parse_permutation("(0 1)(2 3)", 4) == (1, 0, 3, 2)
    assert parse_permutation("(0,1,2)", 4) == (1, 2, 0, 3)
    assert parse_permutation("()", 3) == (0, 1, 2)
    assert parse_generators("(0 1);(1 2)", 3) == [(1, 0, 2), (0, 2, 1)]
    with pytest.raises(ValueError, match="parse"):
        parse_permutation("0 1", 3)
    with pytest.raises(ValueError, match="range"):
        parse_permutation("(0 7)", 3)
    with pytest.raises(ValueError, match="repeated"):
        parse_permutation("(0 0)", 3)
