"""Command-line plumbing: exit codes, reports, certificate round-trips,
and end-to-end determinism on the fast pipelines."""

import json

import pytest

from patgraphs import cli, gf, permgrp
from patgraphs.cli import main, parse_generators, parse_permutation


def test_edc_q7_report(capsys):
    assert main(["edc", "--q", "7"]) == 0
    out = capsys.readouterr().out
    assert "4 components" in out
    assert "4 faithful" in out
    assert "{7: 48}" in out
    assert "order 48" in out


def test_edc_rejects_bad_q(capsys):
    assert main(["edc", "--q", "6"]) == 2
    assert "rejected" in capsys.readouterr().err
    assert main(["edc", "--q", "2"]) == 2


def test_construct_q5_rejected_with_clause(capsys):
    assert main(["construct", "--family", "pgl2", "--q", "5"]) == 2
    err = capsys.readouterr().err
    assert "rejected" in err
    assert "2-part" in err and "odd" in err


def test_construct_q4_certificate_roundtrip(tmp_path, capsys):
    cert = tmp_path / "c4.json"
    assert main(["construct", "--q", "4", "--out", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "|G| = 3888000000" in out
    assert "valency 16" in out
    assert main(["verify", str(cert)]) == 0
    assert "certificate OK" in capsys.readouterr().out


def test_construct_is_deterministic(tmp_path, monkeypatch):
    # the sift seed changes only speed: certificates are byte-identical
    monkeypatch.setattr(permgrp, "DEFAULT_SEED", 0)
    for command in (["construct", "--q", "4"], ["bipartite", "--p", "5"]):
        certs = []
        for seed in (0, 1, 2, 3):
            out = tmp_path / f"{command[0]}-{seed}.json"
            assert main(command + ["--out", str(out),
                                   "--seed", str(seed)]) == 0
            certs.append(out.read_bytes())
        assert len(set(certs)) == 1
    # a call without --seed runs under the default, not the last seed
    assert main(["edc", "--q", "3"]) == 0
    assert permgrp.DEFAULT_SEED == 0


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
        assert "order of G" in capsys.readouterr().err


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


def test_toy_explicit_flags(capsys):
    assert main(["toy", "--degree", "5",
                 "--group", "(0 1);(0 1 2 3 4)",
                 "--subgroup", "(0 1);(2 3);(2 3 4)",
                 "--g", "(0 2)(1 3)"]) == 0
    assert "10 vertices" in capsys.readouterr().out


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
