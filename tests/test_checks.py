"""Checks are VerificationError raised by numth.check, never assert: an
AST scan of the package, and a check that still fires under python -O."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import patgraphs
from patgraphs.cli import main

PACKAGE = pathlib.Path(patgraphs.__file__).parent


def test_package_has_no_assert_and_no_assertion_error():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_permgrp_imports_random():
    # the seeded sift is the one randomized step; every other module
    # computes deterministically
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            if "random" in names:
                importers.append(path.name)
    assert importers == ["permgrp.py"]


def _run_optimized(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)


def test_check_survives_optimize_flag():
    code = ("from patgraphs.eqcode import _pth_root\n"
            "from patgraphs.gf import GF\n"
            "from patgraphs.numth import VerificationError\n"
            "try:\n"
            "    _pth_root(GF(2, 1), (1, 1, 1))\n"
            "except VerificationError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('x^2 + x + 1 passed as a square')\n")
    proc = _run_optimized(code)
    assert proc.returncode == 0, proc.stderr


def test_range_and_invariance_checks_survive_optimize_flag():
    # the eqcode entry points reject an entry outside [0, q) before any
    # table lookup, where a negative one would index a table from its end
    code = ("from patgraphs.eqcode import build_shift_matrix, charpoly, "
            "decompose_invariant, is_regular_on_nonzero, is_regular_span, "
            "Code, rref\n"
            "from patgraphs.gf import GF\n"
            "from patgraphs.numth import VerificationError\n"
            "k = GF(3, 2)\n"
            "for bad in (-1, 9):\n"
            "    for op in (k.add, k.sub, k.mul, k.neg):\n"
            "        try:\n"
            "            op(*((bad,) if op == k.neg else (bad, 1)))\n"
            "        except ValueError:\n"
            "            continue\n"
            "        raise SystemExit(f'{op.__name__}({bad}) passed')\n"
            "    mat = [[0, 1, 0], [0, 0, 1], [1, bad, 0]]\n"
            "    runs = [lambda: decompose_invariant(mat, k),\n"
            "            lambda: rref(k, [(1, 2, 0), (bad, 1, 1)]),\n"
            "            lambda: charpoly(k, mat),\n"
            "            lambda: is_regular_span(k, ((1, 0, 0),), mat),\n"
            "            lambda: is_regular_span(k, ((1, bad, 0),),\n"
            "                                    [[1, 0, 0]] * 3)]\n"
            "    for i, run in enumerate(runs):\n"
            "        try:\n"
            "            run()\n"
            "        except ValueError:\n"
            "            continue\n"
            "        raise SystemExit(f'entry {bad} passed input {i}')\n"
            "k4 = GF(2, 2)\n"
            "span = Code(k4, 5, rref(k4, [(1, 0, 0, 0, 0),\n"
            "                             (0, 1, 0, 0, 0)]))\n"
            "try:\n"
            "    is_regular_on_nonzero(span, build_shift_matrix(k4))\n"
            "except VerificationError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('a non-invariant span passed')\n")
    proc = _run_optimized(code)
    assert proc.returncode == 0, proc.stderr


def test_shift_weight_check_survives_optimize_flag():
    # the order n * ord(c) stands on every weight of the n-cycle being
    # nonzero; a zero weight fails that premise, not a later step
    code = ("from patgraphs.eqcode import build_shift_matrix\n"
            "from patgraphs.gf import GF\n"
            "from patgraphs.numth import VerificationError\n"
            "k = GF(7, 1)\n"
            "k.unit_generators = lambda: (0, 3)\n"
            "try:\n"
            "    build_shift_matrix(k)\n"
            "except VerificationError as exc:\n"
            "    raise SystemExit(0 if 'zero weight' in str(exc) else 1)\n"
            "raise SystemExit('a zero weight passed')\n")
    proc = _run_optimized(code)
    assert proc.returncode == 0, proc.stderr


def test_normalizer_and_primary_part_checks_survive_optimize_flag():
    # H's order stands on theta normalizing E, which affine_group proves
    # generator by generator: a theta that does not leaves H a plain
    # group; a charpoly that disagrees with the matrix leaves a primary
    # part short of its dimension
    code = ("import dataclasses\n"
            "from patgraphs import eqcode\n"
            "from patgraphs.atlas import seed_pgl2\n"
            "from patgraphs.construct import build_E_and_H, "
            "build_theta, regular_components\n"
            "from patgraphs.gf import GF\n"
            "from patgraphs.numth import VerificationError\n"
            "from patgraphs.permgrp import perm_from_cycles\n"
            "seed = seed_pgl2(4)\n"
            "theta = build_theta(seed)\n"
            "rc = regular_components(seed, theta)\n"
            "# theta with its block-0 component replaced by a 3-cycle\n"
            "bad = tuple(5 + x for x in perm_from_cycles(5, [(0, 1, 2)]))\n"
            "bad += theta[5:]\n"
            "try:\n"
            "    build_E_and_H(seed, dataclasses.replace(rc, theta=bad))\n"
            "    raise SystemExit('E was normalized by a non-normalizer')\n"
            "except VerificationError as exc:\n"
            "    if 'H is not the affine group' not in str(exc):\n"
            "        raise SystemExit(str(exc))\n"
            "eqcode.charpoly = lambda k, a: (2, 0, 1)  # (x - 1)(x - 2)\n"
            "try:\n"
            "    eqcode.decompose_invariant([[1, 0], [0, 1]], GF(3, 1))\n"
            "except VerificationError as exc:\n"
            "    raise SystemExit(0 if 'primary part' in str(exc) else 1)\n"
            "raise SystemExit('a short primary part passed')\n")
    proc = _run_optimized(code)
    assert proc.returncode == 0, proc.stderr


def test_code_coordinate_checks_survive_optimize_flag():
    # E's generators come from the coefficient table inverting an
    # isomorphism GF(p)^f -> F, which needs commuting generators of order
    # p; H stands on the theta of its components record, whose
    # transitivity on E affine_group proves: at q = 7 the record of
    # theta^2, of order 24, leaves H a plain group
    code = ("import dataclasses\n"
            "from patgraphs.atlas import seed_pgl2\n"
            "from patgraphs.construct import build_E_and_H, build_theta, "
            "regular_components\n"
            "from patgraphs.eqcode import mat_mul\n"
            "from patgraphs.numth import VerificationError\n"
            "from patgraphs.permgrp import pmul\n"
            "seed = seed_pgl2(4)\n"
            "rc = regular_components(seed, build_theta(seed))\n"
            "seed7 = seed_pgl2(7)\n"
            "rc7 = regular_components(seed7, build_theta(seed7))\n"
            "square = dataclasses.replace(\n"
            "    rc7, theta=pmul(rc7.theta, rc7.theta),\n"
            "    conj=mat_mul(seed7.field.prime_field, rc7.conj, rc7.conj))\n"
            "cases = [(dataclasses.replace(seed, F=(seed.F[0], seed.o)), rc,\n"
            "          'F is not elementary abelian'),\n"
            "         (seed7, square, 'H is not the affine group')]\n"
            "for bad, comps, message in cases:\n"
            "    try:\n"
            "        build_E_and_H(bad, comps)\n"
            "    except VerificationError as exc:\n"
            "        if message in str(exc):\n"
            "            continue\n"
            "        raise SystemExit(str(exc))\n"
            "    raise SystemExit(f'passed without {message!r}')\n")
    proc = _run_optimized(code)
    assert proc.returncode == 0, proc.stderr


def test_seed_R_must_be_affine_under_optimize_flag():
    # a seed's R is AGL_1 only as affine_group's proof of F:<b, c> or
    # <a>:<b>: the same generators as a plain PermGroup, of the right
    # order, fail both seed checks
    code = ("import dataclasses\n"
            "from patgraphs.atlas import (_verify_affine_pair,\n"
            "                             _verify_bipartite_pair, seed_pgl2,\n"
            "                             seed_symmetric)\n"
            "from patgraphs.numth import VerificationError\n"
            "from patgraphs.permgrp import PermGroup\n"
            "for seed, verify in ((seed_pgl2(7), _verify_affine_pair),\n"
            "                     (seed_symmetric(5, bipartite=True),\n"
            "                      _verify_bipartite_pair)):\n"
            "    plain = PermGroup(seed.R.gens, degree=seed.degree)\n"
            "    if plain.order() != seed.R.order():\n"
            "        raise SystemExit('the plain R has another order')\n"
            "    try:\n"
            "        verify(dataclasses.replace(seed, R=plain))\n"
            "    except VerificationError as exc:\n"
            "        if 'R is not AGL_1' in str(exc):\n"
            "            continue\n"
            "        raise SystemExit(str(exc))\n"
            "    raise SystemExit(f'a plain R passed {verify.__name__}')\n")
    proc = _run_optimized(code)
    assert proc.returncode == 0, proc.stderr


def test_socle_normalizer_check_survives_optimize_flag():
    # socle_group fails a list without M's generators, and one with a
    # generator that does not normalize T^n, each by its own check; and
    # assemble_G fails on such a twist
    code = ("from patgraphs.permgrp import DirectPower, PermGroup, "
            "perm_from_cycles, socle_group\n"
            "from patgraphs.numth import VerificationError\n"
            "a5 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),\n"
            "                perm_from_cycles(5, [(0, 1, 2, 3, 4)])])\n"
            "M = DirectPower(a5, 3)\n"
            "bad = perm_from_cycles(15, [(0, 5)])\n"
            "for gens, message in (([bad], 'do not list every generator'),\n"
            "                      (list(M.gens) + [bad],\n"
            "                       'does not normalize')):\n"
            "    try:\n"
            "        socle_group(gens, M)\n"
            "    except VerificationError as exc:\n"
            "        if message in str(exc):\n"
            "            continue\n"
            "        raise SystemExit(str(exc))\n"
            "    raise SystemExit(f'socle_group passed without {message!r}')\n"
            "tau = tuple((x + 5) % 15 for x in range(15))\n"
            "G = socle_group(list(M.gens) + [tau], M)\n"
            "if G.order() != 60**3 * 3 or G._levels is not None:\n"
            "    raise SystemExit('the wreath A5 wr C3 was not recognised')\n"
            "import dataclasses\n"
            "from patgraphs.atlas import seed_pgl2\n"
            "from patgraphs.construct import assemble_G, build_E_and_H, "
            "build_theta, regular_components\n"
            "seed = seed_pgl2(4)\n"
            "pa = build_E_and_H(seed, regular_components(seed, "
            "build_theta(seed)))\n"
            "bad = perm_from_cycles(pa.n * pa.block_degree, [(0, 5)])\n"
            "try:\n"
            "    assemble_G(dataclasses.replace(pa, theta=bad))\n"
            "except VerificationError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('G was assembled from a non-normalizer')\n")
    proc = _run_optimized(code)
    assert proc.returncode == 0, proc.stderr


def test_verify_fails_edited_fields_under_optimize_flag(tmp_path):
    # python -O -m patgraphs.cli verify: derived fields are still
    # compared, and a mismatch still exits 3
    cert = tmp_path / "c4.json"
    assert main(["construct", "--q", "4", "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    for name, edit in (
            ("theorem1_case", lambda p: p.update(theorem1_case="iii")),
            ("checks.diagonal_type", lambda p: p["checks"].update(
                diagonal_type=not p["checks"]["diagonal_type"]))):
        edited = json.loads(json.dumps(payload))
        edit(edited)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(edited))
        proc = subprocess.run([sys.executable, "-O", "-m", "patgraphs.cli",
                               "verify", str(path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert f"FAILED: {name}: stated" in proc.stderr


def test_socle_connectivity_survives_optimize_flag():
    # the full diagonal of A_5^2 with the block swap is disconnected on
    # the socle path, as by the sift, and certify fails a socle factor
    # that fits no family by its own check
    code = ("import dataclasses\n"
            "from patgraphs.construct import product_action_construction\n"
            "from patgraphs.graphcert import certify, local_certificate\n"
            "from patgraphs.numth import VerificationError\n"
            "from patgraphs.permgrp import DirectPower, PermGroup, "
            "perm_from_cycles, socle_group\n"
            "a5 = PermGroup([perm_from_cycles(5, [(0, 1, 2)]),\n"
            "                perm_from_cycles(5, [(0, 1, 2, 3, 4)])])\n"
            "M = DirectPower(a5, 2)\n"
            "swap = tuple(range(5, 10)) + tuple(range(5))\n"
            "G = socle_group([*M.gens, swap], M)\n"
            "H = PermGroup([t + tuple(5 + v for v in t) for t in a5.gens])\n"
            "cert = local_certificate(G, H, swap)\n"
            "sifted = PermGroup.generated_by(G, [*H.gens, swap])\n"
            "if cert.connected or sifted:\n"
            "    raise SystemExit(f'the full diagonal gave {cert}')\n"
            "pa = product_action_construction(4)\n"
            "s5 = PermGroup([perm_from_cycles(5, [(0, 1)]),\n"
            "                perm_from_cycles(5, [(0, 1, 2, 3, 4)])])\n"
            "unfit = dataclasses.replace(pa, seed=dataclasses.replace(\n"
            "    pa.seed, T=s5))\n"
            "try:\n"
            "    certify(unfit)\n"
            "except VerificationError as exc:\n"
            "    if 'fits no family' not in str(exc):\n"
            "        raise SystemExit(str(exc))\n"
            "else:\n"
            "    raise SystemExit('an unfit socle factor passed')\n")
    proc = _run_optimized(code)
    assert proc.returncode == 0, proc.stderr


def test_forged_socle_factor_fits_no_family_under_optimize_flag(tmp_path):
    # a PSL(2, 7) relabelled by one transposition of projective points
    # proves no Mobius bound: verify exits 3 as it fits no family, under
    # python -O as without it, with no Schreier check; an unbounded oracle
    # orders it at 168
    cert = tmp_path / "c7.json"
    assert main(["construct", "--q", "7", "--out", str(cert)]) == 0
    code = ("import contextlib, io, json, sys\n"
            "from patgraphs import cli, permgrp\n"
            "from patgraphs.permgrp import pconj, perm_from_cycles\n"
            "path = sys.argv[1]\n"
            "payload = json.load(open(path))\n"
            "swap = perm_from_cycles(8, [(0, 2)])\n"
            "factor = [list(pconj(tuple(x), swap))\n"
            "          for x in payload['generators']['socle_factor']]\n"
            "payload['generators']['socle_factor'] = factor\n"
            "json.dump(payload, open(path, 'w'))\n"
            "checked = []\n"
            "verify = permgrp.PermGroup._verify\n"
            "permgrp.PermGroup._verify = lambda self, ident: (\n"
            "    checked.append(self) or verify(self, ident))\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            "    code = cli.main(['verify', path])\n"
            "if code != 3 or 'the socle factor fits no family' not in \\\n"
            "        err.getvalue():\n"
            "    raise SystemExit(f'exit {code}: {err.getvalue()}')\n"
            "if checked:\n"
            "    raise SystemExit('a Schreier check ran')\n"
            "if permgrp.PermGroup(factor, degree=8).order() != 168:\n"
            "    raise SystemExit('the relabelled factor is not of order 168')\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", code, str(cert)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_affine_premises_survive_optimize_flag():
    # the affine premises are plain branches: q = 4's H is an AffineGroup
    # and reads its local facts from the lemma, H with E's first
    # generator times theta is a plain PermGroup, and g = theta, which
    # normalizes <theta> with E in H^g, is walked to valency 1 and fails
    code = ("from patgraphs import permgrp\n"
            "from patgraphs.construct import product_action_construction\n"
            "from patgraphs.graphcert import (certificate_payload, certify,\n"
            "                                 verify_certificate)\n"
            "from patgraphs.numth import VerificationError\n"
            "pa = product_action_construction(4)\n"
            "H, g = pa.H, pa.o\n"
            "if not isinstance(H, permgrp.AffineGroup):\n"
            "    raise SystemExit('H = E:<theta> is not affine')\n"
            "walk = permgrp.coset_stabilizer\n"
            "permgrp.coset_stabilizer = None\n"
            "if H.local_action(g) != (15, 16, True):\n"
            "    raise SystemExit(f'the lemma gave {H.local_action(g)}')\n"
            "permgrp.coset_stabilizer = walk\n"
            "mixed = [permgrp.pmul(pa.E[0], pa.theta), *pa.E[1:], pa.theta]\n"
            "if isinstance(permgrp.affine_group(mixed, -1),\n"
            "              permgrp.AffineGroup):\n"
            "    raise SystemExit('generators that do not commute passed')\n"
            "payload = certificate_payload(certify(pa))\n"
            "payload['generators']['g'] = list(pa.theta)\n"
            "try:\n"
            "    verify_certificate(payload)\n"
            "except VerificationError as exc:\n"
            "    message = 'valency 1 is not the square of a prime power'\n"
            "    raise SystemExit(0 if message in str(exc) else str(exc))\n"
            "raise SystemExit('g = theta passed verify')\n")
    proc = _run_optimized(code)
    assert proc.returncode == 0, proc.stderr


def test_forged_socle_transitivity_check_survives_optimize_flag():
    # the p5-tau-squared forgery: H = <a, b, tau^2> stays on two orbits
    # of blocks, and certify fails it by the socle-transitivity check
    code = ("import dataclasses\n"
            "from patgraphs.construct import bipartite_construction\n"
            "from patgraphs.graphcert import certify\n"
            "from patgraphs.numth import VerificationError\n"
            "from patgraphs.permgrp import PermGroup, ppow\n"
            "bc = bipartite_construction(5)\n"
            "H = PermGroup([bc.bold_a, bc.bold_b, ppow(bc.tau, 2)],\n"
            "              degree=bc.H.degree)\n"
            "try:\n"
            "    certify(dataclasses.replace(bc, H=H))\n"
            "except VerificationError as exc:\n"
            "    message = 'T^n is not transitive on the coset space'\n"
            "    raise SystemExit(0 if message in str(exc) else str(exc))\n"
            "raise SystemExit('a disconnected H passed certify')\n")
    proc = _run_optimized(code)
    assert proc.returncode == 0, proc.stderr


def test_forged_b_squared_check_survives_optimize_flag():
    # the p5-b-squared forgery: H = <a, b^2, tau> has valency 10, and
    # certify fails it by the family check; with no replicated generator
    # of order p - 1, the double-cover chain refutes nothing
    code = ("import dataclasses\n"
            "from patgraphs.construct import bipartite_construction\n"
            "from patgraphs.graphcert import certify, not_double_cover_test\n"
            "from patgraphs.numth import VerificationError\n"
            "from patgraphs.permgrp import PermGroup, ppow\n"
            "bc = bipartite_construction(5)\n"
            "H = PermGroup([bc.bold_a, ppow(bc.bold_b, 2), bc.tau],\n"
            "              degree=bc.H.degree)\n"
            "if not_double_cover_test(H, bc.G.socle, 10) != 'untested':\n"
            "    raise SystemExit('the chain refuted without b')\n"
            "try:\n"
            "    certify(dataclasses.replace(bc, H=H))\n"
            "except VerificationError as exc:\n"
            "    message = 'the groups show family None'\n"
            "    raise SystemExit(0 if message in str(exc) else str(exc))\n"
            "raise SystemExit('H = <a, b^2, tau> passed certify')\n")
    proc = _run_optimized(code)
    assert proc.returncode == 0, proc.stderr
