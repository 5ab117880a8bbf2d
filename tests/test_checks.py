"""Checks are VerificationError raised by numth.check, never assert: an
AST scan of the package, and a check that still fires under python -O."""

import ast
import os
import pathlib
import subprocess
import sys

import patgraphs

PACKAGE = pathlib.Path(patgraphs.__file__).parent


def test_package_has_no_assert_and_no_assertion_error():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Name) and node.id == "AssertionError"):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_check_survives_optimize_flag():
    code = ("from patgraphs.eqcode import _pth_root\n"
            "from patgraphs.gf import GF\n"
            "from patgraphs.numth import VerificationError\n"
            "try:\n"
            "    _pth_root(GF(2, 1), (1, 1, 1))\n"
            "except VerificationError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('x^2 + x + 1 passed as a square')\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
