"""The names the benchmark harness in perfbench/ looks up in patgraphs.
A deletion that broke one would otherwise show only in a traced
benchmark pass, which no other test runs."""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

from patgraphs.gf import make_field
from patgraphs.permgrp import PermGroup, pmul

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attribute, _ in spans.TARGETS:
        target = reduce(getattr, attribute.split("."),
                        importlib.import_module(module))
        assert callable(target), f"{module}.{attribute}"


def test_child_kernel_names_resolve():
    # the chain replay, pmul and field kernels of perfbench/child.py
    s3 = PermGroup([(1, 0, 2), (1, 2, 0)], degree=3, known_order=6, seed=1)
    assert s3.order() == 6 and len(s3.base()) == 2
    assert pmul((1, 0, 2), (1, 2, 0)) == (2, 1, 0)
    k = make_field(4)
    assert len(list(k.elements())) == 4 and k.mul(1, 3) == 3
    assert k.add(2, 2) == 0
