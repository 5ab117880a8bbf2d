"""Spans recorded around the benchmark's calls into patgraphs' layers.

The program itself has no spans yet, so a traced pass wraps the public
functions named in TARGETS: every reference to one of them in a
``patgraphs`` module (or the class attribute, for a method) is replaced
by a wrapper that appends ``(name, start, end, parent, op)`` to an
in-memory list.  ``op`` is the index of the CLI operation the span
belongs to.  The list is written out when the pass ends and reduced to
self times: a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, span name).  "Class.method" patches the class.
TARGETS = (
    ("patgraphs.permgrp", "PermGroup.elements", "permgrp.elements"),
    ("patgraphs.permgrp", "filtered_intersection_with_product",
     "permgrp.filtered_intersection"),
    ("patgraphs.permgrp", "coset_action", "permgrp.coset_action"),
    ("patgraphs.permgrp", "action_report", "permgrp.action_report"),
    ("patgraphs.construct", "build_E_and_H", "construct.build_E_and_H"),
    ("patgraphs.construct", "assemble_G", "construct.assemble_G"),
    ("patgraphs.construct", "bipartite_construction",
     "construct.bipartite_construction"),
    ("patgraphs.atlas", "seed_pgl2", "atlas.seed"),
    ("patgraphs.atlas", "seed_symmetric", "atlas.seed"),
    ("patgraphs.graphcert", "edge_stabilizer", "graphcert.edge_stabilizer"),
    ("patgraphs.graphcert", "certify", "graphcert.certify"),
    ("patgraphs.graphcert", "certificate_payload",
     "graphcert.certificate_payload"),
    ("patgraphs.graphcert", "verify_certificate",
     "graphcert.verify_certificate"),
    ("patgraphs.eqcode", "build_shift_matrix", "eqcode.build_shift_matrix"),
    ("patgraphs.eqcode", "decompose_invariant", "eqcode.decompose_invariant"),
    ("patgraphs.eqcode", "equidistant_code_pipeline",
     "eqcode.equidistant_code_pipeline"),
    # the edc CLI checks its code with these two; the first is most of
    # the codes workload
    ("patgraphs.eqcode", "is_regular_on_nonzero",
     "eqcode.is_regular_on_nonzero"),
    ("patgraphs.eqcode", "weight_profile", "eqcode.weight_profile"),
    # make_field is a thin wrapper; eqcode builds GF directly, so the
    # field-construction span sits on the constructor both paths use
    ("patgraphs.gf", "GF.__init__", "gf.make_field"),
    ("patgraphs.numth", "validate_parameters", "numth.validate_parameters"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class Recorder:
    """Collects spans of one pass; ``op`` tags the current operation."""

    def __init__(self):
        self.spans: list = []
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)

        return traced

    def install(self) -> None:
        """Route every call into a TARGETS function through a span."""
        for modname, attr, name in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("patgraphs"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)


def self_times(spans) -> list[tuple[str, int | None, float]]:
    """(name, op, self seconds) for each span."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent is not None:
            covered[parent] += end - start
    return [(name, op, (end - start) - covered[i])
            for i, (name, start, end, parent, op) in enumerate(spans)]
