"""Validation and GNS builds per CLI command, counted by the benchmark's tracer.

A system carries its validation report, GNS data and mirror system once
built, so one command validates and builds the GNS data of each system it
loads (and of the mirror system it promotes) once. The tracer in perfbench/
is loaded from its file and never modified; it is uninstalled after each
command.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from ncjoin import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = _tracer_module()

# command -> upper bounds on calls per traced layer
BOUNDS = [
    ("ornstein --system corpus:c3 --window 0..16",
     {"algebra.validate_system": 2, "gns.gns_construct": 2, "gns.mirror_system": 1,
      "algebra.Automorphism.compose": 0, "joinings.build_tensor_context": 1}),
    ("classify --system corpus:c3",
     {"algebra.validate_system": 1, "gns.gns_construct": 1}),
    ("average --system corpus:c3 --x 0 --y 0 --N 100",
     {"algebra.validate_system": 1, "gns.gns_construct": 1}),
    ("cesaro-diagonal --system corpus:c3 --N 12",
     {"algebra.validate_system": 2, "gns.gns_construct": 2,
      "algebra.Automorphism.compose": 0}),
    ("joinings disjoint --a corpus:c2 --b corpus:c3",
     {"algebra.validate_system": 2, "gns.gns_construct": 2}),
    ("joinings diagonal --system corpus:c2 --graph-n 1",
     {"algebra.validate_system": 2, "gns.gns_construct": 2}),
]


@pytest.mark.parametrize("command,bounds", BOUNDS, ids=[c for c, _ in BOUNDS])
def test_builds_per_command(command, bounds):
    tracer = TRACER_MODULE.Tracer()
    tracer.install()
    try:
        _, code = cli.run(command.split())
    finally:
        tracer.uninstall()
    assert code == 0
    calls = Counter(span.layer for span in tracer.spans)
    calls.update(tracer.counts)
    assert calls["algebra.validate_system"] >= 1
    for layer, bound in bounds.items():
        assert calls[layer] <= bound, (layer, calls[layer])
