"""Every name the benchmark's tracer wraps must exist in the package, and
every workload's checks must pass. The Newton steps of the solver
workloads over the benchmark's seeds stay within a census, so that a
slower barrier schedule fails here without a benchmark run.

The tracer in perfbench/ patches ncjoin functions and methods by name, and
its extractors read fields of the solver reports; the workloads' checks read
result fields too. A rename in the package would otherwise only surface when
a benchmark run fails. The tracer and workload modules are loaded from their
files and never modified.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # a dataclass looks up the module it is defined in
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = _load("perfbench_tracer", PERFBENCH / "tracer.py")
WORKLOADS_MODULE = _load("perfbench_workloads", PERFBENCH / "workloads.py")


@pytest.mark.parametrize("layer", sorted(TRACER_MODULE.SPANNED))
def test_spanned_functions_resolve(layer):
    for mod_name, attr in TRACER_MODULE.SPANNED[layer]:
        module = importlib.import_module(f"ncjoin.{mod_name}")
        assert callable(getattr(module, attr, None)), f"ncjoin.{mod_name}.{attr}"


@pytest.mark.parametrize("entry", TRACER_MODULE.COUNTED_METHODS, ids=lambda e: e[0])
def test_counted_methods_resolve(entry):
    _, mod_name, cls_name, meth = entry
    cls = getattr(importlib.import_module(f"ncjoin.{mod_name}"), cls_name)
    assert callable(getattr(cls, meth, None)), f"ncjoin.{mod_name}.{cls_name}.{meth}"


def _real_results():
    from ncjoin import corpus
    from ncjoin.joinings import build_tensor_context, disjointness_test, find_joining

    ctx = build_tensor_context(corpus.system("c2"), corpus.system("c2"))
    return {"joinings.find_joining": find_joining(ctx, objective=(0, 0)),
            "joinings.disjointness_test": disjointness_test(ctx)}


@pytest.mark.parametrize("layer", sorted(TRACER_MODULE.EXTRACTORS))
def test_extractors_read_real_results(layer):
    info = TRACER_MODULE.EXTRACTORS[layer](_real_results()[layer])
    assert info and all(isinstance(v, int) and v >= 0 for v in info.values()), info


@pytest.mark.parametrize("workload", sorted(WORKLOADS_MODULE.WORKLOADS))
def test_workload_checks_pass(workload, tmp_path):
    for task in WORKLOADS_MODULE.WORKLOADS[workload](1, tmp_path):
        assert task.check(task.run()) is None, task.name


# total Newton steps over seeds 0-7 with the long-step schedule; the fixed
# ×30 growth it replaced took 80 and 144
STEP_CENSUS = {"corpus-find": 48, "ladder": 96}


@pytest.mark.parametrize("workload", sorted(STEP_CENSUS))
def test_solver_workloads_keep_their_step_census(workload, tmp_path):
    steps = 0
    for seed in range(8):
        for task in WORKLOADS_MODULE.WORKLOADS[workload](seed, tmp_path):
            result = task.run()
            assert task.check(result) is None, (seed, task.name)
            steps += result[1].iterations
    assert steps <= STEP_CENSUS[workload]
