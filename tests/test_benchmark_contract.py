"""The benchmark under ``perfbench/`` drives the library through fixed
names; these tests keep that contract from breaking unnoticed.

The tracer must find every binding it wraps and put each one back, the
other library names the benchmark reads must resolve, and one pass of
every workload at the smoke sizes must pass op by op with the tracer's
wrappers in place.
"""

import importlib.util
import json
import os

import pytest

import multimeixner
from multimeixner import bivariate, harness, multivariate, numerics

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


@pytest.fixture(scope="module")
def run():
    return _load("run")


def _bindings(tracer):
    return {
        (module.__name__, attr): getattr(module, attr)
        for pairs in tracer.BINDINGS.values()
        for module, attr in pairs
    }


def test_tracer_installs_and_restores_every_binding(tracer):
    before = _bindings(tracer)
    tr = tracer.Tracer().install()
    try:
        assert all(_bindings(tracer)[key] is not fn for key, fn in before.items())
    finally:
        tr.uninstall()
    after = _bindings(tracer)
    assert all(after[key] is fn for key, fn in before.items())


def test_names_read_outside_the_bindings():
    assert multimeixner.KERNEL_BACKEND == "pure"
    assert list(multivariate._simplex_lattice(1, 3)) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
    info = numerics.pochhammer.cache_info()
    assert min(info.hits, info.misses, info.currsize) >= 0
    numerics.pochhammer.cache_clear()
    sys2 = harness.canonical_system()
    assert sys2._gf_cache.get((1, 2)) is None
    bivariate.monic_eval_gf(sys2, 2, 1, 1, 2)
    assert sys2._gf_cache.get((1, 2)).cutoff == 3


def test_smoke_pass_of_every_workload(tracer, workloads):
    sizes = workloads.Sizes(smoke=True)
    inputs = workloads.build_inputs(workloads.ACCEPTANCE)
    tr = tracer.Tracer().install()
    try:
        failed = [
            (name, key)
            for name, make_units in workloads.WORKLOADS.items()
            for unit in make_units(inputs, sizes)
            for key, op in unit()
            if not op()[0]
        ]
    finally:
        tr.uninstall()
    assert failed == []
    assert tr.calls[tr.names.index("harness.run_suite")] > 0
    # no library route needs the series product or the linear solve
    unused = [
        "numerics.solve_linear_system", "numerics.series_geom_pow",
        "numerics.series_mul", "kernel.mul_trunc",
    ]
    assert [tr.calls[tr.names.index(name)] for name in unused] == [0, 0, 0, 0]


def test_full_size_route_unit_matches_the_stored_digests(workloads, run):
    # one full-size route-agreement unit: 28 degree pairs of gf, raising and
    # hyp values at i, k < 8, each op's digest against the stored reference
    with open(os.path.join(PERFBENCH, "workloads.json"), encoding="utf-8") as handle:
        reference = json.load(handle)["workloads"]["route-agreement"]["reference"]["ops"]
    inputs = workloads.build_inputs(workloads.ACCEPTANCE)
    (unit,) = [
        workloads._route_unit(label, beta, lam, workloads.Sizes(smoke=False))
        for label, beta, lam in inputs["systems"]
        if label == "seed42/beta7/3"
    ]
    _wall, ops = run.run_pass([unit], None)
    checked = run.check_against_reference(ops, reference)
    assert len(checked) == 28
    assert [(key, error) for key, ok, _dig, _s, error in checked if not ok] == []


@pytest.mark.parametrize("label, count", [("factorization", 15), ("dompe3", 10)])
def test_full_size_closed_form_unit_matches_the_stored_digests(workloads, run, label, count):
    # each op checks a closed form against the oracle at every point of its
    # box and stores the oracle's values, so a closed form that disagrees
    # fails the op and an oracle that drifts fails the digest
    with open(os.path.join(PERFBENCH, "workloads.json"), encoding="utf-8") as handle:
        reference = json.load(handle)["workloads"]["route-agreement"]["reference"]["ops"]
    units = workloads.route_agreement_units(
        workloads.build_inputs(workloads.ACCEPTANCE), workloads.Sizes(smoke=False)
    )
    (unit,) = [unit for unit in units if unit()[0][0].startswith(f"{label}/")]
    _wall, ops = run.run_pass([unit], None)
    checked = run.check_against_reference(ops, reference)
    assert len(checked) == count
    assert [(key, error) for key, ok, _dig, _s, error in checked if not ok] == []
