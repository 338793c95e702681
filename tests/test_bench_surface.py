"""The benchmark in perfbench/ still runs against the package.

perfbench/spans.py patches the functions named in its TARGETS and
perfbench/workloads.py builds each workload's inputs from the public API;
a refactor that renames or reshapes either breaks the benchmark without
breaking any other test, because only traced runs wrap the targets.  Both
files are imported here, never changed.
"""

import importlib
import os
import sys

import numpy as np
import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import spans  # noqa: E402
import workloads  # noqa: E402

from heisenberg_hls.grids import GridSpec, lp_norm, sample  # noqa: E402


def _holders():
    mods = {m: importlib.import_module(f"heisenberg_hls.{m}") for m in spans.MODULES}
    mods["package"] = importlib.import_module("heisenberg_hls")
    return mods


def _target(mods, mod_name, attr):
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mods[mod_name], cls_name).__dict__[meth]
    return getattr(mods[mod_name], attr)


def _snapshot(mods):
    """Every module attribute plus every traced method, by identity."""
    snap = {(key, name): value for key, mod in mods.items() for name, value in vars(mod).items()}
    for mod_name, attr, _ in spans.TARGETS:
        snap[(mod_name, attr)] = _target(mods, mod_name, attr)
    return snap


def test_tracer_wraps_every_target_and_restores_it():
    mods = _holders()
    before = _snapshot(mods)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for mod_name, attr, _ in spans.TARGETS:
            wrapped = _target(mods, mod_name, attr)
            assert getattr(wrapped, "__wrapped__", None) is before[(mod_name, attr)], attr
        f = sample(lambda R, T: np.exp(-R * R - T * T), GridSpec(n_rho=8, n_t=8))
        mods["grids"].lp_norm(f, 2.0)
        assert [row[0] for row in tracer.spans] == ["grids.lp_norm"]
    finally:
        tracer.uninstall()
    after = _snapshot(mods)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert mods["grids"].lp_norm is lp_norm


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_sets_up(name):
    work = workloads.WORKLOADS[name](0)
    assert work.seed == 0 and work.attempted == work.failed == 0


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_rounds_pass_their_checks(name):
    # untraced rounds as run.py runs them: no operation fails and every
    # output passes the workload's closed-form checks (two rounds, since
    # mc-energy checks only estimates pooled from two calls or more)
    work = workloads.WORKLOADS[name](0)
    work.clock = workloads.CalibratedClock()
    for k in range(2):
        work.run_round(k)
    checks, _ = work.finish()
    assert work.attempted > 0 and work.failed == 0
    assert checks and all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]
