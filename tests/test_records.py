"""Records are tuples, not dataclasses, and `import cachelab` is lazy.

Every CLI command is a fresh interpreter that imports cachelab before it
reads a request, and `import dataclasses` alone loads inspect, ast and dis.
The package exports each name from its home module on first use, so
reading a trace file loads only traces and generating one only workloads.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cachelab
from cachelab import (
    ArcCache,
    CarCache,
    ClockCache,
    LockstepLog,
    LruCache,
    ViolationReport,
    run_simulation,
)
from cachelab.core import HIT

SRC = Path(__file__).resolve().parents[1] / "src"

# every name `from cachelab import ...` offers; the from-scratch potentials
# are reached through analysis.potential_for
EXPORTS = {
    "ADAPT_RATIO", "ADAPT_UNIT", "AccessOutcome", "ArcCache", "CarCache", "ClockCache",
    "LockstepLog", "LruCache", "OptSchedule", "Phase", "Policy", "PotentialBreakdown",
    "PrefixSizes", "RunReport", "SplitMix64", "TraceParseError", "Verification", "Violation",
    "ViolationReport", "WorkloadSpec", "annotate_next_use", "belady_run", "canonical_key",
    "car_step_report", "check_aggregate_bound", "check_arc_eviction_audit",
    "check_arc_structure", "check_car_invariants", "check_step_inequalities", "emit_report",
    "exhaustive_opt", "format_trace", "gen_cycle", "gen_fuzz", "gen_scan_mix", "gen_zipf",
    "make_policy", "parse_trace", "parse_workload", "partition_phases", "run_checks",
    "run_lockstep", "run_simulation", "verify_trace",
}
SUBMODULES = ("core", "arc", "car", "classic", "opt", "analysis", "harness", "traces",
              "workloads")


def run_cold(code):
    """stdout of code run in a fresh interpreter; -S: no site hook may
    preload a module and hide an import."""
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", ["cachelab", "cachelab.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # -S: no site hook may preload either module and hide an import
    code = ("import sys, %s; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
            % module)
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("load, module", [
    ("assert cachelab.parse_trace(b'1 2 3') == ['1', '2', '3']", "traces"),
    ("cachelab.parse_workload('zipf:universe=50,alpha=0.9,length=100,seed=1').generate()",
     "workloads"),
])
def test_loading_a_trace_loads_only_its_home_module(load, module):
    out = run_cold(
        "import sys, cachelab\n"
        + load + "\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cachelab'))\n"
        "print(sorted({'json', 'fractions', 're', '__future__'} & set(sys.modules)))\n"
    )
    assert out == "['cachelab', 'cachelab.%s']\n[]\n" % module


class TestExportTable:
    def test_every_export_is_its_home_modules_object(self):
        for name in cachelab.__all__:
            home = getattr(cachelab, cachelab._HOME[name])
            assert getattr(cachelab, name) is getattr(home, name)
            # a class or function is exported from the module that defines it
            assert getattr(getattr(home, name), "__module__", home.__name__) == home.__name__

    def test_the_exports_are_the_44_pinned_names(self):
        assert len(cachelab.__all__) == len(set(cachelab.__all__)) == 44
        assert set(cachelab.__all__) == EXPORTS
        assert cachelab.__version__ == "0.1.0"

    def test_star_import_and_dir_list_every_export(self):
        namespace = {}
        exec("from cachelab import *", namespace)
        assert EXPORTS <= set(namespace)
        assert EXPORTS | set(SUBMODULES) <= set(dir(cachelab))

    def test_submodules_are_attributes_after_a_bare_import(self):
        out = run_cold("import sys, cachelab\n"
                       "for name in %r:\n"
                       "    assert getattr(cachelab, name) is sys.modules['cachelab.' + name]\n"
                       "print('ok')\n" % (SUBMODULES,))
        assert out == "ok\n"
        with pytest.raises(AttributeError, match="no_such_name"):
            cachelab.no_such_name


@pytest.mark.parametrize("cls", [LruCache, ClockCache, ArcCache, CarCache])
def test_every_hit_is_the_shared_hit_outcome(cls):
    policy = cls(2)
    assert not policy.request(1).was_hit
    assert policy.request(1) is HIT


def test_the_shared_hit_outcome_rejects_assignment():
    with pytest.raises(AttributeError):
        HIT.was_hit = False
    with pytest.raises(AttributeError):
        HIT.extra = 1
    assert HIT.was_hit and HIT.evicted_cache_page is None and HIT.swept == ()


def test_run_report_accepts_the_fields_compare_fills_in():
    report = run_simulation("lru", 2, [1, 2, 3, 1])
    assert report.opt_misses is None
    report.opt_misses = 3
    report.miss_to_opt_ratio = Fraction(report.misses, 3)
    assert report.to_dict()["opt_misses"] == 3
    assert report.to_dict()["miss_to_opt_ratio"] == "4/3"


def test_records_with_a_list_get_a_fresh_one_each():
    log = LockstepLog(policy_kind="LRU", adaptation=None, capacity=2)
    log.entries.append("entry")
    assert LockstepLog("LRU", None, 2).entries == []
    report = ViolationReport()
    report.violations.append("finding")
    assert ViolationReport().violations == []
