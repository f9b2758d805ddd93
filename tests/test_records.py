"""Records are tuples, not dataclasses.

Every CLI command is a fresh interpreter that imports cachelab before it
reads a request, and `import dataclasses` alone loads inspect, ast and dis.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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
