"""cachelab: a trace-driven cache replacement laboratory.

Four replacement policies (LRU, CLOCK, ARC, CAR) with fully inspectable
state, an offline-optimal oracle, seeded workload generators, and a
verification layer that replays traces in lockstep with the optimum and
checks the amortized cost bounds and structural invariants request by
request.

Every export loads its home module on first use (PEP 562), so a caller
that only reads a trace file pays for traces alone, and one that only
generates a trace for workloads alone, not for the policy layer or the
verification layer.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the names each submodule exports here
_EXPORTS = {
    "arc": "ADAPT_RATIO ADAPT_UNIT ArcCache",
    "analysis": """LockstepLog Phase PotentialBreakdown PrefixSizes Verification Violation
        ViolationReport car_step_report check_aggregate_bound check_arc_eviction_audit
        check_arc_structure check_car_invariants check_step_inequalities make_policy
        partition_phases run_checks run_lockstep""",
    "car": "CarCache",
    "classic": "ClockCache LruCache",
    "core": "AccessOutcome Policy canonical_key",
    "harness": "RunReport emit_report run_simulation verify_trace",
    "opt": "OptSchedule annotate_next_use belady_run exhaustive_opt",
    "traces": "TraceParseError format_trace parse_trace",
    "workloads": "SplitMix64 WorkloadSpec gen_cycle gen_fuzz gen_scan_mix gen_zipf parse_workload",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(_import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
