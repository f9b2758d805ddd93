"""cachelab: a trace-driven cache replacement laboratory.

Four replacement policies (LRU, CLOCK, ARC, CAR) with fully inspectable
state, an offline-optimal oracle, seeded workload generators, and a
verification layer that replays traces in lockstep with the optimum and
checks the amortized cost bounds and structural invariants request by
request.
"""

from .arc import ADAPT_RATIO, ADAPT_UNIT, ArcCache
from .analysis import (
    LockstepLog,
    Phase,
    PotentialBreakdown,
    PrefixSizes,
    Verification,
    Violation,
    ViolationReport,
    arc_potential,
    car_potential,
    car_step_report,
    check_aggregate_bound,
    check_arc_eviction_audit,
    check_arc_structure,
    check_car_invariants,
    check_step_inequalities,
    clock_potential,
    make_policy,
    mru_prefix_sizes,
    partition_phases,
    run_checks,
    run_lockstep,
)
from .car import CarCache
from .classic import ClockCache, LruCache
from .core import AccessOutcome, Policy, canonical_key
from .harness import (
    RunReport,
    TraceParseError,
    emit_report,
    format_trace,
    parse_trace,
    run_simulation,
    verify_trace,
)
from .opt import OptSchedule, annotate_next_use, belady_run, exhaustive_opt
from .workloads import (
    SplitMix64,
    WorkloadSpec,
    gen_cycle,
    gen_fuzz,
    gen_scan_mix,
    gen_zipf,
    parse_workload,
)

__version__ = "0.1.0"
