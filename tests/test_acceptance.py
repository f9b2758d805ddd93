"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The two heavyweight trace suites are built once
per session and shared across criteria.
"""

import itertools
import json
import time

import pytest

from cachelab import (
    ArcCache,
    CarCache,
    LruCache,
    belady_run,
    car_step_report,
    check_aggregate_bound,
    check_arc_eviction_audit,
    check_car_invariants,
    check_step_inequalities,
    emit_report,
    exhaustive_opt,
    gen_cycle,
    gen_fuzz,
    gen_scan_mix,
    gen_zipf,
    make_policy,
    run_lockstep,
    run_simulation,
    verify_trace,
)
from cachelab.analysis import LockstepEntry, LockstepLog, PrefixSizes
from cachelab.core import AccessOutcome

AGGREGATE_MULTIPLIERS = {"lru": 1, "clock": 2, "arc": 4, "car": 21}


def report_line(number, ok, detail):
    print("ACCEPTANCE criterion %02d %s - %s" % (number, "PASS" if ok else "FAIL", detail))


def run_plain(name, capacity, trace):
    policy = make_policy(name, capacity)
    return sum(0 if policy.request(p).was_hit else 1 for p in trace)


def run_car_with_invariants(capacity, trace):
    """CAR miss count plus the number of per-step invariant violations."""
    car = CarCache(capacity)
    misses = 0
    bad = 0
    was_full = False
    for page in trace:
        if not car.request(page).was_hit:
            misses += 1
        if not check_car_invariants(car, was_full).ok:
            bad += 1
        was_full = was_full or car.is_full
    return misses, bad


# ---------------------------------------------------------------------------
# shared trace suites


def dominance_configs():
    """Criterion 2 set: 200 seeded fuzz/zipf/scan traces, length 2000."""
    for i in range(200):
        n = (2, 4, 8)[(i // 3) % 3]
        kind = ("fuzz", "zipf", "scan")[i % 3]
        seed = 10_000 + i
        if kind == "fuzz":
            trace = gen_fuzz(4 * n, 2000, seed=seed)
        elif kind == "zipf":
            trace = gen_zipf(4 * n, 0.9, 2000, seed=seed)
        else:
            trace = gen_scan_mix(n, 2 * n, 2000, seed=seed)
        yield "%s[%d]" % (kind, i), n, trace


def step_suite_configs():
    """Criterion 3 set: 500 seeded traces, length 1000, N in {2,3,4,8},
    universe at most 3N."""
    for i in range(500):
        n = (2, 3, 4, 8)[i % 4]
        universe = (max(2, n), 2 * n, 3 * n)[(i // 4) % 3]
        seed = 20_000 + i
        if i % 2:
            trace = gen_zipf(universe, 0.8, 1000, seed=seed)
        else:
            trace = gen_fuzz(universe, 1000, seed=seed)
        yield "trace[%d]" % i, n, trace


@pytest.fixture(scope="session")
def dominance_results():
    rows = []
    for label, n, trace in dominance_configs():
        opt = belady_run(trace, n).miss_count
        car_misses, car_bad = run_car_with_invariants(n, trace)
        rows.append({
            "label": label,
            "n": n,
            "opt": opt,
            "misses": {
                "lru": run_plain("lru", n, trace),
                "clock": run_plain("clock", n, trace),
                "arc_unit": run_plain("arc", n, trace),
                "arc_ratio": _arc_ratio_misses(n, trace),
                "car": car_misses,
            },
            "car_invariant_violations": car_bad,
        })
    return rows


def _arc_ratio_misses(n, trace):
    arc = ArcCache(n, adaptation="ratio")
    return sum(0 if arc.request(p).was_hit else 1 for p in trace)


@pytest.fixture(scope="session")
def step_suite_results():
    rows = []
    arc_elapsed = 0.0
    for label, n, trace in step_suite_configs():
        t0 = time.perf_counter()
        arc_log = run_lockstep(trace, n, "arc")
        arc_step = check_step_inequalities(arc_log)
        arc_elapsed += time.perf_counter() - t0
        arc_audit = check_arc_eviction_audit(arc_log)

        clock_log = run_lockstep(trace, n, "clock")
        clock_step = check_step_inequalities(clock_log)

        car_log = run_lockstep(trace, n, "car")
        car_report = car_step_report(car_log)
        _, car_invariant_bad = run_car_with_invariants(n, trace)

        rows.append({
            "label": label,
            "n": n,
            "opt": sum(e.c_opt for e in arc_log.entries),
            "misses": {
                "lru": run_plain("lru", n, trace),
                "clock": sum(e.c_alg for e in clock_log.entries),
                "arc": sum(e.c_alg for e in arc_log.entries),
                "car": sum(e.c_alg for e in car_log.entries),
            },
            "arc_step_violations": len(arc_step.violations),
            "arc_audit_violations": len(arc_audit.violations),
            "clock_step_violations": len(clock_step.violations),
            "car_step_violations": car_report.to_dicts(),
            "car_invariant_violations": car_invariant_bad,
        })
    return {"rows": rows, "arc_elapsed": arc_elapsed}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_opt_exactness():
    """belady equals the exhaustive oracle on every 3-page trace of
    length <= 8 with N=2, in under 10 seconds."""
    t0 = time.perf_counter()
    mismatches = 0
    full_length = 0
    for length in range(9):
        for trace in itertools.product(range(3), repeat=length):
            trace = list(trace)
            if belady_run(trace, 2).miss_count != exhaustive_opt(trace, 2):
                mismatches += 1
            if length == 8:
                full_length += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0 and full_length == 6561
    report_line(1, ok, "mismatches=%d over %d full-length traces, %.2fs"
                % (mismatches, full_length, elapsed))
    assert mismatches == 0
    assert full_length == 6561
    assert elapsed < 10.0, "exactness sweep took %.2fs (budget 10s)" % elapsed


def test_criterion_02_optimality_dominance(dominance_results):
    exceptions = 0
    for row in dominance_results:
        for misses in row["misses"].values():
            if row["opt"] > misses:
                exceptions += 1
    ok = exceptions == 0 and len(dominance_results) == 200
    report_line(2, ok, "%d traces x 5 policies, dominance exceptions=%d"
                % (len(dominance_results), exceptions))
    assert len(dominance_results) == 200
    assert exceptions == 0


def test_criterion_03_arc_step_suite(step_suite_results):
    rows = step_suite_results["rows"]
    elapsed = step_suite_results["arc_elapsed"]
    violations = sum(r["arc_step_violations"] for r in rows)
    ok = violations == 0 and len(rows) == 500 and elapsed < 60.0
    report_line(3, ok, "ARC c=4 over %d traces: violations=%d, %.1fs"
                % (len(rows), violations, elapsed))
    assert len(rows) == 500
    assert violations == 0
    assert elapsed < 60.0, "ARC step suite took %.1fs (budget 60s)" % elapsed


def test_criterion_04_clock_step_suite(step_suite_results):
    rows = step_suite_results["rows"]
    violations = sum(r["clock_step_violations"] for r in rows)
    report_line(4, violations == 0, "CLOCK c=2 over %d traces: violations=%d"
                % (len(rows), violations))
    assert violations == 0


def test_criterion_05_aggregate_bounds(dominance_results, step_suite_results):
    failures = 0
    checked = 0
    for row in dominance_results:
        for policy, c in AGGREGATE_MULTIPLIERS.items():
            misses = row["misses"]["arc_unit" if policy == "arc" else policy]
            checked += 1
            if not check_aggregate_bound(misses, row["opt"], row["n"], c):
                failures += 1
    for row in step_suite_results["rows"]:
        for policy, c in AGGREGATE_MULTIPLIERS.items():
            checked += 1
            if not check_aggregate_bound(row["misses"][policy], row["opt"], row["n"], c):
                failures += 1
    report_line(5, failures == 0, "%d aggregate bounds checked, failures=%d"
                % (checked, failures))
    assert failures == 0


def test_criterion_06_lru_lower_bound_witness():
    """C_lru/C_opt >= N - 0.2 on gen_cycle(N+1, 100*(N+1)) for N in {2,4,8}.

    Known red at N=8: the trace is 900 requests, the optimum misses
    exactly 120 (8 compulsory plus one per 8 thereafter), so the measured
    ratio is 900/120 = 7.5 < 7.8. The threshold is asserted as stated;
    see the repository notes for the arithmetic.
    """
    results = []
    for n in (2, 4, 8):
        trace = gen_cycle(n + 1, 100 * (n + 1))
        lru_misses = run_plain("lru", n, trace)
        opt_misses = belady_run(trace, n).miss_count
        ratio = lru_misses / opt_misses
        results.append((n, lru_misses, opt_misses, ratio))
    ok = all(ratio >= n - 0.2 for n, _, _, ratio in results)
    detail = "; ".join("N=%d ratio=%.3f (>=%.1f)" % (n, ratio, n - 0.2)
                       for n, _, _, ratio in results)
    report_line(6, ok, detail)
    for n, lru_misses, opt_misses, ratio in results:
        assert ratio >= n - 0.2, (
            "lower-bound witness below threshold at N=%d: C_lru=%d, C_opt=%d, "
            "ratio=%.3f < %.1f" % (n, lru_misses, opt_misses, ratio, n - 0.2))


def test_criterion_07_car_invariants_everywhere(dominance_results, step_suite_results):
    bad = sum(r["car_invariant_violations"] for r in dominance_results)
    bad += sum(r["car_invariant_violations"] for r in step_suite_results["rows"])
    steps = sum(2000 for _ in dominance_results) + sum(1000 for _ in step_suite_results["rows"])
    report_line(7, bad == 0, "CAR invariants over %d requests: violations=%d" % (steps, bad))
    assert bad == 0


def test_criterion_08_arc_eviction_audit(step_suite_results):
    rows = step_suite_results["rows"]
    violations = sum(r["arc_audit_violations"] for r in rows)

    # planted-mutation negative checks: every audit rule must fire when fed
    # a state that breaks it
    def entry(**overrides):
        base = dict(
            index=0, page="x", c_opt=0, c_alg=1,
            phi_before=0, phi_after_opt=0, phi_after_alg=0,
            digest="d", opt_cache=frozenset(), cache_full_before=True,
            outcome=AccessOutcome(was_hit=False),
            audit_opt=(PrefixSizes(0, 0, 0, 0, 0, 0), (0, 0, 0, 0)),
            audit_alg=(PrefixSizes(0, 0, 0, 0, 0, 0), (0, 0, 0, 0)),
        )
        base.update(overrides)
        return LockstepEntry(**base)

    def fires(check, planted, capacity=2):
        log = LockstepLog(policy_kind="ARC", adaptation="unit", capacity=capacity)
        log.entries.append(planted)
        return check in {v.check for v in check_arc_eviction_audit(log).violations}

    planted_ok = (
        fires("directory_miss_prefix_bound",
              entry(audit_opt=(PrefixSizes(1, 1, 0, 0, 1, 1), (1, 1, 0, 0))))
        and fires("demotion_prefix_consistency",
                  entry(outcome=AccessOutcome(False, evicted_cache_page="v",
                                              replace_dest="B1", history_hit="B1"),
                        audit_opt=(PrefixSizes(1, 0, 0, 0, 1, 0), (2, 0, 1, 0)),
                        audit_alg=(PrefixSizes(1, 0, 1, 0, 2, 0), (0, 0, 0, 0))))
        and fires("eviction_outside_prefix",
                  entry(outcome=AccessOutcome(False, evicted_history_page="g",
                                              history_evicted_from="B1"),
                        audit_opt=(PrefixSizes(1, 0, 1, 0, 2, 0), (1, 2, 1, 0))),
                  capacity=3)
        and fires("protected_list_demotion",
                  entry(outcome=AccessOutcome(False, evicted_cache_page="v",
                                              replace_dest="B2", history_hit="B2"),
                        audit_opt=(PrefixSizes(1, 1, 0, 0, 1, 1), (1, 1, 0, 0))))
    )
    ok = violations == 0 and planted_ok
    report_line(8, ok, "audit violations=%d over %d traces; planted checks fire=%s"
                % (violations, len(rows), planted_ok))
    assert violations == 0
    assert planted_ok


def test_criterion_09_car_step_report(step_suite_results, tmp_path):
    rows = step_suite_results["rows"]
    all_findings = []
    for row in rows:
        for finding in row["car_step_violations"]:
            finding = dict(finding)
            finding["trace"] = row["label"]
            finding["cache_size"] = row["n"]
            all_findings.append(finding)
    payload = json.dumps({"mode": "report-only", "findings": all_findings}, indent=2)
    out = tmp_path / "car_step_report.json"
    out.write_text(payload)
    parsed = json.loads(out.read_text())
    structured = all(
        {"index", "step", "check", "lhs", "rhs", "page", "digest",
         "opt_cache", "trace", "cache_size"} <= set(f)
        for f in parsed["findings"])
    ok = parsed["mode"] == "report-only" and structured
    report_line(9, ok, "CAR per-step findings logged=%d (report-only), file=%s"
                % (len(all_findings), out.name))
    assert ok


def test_criterion_10_scan_resistance():
    n = 16
    trace = gen_scan_mix(hot_set=n, scan_len=4 * n, length=10_000, seed=7)

    def hit_ratio(policy):
        hits = sum(1 if policy.request(p).was_hit else 0 for p in trace)
        return hits / len(trace)

    arc_ratio = hit_ratio(ArcCache(n))
    lru_ratio = hit_ratio(LruCache(n))
    gap = 100.0 * (arc_ratio - lru_ratio)
    ok = gap >= 5.0
    report_line(10, ok, "ARC %.2f%% vs LRU %.2f%% (gap %.2f points, need >= 5)"
                % (100 * arc_ratio, 100 * lru_ratio, gap))
    assert gap >= 5.0


def test_criterion_11_determinism():
    trace = gen_zipf(12, 0.8, 1000, seed=20_001)

    verify_a = json.dumps(verify_trace("arc", 3, trace, trace_label="t")[0], indent=2)
    verify_b = json.dumps(verify_trace("arc", 3, trace, trace_label="t")[0], indent=2)
    car_a = json.dumps(verify_trace("car", 3, trace, trace_label="t")[0], indent=2)
    car_b = json.dumps(verify_trace("car", 3, trace, trace_label="t")[0], indent=2)

    sim_a = emit_report(run_simulation("arc", 3, trace, checks=("potential",)), "json")
    sim_b = emit_report(run_simulation("arc", 3, trace, checks=("potential",)), "json")

    ok = (verify_a.encode() == verify_b.encode()
          and car_a.encode() == car_b.encode()
          and sim_a.encode() == sim_b.encode())
    report_line(11, ok, "verify/simulate JSON byte-identical across repeat runs")
    assert ok
