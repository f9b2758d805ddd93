"""Checks of cachelab's outputs against facts computed apart from the CLI.

Facts holds what the benchmark knows about a trace from bench/reference.py
and from a plain in-process replay; each check_* function takes one
command's output and returns a list of problems, empty when it is right.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import reference

# Whole-run bound multipliers from the papers: c*N*OPT + c*N.
BOUND = {"lru": 1, "clock": 2, "arc": 4, "car": 21}
# CAR's per-request findings are report-only unless --fail-on-car-step.
CAR_REPORT_ONLY = {"request_bound", "opt_step_bound", "opt_step_fine_bound",
                   "sweep_rank_nonincrease"}
COMPARE_RUNS = (("lru", None), ("clock", None), ("arc", "unit"), ("arc", "ratio"),
                ("car", None), ("opt", None))
LOCKSTEP_POLICIES = ("clock", "arc", "car")


@dataclass(frozen=True)
class Facts:
    """What the benchmark knows about a trace without asking the CLI."""

    cache_size: int
    label: str  # the trace label the CLI prints
    trace: list
    requests: int
    distinct: int
    opt: int  # reference.opt_misses
    lru: int  # reference.lru_misses
    replay: dict  # policy -> misses of a plain in-process replay


def gather_facts(cache_size, label, trace):
    # cachelab is importable only once bench.py has put src/ on sys.path
    import cachelab

    replay = {}
    for name in LOCKSTEP_POLICIES:
        request = cachelab.make_policy(name, cache_size).request
        replay[name] = sum(1 for page in trace if not request(page).was_hit)
    return Facts(cache_size, label, trace, len(trace), len(set(trace)),
                 reference.opt_misses(trace, cache_size),
                 reference.lru_misses(trace, cache_size), replay)


def ratio(num, den):
    value = Fraction(num, den)
    return "%d/%d" % (value.numerator, value.denominator)


def expect(problems, what, got, want):
    if got != want:
        problems.append("%s: got %r, expected %r" % (what, got, want))


def check_misses(problems, name, c, misses, facts):
    """A policy's misses lie between the optimum and c*N*OPT + c*N."""
    n, opt = facts.cache_size, facts.opt
    if not max(opt, facts.distinct) <= misses <= c * n * opt + c * n:
        problems.append("%s: %d misses outside [max(opt %d, distinct %d), %d]"
                        % (name, misses, opt, facts.distinct, c * n * opt + c * n))


def check_report(report, facts, policy, adaptation):
    """One simulate/compare report (see harness.RunReport.to_dict)."""
    problems = []
    where = "%s(%s)" % (policy, adaptation) if adaptation else policy
    expect(problems, where + " policy", (report["policy"], report["adaptation"]),
           (policy, adaptation))
    expect(problems, where + " cache_size", report["cache_size"], facts.cache_size)
    expect(problems, where + " trace", report["trace"], facts.label)
    expect(problems, where + " requests", report["requests"], facts.requests)
    hits, misses = report["hits"], report["misses"]
    expect(problems, where + " hits+misses", hits + misses, facts.requests)
    expect(problems, where + " hit_ratio", report["hit_ratio"], ratio(hits, facts.requests))
    expect(problems, where + " opt_misses", report["opt_misses"], facts.opt)
    expect(problems, where + " miss_to_opt_ratio", report["miss_to_opt_ratio"],
           ratio(misses, facts.opt))
    expect(problems, where + " complete_phases", report["complete_phases"],
           misses // facts.cache_size)
    expect(problems, where + " hard_failure", report["hard_failure"], False)
    if policy == "opt":
        expect(problems, "opt misses", misses, facts.opt)
    else:
        check_misses(problems, where, BOUND[policy], misses, facts)
    report_only = CAR_REPORT_ONLY if policy == "car" else set()
    asserted = {k: v for k, v in report["violations"].items() if k not in report_only}
    expect(problems, where + " asserted violations", asserted, {})
    return problems


def check_compare(data, facts):
    reports = json.loads(data)
    got = [(r["policy"], r["adaptation"]) for r in reports]
    if got != list(COMPARE_RUNS):
        return ["compare runs %r, expected %r" % (got, list(COMPARE_RUNS))]
    problems = []
    for report, (policy, adaptation) in zip(reports, COMPARE_RUNS):
        problems += check_report(report, facts, policy, adaptation)
    expect(problems, "lru misses against stack distances", reports[0]["misses"], facts.lru)
    return problems


def check_simulate(policy):
    def check(data, facts):
        return check_report(json.loads(data), facts, policy, "unit" if policy == "arc" else None)
    return check


def check_verify(policy):
    """One verify report (see harness.verify_trace)."""
    def check(data, facts):
        result = json.loads(data)
        problems = []
        n, opt = facts.cache_size, facts.opt
        c = BOUND[policy]
        expect(problems, "policy", (result["policy"], result["adaptation"]),
               (policy, "unit" if policy == "arc" else None))
        expect(problems, "cache_size", result["cache_size"], n)
        expect(problems, "trace", result["trace"], facts.label)
        expect(problems, "requests", result["requests"], facts.requests)
        misses = result["policy_misses"]
        expect(problems, "policy_misses against a plain replay", misses, facts.replay[policy])
        expect(problems, "opt_misses", result["opt_misses"], opt)
        check_misses(problems, policy, c, misses, facts)
        expect(problems, "hard_failure", result["hard_failure"], False)
        checks = result["checks"]
        expected = {"step", "aggregate"} | (
            {"eviction_audit", "state_invariants"} if policy == "arc"
            else {"state_invariants"} if policy == "car" else set())
        expect(problems, "check blocks", set(checks), expected)
        step = checks.get("step", {})
        expect(problems, "step mode", step.get("mode"),
               "report-only" if policy == "car" else "asserted")
        expect(problems, "step bound_multiplier", step.get("bound_multiplier"), c)
        expect(problems, "step violation_count", step.get("violation_count"),
               len(step.get("violations", ())) if policy == "car" else 0)
        for name in ("eviction_audit", "state_invariants"):
            if name in checks:
                expect(problems, name + " violation_count", checks[name]["violation_count"], 0)
        aggregate = checks.get("aggregate", {})
        expect(problems, "aggregate",
               [aggregate.get(k) for k in ("bound_multiplier", "lhs", "rhs",
                                           "additive_constant", "holds")],
               [c, misses, c * n * opt + c * n, c * n, True])
        return problems
    return check


def check_scan_mix(workload):
    params = dict(workload.params)

    def check(data, facts):
        tokens = data.decode("utf-8").split()
        if not all(t.isdigit() for t in tokens):
            return ["gen-trace wrote a token that is not a page number"]
        return reference.scan_mix_errors([int(t) for t in tokens], params["hot"],
                                         params["scan"], params["length"])
    return check
