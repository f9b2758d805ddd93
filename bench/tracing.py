"""Traced run: per-layer metrics from timing cachelab's public functions.

Spans are recorded here, around the calls the benchmark makes into each
module, never inside cachelab. A span has a name, start, end, parent
and workload. Calls too short and too many to be a span each, such as
Policy.request, potential_for and Policy.digest inside the lockstep
loop, are summed into one busy record under the span that made them.
A span's self time is its duration minus what its children and busy
records cover. Spans stay in memory and are written to
bench/out/spans-<workload>-seed<seed>.json when the run ends.

Every round profiles every layer on the workload's own trace and cache
size: the six compare runs, the three checked simulate runs, the three
verify runs, run_lockstep with its checkers, a replay of the lockstep
loop that splits it into oracle, request, potential and digest time,
and the structural invariant replays. README.md says which layers each
workload's CLI commands reach and which end-to-end metric each moves.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import cachelab
from cachelab import analysis
from checks import (
    COMPARE_RUNS,
    LOCKSTEP_POLICIES,
    check_compare,
    check_simulate,
    check_verify,
    gather_facts,
)

MB = 1 << 20
# metric prefix of each policy's module layer, for the plain replays
PLAIN_REPLAYS = (("classic.lru", "lru", "unit"), ("classic.clock", "clock", "unit"),
                 ("arc.unit", "arc", "unit"), ("arc.ratio", "arc", "ratio"),
                 ("car", "car", "unit"))
LAYER = {"clock": "classic.clock", "arc": "arc.unit", "car": "car"}
CHECKED = ("invariants", "potential", "lemmas")
# (span name, detail prefix or None for any) of the calls each workload's
# CLI commands make
OWN_PATH = {
    "compare-zipf": (("workloads.generate", None), ("harness.run_simulation", "compare:"),
                     ("harness.emit_report", "compare")),
    "verify-zipf": (("workloads.generate", None), ("harness.verify_trace", None)),
    "scan-file": (("workloads.generate", None), ("harness.format_trace", None),
                  ("harness.parse_trace", None), ("harness.run_simulation", "checked:"),
                  ("harness.emit_report", "checked:")),
}

PER_LAYER = (
    ("workloads.generate_s", "s", "lower"),
    ("workloads.requests", "count", "higher"),
    ("harness.format_trace_s", "s", "lower"),
    ("harness.trace_bytes", "bytes", "lower"),
    ("harness.parse_trace_s", "s", "lower"),
    ("harness.run_simulation_s", "s", "lower"),
    ("harness.verify_trace_s", "s", "lower"),
    ("harness.emit_report_s", "s", "lower"),
    ("harness.report_bytes", "bytes", "lower"),
    ("opt.belady_run_s", "s", "lower"),
    ("opt.peak_traced_mb", "MB", "lower"),
    ("opt.misses", "count", "lower"),
    ("classic.lru.request_s", "s", "lower"),
    ("classic.lru.misses", "count", "lower"),
    ("classic.clock.request_s", "s", "lower"),
    ("classic.clock.misses", "count", "lower"),
    ("classic.clock.digest_s", "s", "lower"),
    ("classic.clock.digest_bytes", "bytes", "lower"),
    ("arc.unit.request_s", "s", "lower"),
    ("arc.unit.misses", "count", "lower"),
    ("arc.unit.ghost_hits", "count", "higher"),
    ("arc.unit.replace_calls", "count", "lower"),
    ("arc.unit.digest_s", "s", "lower"),
    ("arc.unit.digest_bytes", "bytes", "lower"),
    ("arc.ratio.request_s", "s", "lower"),
    ("arc.ratio.misses", "count", "lower"),
    ("car.request_s", "s", "lower"),
    ("car.misses", "count", "lower"),
    ("car.ghost_hits", "count", "higher"),
    ("car.replace_iterations", "count", "lower"),
    ("car.digest_s", "s", "lower"),
    ("car.digest_bytes", "bytes", "lower"),
    ("analysis.lockstep.clock_s", "s", "lower"),
    ("analysis.lockstep.arc_s", "s", "lower"),
    ("analysis.lockstep.car_s", "s", "lower"),
    ("analysis.lockstep_peak_traced_mb", "MB", "lower"),
    ("analysis.potential.clock_s", "s", "lower"),
    ("analysis.potential.arc_s", "s", "lower"),
    ("analysis.potential.car_s", "s", "lower"),
    ("analysis.potential_calls", "count", "lower"),
    ("analysis.check_step_s", "s", "lower"),
    ("analysis.car_step_report_s", "s", "lower"),
    ("analysis.car_step_findings", "count", "lower"),
    ("analysis.eviction_audit_s", "s", "lower"),
    ("analysis.invariants.arc_s", "s", "lower"),
    ("analysis.invariants.car_s", "s", "lower"),
    ("analysis.partition_phases_s", "s", "lower"),
)


class Spans:
    """Spans and busy records of one traced run, kept in memory."""

    def __init__(self, workload):
        self.workload = workload
        self.records = []
        self._open = []

    @contextmanager
    def span(self, name, detail=None):
        record = {"name": name, "detail": detail, "start": None, "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "workload": self.workload}
        self.records.append(record)
        self._open.append(len(self.records) - 1)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def busy(self, name, seconds, calls):
        """Time summed over `calls` short calls made inside the open span."""
        self.records.append({"name": name, "busy_s": seconds, "calls": calls,
                             "parent": self._open[-1], "workload": self.workload})

    def seconds(self, name, since=0):
        return sum(duration(r) for r in self.records[since:] if r["name"] == name)

    def with_self_times(self, origin):
        covered = [0.0] * len(self.records)
        for r in self.records:
            if r["parent"] is not None:
                covered[r["parent"]] += duration(r)
        out = []
        for i, r in enumerate(self.records):
            r = dict(r, self_s=duration(r) - covered[i])
            if "start" in r:
                r["start"] -= origin
                r["end"] -= origin
            out.append(r)
        return out


def duration(record):
    return record["busy_s"] if "busy_s" in record else record["end"] - record["start"]


def profile_round(spans, workload, seed, facts):
    """One pass over every layer; returns (metrics, problems, [checked, failed])."""
    since = len(spans.records)
    n = workload.cache_size
    label = facts.label
    m = {}
    problems = []
    counts = [0, 0]  # checked, failed

    def check(what, found):
        counts[0] += 1
        counts[1] += bool(found)
        problems.extend("%s: %s" % (what, p) for p in found)

    def same(what, got, want):
        check(what, [] if got == want else ["got %r, expected %r" % (got, want)])

    with spans.span("workloads.generate"):
        generated = cachelab.parse_workload(workload.spec(seed)).generate()
    with spans.span("harness.format_trace"):
        text = cachelab.format_trace(generated)
    data = text.encode("utf-8")
    with spans.span("harness.parse_trace"):
        parsed = cachelab.parse_trace(data)
    trace = parsed if workload.from_file else generated
    same("trace as the CLI loads it", trace == facts.trace, True)
    m["workloads.requests"] = len(generated)
    m["harness.trace_bytes"] = len(data)

    with spans.span("opt.belady_run"):
        schedule = cachelab.belady_run(trace, n)
    m["opt.misses"] = schedule.miss_count
    same("opt.misses against the reference", schedule.miss_count, facts.opt)

    flags = [schedule.miss_flags()]
    for prefix, name, adaptation in PLAIN_REPLAYS:
        policy = analysis.make_policy(name, n, adaptation)
        request = policy.request
        with spans.span(prefix + ".request"):
            outcomes = [request(page) for page in trace]
        flags.append([not o.was_hit for o in outcomes])
        m[prefix + ".misses"] = sum(flags[-1])
        if prefix in ("arc.unit", "car"):
            m[prefix + ".ghost_hits"] = sum(o.history_hit is not None for o in outcomes)
        if prefix == "arc.unit":
            m["arc.unit.replace_calls"] = policy.replace_invocations
    same("classic.lru.misses against stack distances", m["classic.lru.misses"], facts.lru)
    with spans.span("analysis.partition_phases"):
        for miss_flags in flags:
            analysis.partition_phases(miss_flags, n)

    # the compare command: six run_simulation calls and one report
    reports = []
    for policy, adaptation in COMPARE_RUNS:
        with spans.span("harness.run_simulation", "compare:%s" % policy):
            reports.append(cachelab.run_simulation(
                policy, n, trace, adaptation=adaptation or "unit", trace_label=label))
    opt_misses = reports[-1].misses
    for report in reports[:-1]:  # as cli.main fills them in
        report.opt_misses = opt_misses
        report.miss_to_opt_ratio = Fraction(report.misses, opt_misses) if opt_misses else None
    with spans.span("harness.emit_report", "compare"):
        rendered = [cachelab.emit_report(reports, "json")]
    check("compare", check_compare(rendered[0], facts))

    # the simulate commands of scan-file, with every check
    for policy in ("arc", "car", "clock"):
        with spans.span("harness.run_simulation", "checked:%s" % policy):
            report = cachelab.run_simulation(policy, n, trace, checks=CHECKED, trace_label=label)
        with spans.span("harness.emit_report", "checked:%s" % policy):
            rendered.append(cachelab.emit_report(report, "json"))
        check("simulate " + policy, check_simulate(policy)(rendered[-1], facts))
    m["harness.report_bytes"] = sum(len(r.encode("utf-8")) for r in rendered)

    # the verify commands
    for policy in LOCKSTEP_POLICIES:
        with spans.span("harness.verify_trace", policy):
            result, _ = cachelab.verify_trace(policy, n, trace, trace_label=label)
        check("verify " + policy, check_verify(policy)(json.dumps(result), facts))

    # run_lockstep and the checkers that read its log
    for policy in LOCKSTEP_POLICIES:
        with spans.span("analysis.lockstep." + policy):
            log = analysis.run_lockstep(trace, n, policy)
        if policy == "car":  # report-only findings: an output, not a failure
            with spans.span("analysis.car_step_report"):
                findings = analysis.car_step_report(log)
            m["analysis.car_step_findings"] = len(findings.violations)
        else:
            with spans.span("analysis.check_step"):
                found = analysis.check_step_inequalities(log).to_dicts()
            if policy == "arc":
                with spans.span("analysis.eviction_audit"):
                    found += analysis.check_arc_eviction_audit(log).to_dicts()
            check("lockstep checks " + policy, found)
        del log  # before the next lockstep builds its own

    m["analysis.potential_calls"] = 0
    for policy in LOCKSTEP_POLICIES:
        with spans.span("analysis.lockstep_split." + policy):
            split = split_lockstep(trace, schedule, n, policy)
            spans.busy(LAYER[policy] + ".request_in_lockstep", split["request"], len(trace))
            spans.busy("analysis.potential." + policy, split["potential"], 2 * len(trace) + 1)
            spans.busy(LAYER[policy] + ".digest", split["digest"], len(trace))
        m[LAYER[policy] + ".digest_bytes"] = split["digest_bytes"]
        m["analysis.potential_calls"] += 2 * len(trace) + 1
        if policy == "car":
            m["car.replace_iterations"] = split["replace_iterations"]
        same("lockstep split %s misses" % policy, split["misses"], facts.replay[policy])

    for policy, checker in (("arc", analysis.check_arc_structure),
                            ("car", analysis.check_car_invariants)):
        with spans.span("analysis.invariants_replay." + policy):
            seconds, bad = invariant_replay(trace, n, policy, checker)
            spans.busy("analysis.invariants." + policy, seconds, len(trace))
        same("state invariants " + policy, bad, 0)

    for name, unit, _ in PER_LAYER:
        if unit == "s":
            m[name] = spans.seconds(name[:-len("_s")], since)
    return m, problems, counts


def split_lockstep(trace, schedule, capacity, policy_name):
    """The loop of analysis.run_lockstep, timed call by call."""
    clock = time.perf_counter
    policy = analysis.make_policy(policy_name, capacity)
    potential = analysis.potential_for(policy)
    request, digest = policy.request, policy.digest
    t0 = clock()
    potential(policy, frozenset())
    spent_potential = clock() - t0
    spent_request = spent_digest = 0.0
    digest_bytes = misses = replace_iterations = 0
    for page, step in zip(trace, schedule.steps):
        t0 = clock()
        potential(policy, step.cache_after)
        t1 = clock()
        outcome = request(page)
        t2 = clock()
        potential(policy, step.cache_after)
        t3 = clock()
        line = digest()
        t4 = clock()
        spent_potential += (t1 - t0) + (t3 - t2)
        spent_request += t2 - t1
        spent_digest += t4 - t3
        digest_bytes += len(line)
        if not outcome.was_hit:
            misses += 1
            if outcome.replace_dest is not None and policy_name == "car":
                replace_iterations += policy.last_replace_iterations
    return {"potential": spent_potential, "request": spent_request, "digest": spent_digest,
            "digest_bytes": digest_bytes, "misses": misses,
            "replace_iterations": replace_iterations}


def invariant_replay(trace, capacity, policy_name, checker):
    """Replay with the structural checker after every request, as the
    harness does; returns (seconds inside the checker, violations)."""
    clock = time.perf_counter
    policy = analysis.make_policy(policy_name, capacity)
    spent = 0.0
    bad = 0
    was_full = False
    for page in trace:
        policy.request(page)
        t0 = clock()
        bad += len(checker(policy, was_full).violations)
        spent += clock() - t0
        was_full = was_full or policy.is_full
    return spent, bad


def traced_peak_mb(function, *args):
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def run_traced(workload, seed, seconds, out_dir):
    """Profile rounds until `seconds` pass; medians of the per-round figures."""
    spans = Spans(workload.name)
    origin = time.perf_counter()
    spec = workload.spec(seed)
    generated = cachelab.parse_workload(spec).generate()
    trace = (cachelab.parse_trace(cachelab.format_trace(generated)) if workload.from_file
             else generated)
    facts = gather_facts(workload.cache_size, "traced:" + spec, trace)
    rounds = []
    problems = []
    attempted = failed = 0
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds:
        metrics, found, (checked, failed_now) = profile_round(spans, workload, seed, facts)
        rounds.append(metrics)
        attempted += checked
        failed += failed_now
        problems.extend(found)
    with spans.span("tracemalloc.belady_run"):
        opt_peak = traced_peak_mb(cachelab.belady_run, trace, workload.cache_size)
    with spans.span("tracemalloc.lockstep.arc"):
        lockstep_peak = traced_peak_mb(analysis.run_lockstep, trace, workload.cache_size, "arc")

    values = {name: statistics.median(r[name] for r in rounds)
              for name, _, _ in PER_LAYER if name in rounds[0]}
    values["opt.peak_traced_mb"] = opt_peak
    values["analysis.lockstep_peak_traced_mb"] = lockstep_peak
    for problem in problems[:20]:
        print("FAIL " + problem, file=sys.stderr)
    records = spans.with_self_times(origin)
    path = out_dir / ("spans-%s-seed%d.json" % (workload.name, seed))
    path.write_text(json.dumps({"workload": workload.name, "seed": seed,
                                "rounds": len(rounds), "spans": records}, indent=1))
    summarize(workload.name, records, len(rounds), path)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return not problems, attempted, failed, values, units


def summarize(workload, records, rounds, path):
    """Print total and self time per span name, the time of the calls the
    workload's own CLI commands make, and the lockstep split."""
    totals = {}
    for r in records:
        entry = totals.setdefault(r["name"], [0, 0.0, 0.0])
        entry[0] += r.get("calls", 1)
        entry[1] += duration(r)
        entry[2] += r["self_s"]
    print("traced run: %d round(s), spans in %s" % (rounds, path))
    print("  %-42s %9s %10s %10s" % ("span", "calls", "total_s", "self_s"))
    for name, (calls, total, own) in totals.items():
        print("  %-42s %9d %10.4f %10.4f" % (name, calls, total, own))
    own_path = sum(duration(r) for r in records for name, prefix in OWN_PATH[workload]
                   if r["name"] == name and (prefix is None or r["detail"].startswith(prefix)))
    print("  per round, the calls %s's CLI commands make take %.4f s"
          % (workload, own_path / rounds))
    for policy in LOCKSTEP_POLICIES:
        plain = totals["analysis.lockstep." + policy][1] / rounds
        split = (totals["analysis.lockstep_split." + policy][1]
                 + totals["opt.belady_run"][1]) / rounds
        print("  per round, run_lockstep for %s takes %.4f s; belady_run, request, potential"
              " and digest %.4f s of that; the rest is LockstepEntry bookkeeping"
              % (policy, plain, split))
