"""Run orchestration: simulation, verification and reports."""

from __future__ import annotations

import io
import json
from fractions import Fraction

from .analysis import ADAPT_UNIT, run_checks
from .core import check_capacity
from .opt import belady_run


def _fraction_str(value):
    if value is None:
        return None
    return "%d/%d" % (value.numerator, value.denominator)


class RunReport:
    """Summary of one policy run over one trace. Mutable: compare fills in
    opt_misses and miss_to_opt_ratio once the oracle has run."""

    def __init__(self, policy, adaptation, cache_size, trace, requests, hits, misses,
                 hit_ratio, opt_misses=None, miss_to_opt_ratio=None, complete_phases=None,
                 violations=None, hard_failure=False):
        self.policy = policy
        self.adaptation = adaptation
        self.cache_size = cache_size
        self.trace = trace
        self.requests = requests
        self.hits = hits
        self.misses = misses
        self.hit_ratio = hit_ratio
        self.opt_misses = opt_misses
        self.miss_to_opt_ratio = miss_to_opt_ratio
        self.complete_phases = complete_phases
        self.violations = {} if violations is None else violations
        self.hard_failure = hard_failure

    def to_dict(self):
        return dict(vars(self), hit_ratio=_fraction_str(self.hit_ratio),
                    miss_to_opt_ratio=_fraction_str(self.miss_to_opt_ratio),
                    violations=dict(sorted(self.violations.items())))


def run_simulation(policy_name, capacity, trace, adaptation=ADAPT_UNIT,
                   checks=(), trace_label=None, fail_on_car_step=False):
    """Run one policy over a trace, optionally with verification checks.

    Every policy runs through analysis.run_checks (see there), which
    rejects a check name outside ALL_CHECKS; the report counts the
    violations per check. CAR per-step findings are observational and
    only flip the report's hard_failure when fail_on_car_step is set.
    The policy "opt" is the oracle itself: it reads belady_run's miss
    count, and asking it for checks raises ValueError.
    """
    check_capacity(capacity)
    label = trace_label if trace_label is not None else "inline:%d" % len(trace)
    name = policy_name.lower()
    if name == "opt":
        for flag, given in (("--checks", checks), ("--fail-on-car-step", fail_on_car_step)):
            if given:
                raise ValueError("policy opt is the oracle and runs no checks; drop %s" % flag)
        misses = opt_misses = belady_run(trace, capacity).miss_count
        adaptation, violations, hard = None, {}, False
    else:
        run = run_checks(trace, capacity, name, adaptation, checks, fail_on_car_step)
        misses, opt_misses, adaptation = sum(run.miss_flags), run.opt_misses, run.spec.adaptation
        violations, hard = run.violation_counts(), run.hard_failure

    total = len(trace)
    hits = total - misses
    return RunReport(
        policy=name,
        adaptation=adaptation,
        cache_size=capacity,
        trace=label,
        requests=total,
        hits=hits,
        misses=misses,
        hit_ratio=Fraction(hits, total) if total else None,
        opt_misses=opt_misses,
        miss_to_opt_ratio=Fraction(misses, opt_misses) if opt_misses else None,
        complete_phases=misses // capacity,  # a phase closes on every capacity-th miss
        violations=violations,
        hard_failure=hard,
    )


def verify_trace(policy_name, capacity, trace, adaptation=ADAPT_UNIT,
                 trace_label=None, fail_on_car_step=False):
    """Full verification of one policy run: every check of
    analysis.run_checks (per-step bounds, the ARC eviction audit, the
    aggregate bound, structural invariants) in one lockstep pass, with
    every violation carrying reproducing state.

    Returns (report_dict, hard_failure). The dict is JSON-ready and
    deterministic for fixed inputs.
    """
    name = policy_name.lower()
    label = trace_label if trace_label is not None else "inline:%d" % len(trace)
    run = run_checks(trace, capacity, name, adaptation, fail_on_car_step=fail_on_car_step)
    misses = sum(run.miss_flags)
    c = run.spec.bound
    blocks = ({}, {})  # the plan's reports before the aggregate block, and after it
    for planned, report in zip(run.plan, run.reports.values()):
        blocks[planned.after_aggregate][planned.name] = dict(
            planned.head, violation_count=len(report.violations), violations=report.to_dicts())
    if run.aggregate_holds is not None:
        blocks[0]["aggregate"] = {
            "bound_multiplier": c,
            "lhs": misses,
            "rhs": c * capacity * run.opt_misses + c * capacity,
            "additive_constant": c * capacity,
            "final_potential": run.final_potential,
            "holds": run.aggregate_holds,
        }
    result = {
        "policy": name,
        "adaptation": run.spec.adaptation,
        "cache_size": capacity,
        "trace": label,
        "requests": len(trace),
        "policy_misses": misses,
        "opt_misses": run.opt_misses,
        "checks": {**blocks[0], **blocks[1]},
        "hard_failure": run.hard_failure,
    }
    return result, run.hard_failure


# ---------------------------------------------------------------------------
# report emission

CSV_HEADER = [
    "policy", "adaptation", "cache_size", "trace", "requests", "hits",
    "misses", "hit_ratio", "opt_misses", "miss_to_opt_ratio",
    "complete_phases", "violation_count",
]


def emit_report(reports, fmt="table"):
    """Render one report or a list of them as json, csv or table text.

    JSON emits a single object for a single report and an array for a
    list; rationals render exactly as "p/q". CSV and table rows project
    the JSON object's fields, None rendering as an empty cell or "-". The
    CSV header is fixed. Tables sort rows by hit ratio, best first.
    """
    single = isinstance(reports, RunReport)
    items = [reports] if single else list(reports)
    if fmt == "json":
        payload = items[0].to_dict() if single else [r.to_dict() for r in items]
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if fmt == "csv":
        import csv  # only this branch needs it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in items:
            # csv.writer renders None as an empty cell
            fields = r.to_dict()
            writer.writerow([fields[key] for key in CSV_HEADER[:-1]]
                            + [sum(r.violations.values())])
        return buf.getvalue()
    if fmt == "table":
        rows = sorted(
            items,
            key=lambda r: (-(r.hit_ratio if r.hit_ratio is not None else Fraction(-1)),
                           r.policy),
        )
        keys = ("cache_size", "requests", "hits", "misses", "hit_ratio", "opt_misses")
        header = ["policy", "n", *keys[1:], "violations"]
        body = []
        for r in rows:
            name = r.policy if not r.adaptation else "%s(%s)" % (r.policy, r.adaptation)
            fields = r.to_dict()
            cells = ["-" if fields[key] is None else str(fields[key]) for key in keys]
            body.append([name] + cells + [str(sum(r.violations.values()))])
        widths = [max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
                  for i in range(len(header))]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
        for row in body:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        return "\n".join(lines) + "\n"
    raise ValueError("unknown report format %r" % (fmt,))
