"""Run orchestration: trace parsing, simulation, verification, reports."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .analysis import (
    ADAPT_UNIT,
    ALL_CHECKS,
    make_policy,
    partition_phases,
    run_checks,
)
from .core import RESERVED_TOKEN_CHARS
from .opt import belady_run


class TraceParseError(ValueError):
    pass


def parse_trace(data):
    """Tokens of a trace file: whitespace separated, '#' lines are
    comments, blank lines are skipped. Accepts bytes or str; invalid
    UTF-8 raises TraceParseError naming the byte offset, and a token
    containing one of RESERVED_TOKEN_CHARS raises it naming the token
    and its line."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceParseError(
                "trace is not valid UTF-8 at byte offset %d" % exc.start
            ) from exc
    else:
        text = data
    # comments may hold reserved characters; scan tokens only if the text does
    check_reserved = any(c in text for c in RESERVED_TOKEN_CHARS)
    tokens = []
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        words = stripped.split()
        if check_reserved:
            for word in words:
                if any(c in word for c in RESERVED_TOKEN_CHARS):
                    raise TraceParseError(
                        "trace token %r on line %d contains one of the reserved characters %s"
                        % (word, number, RESERVED_TOKEN_CHARS)
                    )
        tokens.extend(words)
    return tokens


def format_trace(trace):
    """Render a trace in the text format parse_trace reads back."""
    return "\n".join(str(p) for p in trace) + ("\n" if len(trace) else "")


def _fraction_str(value):
    if value is None:
        return None
    return "%d/%d" % (value.numerator, value.denominator)


@dataclass
class RunReport:
    """Summary of one policy run over one trace."""

    policy: str
    adaptation: str | None
    cache_size: int
    trace: str
    requests: int
    hits: int
    misses: int
    hit_ratio: Fraction | None
    opt_misses: int | None = None
    miss_to_opt_ratio: Fraction | None = None
    complete_phases: int | None = None
    violations: dict = field(default_factory=dict)
    hard_failure: bool = False

    def to_dict(self):
        return {
            "policy": self.policy,
            "adaptation": self.adaptation,
            "cache_size": self.cache_size,
            "trace": self.trace,
            "requests": self.requests,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": _fraction_str(self.hit_ratio),
            "opt_misses": self.opt_misses,
            "miss_to_opt_ratio": _fraction_str(self.miss_to_opt_ratio),
            "complete_phases": self.complete_phases,
            "violations": dict(sorted(self.violations.items())),
            "hard_failure": self.hard_failure,
        }


def _opt_report(trace, capacity, label):
    schedule = belady_run(trace, capacity)
    misses = schedule.miss_count
    total = len(trace)
    hits = total - misses
    return RunReport(
        policy="opt",
        adaptation=None,
        cache_size=capacity,
        trace=label,
        requests=total,
        hits=hits,
        misses=misses,
        hit_ratio=Fraction(hits, total) if total else None,
        opt_misses=misses,
        miss_to_opt_ratio=Fraction(1) if misses else None,
        complete_phases=len([p for p in partition_phases(schedule.miss_flags(), capacity) if p.complete]),
    )


def run_simulation(policy_name, capacity, trace, adaptation=ADAPT_UNIT,
                   checks=(), trace_label=None, fail_on_car_step=False):
    """Run one policy over a trace, optionally with verification checks.

    checks is a subset of {"invariants", "potential", "lemmas"}; any of
    them runs the trace through analysis.run_checks (see there), and the
    report counts its violations per check. CAR per-step findings are
    observational and only flip the report's hard_failure when
    fail_on_car_step is set.
    """
    if capacity < 1:
        raise ValueError("cache size must be at least 1, got %r" % (capacity,))
    checks = set(checks)
    unknown = checks - set(ALL_CHECKS)
    if unknown:
        raise ValueError("unknown checks: %s" % ", ".join(sorted(map(str, unknown))))
    label = trace_label if trace_label is not None else "inline:%d" % len(trace)
    name = policy_name.lower()
    if name == "opt":
        return _opt_report(trace, capacity, label)

    if checks:
        run = run_checks(trace, capacity, name, adaptation, checks, fail_on_car_step)
        miss_flags, opt_misses, adaptation = run.miss_flags, run.opt_misses, run.spec.adaptation
        violations, hard = run.violation_counts(), run.hard_failure
    else:
        policy = make_policy(name, capacity, adaptation)
        miss_flags = []
        for page in trace:
            miss_flags.append(not policy.request(page).was_hit)
        opt_misses, adaptation = None, policy.adaptation
        violations, hard = {}, False

    total = len(trace)
    misses = sum(miss_flags)
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
        complete_phases=len([p for p in partition_phases(miss_flags, capacity) if p.complete]),
        violations=violations,
        hard_failure=hard,
    )


def _listing(report):
    return {"violation_count": len(report.violations), "violations": report.to_dicts()}


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
    checks = {}
    if run.step is not None:
        checks["step"] = {"mode": "asserted" if run.step_asserted else "report-only",
                          "bound_multiplier": c, **_listing(run.step)}
    if run.eviction_audit is not None:
        checks["eviction_audit"] = _listing(run.eviction_audit)
    if run.aggregate_holds is not None:
        checks["aggregate"] = {
            "bound_multiplier": c,
            "lhs": misses,
            "rhs": c * capacity * run.opt_misses + c * capacity,
            "additive_constant": c * capacity,
            "final_potential": run.final_potential,
            "holds": run.aggregate_holds,
        }
    if run.state is not None:
        checks["state_invariants"] = _listing(run.state)
    result = {
        "policy": name,
        "adaptation": run.spec.adaptation,
        "cache_size": capacity,
        "trace": label,
        "requests": len(trace),
        "policy_misses": misses,
        "opt_misses": run.opt_misses,
        "checks": checks,
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
    list; rationals render exactly as "p/q". The CSV header is fixed.
    Tables sort rows by hit ratio, best first.
    """
    single = isinstance(reports, RunReport)
    items = [reports] if single else list(reports)
    if fmt == "json":
        payload = items[0].to_dict() if single else [r.to_dict() for r in items]
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in items:
            writer.writerow([
                r.policy,
                r.adaptation or "",
                r.cache_size,
                r.trace,
                r.requests,
                r.hits,
                r.misses,
                _fraction_str(r.hit_ratio) or "",
                r.opt_misses if r.opt_misses is not None else "",
                _fraction_str(r.miss_to_opt_ratio) or "",
                r.complete_phases if r.complete_phases is not None else "",
                sum(r.violations.values()),
            ])
        return buf.getvalue()
    if fmt == "table":
        rows = sorted(
            items,
            key=lambda r: (-(r.hit_ratio if r.hit_ratio is not None else Fraction(-1)),
                           r.policy),
        )
        header = ["policy", "n", "requests", "hits", "misses", "hit_ratio",
                  "opt_misses", "violations"]
        body = []
        for r in rows:
            name = r.policy if not r.adaptation else "%s(%s)" % (r.policy, r.adaptation)
            body.append([
                name,
                str(r.cache_size),
                str(r.requests),
                str(r.hits),
                str(r.misses),
                _fraction_str(r.hit_ratio) or "-",
                str(r.opt_misses) if r.opt_misses is not None else "-",
                str(sum(r.violations.values())),
            ])
        widths = [max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
                  for i in range(len(header))]
        lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
        for row in body:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        return "\n".join(lines) + "\n"
    raise ValueError("unknown report format %r" % (fmt,))
