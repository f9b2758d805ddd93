"""Run orchestration: trace parsing, simulation, verification, reports."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .analysis import (
    ADAPT_UNIT,
    DEFAULT_BOUND_MULTIPLIER,
    car_step_report,
    check_aggregate_bound,
    check_arc_eviction_audit,
    check_arc_structure,
    check_car_invariants,
    check_step_inequalities,
    make_policy,
    partition_phases,
    run_lockstep,
)
from .opt import belady_run

ALL_CHECKS = ("invariants", "potential", "lemmas")


class TraceParseError(ValueError):
    pass


# characters that policy digests use as syntax; a token holding one would
# render ambiguously (the token "5*" looks like a marked page 5)
RESERVED_TOKEN_CHARS = "*,[]"


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

    checks is a subset of {"invariants", "potential", "lemmas"}:
    invariants audits structural state every request (CAR's seven, ARC's
    structure); potential replays in lockstep with the oracle and applies
    the per-step and aggregate bound checks; lemmas adds the ARC eviction
    audit. CAR per-step findings are observational and only flip the
    report's hard_failure when fail_on_car_step is set.
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

    violations = {}
    hard = False
    needs_lockstep = bool(checks & {"potential", "lemmas"})
    if needs_lockstep:
        log = run_lockstep(trace, capacity, name, adaptation)
        misses = log.c_alg_total
        opt_misses = log.c_opt_total
        checkable = not (log.policy_kind == "LRU"
                         or (log.policy_kind == "ARC" and log.adaptation != ADAPT_UNIT))
        # the aggregate bound needs costs only; it applies to LRU as well,
        # just not to the ratio-adaptation ARC variant
        aggregate_applies = not (log.policy_kind == "ARC" and log.adaptation != ADAPT_UNIT)
        if "potential" in checks and checkable:
            if log.policy_kind == "CAR":
                step = car_step_report(log)
                for check, count in step.counts().items():
                    violations[check] = violations.get(check, 0) + count
                if fail_on_car_step and not step.ok:
                    hard = True
            else:
                step = check_step_inequalities(log)
                for check, count in step.counts().items():
                    violations[check] = violations.get(check, 0) + count
                if not step.ok:
                    hard = True
        if "lemmas" in checks and log.policy_kind == "ARC" and checkable:
            audit = check_arc_eviction_audit(log)
            for check, count in audit.counts().items():
                violations[check] = violations.get(check, 0) + count
            if not audit.ok:
                hard = True
        if "potential" in checks and aggregate_applies:
            c = DEFAULT_BOUND_MULTIPLIER[log.policy_kind]
            if not check_aggregate_bound(misses, opt_misses, capacity, c):
                violations["aggregate_bound"] = violations.get("aggregate_bound", 0) + 1
                hard = True
        miss_flags = log.miss_flags()
    else:
        policy = make_policy(name, capacity, adaptation)
        miss_flags = []
        for page in trace:
            miss_flags.append(not policy.request(page).was_hit)
        misses = sum(miss_flags)
        opt_misses = None

    if "invariants" in checks:
        policy = make_policy(name, capacity, adaptation)
        was_full = False
        bad = 0
        for page in trace:
            policy.request(page)
            if name == "car":
                state = check_car_invariants(policy, was_full)
            elif name == "arc":
                state = check_arc_structure(policy, was_full)
            else:
                state = None
            if state is not None and not state.ok:
                bad += len(state.violations)
            was_full = was_full or policy.is_full
        if bad:
            violations["state_invariants"] = bad
            hard = True

    total = len(trace)
    hits = total - misses
    return RunReport(
        policy=name,
        adaptation=adaptation if name == "arc" else None,
        cache_size=capacity,
        trace=label,
        requests=total,
        hits=hits,
        misses=misses,
        hit_ratio=Fraction(hits, total) if total else None,
        opt_misses=opt_misses,
        miss_to_opt_ratio=(
            Fraction(misses, opt_misses) if opt_misses else None
        ),
        complete_phases=len([p for p in partition_phases(miss_flags, capacity) if p.complete]),
        violations=violations,
        hard_failure=hard,
    )


def verify_trace(policy_name, capacity, trace, adaptation=ADAPT_UNIT,
                 trace_label=None, fail_on_car_step=False):
    """Full verification of one policy run: lockstep replay, per-step
    bound checks, structural invariants, the ARC eviction audit, and the
    aggregate bound, with every violation carrying reproducing state.

    Returns (report_dict, hard_failure). The dict is JSON-ready and
    deterministic for fixed inputs.
    """
    name = policy_name.lower()
    label = trace_label if trace_label is not None else "inline:%d" % len(trace)
    log = run_lockstep(trace, capacity, name, adaptation)
    kind = log.policy_kind
    checkable = not (kind == "LRU" or (kind == "ARC" and log.adaptation != ADAPT_UNIT))
    result = {
        "policy": name,
        "adaptation": log.adaptation,
        "cache_size": capacity,
        "trace": label,
        "requests": len(trace),
        "policy_misses": log.c_alg_total,
        "opt_misses": log.c_opt_total,
        "checks": {},
    }
    hard = False

    if checkable:
        if kind == "CAR":
            step = car_step_report(log)
            mode = "report-only" if not fail_on_car_step else "asserted"
            if fail_on_car_step and not step.ok:
                hard = True
        else:
            step = check_step_inequalities(log)
            mode = "asserted"
            if not step.ok:
                hard = True
        result["checks"]["step"] = {
            "mode": mode,
            "bound_multiplier": DEFAULT_BOUND_MULTIPLIER[kind],
            "violation_count": len(step.violations),
            "violations": step.to_dicts(),
        }
        if kind == "ARC":
            audit = check_arc_eviction_audit(log)
            result["checks"]["eviction_audit"] = {
                "violation_count": len(audit.violations),
                "violations": audit.to_dicts(),
            }
            if not audit.ok:
                hard = True

    if not (kind == "ARC" and log.adaptation != ADAPT_UNIT):
        c = DEFAULT_BOUND_MULTIPLIER[kind]
        holds = check_aggregate_bound(log.c_alg_total, log.c_opt_total, capacity, c)
        result["checks"]["aggregate"] = {
            "bound_multiplier": c,
            "lhs": log.c_alg_total,
            "rhs": c * capacity * log.c_opt_total + c * capacity,
            "additive_constant": c * capacity,
            "final_potential": log.entries[-1].phi_after_alg if log.entries else 0,
            "holds": holds,
        }
        if not holds:
            hard = True

    if name in ("car", "arc"):
        policy = make_policy(name, capacity, adaptation)
        was_full = False
        state_violations = []
        for i, page in enumerate(trace):
            policy.request(page)
            check = check_car_invariants if name == "car" else check_arc_structure
            found = check(policy, was_full)
            for v in found.violations:
                d = v.to_dict()
                d["index"] = i
                state_violations.append(d)
            was_full = was_full or policy.is_full
        result["checks"]["state_invariants"] = {
            "violation_count": len(state_violations),
            "violations": state_violations,
        }
        if state_violations:
            hard = True

    result["hard_failure"] = hard
    return result, hard


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
