"""Command-line interface.

Subcommands: simulate (one policy over one trace), compare (every policy
plus the offline optimum on one trace), verify (lockstep replay with all
checkers), gen-trace (write a generated workload as a trace file).
Identical inputs and flags produce byte-identical output; the exit status
is nonzero when any asserted check fails, and 130 on Ctrl-C.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import analysis
from .analysis import ADAPT_UNIT
from .core import TraceParseError, format_trace, parse_trace
from .harness import emit_report, run_simulation, verify_trace
from .workloads import parse_workload

FORMAT_ENV_VAR = "CACHELAB_FORMAT"
FORMATS = ("json", "csv", "table")


def _default_format():
    value = os.environ.get(FORMAT_ENV_VAR) or "table"
    if value.lower() not in FORMATS:
        raise ValueError("%s must be %s or %s, got %r"
                         % (FORMAT_ENV_VAR, ", ".join(FORMATS[:-1]), FORMATS[-1], value))
    return value.lower()


def _add_trace_args(sub):
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="trace file of whitespace-separated tokens, or '-' for stdin")
    src.add_argument("--workload", help="generator spec, e.g. zipf:universe=100,alpha=0.8,length=1000,seed=42")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for --workload specs that omit seed= (default 0)")


def _load_trace(args):
    if args.workload is not None:
        spec = parse_workload(args.workload, default_seed=args.seed)
        return spec.generate(), "workload:%s" % spec.descriptor()
    if args.trace == "-":
        return parse_trace(sys.stdin.buffer.read()), "stdin"
    with open(args.trace, "rb") as handle:
        data = handle.read()
    return parse_trace(data), "file:%s" % args.trace


def build_parser():
    # choices follow analysis.POLICY_TABLE, in row order
    table = analysis.POLICY_TABLE
    policies = tuple(dict.fromkeys(spec.name for spec in table))
    adaptations = tuple(dict.fromkeys(spec.adaptation for spec in table if spec.adaptation))
    parser = argparse.ArgumentParser(
        prog="cachelab",
        description="Trace-driven cache replacement laboratory with an "
                    "offline-optimal oracle and per-request bound checking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="run one policy over a trace")
    simulate.add_argument("--policy", required=True, choices=policies + ("opt",))
    simulate.add_argument("--adaptation", choices=adaptations, default=ADAPT_UNIT,
                          help="arc target adaptation rule (default unit)")
    simulate.add_argument("--cache-size", type=int, required=True, metavar="N")
    simulate.add_argument("--checks", default="",
                          help="comma list from: " + ",".join(analysis.ALL_CHECKS))
    simulate.add_argument("--fail-on-car-step", action="store_true",
                          help="treat CAR per-step findings as hard failures")
    simulate.add_argument("--format", choices=FORMATS, default=None)
    _add_trace_args(simulate)

    compare = sub.add_parser("compare", help="run all policies plus the optimum on one trace")
    compare.add_argument("--cache-size", type=int, required=True, metavar="N")
    compare.add_argument("--format", choices=FORMATS, default=None)
    _add_trace_args(compare)

    verify = sub.add_parser("verify", help="lockstep replay with all checkers; emits JSON")
    verify.add_argument("--policy", required=True, choices=policies)
    verify.add_argument("--adaptation", choices=adaptations, default=ADAPT_UNIT)
    verify.add_argument("--cache-size", type=int, required=True, metavar="N")
    verify.add_argument("--fail-on-car-step", action="store_true")
    _add_trace_args(verify)

    gen = sub.add_parser("gen-trace", help="write a generated workload as trace text")
    gen.add_argument("--workload", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="-", help="output file, '-' for stdout (default)")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen-trace":
            spec = parse_workload(args.workload, default_seed=args.seed)
            text = format_trace(spec.generate())
            if args.out == "-":
                sys.stdout.write(text)
            else:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text)
            return 0

        trace, label = _load_trace(args)

        if args.command == "simulate":
            fmt = args.format or _default_format()  # before the replay, to fail fast
            checks = tuple(name for name in map(str.strip, args.checks.split(",")) if name)
            report = run_simulation(
                args.policy, args.cache_size, trace,
                adaptation=args.adaptation, checks=checks, trace_label=label,
                fail_on_car_step=args.fail_on_car_step,
            )
            sys.stdout.write(emit_report(report, fmt))
            return 1 if report.hard_failure else 0

        if args.command == "compare":
            fmt = args.format or _default_format()
            reports = []
            runs = [(spec.name, spec.adaptation) for spec in analysis.POLICY_TABLE]
            for policy, adaptation in runs + [("opt", None)]:
                report = run_simulation(
                    policy, args.cache_size, trace, adaptation=adaptation, trace_label=label,
                )
                reports.append(report)
            opt_misses = reports[-1].misses  # the opt run comes last
            for report in reports:
                if report.opt_misses is None:
                    report.opt_misses = opt_misses
                    if opt_misses:
                        report.miss_to_opt_ratio = Fraction(report.misses, opt_misses)
            sys.stdout.write(emit_report(reports, fmt))
            return 0

        if args.command == "verify":
            result, hard = verify_trace(
                args.policy, args.cache_size, trace,
                adaptation=args.adaptation, trace_label=label,
                fail_on_car_step=args.fail_on_car_step,
            )
            sys.stdout.write(json.dumps(result, indent=2, sort_keys=False) + "\n")
            return 1 if hard else 0
    except (TraceParseError, ValueError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except KeyboardInterrupt:
        sys.stderr.write("error: interrupted\n")
        return 130


if __name__ == "__main__":
    sys.exit(main())
