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
from .harness import emit_report, run_simulation, verify_trace
from .traces import TraceParseError, format_trace, parse_trace
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


def _add_run_args(sub, policies, adaptations):
    sub.add_argument("--policy", required=True, choices=policies)
    sub.add_argument("--adaptation", choices=adaptations,
                     help="arc target adaptation rule (default unit)")
    sub.add_argument("--cache-size", type=int, required=True, metavar="N")
    sub.add_argument("--fail-on-car-step", action="store_true",
                     help="treat CAR per-step findings as hard failures")


def _check_run_flags(args, checks):
    """Raise ValueError for a run flag the run would ignore: only a row
    with an adaptation rule takes --adaptation, and only a check plan with
    a report-only report --fail-on-car-step (opt's own error names it)."""
    if args.adaptation and args.policy not in {
            spec.name for spec in analysis.POLICY_TABLE if spec.adaptation}:
        raise ValueError("policy %s has no adaptation rule to choose; drop --adaptation"
                         % args.policy)
    if args.fail_on_car_step and args.policy != "opt" and all(
            planned.asserted for planned in analysis._check_plan(
                analysis._spec_named(args.policy, args.adaptation or ADAPT_UNIT), checks)):
        raise ValueError("policy %s has no CAR step findings to fail on; "
                         "drop --fail-on-car-step" % args.policy)


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(rows, run):
    """(reports, exc): run over rows until one raises exc, else exc is None."""
    reports = []
    try:
        for row in rows:
            reports.append(run(row))
    except BaseException as exc:  # _run_rows raises it again, in row order
        return reports, exc
    return reports, None


def _run_rows(rows, run):
    """[run(row) for row in rows], with the rows dealt round-robin to
    W = min(len(rows), usable CPUs) processes: this one runs share 0 and
    W - 1 forked children the others, each sending its reports back
    pickled through its own pipe. Without os.fork, with other threads
    running or on one CPU it is that loop in this process. Either way it
    raises what the loop raises: the exception of the first failing row.
    A child that dies without a result fails its share's first row with
    an OSError naming its exit status."""
    import threading

    workers = min(len(rows), _usable_cpus())
    if workers <= 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [run(row) for row in rows]
    import gc
    import pickle
    import signal

    shares = [rows[share::workers] for share in range(workers)]
    outcomes = {}  # share -> (reports, exc), as _run_share returns it
    children = {}  # share -> (pid, read end of its pipe), until reaped
    try:
        gc.freeze()  # the children neither copy nor collect what exists now
        try:
            for share in range(1, workers):
                read_end, write_end = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # this process runs the share itself
                    os.close(read_end)
                    os.close(write_end)
                    continue
                if pid == 0:
                    # the write end stays open only here, so a dead child reads as EOF
                    os.close(read_end)
                    for _, pipe in children.values():
                        pipe.close()
                    status = 1
                    try:
                        data = pickle.dumps(_run_share(shares[share], run))
                        with open(write_end, "wb") as pipe:
                            pipe.write(data)
                        status = 0
                    finally:
                        os._exit(status)
                os.close(write_end)
                children[share] = (pid, open(read_end, "rb"))
        finally:
            gc.unfreeze()
        for share in range(workers):
            if share not in children:
                outcomes[share] = _run_share(shares[share], run)
        for share, (pid, pipe) in list(children.items()):
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[share]
            if code == 0:
                outcomes[share] = pickle.loads(data)
            else:
                outcomes[share] = [], OSError(
                    "compare worker process %s without sending its rows"
                    % ("exited with status %d" % code if code > 0
                       else "was killed by signal %d" % -code))
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    reports = [None] * len(rows)
    failures = []
    for share, (done, exc) in outcomes.items():
        reports[share:share + workers * len(done):workers] = done
        if exc is not None:
            failures.append((share + workers * len(done), exc))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return reports


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
    _add_run_args(simulate, policies + ("opt",), adaptations)
    simulate.add_argument("--checks", default="",
                          help="comma list from: " + ",".join(analysis.ALL_CHECKS))
    simulate.add_argument("--format", choices=FORMATS, default=None)
    _add_trace_args(simulate)

    compare = sub.add_parser("compare", help="run all policies plus the optimum on one trace")
    compare.add_argument("--cache-size", type=int, required=True, metavar="N")
    compare.add_argument("--format", choices=FORMATS, default=None)
    _add_trace_args(compare)

    verify = sub.add_parser("verify", help="lockstep replay with all checkers; emits JSON")
    _add_run_args(verify, policies, adaptations)
    verify.set_defaults(checks=",".join(analysis.ALL_CHECKS))
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

        if args.command in ("simulate", "verify"):
            checks = tuple(name for name in map(str.strip, args.checks.split(",")) if name)
            _check_run_flags(args, checks)
        trace, label = _load_trace(args)

        if args.command == "simulate":
            fmt = args.format or _default_format()  # before the replay, to fail fast
            report = run_simulation(
                args.policy, args.cache_size, trace,
                adaptation=args.adaptation or ADAPT_UNIT, checks=checks, trace_label=label,
                fail_on_car_step=args.fail_on_car_step,
            )
            sys.stdout.write(emit_report(report, fmt))
            return 1 if report.hard_failure else 0

        if args.command == "compare":
            fmt = args.format or _default_format()
            rows = [(spec.name, spec.adaptation) for spec in analysis.POLICY_TABLE]
            reports = _run_rows(rows + [("opt", None)], lambda row: run_simulation(
                row[0], args.cache_size, trace, adaptation=row[1], trace_label=label))
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
                adaptation=args.adaptation or ADAPT_UNIT, trace_label=label,
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
