import contextlib
import fcntl
import io
import json
import os
import signal
import stat
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from cachelab import analysis, cli, workloads
from cachelab.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_trace_then_simulate(tmp_path, capsys):
    path = tmp_path / "trace.txt"
    code, out, _ = run_cli(capsys, "gen-trace", "--workload", "cycle:k=3,length=7",
                           "--out", str(path))
    assert code == 0
    assert path.read_text() == "0\n1\n2\n0\n1\n2\n0\n"

    code, out, _ = run_cli(capsys, "simulate", "--policy", "lru", "--cache-size", "2",
                           "--trace", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["requests"] == 7
    assert report["misses"] == 7


def test_simulate_workload_json(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--policy", "arc", "--cache-size", "4",
                           "--workload", "fuzz:universe=8,length=200,seed=5",
                           "--checks", "potential,invariants,lemmas",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["policy"] == "arc"
    assert report["violations"] == {}


def test_compare_table(capsys):
    code, out, _ = run_cli(capsys, "compare", "--cache-size", "3",
                           "--workload", "zipf:universe=12,alpha=0.9,length=300,seed=2",
                           "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:2] == ["policy", "n"]
    assert lines[1].startswith("opt")  # the oracle tops the hit-ratio ordering
    assert len(lines) == 7  # header + 6 policies


def test_compare_csv_deterministic(capsys):
    args = ("compare", "--cache-size", "2",
            "--workload", "fuzz:universe=6,length=120,seed=9", "--format", "csv")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_emits_json_and_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--policy", "clock", "--cache-size", "3",
                           "--workload", "fuzz:universe=9,length=400,seed=11")
    assert code == 0
    result = json.loads(out)
    assert result["checks"]["step"]["violation_count"] == 0


def test_verify_car_reports_but_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--policy", "car", "--cache-size", "8",
                           "--workload", "fuzz:universe=16,length=600,seed=1007")
    assert code == 0
    result = json.loads(out)
    assert result["checks"]["step"]["mode"] == "report-only"


def test_verify_car_fail_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--policy", "car", "--cache-size", "8",
                           "--workload", "fuzz:universe=16,length=600,seed=1007",
                           "--fail-on-car-step")
    result = json.loads(out)
    expected = 1 if result["checks"]["step"]["violation_count"] else 0
    assert code == expected


@pytest.mark.parametrize("spaced", ["invariants, potential", " potential", "lemmas ,potential "])
def test_checks_names_are_stripped(capsys, spaced):
    argv = ["simulate", "--policy", "arc", "--cache-size", "3", "--format", "json",
            "--workload", "fuzz:universe=10,length=200,seed=5", "--checks"]
    code, out, err = run_cli(capsys, *argv, spaced)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *argv, spaced.replace(" ", "")) == (0, out, "")


@pytest.mark.parametrize("flags", [("--checks", "potential"), ("--checks", "invariants,lemmas"),
                                   ("--fail-on-car-step",)])
def test_opt_with_checks_exits_two(capsys, flags):
    code, out, err = run_cli(capsys, "simulate", "--policy", "opt", "--cache-size", "3",
                             "--workload", "cycle:k=4,length=20", *flags)
    assert (code, out) == (2, "")
    assert err == "error: policy opt is the oracle and runs no checks; drop %s\n" % flags[0]


RUN_FLAG_ERRORS = {
    "--adaptation": "policy %s has no adaptation rule to choose; drop --adaptation\n",
    "--fail-on-car-step": "policy %s has no CAR step findings to fail on; "
                          "drop --fail-on-car-step\n",
}


@pytest.mark.parametrize("command,policy,flags", [
    (command, policy, flags)
    for command in ("simulate", "verify")
    for policy, flags in [("lru", ("--adaptation", "unit")), ("clock", ("--adaptation", "ratio")),
                          ("car", ("--adaptation", "unit")), ("car", ("--adaptation", "ratio")),
                          ("lru", ("--fail-on-car-step",)), ("clock", ("--fail-on-car-step",)),
                          ("arc", ("--fail-on-car-step",)),
                          ("opt", ("--adaptation", "unit"))] + [
                             # CAR's checks without a step report: nothing to fail on
                             ("car", ("--fail-on-car-step", *checks))
                             for checks in [(), ("--checks", "invariants"), ("--checks", "lemmas"),
                                            ("--checks", "invariants,lemmas")]
                             if command == "simulate"]
    if command == "simulate" or policy != "opt"
])
def test_run_flags_the_policy_would_ignore_exit_two(capsys, command, policy, flags):
    code, out, err = run_cli(capsys, command, "--policy", policy, "--cache-size", "3",
                             "--workload", "cycle:k=4,length=20", *flags)
    assert (code, out) == (2, "")
    assert err == "error: " + RUN_FLAG_ERRORS[flags[0]] % policy


def test_unknown_checks_are_named_before_the_step_flag(capsys):
    code, out, err = run_cli(capsys, "simulate", "--policy", "car", "--cache-size", "3",
                             "--workload", "cycle:k=4,length=20", "--checks", "potental",
                             "--fail-on-car-step")
    assert (code, out, err) == (2, "", "error: unknown checks: potental\n")


def test_arc_without_adaptation_runs_unit(capsys):
    argv = ("verify", "--policy", "arc", "--cache-size", "3", "--workload", "cycle:k=4,length=20")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and json.loads(out)["adaptation"] == "unit"
    assert run_cli(capsys, *argv, "--adaptation", "unit") == (0, out, "")


def test_compare_exits_zero_where_car_has_step_findings(capsys):
    workload = "fuzz:universe=10,length=2000,seed=5"
    code, out, _ = run_cli(capsys, "verify", "--policy", "car", "--cache-size", "3",
                           "--workload", workload)
    assert code == 0 and json.loads(out)["checks"]["step"]["violation_count"] >= 1
    code, out, _ = run_cli(capsys, "compare", "--cache-size", "3", "--format", "json",
                           "--workload", workload)
    assert code == 0
    assert all(r["violations"] == {} and not r["hard_failure"] for r in json.loads(out))


def test_stdin_trace(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(b"1 2 1\n")})())
    code, out, _ = run_cli(capsys, "simulate", "--policy", "lru", "--cache-size", "2",
                           "--trace", "-", "--format", "json")
    assert code == 0
    assert json.loads(out)["hits"] == 1


def test_format_env_var_default(capsys, monkeypatch):
    monkeypatch.setenv("CACHELAB_FORMAT", "json")
    code, out, _ = run_cli(capsys, "simulate", "--policy", "lru", "--cache-size", "2",
                           "--workload", "cycle:k=3,length=6")
    assert code == 0
    json.loads(out)


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_format_env_var_unknown_exits_two(capsys, monkeypatch, command):
    def unexpected(*args, **kwargs):
        raise AssertionError("replayed the trace before rejecting the format")

    monkeypatch.setattr(cli, "run_simulation", unexpected)
    monkeypatch.setenv("CACHELAB_FORMAT", "yaml")
    argv = ["--cache-size", "2", "--workload", "cycle:k=3,length=6"]
    if command == "simulate":
        argv = ["--policy", "lru"] + argv
    code, out, err = run_cli(capsys, command, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: CACHELAB_FORMAT must be json, csv or table, got 'yaml'\n"


def test_format_env_var_is_case_insensitive(capsys, monkeypatch):
    monkeypatch.setenv("CACHELAB_FORMAT", "CSV")
    code, out, _ = run_cli(capsys, "simulate", "--policy", "lru", "--cache-size", "2",
                           "--workload", "cycle:k=3,length=6")
    assert code == 0
    assert out.startswith("policy,")


def test_unreadable_trace_exits_two(capsys):
    code, _, err = run_cli(capsys, "simulate", "--policy", "lru", "--cache-size", "2",
                           "--trace", "/nonexistent/trace.txt")
    assert code == 2
    assert "error:" in err


def test_bad_workload_exits_two(capsys):
    code, _, err = run_cli(capsys, "gen-trace", "--workload", "bogus:length=1")
    assert code == 2
    assert "error:" in err


def test_missing_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--policy", "lru"])
    assert exc.value.code == 2


@pytest.mark.parametrize("token", ["5*", "a,b", "[x", "y]"])
def test_ambiguous_trace_token_exits_two(tmp_path, capsys, token):
    path = tmp_path / "trace.txt"
    path.write_text("# header, with a comma*\n1 2\n3 %s 4\n" % token)
    code, out, err = run_cli(capsys, "simulate", "--policy", "clock", "--cache-size", "2",
                             "--trace", str(path))
    assert code == 2
    assert out == ""
    assert repr(token) in err
    assert "line 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_non_finite_alpha_exits_two(capsys, alpha):
    code, out, err = run_cli(capsys, "compare", "--cache-size", "4",
                             "--workload", "zipf:universe=10,alpha=%s,length=20,seed=1" % alpha)
    assert code == 2
    assert out == ""
    assert "alpha must be finite" in err


def test_repeated_workload_key_exits_two(capsys):
    code, out, err = run_cli(capsys, "simulate", "--policy", "lru", "--cache-size", "2",
                             "--workload", "cycle:k=3,length=5,k=4")
    assert code == 2
    assert out == ""
    assert "'k' is given more than once" in err


@pytest.mark.parametrize("spec,message", [
    ("cycle:k=3,length=", "workload cycle parameter 'length' must parse as int, got ''"),
    ("zipf:universe=10,alpha=x,length=20,seed=1",
     "workload zipf parameter 'alpha' must parse as float, got 'x'"),
    ("scan_mix:hot=0,scan=0,length=5,seed=1", "workload hot must be at least 1, got 0"),
    ("scan_mix:hot=4,scan=0,length=5,seed=1", "workload scan must be at least 1, got 0"),
    ("zipf:universe=10,alpha=-1,length=5,seed=1", "workload alpha must be non-negative, got -1.0"),
])
def test_bad_workload_value_names_its_key(capsys, spec, message):
    code, out, err = run_cli(capsys, "gen-trace", "--workload", spec)
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("command", [
    ("simulate", "--policy", "lru"), ("simulate", "--policy", "opt"), ("compare",),
    ("verify", "--policy", "clock"),
])
def test_cache_size_zero_exits_two_with_one_message(capsys, command):
    code, out, err = run_cli(capsys, *command, "--cache-size", "0",
                             "--workload", "cycle:k=3,length=10")
    assert code == 2
    assert out == ""
    assert err == "error: cache capacity must be a positive integer, got 0\n"


def test_interrupt_exits_130_with_one_line(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_simulation", interrupted)
    code, out, err = run_cli(capsys, "simulate", "--policy", "arc", "--cache-size", "4",
                             "--workload", "cycle:k=5,length=50")
    assert (code, out) == (130, "")
    assert err == "error: interrupted\n"


def test_byte_order_mark_leaves_the_report_alone(tmp_path, capsys):
    path = tmp_path / "trace.txt"
    reports = []
    for mark in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(mark + b"1 2 1 2\n")
        code, out, _ = run_cli(capsys, "simulate", "--policy", "lru", "--cache-size", "2",
                               "--trace", str(path), "--format", "json")
        assert code == 0
        reports.append(json.loads(out))
    assert reports[1] == reports[0]
    assert reports[1]["misses"] == 2


def test_negative_length_exits_two(capsys):
    code, out, err = run_cli(capsys, "compare", "--cache-size", "4",
                             "--workload", "zipf:universe=10,alpha=0.9,length=-5,seed=1")
    assert code == 2
    assert out == ""
    assert "length must be non-negative" in err


@pytest.mark.parametrize("spec", [
    "cycle:k=3,length=99999999999999999999",
    "zipf:universe=99999999999999999999,alpha=0.9,length=10,seed=1",
    "scan_mix:hot=4,scan=10000001,length=10,seed=1",
])
def test_oversized_workload_exits_two_without_generating(capsys, monkeypatch, spec):
    def unexpected(*args):
        raise AssertionError("an oversized workload was generated")

    for kind, (_, fields) in list(workloads._WORKLOAD_KINDS.items()):
        monkeypatch.setitem(workloads._WORKLOAD_KINDS, kind, (unexpected, fields))
    code, out, err = run_cli(capsys, "simulate", "--policy", "lru", "--cache-size", "2",
                             "--workload", spec)
    assert code == 2
    assert out == ""
    assert "must be at most 10000000" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# the policy table drives the choices and compare


def subcommand_choices(command, option):
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    return tuple(next(a for a in sub._actions if option in a.option_strings).choices)


def test_choices_follow_the_policy_table():
    names = tuple(dict.fromkeys(spec.name for spec in analysis.POLICY_TABLE))
    assert names == ("lru", "clock", "arc", "car")
    assert subcommand_choices("simulate", "--policy") == names + ("opt",)
    assert subcommand_choices("verify", "--policy") == names
    for command in ("simulate", "verify"):
        assert subcommand_choices(command, "--adaptation") == ("unit", "ratio")


def compare_rows(capsys, *argv):
    code, out, _ = run_cli(capsys, "compare", "--cache-size", "3", "--format", "json",
                           "--workload", "zipf:universe=12,alpha=0.9,length=300,seed=2", *argv)
    assert code == 0
    return json.loads(out)


def test_compare_rows_are_the_table_then_opt(capsys):
    rows = [(r["policy"], r["adaptation"]) for r in compare_rows(capsys)]
    assert rows == [(s.name, s.adaptation) for s in analysis.POLICY_TABLE] + [("opt", None)]


def test_an_added_row_reaches_the_cli(capsys, monkeypatch):
    lru = analysis.POLICY_TABLE[0]
    before = compare_rows(capsys)
    monkeypatch.setattr(analysis, "POLICY_TABLE",
                        analysis.POLICY_TABLE + (lru._replace(name="lru2"),))
    assert "lru2" in subcommand_choices("simulate", "--policy")
    assert "lru2" in subcommand_choices("verify", "--policy")
    after = compare_rows(capsys)
    assert [r["policy"] for r in after] == ["lru", "clock", "arc", "arc", "car", "lru2", "opt"]
    assert after[:5] + after[6:] == before
    assert after[5] == dict(before[0], policy="lru2")
    code, out, _ = run_cli(capsys, "verify", "--policy", "lru2", "--cache-size", "3",
                           "--workload", "cycle:k=4,length=40")
    assert code == 0 and json.loads(out)["checks"]["aggregate"]["bound_multiplier"] == 1

# ---------------------------------------------------------------------------
# compare deals its rows to one process per usable CPU

ROWS = [(spec.name, spec.adaptation) for spec in analysis.POLICY_TABLE] + [("opt", None)]


def with_cpus(monkeypatch, cpus):
    """Let compare see `cpus` usable CPUs; returns the list of the pids it forks."""
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forked


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("source", [
    ("--cache-size", "64", "--workload", "zipf:universe=1000,alpha=0.9,length=4000,seed=1"),
    ("--cache-size", "3", "--workload", "fuzz:universe=10,length=2000,seed=5"),
    ("--cache-size", "3", "--trace", "-"),
])
def test_compare_output_is_the_same_for_every_worker_count(capsys, monkeypatch, fmt, source):
    monkeypatch.setattr("sys.stdin", type("S", (), {"buffer": io.BytesIO(b"")})())
    argv = ("compare", "--format", fmt) + source
    with_cpus(monkeypatch, 1)
    serial = run_cli(capsys, *argv)
    assert serial[0] == 0 and serial[1] and not serial[2]
    for cpus in (2, 3, 6, 8):
        forked = with_cpus(monkeypatch, cpus)
        assert run_cli(capsys, *argv) == serial
        assert len(forked) == min(cpus, len(ROWS)) - 1
        assert_no_child_left()


def fail_on_rows(monkeypatch, failures):
    """Make cli.run_simulation call failures[row]() on the rows it names."""
    run_simulation = cli.run_simulation

    def run(policy, capacity, trace, adaptation=None, **kwargs):
        fail = failures.get(ROWS.index((policy, adaptation)))
        if fail is not None:
            fail()
        return run_simulation(policy, capacity, trace, adaptation=adaptation, **kwargs)

    monkeypatch.setattr(cli, "run_simulation", run)


def raiser(exc):
    def fail():
        raise exc
    return fail


@pytest.mark.parametrize("cpus", [1, 2, 3, 6])
@pytest.mark.parametrize("failures, code, err", [
    ({0: raiser(ValueError("row 0"))}, 2, "error: row 0\n"),
    ({1: raiser(ValueError("row 1"))}, 2, "error: row 1\n"),
    ({1: raiser(ValueError("row 1")), 2: raiser(ValueError("row 2"))}, 2, "error: row 1\n"),
    ({2: raiser(ValueError("row 2")), 5: raiser(OSError("row 5"))}, 2, "error: row 2\n"),
    ({1: raiser(KeyboardInterrupt)}, 130, "error: interrupted\n"),
])
def test_compare_raises_the_first_failing_rows_error(capsys, monkeypatch, cpus, failures,
                                                     code, err):
    fail_on_rows(monkeypatch, failures)
    with_cpus(monkeypatch, cpus)
    assert run_cli(capsys, "compare", "--cache-size", "3",
                   "--workload", "fuzz:universe=10,length=200,seed=5") == (code, "", err)
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3, 6])
def test_a_child_that_dies_without_its_rows_exits_two(capsys, monkeypatch, cpus):
    parent = os.getpid()

    def die():
        assert os.getpid() != parent, "row 1 ran in this process"
        os._exit(3)

    fail_on_rows(monkeypatch, {1: die})
    with_cpus(monkeypatch, cpus)
    assert run_cli(capsys, "compare", "--cache-size", "3",
                   "--workload", "fuzz:universe=10,length=200,seed=5") == (
        2, "", "error: compare worker process exited with status 3 without sending its rows\n")
    assert_no_child_left()


def test_an_interrupt_while_waiting_kills_and_reaps_the_children(capsys, monkeypatch):
    parent = os.getpid()

    def interrupted(signum, frame):
        raise KeyboardInterrupt

    def arm():  # row 0 is the whole of this process's share at 6 workers
        signal.setitimer(signal.ITIMER_REAL, 0.2)

    def hang():
        assert os.getpid() != parent, "row 1 ran in this process"
        time.sleep(60)

    fail_on_rows(monkeypatch, {0: arm, 1: hang})
    with_cpus(monkeypatch, 6)
    saved = signal.signal(signal.SIGALRM, interrupted)
    start = time.monotonic()
    try:
        result = run_cli(capsys, "compare", "--cache-size", "3",
                         "--workload", "fuzz:universe=10,length=200,seed=5")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, saved)
    assert result == (130, "", "error: interrupted\n")
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_each_write_end_is_open_only_in_its_own_child(capsys, monkeypatch, tmp_path):
    def pipe_ends():
        ends = {}
        for fd in range(3, 1024):
            try:
                mode = os.fstat(fd).st_mode
            except OSError:
                continue
            if stat.S_ISFIFO(mode):
                ends[fd] = fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_ACCMODE
        return ends

    before = pipe_ends()

    def record(row):
        def fail():  # fails nothing: notes the pipe ends open in the row's process
            new = sorted(mode for fd, mode in pipe_ends().items() if fd not in before)
            (tmp_path / str(row)).write_text(json.dumps([os.getpid(), new]))
        return fail

    fail_on_rows(monkeypatch, {row: record(row) for row in range(len(ROWS))})
    forked = with_cpus(monkeypatch, 3)
    code, _, _ = run_cli(capsys, "compare", "--cache-size", "3",
                         "--workload", "fuzz:universe=10,length=200,seed=5")
    assert code == 0 and len(forked) == 2
    seen = [json.loads((tmp_path / str(row)).read_text()) for row in range(len(ROWS))]
    for row, (pid, ends) in enumerate(seen):
        if row % 3 == 0:  # this process: the read end of each child's pipe
            assert (pid, ends) == (os.getpid(), [os.O_RDONLY] * 2)
        else:  # a child: its own write end alone
            assert (pid, ends) == (forked[row % 3 - 1], [os.O_WRONLY])
    assert_no_child_left()

# ---------------------------------------------------------------------------
# fuzzing: random argv from a small grammar, random trace bytes on stdin

def run_cli_isolated(argv, stdin_bytes):
    """main(argv) with stdin, stdout and stderr swapped out, returning
    (exit code, stdout, stderr); argparse's SystemExit becomes its code."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = type("S", (), {"buffer": io.BytesIO(stdin_bytes)})()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def mostly(valid, invalid):
    """Draw mostly from valid, sometimes from invalid."""
    return st.integers(min_value=0, max_value=7).flatmap(lambda i: invalid if i == 7 else valid)


JUNK = st.sampled_from(["-3", "-1", "0", "1.5", "x", "", "nan", "inf"])
# zipf precomputes a table over its universe and every generator builds
# its whole trace, so only the fields that size neither may be huge
SMALL = mostly(st.integers(min_value=1, max_value=8).map(str), JUNK)
SIZES = mostly(SMALL, st.just("99999999999999999999"))
LENGTHS = mostly(st.integers(min_value=0, max_value=500).map(str), JUNK)
WORKLOAD_FIELDS = {
    "cycle": {"k": SIZES, "length": LENGTHS},
    "fuzz": {"universe": SIZES, "length": LENGTHS, "seed": SIZES},
    "zipf": {"universe": SMALL, "alpha": mostly(st.sampled_from(["0", "0.5", "0.9", "1.2"]), JUNK),
             "length": LENGTHS, "seed": SIZES},
    "scan_mix": {"hot": SIZES, "scan": SIZES, "length": LENGTHS, "seed": SIZES},
}


@st.composite
def workload_specs(draw):
    kind = draw(mostly(st.sampled_from(sorted(WORKLOAD_FIELDS)), st.sampled_from(["bogus", ""])))
    fields = WORKLOAD_FIELDS.get(kind, WORKLOAD_FIELDS["zipf"])
    keys = [key for key in fields if draw(mostly(st.just(True), st.just(False)))]
    keys += draw(st.lists(st.sampled_from(["bogus", "length", ""]), max_size=1))
    parts = ["%s=%s" % (key, draw(fields.get(key, LENGTHS))) for key in keys]
    return kind + draw(mostly(st.just(":"), st.sampled_from(["", "::", ";"]))) + ",".join(parts)


def optional(draw, option, values):
    return [option, draw(values)] if draw(st.booleans()) else []


@st.composite
def cli_argv(draw):
    command = draw(mostly(st.sampled_from(["simulate", "compare", "verify", "gen-trace"]),
                          st.sampled_from(["bogus", "--help-me"])))
    argv = [command]
    if command in ("simulate", "verify") and draw(mostly(st.just(True), st.just(False))):
        argv += ["--policy", draw(mostly(st.sampled_from(["lru", "clock", "arc", "car", "opt"]),
                                         st.just("x")))]
    if command != "gen-trace" and draw(mostly(st.just(True), st.just(False))):
        argv += ["--cache-size", draw(SIZES)]
    if command in ("simulate", "verify"):
        argv += optional(draw, "--adaptation", mostly(st.sampled_from(["unit", "ratio"]),
                                                      st.just("x")))
        if draw(st.booleans()):
            argv.append("--fail-on-car-step")
    if command in ("simulate", "compare"):
        argv += optional(draw, "--format", mostly(st.sampled_from(["json", "csv", "table"]),
                                                  st.just("x")))
    if command == "simulate":
        checks = st.lists(mostly(st.sampled_from(["invariants", "potential", "lemmas"]),
                                 st.just("x")), max_size=3)
        argv += optional(draw, "--checks", checks.map(",".join))
    source = draw(mostly(st.sampled_from(["trace", "workload"]), st.sampled_from(["both", "none"])))
    if source in ("trace", "both") and command != "gen-trace":
        argv += ["--trace", "-"]
    if source in ("workload", "both") or command == "gen-trace":
        argv += ["--workload", draw(workload_specs())]
    argv += optional(draw, "--seed", SIZES)
    if command == "gen-trace":
        argv += optional(draw, "--out", st.just("-"))
    return argv


TRACE_BYTES = st.one_of(
    st.binary(max_size=100),
    st.lists(st.sampled_from([b"1", b"2", b"3", b"a", b"5*", b"x,y", b"[", b"#c", b" ", b"\n",
                              b"\t", b"\xff", b"\xc3\xa9", b"# note, with [marks]*\n"]),
             max_size=80).map(b"".join),
)


@settings(max_examples=150, deadline=None)
@given(argv=cli_argv(), stdin_bytes=TRACE_BYTES)
def test_random_invocations_exit_cleanly(argv, stdin_bytes):
    code, _, err = run_cli_isolated(argv, stdin_bytes)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
