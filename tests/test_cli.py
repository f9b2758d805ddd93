import json

import pytest

from cachelab.cli import main


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


def test_negative_length_exits_two(capsys):
    code, out, err = run_cli(capsys, "compare", "--cache-size", "4",
                             "--workload", "zipf:universe=10,alpha=0.9,length=-5,seed=1")
    assert code == 2
    assert out == ""
    assert "length must be non-negative" in err
