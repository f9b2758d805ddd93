import json
from pathlib import Path

import pytest

from cachelab import (
    TraceParseError,
    emit_report,
    format_trace,
    gen_fuzz,
    parse_trace,
    run_simulation,
    verify_trace,
)
from cachelab.cli import main
from cachelab.harness import CSV_HEADER

DATA = Path(__file__).parent / "data"


class TestParseTrace:
    def test_whitespace_separated(self):
        assert parse_trace("1 2\n3") == ["1", "2", "3"]

    def test_comments_and_blanks_skipped(self):
        assert parse_trace("# header\n\n7") == ["7"]

    def test_empty(self):
        assert parse_trace("") == []

    def test_bytes_accepted(self):
        assert parse_trace(b"a b\nc") == ["a", "b", "c"]

    def test_invalid_utf8_reports_offset(self):
        with pytest.raises(TraceParseError, match="byte offset 2"):
            parse_trace(b"ab\xff cd")

    @pytest.mark.parametrize("data", ["\ufeff1 2\n3", b"\xef\xbb\xbf1 2\n3"])
    def test_leading_byte_order_mark_dropped(self, data):
        assert parse_trace(data) == ["1", "2", "3"]

    def test_only_one_leading_byte_order_mark_dropped(self):
        assert parse_trace("\ufeff\ufeff1 \ufeff2") == ["\ufeff1", "\ufeff2"]

    def test_invalid_utf8_offset_counts_the_byte_order_mark(self):
        with pytest.raises(TraceParseError, match="byte offset 5"):
            parse_trace(b"\xef\xbb\xbf1 \xff")

    def test_format_round_trip(self):
        trace = gen_fuzz(9, 50, seed=1)
        assert parse_trace(format_trace(trace)) == [str(p) for p in trace]


class TestRunSimulation:
    def test_lru_plain_run(self):
        report = run_simulation("lru", 2, [1, 2, 1])
        assert (report.hits, report.misses) == (1, 2)
        assert report.hit_ratio.numerator == 1 and report.hit_ratio.denominator == 3

    def test_arc_with_potential_checks(self):
        report = run_simulation("arc", 2, [1, 2, 1, 3], checks=("potential",))
        assert report.misses == 3
        assert report.opt_misses == 3
        assert report.violations == {}
        assert not report.hard_failure

    def test_opt_policy(self):
        report = run_simulation("opt", 2, [1, 2, 3, 1, 2])
        assert report.misses == 4

    def test_car_step_findings_are_soft_by_default(self):
        trace = gen_fuzz(16, 600, seed=1007)  # known to produce step findings
        soft = run_simulation("car", 8, trace, checks=("potential",))
        assert not soft.hard_failure
        hard = run_simulation("car", 8, trace, checks=("potential",),
                              fail_on_car_step=True)
        assert hard.hard_failure == bool(sum(hard.violations.values()))

    def test_invariant_checks_run(self):
        report = run_simulation("car", 3, gen_fuzz(9, 300, seed=5),
                                checks=("invariants",))
        assert "state_invariants" not in report.violations

    def test_opt_refuses_checks(self):
        trace = [1, 2, 3, 1, 2]
        for checks in (("invariants",), ("potential", "lemmas"), ("bogus",)):
            with pytest.raises(ValueError, match="opt .*no checks; drop --checks$"):
                run_simulation("opt", 2, trace, checks=checks)
        with pytest.raises(ValueError, match="opt .*no checks; drop --fail-on-car-step$"):
            run_simulation("opt", 2, trace, fail_on_car_step=True)
        report = run_simulation("opt", 2, trace, checks=())
        assert (report.misses, report.opt_misses, report.violations) == (4, 4, {})

    def test_unknown_policy_and_checks_rejected(self):
        with pytest.raises(ValueError):
            run_simulation("mru", 2, [1])
        with pytest.raises(ValueError):
            run_simulation("lru", 2, [1], checks=("bogus",))
        with pytest.raises(ValueError):
            run_simulation("lru", 0, [1])

    @pytest.mark.parametrize("policy", ["opt", "lru"])
    @pytest.mark.parametrize("capacity", [2.5, 0])
    def test_capacity_must_be_a_positive_int(self, policy, capacity):
        with pytest.raises(ValueError, match="^cache capacity must be a positive integer, "
                                             "got %r$" % (capacity,)):
            run_simulation(policy, capacity, [1, 2, 3, 1, 2, 3, 4, 1, 2])


class TestEmitReport:
    def _report(self):
        return run_simulation("arc", 2, [1, 2, 1, 3], checks=("potential",),
                              trace_label="inline:4")

    def test_json_round_trip(self):
        report = self._report()
        parsed = json.loads(emit_report(report, "json"))
        assert parsed == report.to_dict()
        assert parsed["hit_ratio"] == "1/4"

    def test_csv_header_is_stable(self):
        text = emit_report([self._report()], "csv")
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 2

    def test_table_sorted_by_hit_ratio(self):
        reports = [
            run_simulation("lru", 2, [1, 2, 3, 1, 2]),
            run_simulation("opt", 2, [1, 2, 3, 1, 2]),
        ]
        lines = emit_report(reports, "table").splitlines()
        assert lines[1].startswith("opt")
        assert lines[2].startswith("lru")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(self._report(), "xml")

    def test_json_bytes_identical_across_runs(self):
        first = emit_report(self._report(), "json")
        second = emit_report(self._report(), "json")
        assert first.encode() == second.encode()

    def test_cli_output_matches_the_golden_file(self, capsys):
        # reports_golden.txt holds one "$ argv" line per CLI run, then its stdout
        runs = []
        for line in (DATA / "reports_golden.txt").read_text().splitlines(keepends=True):
            if line.startswith("$ "):
                runs.append((line[2:].split(), []))
            else:
                runs[-1][1].append(line)
        assert len(runs) == 17
        for argv, expected in runs:
            assert main(argv) == 0, argv
            assert capsys.readouterr().out == "".join(expected), argv

    def test_check_reports_match_their_golden_file(self, capsys):
        # check_reports_golden.txt holds one "$ argv  # exit N" line per CLI run, then its
        # stdout: the report names, order, modes and counts of checked runs
        runs = []
        for line in (DATA / "check_reports_golden.txt").read_text().splitlines(keepends=True):
            if line.startswith("$ "):
                argv, status = line[2:].split("  # exit ")
                runs.append((argv.split(), int(status), []))
            else:
                runs[-1][2].append(line)
        assert [status for _, status, _ in runs] == [1, 1, 0, 0, 0, 0]
        for argv, status, expected in runs:
            assert main(argv) == status, argv
            assert capsys.readouterr().out == "".join(expected), argv


class TestVerifyTrace:
    def test_arc_report_structure(self):
        result, hard = verify_trace("arc", 2, [1, 2, 1, 3])
        assert not hard
        assert result["policy_misses"] == 3 and result["opt_misses"] == 3
        assert result["checks"]["step"]["mode"] == "asserted"
        assert result["checks"]["step"]["violation_count"] == 0
        assert result["checks"]["aggregate"]["holds"]
        assert result["checks"]["eviction_audit"]["violation_count"] == 0
        assert result["checks"]["state_invariants"]["violation_count"] == 0

    def test_car_report_is_observational(self):
        trace = gen_fuzz(16, 600, seed=1007)
        result, hard = verify_trace("car", 8, trace)
        assert result["checks"]["step"]["mode"] == "report-only"
        assert not hard  # step findings do not fail the run by default
        assert result["checks"]["aggregate"]["holds"]
        json.dumps(result)  # machine readable end to end

    def test_car_fail_flag_promotes_findings(self):
        trace = gen_fuzz(16, 600, seed=1007)
        result, _ = verify_trace("car", 8, trace)
        findings = result["checks"]["step"]["violation_count"]
        _, hard = verify_trace("car", 8, trace, fail_on_car_step=True)
        assert hard == bool(findings)

    def test_lru_gets_aggregate_but_no_step_check(self):
        result, hard = verify_trace("lru", 2, [1, 2, 1, 3])
        assert not hard
        assert "step" not in result["checks"]
        assert result["checks"]["aggregate"]["bound_multiplier"] == 1
        assert result["checks"]["aggregate"]["holds"]
        assert result["policy_misses"] == 3
