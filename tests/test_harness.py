"""Solve driver, bench runner, CSV schema, combined external race."""

import csv
import io
import json
import stat
import subprocess
import sys
import textwrap
import time

import pytest

from fpsat import harness
from fpsat.harness import (
    BenchRecord,
    BenchReport,
    parse_external_verdict,
    run_bench,
    run_combined,
    run_solve,
)
from fpsat.errors import InstanceCrashError
from fpsat.parser import parse_script
from fpsat.portfolio import PortfolioConfig


# a malformed literal, and nesting deeper than the recursion limit: both are
# input errors
_MALFORMED_BV = ("(set-logic QF_FP)(declare-fun x () Float32)\n"
                 "(assert (fp.lt x ((_ to_fp 8 24) #xZZ)))(check-sat)")
_TOO_DEEP = ("(set-logic QF_FP)(declare-fun x () Float32)"
             "(assert " + "(not " * 2000 + "(fp.lt x x)" + ")" * 2001 + "(check-sat)")


def fast_config(**kw):
    defaults = dict(max_evals=20_000, seed=3)
    defaults.update(kw)
    return PortfolioConfig(**defaults)


class TestRunSolve:
    def test_sat_file(self, corpus_path):
        out = io.StringIO()
        report = run_solve(corpus_path / "listing1.smt2", fast_config(),
                           show_model=True, stream=out)
        assert report.exit_code == 0
        lines = out.getvalue().splitlines()
        assert lines[0] == "sat"
        assert any("define-fun x" in l for l in lines)

    def test_model_block_reparses_bit_exact(self, corpus_path):
        out = io.StringIO()
        report = run_solve(corpus_path / "listing1.smt2", fast_config(),
                           show_model=True, stream=out)
        model = report.outcome.model
        block = model.smt2_block()
        # wrap the printed model as assertions and re-parse
        defs = block.strip()[1:-1]  # strip outer parens
        script = parse_script(f"(set-logic QF_FP){defs}(assert true)(check-sat)")
        name, _, value = model.entries[0]
        # re-decode the definition body: must be the identical bit pattern
        body = script.definitions[name].body
        assert body.value.bits == value.bits

    def test_unknown_file(self, corpus_path):
        out = io.StringIO()
        report = run_solve(corpus_path / "infeasible_irreflexive.smt2",
                           fast_config(max_evals=2000), stream=out)
        assert report.exit_code == 1
        assert out.getvalue().splitlines()[0] == "unknown"

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.smt2"
        bad.write_text("(assert (fp.lt x")
        out = io.StringIO()
        report = run_solve(bad, fast_config(), stream=out)
        assert report.exit_code == 2
        assert "error" in out.getvalue().splitlines()[0]
        assert report.message and "1:" in report.message  # position included

    @pytest.mark.parametrize("text, message", [
        (_MALFORMED_BV, "2:34: malformed bitvector literal #xZZ"),
        (_TOO_DEEP, "nests too deeply"),
    ], ids=["malformed-bitvector", "too-deep"])
    def test_input_error_exits_two(self, tmp_path, text, message):
        bad = tmp_path / "bad.smt2"
        bad.write_text(text)
        out = io.StringIO()
        report = run_solve(bad, fast_config(), stream=out)
        assert report.exit_code == 2
        assert out.getvalue().splitlines()[0] == "error"
        assert message in report.message

    def test_crashed_instance_is_an_error(self, corpus_path, crashing_isres):
        out = io.StringIO()
        report = run_solve(corpus_path / "infeasible_cycle.smt2",
                           fast_config(max_evals=2000), stream=out)
        assert report.exit_code == 2
        lines = out.getvalue().splitlines()
        assert lines[0] == "error"
        assert "instance 2 (isres) crashed: RuntimeError: boom" in lines[1]

    def test_stats_json(self, corpus_path):
        out = io.StringIO()
        report = run_solve(corpus_path / "listing1.smt2", fast_config(),
                           stats_json=True, stream=out)
        payload = json.loads(out.getvalue().splitlines()[-1])
        assert payload["verdict"] == "sat"
        assert payload["evals"] == report.outcome.total_evals
        assert {s["algorithm"] for s in payload["instances"]} \
            <= {"bh", "crs2", "isres"}

    def test_dump_cnf(self, corpus_path):
        # verdict first, then the model, the clauses and the stats
        out = io.StringIO()
        run_solve(corpus_path / "listing1.smt2", fast_config(), show_model=True,
                  stats_json=True, dump_cnf=True, stream=out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "sat"
        assert lines[-2].startswith("(clause (geq")
        assert json.loads(lines[-1])["verdict"] == "sat"


class TestBench:
    def test_mini_corpus(self, corpus_path, tmp_path):
        out = io.StringIO()
        csv_path = tmp_path / "bench.csv"
        report = run_bench(corpus_path, fast_config(),
                           timeout=120.0, csv_path=csv_path, stream=out)
        assert len(report.records) == 12
        assert report.sat_count == 8
        assert report.unknown_count == 4
        assert report.error_count == 0
        by_name = {r.file: r for r in report.records}
        for name in ("infeasible_irreflexive.smt2", "infeasible_cycle.smt2",
                     "infeasible_abs.smt2", "infeasible_box.smt2"):
            assert by_name[name].verdict == "UNKNOWN"

        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["file", "verdict", "wall_time_s", "winner", "evals"]
        assert len(rows) == 13

    def test_empty_dir_warns(self, tmp_path):
        out = io.StringIO()
        with pytest.warns(UserWarning, match="no .smt2 files"):
            report = run_bench(tmp_path, fast_config(), stream=out)
        assert report.records == []

    @pytest.mark.parametrize("repeat", [0, -1])
    def test_repeat_below_one_is_rejected_before_any_file(self, corpus_path, tmp_path,
                                                          monkeypatch, repeat):
        (tmp_path / "listing1.smt2").write_text((corpus_path / "listing1.smt2").read_text())
        monkeypatch.setattr(harness, "load_problem", pytest.fail)
        out = io.StringIO()
        with pytest.raises(ValueError, match="repeat must be >= 1"):
            run_bench(tmp_path, fast_config(), repeat=repeat, stream=out)
        assert out.getvalue() == ""

    def test_error_record_carries_message(self, tmp_path):
        bad = tmp_path / "broken.smt2"
        bad.write_text("(set-logic QF_FP)(assert (fp.lt x y))(check-sat)")
        out = io.StringIO()
        report = run_bench(tmp_path, fast_config(), stream=out)
        rec = report.records[0]
        assert rec.verdict == "ERROR"
        assert rec.message and "x" in rec.message
        assert report.error_count == 1

    def test_input_errors_are_error_rows(self, corpus_path, tmp_path):
        # the bench records each bad file and goes on to the next
        (tmp_path / "a_bitvector.smt2").write_text(_MALFORMED_BV)
        (tmp_path / "b_deep.smt2").write_text(_TOO_DEEP)
        (tmp_path / "c_listing1.smt2").write_text(
            (corpus_path / "listing1.smt2").read_text())
        report = run_bench(tmp_path, fast_config(), stream=io.StringIO())
        assert [r.verdict for r in report.records] == ["ERROR", "ERROR", "SAT"]
        assert "malformed bitvector literal #xZZ" in report.records[0].message
        assert "nests too deeply" in report.records[1].message

    def test_crashed_instance_is_an_error_row(self, corpus_path, tmp_path,
                                              crashing_isres):
        (tmp_path / "cycle.smt2").write_text(
            (corpus_path / "infeasible_cycle.smt2").read_text())
        report = run_bench(tmp_path, fast_config(max_evals=2000),
                           stream=io.StringIO())
        rec = report.records[0]
        assert rec.verdict == "ERROR"
        assert "instance 2 (isres)" in rec.message

    def test_timeout_recorded(self, tmp_path):
        slow = tmp_path / "slow.smt2"
        slow.write_text(
            "(set-logic QF_FP)(declare-fun x () Float64)"
            "(assert (fp.lt x x))(check-sat)"
        )
        out = io.StringIO()
        report = run_bench(tmp_path, fast_config(max_evals=10**9),
                           timeout=0.2, stream=out)
        assert report.records[0].verdict == "TIMEOUT"
        assert report.timeout_count == 1
        # wall time stays within the timeout plus a small grace period
        assert report.records[0].wall_time <= 0.2 + 2.0

    @pytest.mark.parametrize("frontend_s", [0.5, 1.0])
    def test_timeout_counts_the_frontend(self, tmp_path, monkeypatch, frontend_s):
        # a frontend that takes 0.5 s leaves the race the rest of the 0.7 s
        # timeout; one that takes 1 s leaves none, and the file is a
        # TIMEOUT without a race
        (tmp_path / "slow.smt2").write_text(
            "(set-logic QF_FP)(declare-fun x () Float64)"
            "(assert (fp.lt x x))(check-sat)")
        load = harness.load_problem

        def slow_load(path):
            time.sleep(frontend_s)
            return load(path)

        monkeypatch.setattr(harness, "load_problem", slow_load)
        report = run_bench(tmp_path, fast_config(max_evals=10**9), timeout=0.7,
                           stream=io.StringIO())
        rec = report.records[0]
        assert rec.verdict == "TIMEOUT"
        assert rec.wall_time < max(frontend_s, 0.7) + 0.4
        assert (rec.evals == 0) == (frontend_s > 0.7)

    def test_average_sat_time_formula(self):
        records = [
            BenchRecord("a", "SAT", 1.0, "bh", 10),
            BenchRecord("b", "SAT", 3.0, "crs2", 10),
            BenchRecord("c", "UNKNOWN", 100.0, None, 10),
            BenchRecord("d", "TIMEOUT", 50.0, None, 10),
        ]
        report = BenchReport(records, "test", 1)
        # total SAT wall time divided by SAT count; others excluded
        assert report.average_sat_time == 2.0

    def test_first_finder_shares_sum_to_100(self):
        records = [
            BenchRecord("a", "SAT", 1.0, "bh", 1),
            BenchRecord("b", "SAT", 1.0, "bh", 1),
            BenchRecord("c", "SAT", 1.0, "crs2", 1),
            BenchRecord("d", "SAT", 1.0, "isres", 1),
            BenchRecord("e", "UNKNOWN", 1.0, None, 1),
        ]
        report = BenchReport(records, "test", 1)
        shares = report.first_finder_shares()
        assert abs(sum(shares.values()) - 100.0) < 1e-9
        assert shares["bh"] == 50.0

    def test_table_shapes(self):
        records = [BenchRecord("a", "SAT", 0.5, "bh", 5)]
        report = BenchReport(records, "BHx1, CRS2x1, ISRESx1", 1)
        summary = report.summary_table()
        assert "SAT" in summary and "avg SAT s" in summary
        finder = report.first_finder_table()
        assert "BH" in finder and "100.0%" in finder


def _make_stub(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(f"#!{sys.executable}\n" + textwrap.dedent(body))
    path.chmod(path.stat().st_mode | stat.S_IEXEC)
    return path


class TestCombined:
    def test_portfolio_sat_preempts_slow_external(self, corpus_path, tmp_path):
        stub = _make_stub(tmp_path, "slow_sat.py", """\
            import sys, time
            time.sleep(30)
            print("sat")
        """)
        outcome = run_combined(corpus_path / "listing1.smt2",
                               f"{sys.executable} {stub}",
                               fast_config(), timeout=60.0)
        assert outcome.verdict == "sat"
        assert outcome.source == "portfolio"
        assert outcome.wall_time < 20.0
        assert outcome.model_block is not None

    def test_external_unsat_accepted(self, corpus_path, tmp_path):
        stub = _make_stub(tmp_path, "fast_unsat.py", """\
            print("unsat")
        """)
        outcome = run_combined(corpus_path / "infeasible_irreflexive.smt2",
                               f"{sys.executable} {stub}",
                               fast_config(max_evals=10**9), timeout=60.0)
        assert outcome.verdict == "unsat"
        assert outcome.source == "external"
        assert outcome.wall_time < 10  # the external verdict stopped the race

    def test_portfolio_crash_raises_and_kills_external(
            self, corpus_path, tmp_path, monkeypatch, crashing_isres):
        stub = _make_stub(tmp_path, "sleepy.py", """\
            import time
            time.sleep(30)
            print("sat")
        """)
        started = []
        popen = subprocess.Popen

        def recording_popen(*args, **kwargs):
            started.append(popen(*args, **kwargs))
            return started[-1]

        monkeypatch.setattr(subprocess, "Popen", recording_popen)
        t0 = time.perf_counter()
        with pytest.raises(InstanceCrashError, match="isres"):
            run_combined(corpus_path / "infeasible_cycle.smt2",
                         f"{sys.executable} {stub}",
                         fast_config(max_evals=10**9), timeout=60.0)
        assert time.perf_counter() - t0 < 10
        assert started[0].poll() is not None  # the stub has been reaped

    def test_external_that_cannot_start(self, corpus_path, tmp_path):
        outcome = run_combined(corpus_path / "infeasible_cycle.smt2",
                               str(tmp_path / "no-such-solver"),
                               fast_config(max_evals=2000), timeout=60.0)
        assert outcome.verdict == "unknown"
        assert outcome.source == "portfolio"
        assert outcome.note and "external solver failed" in outcome.note

    def test_crash_degrades_to_portfolio_only(self, tmp_path):
        f = tmp_path / "u.smt2"
        f.write_text(
            "(set-logic QF_FP)(declare-fun x () Float64)"
            "(assert (fp.lt x x))(check-sat)"
        )
        stub = _make_stub(tmp_path, "crash.py", """\
            import sys
            sys.exit(3)
        """)
        outcome = run_combined(f, f"{sys.executable} {stub}",
                               fast_config(max_evals=30_000), timeout=60.0)
        assert outcome.verdict == "unknown"
        assert outcome.source == "portfolio"
        assert outcome.note and "external solver failed" in outcome.note

    def test_signal_kill_not_ours_is_a_crash(self, corpus_path, tmp_path):
        # a solver killed by a signal run_combined did not send (say, the
        # OOM killer) has crashed; the race must not wait out the timeout
        stub = _make_stub(tmp_path, "killed.py", """\
            import os, signal
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        outcome = run_combined(corpus_path / "infeasible_cycle.smt2",
                               f"{sys.executable} {stub}",
                               fast_config(max_evals=20_000), timeout=20.0)
        assert outcome.verdict == "unknown"
        assert outcome.source == "portfolio"
        assert outcome.note and "SIGKILL" in outcome.note
        assert outcome.wall_time < 10.0

    def test_crash_with_portfolio_sat(self, corpus_path, tmp_path):
        # portfolio may finish before or after the crash; either way the
        # verdict is the portfolio's own
        stub = _make_stub(tmp_path, "crash.py", """\
            import sys
            sys.exit(3)
        """)
        outcome = run_combined(corpus_path / "listing1.smt2",
                               f"{sys.executable} {stub}",
                               fast_config(), timeout=60.0)
        assert outcome.verdict == "sat"
        assert outcome.source == "portfolio"

    def test_both_timeout(self, tmp_path):
        slow_file = tmp_path / "hard.smt2"
        slow_file.write_text(
            "(set-logic QF_FP)(declare-fun x () Float64)"
            "(assert (fp.lt x x))(check-sat)"
        )
        stub = _make_stub(tmp_path, "sleepy.py", """\
            import time
            time.sleep(30)
            print("unknown")
        """)
        outcome = run_combined(slow_file, f"{sys.executable} {stub}",
                               fast_config(max_evals=10**9), timeout=0.5)
        assert outcome.verdict == "timeout"
        assert outcome.wall_time < 10.0

    def test_external_unknown_then_portfolio_unknown(self, tmp_path):
        f = tmp_path / "u.smt2"
        f.write_text(
            "(set-logic QF_FP)(declare-fun x () Float64)"
            "(assert (fp.lt x x))(check-sat)"
        )
        stub = _make_stub(tmp_path, "unknown.py", """\
            print("unknown")
        """)
        outcome = run_combined(f, f"{sys.executable} {stub}",
                               fast_config(max_evals=2000), timeout=60.0)
        assert outcome.verdict == "unknown"


class TestParseExternalVerdict:
    def test_sat_with_model(self):
        assert parse_external_verdict("sat\n(model (define-fun ...))") == "sat"

    def test_unsat(self):
        assert parse_external_verdict("unsat") == "unsat"

    def test_garbage_warns_unknown(self):
        with pytest.warns(UserWarning, match="unrecognized"):
            assert parse_external_verdict("segfault at 0x0") == "unknown"

    def test_whitespace_tolerant(self):
        assert parse_external_verdict("\n   sat   \n") == "sat"

    def test_unsat_never_from_garbage(self):
        with pytest.warns(UserWarning):
            assert parse_external_verdict("UNSATISFIABLE-ish") != "unsat"
