"""Command-line surface: argument wiring, output contract, exit codes."""

import json
import shutil
import sys

import pytest

from fpsat.cli import main


# an infeasible script with a Latin-1 "é" in a comment
_LATIN1 = (b"(set-logic QF_FP)\n; caf\xe9\n(declare-fun x () Float64)"
           b"(assert (fp.lt x x))(check-sat)\n")


class TestSolveCommand:
    def test_sat_exit_zero_and_first_line(self, corpus_path, capsys):
        code = main(["solve", str(corpus_path / "listing1.smt2"),
                     "--max-evals", "50000", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "sat"

    def test_model_flag_prints_block(self, corpus_path, capsys):
        main(["solve", str(corpus_path / "listing1.smt2"), "--model",
              "--max-evals", "50000"])
        out = capsys.readouterr().out
        assert "(define-fun x () (_ FloatingPoint 8 24) ((_ to_fp 8 24) #x" in out

    def test_stats_json_is_strict_json(self, corpus_path, capsys):
        main(["solve", str(corpus_path / "infeasible_box.smt2"),
              "--stats-json", "--max-evals", "1000"])
        out = capsys.readouterr().out
        payload = json.loads(out.splitlines()[-1])
        assert payload["verdict"] == "unknown"
        assert payload["unknown_reason"] == "budget-exhausted"

    def test_stats_json_instance_rates(self, corpus_path, tmp_path, capsys):
        def strict(token):
            raise ValueError(f"non-standard JSON constant {token}")

        main(["solve", str(corpus_path / "infeasible_box.smt2"),
              "--stats-json", "--max-evals", "1000"])
        payload = json.loads(capsys.readouterr().out.splitlines()[-1],
                             parse_constant=strict)
        for inst in payload["instances"]:
            assert inst["evals_per_s"] == pytest.approx(
                inst["evals"] / inst["wall_time_s"])
        # a constant formula is decided by one evaluation outside any
        # race, in no measured time: its rate is null, not Infinity
        const = tmp_path / "const.smt2"
        const.write_text("(set-logic QF_FP)(assert (fp.lt ((_ to_fp 8 24) RNE 1.0) "
                         "((_ to_fp 8 24) RNE 2.0)))(check-sat)")
        main(["solve", str(const), "--stats-json"])
        payload = json.loads(capsys.readouterr().out.splitlines()[-1],
                             parse_constant=strict)
        [inst] = payload["instances"]
        assert (inst["wall_time_s"], inst["evals_per_s"]) == (0.0, None)

    def test_stats_json_reports_kernels(self, corpus_path, capsys, monkeypatch):
        from fpsat import kernels

        def strict(token):
            raise ValueError(f"non-standard JSON constant {token}")

        code = main(["solve", str(corpus_path / "listing1.smt2"), "--stats-json"])
        lines = capsys.readouterr().out.splitlines()
        assert (code, lines[0]) == (0, "sat")
        payload = json.loads(lines[-1], parse_constant=strict)
        assert payload["kernels"] == kernels.status()
        assert payload["kernels"]["path"] in ("native", "python")
        # forced onto the Python path: the same verdict, and it says so
        monkeypatch.setattr(kernels, "lib", None)
        monkeypatch.setattr(kernels, "reason", "forced")
        code = main(["solve", str(corpus_path / "listing1.smt2"), "--stats-json"])
        lines = capsys.readouterr().out.splitlines()
        assert (code, lines[0]) == (0, "sat")
        assert json.loads(lines[-1])["kernels"] == {"path": "python", "reason": "forced"}

    def test_unknown_exit_one(self, corpus_path, capsys):
        code = main(["solve", str(corpus_path / "infeasible_cycle.smt2"),
                     "--max-evals", "1000"])
        assert code == 1
        assert capsys.readouterr().out.splitlines()[0] == "unknown"

    def test_deeply_nested_formula_verifies(self, tmp_path, capsys):
        # 340 nested ors build; the model check must not hit the recursion
        # limit (depth 1000 is an InputError from the frontend)
        body = "(fp.leq x x)"
        for _ in range(340):
            body = f"(or (fp.lt x x) {body})"
        path = tmp_path / "deep.smt2"
        path.write_text(f"(set-logic QF_FP)(declare-fun x () Float64)"
                        f"(assert {body})(check-sat)")
        code = main(["solve", str(path), "--max-evals", "10000"])
        assert capsys.readouterr().out.splitlines()[0] == "sat"
        assert code == 0

    def test_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.smt2"
        bad.write_text("(set-logic QF_BV)(assert true)(check-sat)")
        code = main(["solve", str(bad)])
        assert code == 2

    def test_instance_mix_flags(self, corpus_path, capsys):
        code = main(["solve", str(corpus_path / "listing1.smt2"),
                     "--bh", "0", "--crs2", "2", "--isres", "0",
                     "--max-evals", "50000", "--stats-json"])
        out = capsys.readouterr().out
        payload = json.loads(out.splitlines()[-1])
        assert code == 0
        assert [s["algorithm"] for s in payload["instances"]] == ["crs2", "crs2"]

    def test_no_instances_rejected(self, corpus_path):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(corpus_path / "listing1.smt2"),
                  "--bh", "0", "--crs2", "0", "--isres", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--bounds", "1", "1"],
        ["--max-evals", "0"],
        ["--bh", "-1"],
        ["--bounds", "0", "inf"],
        ["--start-range", "nan", "0"],
        ["--timeout", "nan"],
        ["--timeout", "inf"],
        ["--timeout", "-1"],
    ], ids=["empty-bounds", "zero-budget", "negative-count", "infinite-bounds",
            "nan-start-range", "nan-timeout", "infinite-timeout", "negative-timeout"])
    def test_usage_errors_exit_two(self, corpus_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(corpus_path / "infeasible_cycle.smt2"), *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flags[0] in captured.err

    def test_non_utf8_input_exit_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.smt2"
        path.write_bytes(_LATIN1)
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.splitlines() == ["error"]
        assert "2:6: byte 0xe9 is not UTF-8" in captured.err

    def test_non_utf8_column_counts_characters(self, tmp_path, capsys):
        # valid multi-byte UTF-8 before the bad byte is one column a character
        path = tmp_path / "mixed.smt2"
        path.write_bytes(_LATIN1.replace(b"caf\xe9", "café ".encode() + b"\xff"))
        assert main(["solve", str(path)]) == 2
        assert "2:8: byte 0xff is not UTF-8" in capsys.readouterr().err

    def test_dump_cnf_flag(self, corpus_path, capsys):
        main(["solve", str(corpus_path / "listing1.smt2"), "--dump-cnf",
              "--max-evals", "50000"])
        assert "(clause (geq" in capsys.readouterr().out

    def test_dump_cnf_prints_ite_condition(self, corpus_path, capsys):
        code = main(["solve", str(corpus_path / "branching.smt2"), "--dump-cnf",
                     "--max-evals", "50000"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "sat"
        assert lines[1].startswith("(clause (gt (ite (fp.lt x ")


class TestBenchCommand:
    def test_bench_writes_csv(self, corpus_path, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        code = main(["bench", str(corpus_path), "--max-evals", "4000",
                     "--timeout", "60", "--csv", str(csv_path)])
        assert code == 0
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "file,verdict,wall_time_s,winner,evals"
        out = capsys.readouterr().out
        assert "SAT" in out and "UNKNOWN" in out


    def test_repeat_below_one_exits_two(self, corpus_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", str(corpus_path), "--repeat", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--repeat must be >= 1" in captured.err

    def test_non_utf8_file_is_an_error_row(self, corpus_path, tmp_path, capsys):
        shutil.copy(corpus_path / "listing1.smt2", tmp_path)
        (tmp_path / "latin1.smt2").write_bytes(_LATIN1)
        csv_path = tmp_path / "out.csv"
        code = main(["bench", str(tmp_path), "--max-evals", "4000", "--csv", str(csv_path)])
        assert code == 0
        rows = {line.split(",")[0]: line.split(",")[1]
                for line in csv_path.read_text().splitlines()[1:]}
        assert rows == {"latin1.smt2": "ERROR", "listing1.smt2": "SAT"}


@pytest.mark.parametrize("command, exit_code", [
    ("solve", 1), ("bench", 0), ("combined", 0),
])
def test_negative_values_in_exponent_form(corpus_path, tmp_path, command,
                                          exit_code):
    target = corpus_path / "infeasible_cycle.smt2"
    extra = []
    if command == "bench":
        shutil.copy(target, tmp_path)
        target = tmp_path
    elif command == "combined":
        extra = ["--external", f"{sys.executable} -c \"print('unsat')\""]
    code = main([command, str(target), *extra, "--max-evals", "1000",
                 "--bounds", "-1e6", "1e6", "--start-range", "-1e-3", "1e-3"])
    assert code == exit_code
