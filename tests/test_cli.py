"""CLI tests (the artifact-style repair.conf workflow)."""

import pytest

from repro.benchsuite import load_scenario
from repro.cli import main


@pytest.fixture(scope="module")
def ff_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    scenario = load_scenario("ff_cond")
    (tmp / "faulty.v").write_text(scenario.faulty_design_text)
    (tmp / "golden.v").write_text(scenario.project.design_text)
    (tmp / "tb.v").write_text(scenario.project.testbench_text)
    return tmp


class TestRepairCommand:
    def test_conf_driven_repair(self, ff_files, capsys):
        conf = ff_files / "repair.conf"
        conf.write_text(
            "[project]\n"
            f"source = {ff_files}/faulty.v\n"
            f"testbench = {ff_files}/tb.v\n"
            f"golden = {ff_files}/golden.v\n"
            "[gp]\n"
            "population_size = 120\n"
            "max_generations = 4\n"
            "max_fitness_evals = 600\n"
            "max_wall_seconds = 60\n"
            "seeds = 0,1\n"
        )
        code = main(["repair", "--conf", str(conf), "--output", str(ff_files / "out.v")])
        assert code == 0
        assert (ff_files / "out.v").exists()
        out = capsys.readouterr().out
        assert "PLAUSIBLE" in out

    def test_positional_arguments(self, ff_files):
        code = main(
            [
                "repair",
                str(ff_files / "faulty.v"),
                str(ff_files / "tb.v"),
                "--golden",
                str(ff_files / "golden.v"),
                "--population",
                "120",
                "--budget",
                "60",
                "--seeds",
                "0",
                "--eval-deadline",
                "600",
                "--worker-mem-mb",
                "0",
                "--output",
                str(ff_files / "out2.v"),
            ]
        )
        assert code == 0

    def test_race_with_trace(self, ff_files, capsys):
        # synth repairs ff_cond, so the race never escalates to GP.
        trace = ff_files / "t.jsonl"
        code = main(
            [
                "repair",
                str(ff_files / "faulty.v"),
                str(ff_files / "tb.v"),
                "--golden",
                str(ff_files / "golden.v"),
                "--engine",
                "race",
                "--seeds",
                "0",
                "--trace",
                str(trace),
                "--output",
                str(ff_files / "out3.v"),
            ]
        )
        assert code == 0
        assert str(trace) in capsys.readouterr().err
        lines = trace.read_text().splitlines()
        assert sum('"trial_started"' in line for line in lines) == 1

    def test_missing_oracle_errors(self, ff_files):
        with pytest.raises(SystemExit):
            main(["repair", str(ff_files / "faulty.v"), str(ff_files / "tb.v")])

    def test_empty_seeds_is_a_usage_error(self, ff_files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "repair",
                    str(ff_files / "faulty.v"),
                    str(ff_files / "tb.v"),
                    "--golden",
                    str(ff_files / "golden.v"),
                    "--seeds",
                ]
            )
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err

    def test_submit_empty_seeds_is_a_usage_error(self, ff_files, capsys):
        # argparse rejects the bare flag before any daemon is contacted.
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "submit",
                    "--socket",
                    str(ff_files / "no-daemon.sock"),
                    "counter_reset",
                    "--seeds",
                ]
            )
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err

    def test_both_oracle_sources_error(self, ff_files, tmp_path):
        oracle = tmp_path / "expected.csv"
        oracle.write_text("time,q\n0,0\n")
        with pytest.raises(SystemExit, match="exactly one oracle source"):
            main(
                [
                    "repair",
                    str(ff_files / "faulty.v"),
                    str(ff_files / "tb.v"),
                    "--golden",
                    str(ff_files / "golden.v"),
                    "--oracle",
                    str(oracle),
                ]
            )


class TestServeCommand:
    def test_recover_without_journal_dir_exits_before_serving(
        self, tmp_path, monkeypatch
    ):
        from repro.service import RepairDaemon

        def serve(daemon, ready=None):
            raise AssertionError("the daemon started serving")

        monkeypatch.setattr(RepairDaemon, "serve", serve)
        socket_path = tmp_path / "d.sock"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--socket", str(socket_path), "--recover"])
        assert str(exc.value.code).startswith("error: ")
        assert "--journal-dir" in str(exc.value.code)
        assert not socket_path.exists()


class TestSimulateCommand:
    def test_simulate_with_record(self, ff_files, capsys):
        code = main(
            ["simulate", str(ff_files / "golden.v"), str(ff_files / "tb.v"), "--record"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("time,q")


class TestScenariosCommand:
    def test_lists_all_32(self, capsys):
        assert main(["scenarios"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 32


class TestFuzzCommand:
    def test_clean_run_exits_zero(self, capsys):
        code = main(
            ["fuzz", "--seed", "0", "--count", "1", "--no-logic",
             "--cross-backend-every", "0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "violations: 0" in out
        assert "programs checked: 1" in out

    def test_planted_fault_exits_nonzero(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        code = main(
            ["fuzz", "--seed", "2", "--count", "1", "--no-logic",
             "--cross-backend-every", "0",
             "--inject-fault", "drop_ternary_parens",
             "--corpus-dir", str(corpus)]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "[roundtrip]" in out
        assert list(corpus.glob("*.v"))

    def test_unknown_fault_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main(["fuzz", "--count", "1", "--inject-fault", "bogus"])

    def test_trace_is_written(self, tmp_path, capsys):
        trace = tmp_path / "fuzz.jsonl"
        code = main(
            ["fuzz", "--seed", "0", "--count", "1", "--no-logic",
             "--cross-backend-every", "0", "--trace", str(trace)]
        )
        assert code == 0
        capsys.readouterr()
        lines = trace.read_text().strip().splitlines()
        assert any('"fuzz_run_completed"' in line for line in lines)


DIRTY_DESIGN = """
module m(input a, input b, output w, output reg q);
  assign w = a;
  assign w = b;
  always @(*) if (a) q = b;
endmodule
"""


class TestLintCommand:
    @pytest.fixture()
    def dirty_file(self, tmp_path):
        path = tmp_path / "dirty.v"
        path.write_text(DIRTY_DESIGN)
        return path

    def test_clean_file_exits_zero(self, ff_files, capsys):
        assert main(["lint", str(ff_files / "golden.v")]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_findings_exit_one(self, dirty_file, capsys):
        assert main(["lint", str(dirty_file)]) == 1
        out = capsys.readouterr().out
        assert "[L001/multi-driver]" in out
        assert "[L004/inferred-latch]" in out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.v"
        path.write_text("module broken(")
        assert main(["lint", str(path)]) == 2
        assert "broken.v" in capsys.readouterr().err

    def test_json_output_schema(self, dirty_file, capsys):
        import json

        assert main(["lint", "--json", str(dirty_file)]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["profile"] == {"L001": 1, "L004": 1}
        assert {d["code"] for d in data["diagnostics"]} == {"L001", "L004"}

    def test_rule_selection(self, dirty_file, capsys):
        assert main(["lint", "--rules", "multi-driver", str(dirty_file)]) == 1
        out = capsys.readouterr().out
        assert "L001" in out and "L004" not in out

    def test_unknown_rule_is_a_usage_error(self, dirty_file):
        with pytest.raises(SystemExit):
            main(["lint", "--rules", "L999", str(dirty_file)])

    def test_multiple_files_json(self, ff_files, dirty_file, capsys):
        import json

        code = main(
            ["lint", "--json", str(ff_files / "golden.v"), str(dirty_file)]
        )
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert set(data["files"]) == {str(ff_files / "golden.v"), str(dirty_file)}
        assert data["files"][str(dirty_file)]["findings"] == 2

    def test_multiple_files_text_headers(self, ff_files, dirty_file, capsys):
        main(["lint", str(ff_files / "golden.v"), str(dirty_file)])
        out = capsys.readouterr().out
        assert f"== {ff_files / 'golden.v'} ==" in out
        assert f"== {dirty_file} ==" in out


class TestRepairLintGateFlags:
    """The lint gate is gone: argparse rejects its flags before any run."""

    def _repair(self, ff_files, *flags):
        with pytest.raises(SystemExit) as exc:
            main(
                ["repair", str(ff_files / "faulty.v"), str(ff_files / "tb.v"),
                 "--golden", str(ff_files / "golden.v"), *flags,
                 "--output", str(ff_files / "gated.v")]
            )
        assert exc.value.code == 2
        assert not (ff_files / "gated.v").exists()

    def test_gate_flag_rejected(self, ff_files, capsys):
        self._repair(ff_files, "--lint-gate")
        assert "unrecognized arguments: --lint-gate" in capsys.readouterr().err

    def test_gate_rules_flag_rejected(self, ff_files, capsys):
        self._repair(ff_files, "--lint-gate-rules", "multi-driver")
        assert "unrecognized arguments: --lint-gate-rules" in capsys.readouterr().err
