"""The oracle battery on clean and deliberately-broken inputs."""

import dataclasses
import os

import pytest

from repro.core import backend as backend_mod
from repro.fuzz import (
    Violation,
    check_backends,
    check_determinism,
    check_roundtrip,
    check_templates,
    generate_program,
    split_program,
)
from repro.hdl import ast, parse


@pytest.fixture(scope="module")
def program():
    return generate_program(0)


@pytest.fixture(scope="module")
def det_result(program):
    return check_determinism(program)


class TestRoundtrip:
    def test_clean_program_passes(self, program):
        assert check_roundtrip(program.text, program.source) == []

    def test_unparseable_text_is_a_violation(self):
        violations = check_roundtrip("module broken(; endmodule")
        assert violations and violations[0].oracle == "roundtrip"
        assert "parse" in violations[0].detail

    def test_reference_mismatch_is_a_violation(self, program):
        """The differential against the builder AST catches silent edits."""
        tampered = parse(program.text)
        module = tampered.modules[0]
        module.name = module.name + "_renamed"
        violations = check_roundtrip(program.text, tampered)
        assert violations and violations[0].oracle == "roundtrip"
        assert "generator's AST" in violations[0].detail

    def test_plain_text_without_reference(self, program):
        assert check_roundtrip(program.text) == []


class TestSplitProgram:
    def test_splits_on_tb_name(self, program):
        design, tb = split_program(program.text)
        assert "fuzz_dut" in design
        assert "fuzz_tb" in tb
        assert "fuzz_tb" not in design

    def test_single_module_goes_to_testbench_slot(self):
        design, tb = split_program("module lone(); endmodule\n")
        assert design == ""
        assert "lone" in tb


class TestDeterminism:
    def test_clean_program_has_no_violations(self, det_result):
        violations, oracle = det_result
        assert violations == []
        assert oracle is not None and len(oracle) > 0

    def test_process_backend_agrees(self, program):
        violations, oracle = check_determinism(program, backend="process", workers=2)
        assert violations == []
        assert oracle is not None

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_repeat_is_a_second_evaluation(self, program, backend, monkeypatch):
        """Every second evaluation in a process scores half: the oracle
        reports it on both paths, so its repeat is scored, not replayed."""
        score = backend_mod.evaluate_design_text
        calls: dict[int, int] = {}

        def every_second_call_off(*args, **kwargs):
            result = score(*args, **kwargs)
            calls[os.getpid()] = calls.get(os.getpid(), 0) + 1
            if calls[os.getpid()] % 2 == 0:
                result = dataclasses.replace(result, fitness=result.fitness / 2)
            return result

        # Workers forked from here on run the perturbed scorer; none of
        # them is left parked for a later pool.
        backend_mod._close_idle_workers()
        monkeypatch.setattr(backend_mod, "evaluate_design_text", every_second_call_off)
        try:
            violations, _ = check_determinism(program, backend=backend, workers=1)
        finally:
            monkeypatch.undo()
            backend_mod._close_idle_workers()
        assert Violation("determinism", "repeated evaluation not bit-identical") in violations


class TestBackends:
    def test_serial_and_pool_agree(self, program, det_result):
        _, oracle = det_result
        assert check_backends(program, oracle, workers=2) == []


class TestTemplates:
    def test_closure_holds_on_clean_program(self, program, det_result):
        _, oracle = det_result
        assert check_templates(program, oracle, max_sim_mutants=2) == []

    def test_without_oracle_skips_simulation(self, program):
        assert check_templates(program, None) == []

    def test_zero_sim_budget_is_allowed(self, program, det_result):
        _, oracle = det_result
        assert check_templates(program, oracle, max_sim_mutants=0) == []

    def test_broken_design_is_a_violation(self):
        broken = generate_program(0)
        violations = check_templates(
            _with_design(broken, "module nope(; endmodule"), None
        )
        assert violations and violations[0].oracle == "templates"


def _with_design(program, design_text):
    from repro.fuzz.generator import GeneratedProgram

    return GeneratedProgram(
        seed=program.seed,
        design_text=design_text,
        testbench_text=program.testbench_text,
        decisions=program.decisions,
        source=program.source,
    )
