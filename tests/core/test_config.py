"""RepairConfig tests."""

import dataclasses

import pytest

from repro.core.config import TEST_CONFIG, ConfigError, RepairConfig


class TestDefaults:
    def test_paper_parameters(self):
        config = RepairConfig()
        assert config.population_size == 5000
        assert config.max_generations == 8
        assert config.rt_threshold == 0.2
        assert config.mut_threshold == 0.7
        assert config.delete_threshold == 0.3
        assert config.insert_threshold == 0.3
        assert config.tournament_size == 5
        assert config.elitism_fraction == 0.05
        assert config.phi == 2.0
        assert config.max_wall_seconds == 12 * 3600.0

    def test_extensions_off_by_default(self):
        assert RepairConfig().extended_templates is False

    def test_supervision_defaults(self):
        """The deadline defaults on (generously), sandboxing defaults off,
        so ``max_sim_steps`` stays the canonical per-candidate cutoff."""
        config = RepairConfig()
        assert config.eval_deadline_seconds == 600.0
        assert config.eval_max_retries == 1
        assert config.worker_mem_mb == 0

    def test_deadline_can_be_disabled(self):
        assert RepairConfig(eval_deadline_seconds=0.0).validate()
        assert RepairConfig(eval_max_retries=0).validate()

    def test_frozen(self):
        config = RepairConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.phi = 3.0  # type: ignore[misc]


class TestScaled:
    def test_scaled_overrides_only_named(self):
        config = RepairConfig().scaled(population_size=10, phi=1.0)
        assert config.population_size == 10
        assert config.phi == 1.0
        assert config.max_generations == 8

    def test_scaled_returns_new_object(self):
        base = RepairConfig()
        assert base.scaled(phi=3.0) is not base
        assert base.phi == 2.0

    def test_test_config_is_small(self):
        assert TEST_CONFIG.population_size < 100
        assert TEST_CONFIG.max_wall_seconds < 600


class TestValidate:
    def test_default_config_validates(self):
        config = RepairConfig()
        assert config.validate() is config

    @pytest.mark.parametrize(
        "overrides,fragment",
        [
            ({"population_size": 0}, "population_size"),
            ({"rt_threshold": 1.5}, "rt_threshold"),
            ({"elitism_fraction": -0.1}, "elitism_fraction"),
            ({"tournament_size": 0}, "tournament_size"),
            ({"phi": -1.0}, "phi"),
            ({"max_wall_seconds": 0.0}, "max_wall_seconds"),
            ({"max_fitness_evals": 0}, "max_fitness_evals"),
            ({"max_sim_steps": 0}, "max_sim_steps"),
            ({"minimize_budget": -1}, "minimize_budget"),
            ({"workers": 0}, "workers"),
            ({"backend": "gpu"}, "backend"),
            ({"eval_chunk_size": 0}, "eval_chunk_size"),
            ({"eval_deadline_seconds": -1.0}, "eval_deadline_seconds"),
            ({"eval_max_retries": -1}, "eval_max_retries"),
            ({"worker_mem_mb": -1}, "worker_mem_mb"),
        ],
    )
    def test_out_of_range_rejected(self, overrides, fragment):
        config = RepairConfig().scaled(**overrides)
        with pytest.raises(ConfigError, match=fragment):
            config.validate()

    def test_error_names_the_source(self):
        with pytest.raises(ConfigError, match="^my.conf:"):
            RepairConfig().scaled(workers=0).validate("my.conf")


class TestFromMapping:
    def test_coerces_string_values(self):
        config = RepairConfig.from_mapping(
            {
                "population_size": "300",
                "phi": "1.5",
                "backend": "serial",
                "extended_templates": "yes",
                "max_fitness_evals": "none",
            }
        )
        assert config.population_size == 300
        assert config.phi == 1.5
        assert config.backend == "serial"
        assert config.extended_templates is True
        assert config.max_fitness_evals is None

    def test_unknown_key_fails_fast_naming_the_key(self):
        with pytest.raises(ConfigError, match="poplation_size"):
            RepairConfig.from_mapping({"poplation_size": "300"})
        # The message also lists valid keys.
        with pytest.raises(ConfigError, match="population_size"):
            RepairConfig.from_mapping({"poplation_size": "300"})

    def test_bad_value_names_the_key(self):
        with pytest.raises(ConfigError, match="population_size"):
            RepairConfig.from_mapping({"population_size": "lots"})
        with pytest.raises(ConfigError, match="extended_templates"):
            RepairConfig.from_mapping({"extended_templates": "maybe"})

    def test_applies_on_top_of_base(self):
        base = RepairConfig(population_size=42)
        config = RepairConfig.from_mapping({"phi": 3.0}, base=base)
        assert config.population_size == 42
        assert config.phi == 3.0

    def test_validates_result(self):
        with pytest.raises(ConfigError, match="workers"):
            RepairConfig.from_mapping({"workers": "0"})


class TestFromFile:
    def _write(self, tmp_path, body):
        path = tmp_path / "repair.conf"
        path.write_text(body)
        return path

    def test_reads_gp_section_and_seeds(self, tmp_path):
        path = self._write(
            tmp_path,
            "[gp]\n"
            "population_size = 64  ; inline comment\n"
            "backend = process\n"
            "workers = 2\n"
            "seeds = 3, 4 ,5\n",
        )
        config, seeds = RepairConfig.from_file(path)
        assert config.population_size == 64
        assert config.backend == "process"
        assert config.workers == 2
        assert seeds == (3, 4, 5)

    def test_missing_section_returns_base(self, tmp_path):
        path = self._write(tmp_path, "[project]\nsource = x.v\n")
        base = RepairConfig(population_size=7)
        config, seeds = RepairConfig.from_file(path, base=base)
        assert config is base
        assert seeds is None

    def test_no_seeds_key_returns_none(self, tmp_path):
        path = self._write(tmp_path, "[gp]\npopulation_size = 8\n")
        _config, seeds = RepairConfig.from_file(path)
        assert seeds is None

    def test_empty_seeds_rejected(self, tmp_path):
        path = self._write(tmp_path, "[gp]\nseeds =\n")
        with pytest.raises(ConfigError, match="at least one seed is required"):
            RepairConfig.from_file(path)

    def test_unknown_key_names_file_and_section(self, tmp_path):
        path = self._write(tmp_path, "[gp]\npoplation_size = 8\n")
        with pytest.raises(ConfigError, match=r"repair\.conf \[gp\].*poplation_size"):
            RepairConfig.from_file(path)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            RepairConfig.from_file(tmp_path / "missing.conf")


class TestFromCliArgs:
    def test_namespace_with_aliases(self):
        import argparse

        args = argparse.Namespace(
            population=99, budget=30.0, workers=None, backend="serial",
            seeds=[0], conf=None,
        )
        config = RepairConfig.from_cli_args(args)
        assert config.population_size == 99
        assert config.max_wall_seconds == 30.0
        assert config.backend == "serial"
        # Unrecognised argparse attributes (seeds, conf) are ignored.

    def test_none_values_skipped(self):
        base = RepairConfig(population_size=5)
        config = RepairConfig.from_cli_args({"population": None}, base=base)
        assert config.population_size == 5

    def test_workers_clamped_to_one(self):
        config = RepairConfig.from_cli_args({"workers": -4})
        assert config.workers == 1

    def test_validation_applies(self):
        with pytest.raises(ConfigError, match="command line"):
            RepairConfig.from_cli_args({"population": 0})

    def test_supervision_flags_reach_config(self):
        """--eval-deadline / --worker-mem-mb land on their config fields
        (argparse dests match the field names, so no alias is needed)."""
        config = RepairConfig.from_cli_args(
            {"eval_deadline_seconds": 2.5, "eval_max_retries": 0, "worker_mem_mb": 256}
        )
        assert config.eval_deadline_seconds == 2.5
        assert config.eval_max_retries == 0
        assert config.worker_mem_mb == 256
