"""Tests for the command-line interface."""

import csv
import dataclasses

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.baseline == "tdx_baseline"
        assert args.cores == 2

    def test_compare_custom_arguments(self):
        args = build_parser().parse_args(
            ["compare", "-w", "pr,mcf", "-c", "secddr_xts", "-a", "200", "-n", "1"]
        )
        assert args.workloads == "pr,mcf"
        assert args.accesses == 200

    def test_compare_runner_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.jobs == 1
        assert args.no_cache is False

    def test_compare_runner_flags(self):
        args = build_parser().parse_args(
            ["compare", "-j", "4", "--cache-dir", "/tmp/c", "--no-cache", "--verbose"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache is True
        assert args.verbose is True

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.arities == "8,64,128"
        assert args.baseline == "tdx_baseline"
        assert args.jobs == 1


class TestCommands:
    def test_configs_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "secddr_xts" in out
        assert "integrity_tree_64" in out
        assert "RAP" in out

    def test_list_prints_both_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Configuration registry" in out
        assert "Workload registry" in out
        assert "secddr" in out and "mcf" in out
        assert "mechanism" in out and "memory-intensive" in out

    def test_unknown_configuration_suggests_closest(self, capsys):
        assert main(["compare", "-w", "gcc", "-c", "secddr_xtz", "-a", "200", "-n", "1"]) == 2
        err = capsys.readouterr().err
        assert "unknown configuration 'secddr_xtz'" in err
        assert "closest match: 'secddr_xts'" in err

    def test_unknown_workload_suggests_closest(self, capsys):
        assert main(["compare", "-w", "mfc", "-c", "secddr_xts", "-a", "200", "-n", "1"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload 'mfc'" in err
        assert "closest match: 'mcf'" in err

    def test_set_override_derives_configurations(self, capsys):
        assert main([
            "compare", "-w", "gcc", "-c", "secddr_xts", "-a", "200", "-n", "1",
            "--set", "counters_per_line=32",
        ]) == 0
        out = capsys.readouterr().out
        assert "secddr_xts+counters_per_line=32" in out

    def test_set_unknown_field_is_a_clean_error(self, capsys):
        assert main(["compare", "-w", "gcc", "--set", "bogus=1"]) == 2
        err = capsys.readouterr().err
        assert "unknown override field 'bogus'" in err

    def test_set_unknown_field_suggests_closest_match(self, capsys):
        # Typos in experiment fields used to be unreachable via --set; now
        # they are valid targets and misspellings get a suggestion.
        assert main(["compare", "-w", "gcc", "--set", "num_acesses=10"]) == 2
        err = capsys.readouterr().err
        assert "closest match: 'num_accesses'" in err

    def test_set_experiment_field_overrides_the_run(self, capsys):
        assert main([
            "compare", "-w", "gcc", "-c", "secddr_ctr", "-a", "150", "-n", "1",
            "--set", "mshr_entries=4", "--set", "enable_prefetcher=false",
        ]) == 0
        assert "secddr_ctr" in capsys.readouterr().out

    def test_set_malformed_pair_is_a_clean_error(self, capsys):
        assert main(["compare", "-w", "gcc", "--set", "tree_arity"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_duplicate_configuration_names_still_work(self, capsys):
        # Exact duplicates collapse and run once (pre-registry behavior).
        assert main([
            "compare", "-w", "gcc", "-c", "secddr_xts,secddr_xts", "-a", "200", "-n", "1",
        ]) == 0
        assert "secddr_xts" in capsys.readouterr().out

    def test_baseline_name_shadowing_is_a_clean_error(self, capsys):
        assert main([
            "compare", "-w", "gcc", "-c", "secddr_xts", "-a", "200", "-n", "1",
            "--set", "name=tdx_baseline",
        ]) == 2
        assert "differs from the 'tdx_baseline' baseline" in capsys.readouterr().err

    def test_set_name_with_multiple_configs_is_a_clean_error(self, capsys):
        assert main([
            "compare", "-w", "gcc", "-c", "secddr_xts,secddr_ctr", "--set", "name=clash",
        ]) == 2
        assert "cannot be combined with multiple configurations" in capsys.readouterr().err

    def test_set_name_on_sweep_is_a_clean_error(self, capsys):
        assert main(["sweep", "-w", "mcf", "--arities", "64", "--set", "name=clash"]) == 2
        assert "not supported for sweep" in capsys.readouterr().err

    def test_set_swept_axis_on_sweep_is_a_clean_error(self, capsys):
        # Overriding the swept field would relabel every row to one point.
        assert main([
            "sweep", "-w", "mcf", "--arities", "8,64", "--set", "counters_per_line=32",
        ]) == 2
        err = capsys.readouterr().err
        assert "counters_per_line is not supported for sweep" in err
        assert main([
            "sweep", "-w", "mcf", "--arities", "8,64", "--set", "tree_arity=4",
        ]) == 2
        assert "tree_arity is not supported for sweep" in capsys.readouterr().err

    def test_unknown_workload_in_parallel_run_is_a_clean_error(self, capsys):
        # Worker-raised lookup errors must surface as the one-line message,
        # not hang the pool (regression: unpicklable RegistryLookupError).
        assert main([
            "compare", "-w", "mfc,gcc", "-c", "secddr_xts", "-a", "200", "-n", "1",
            "-j", "2",
        ]) == 2
        assert "unknown workload 'mfc'" in capsys.readouterr().err

    def test_workloads_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "sssp" in out
        assert "writes" in out

    def _reproduce(self, out, key, *extra):
        """Build one figure with ``repro reproduce``; returns its CSV rows."""
        assert main(["reproduce", "--figures", key, "--out", str(out), *extra]) == 0
        with open(out / ("%s.csv" % key), newline="") as handle:
            return list(csv.DictReader(handle))

    def test_power_table(self, tmp_path):
        rows = self._reproduce(tmp_path, "table2")
        assert "x8 8Gb DDR4-3200" in [row["configuration"] for row in rows]

    def test_security_report(self, tmp_path):
        rows = self._reproduce(tmp_path, "security")
        assert "counter_overflow_years" in [row["quantity"] for row in rows]

    def test_scalability_table(self, tmp_path):
        rows = self._reproduce(tmp_path, "scalability", "--smoke")
        assert rows[-1]["capacity_gib"] == "1024"

    def test_attack_matrix(self, tmp_path):
        rows = self._reproduce(tmp_path, "attacks", "--strict")
        matrix = {row["attack"]: row for row in rows}
        assert matrix["bus_replay"]["secddr"] == "detected"
        assert all(row["secddr"] == "detected" for row in rows)

    def test_attack_miss_fails_strict_reproduce(self, tmp_path, capsys, monkeypatch):
        """``--strict`` exits 1 when full SecDDR misses an attack."""
        import repro.figures.paper as paper
        from repro.attacks.results import AttackOutcome

        results = [
            dataclasses.replace(result, outcome=AttackOutcome.SUCCEEDED)
            if (result.configuration, result.attack) == ("secddr", "bus_replay") else result
            for result in paper.run_standard_campaign()
        ]
        monkeypatch.setattr(paper, "run_standard_campaign", lambda: results)
        argv = ["reproduce", "--figures", "attacks", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert main(argv + ["--strict"]) == 1
        assert "attacks: full SecDDR detects every attack" in capsys.readouterr().err

    def test_compare_small_run(self, capsys):
        exit_code = main([
            "compare", "-w", "gcc", "-c", "secddr_xts", "-a", "200", "-n", "1",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "gcc" in out
        assert "gmean" in out

    def test_compare_parallel_matches_serial_output(self, capsys):
        argv = ["compare", "-w", "gcc", "-c", "secddr_xts", "-a", "200", "-n", "1"]
        assert main(argv) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["-j", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out

    def test_compare_lists_a_repeated_configuration_once(self, capsys):
        argv = ["compare", "-w", "gcc", "-c", "secddr_xts,secddr_xts", "-a", "200", "-n", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["workload", "tdx_baseline", "secddr_xts"]
        assert out.count("gmean secddr_xts") == 1

    def test_compare_uses_and_reports_cache(self, tmp_path, capsys):
        argv = [
            "compare", "-w", "gcc", "-c", "secddr_xts", "-a", "200", "-n", "1",
            "--cache-dir", str(tmp_path), "--verbose",
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "cache: 0 hit(s), 2 miss(es)" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "cache: 2 hit(s), 0 miss(es)" in second.err
        assert second.out == first.out

    def test_compare_no_cache_writes_nothing(self, tmp_path, capsys):
        argv = [
            "compare", "-w", "gcc", "-c", "secddr_xts", "-a", "200", "-n", "1",
            "--cache-dir", str(tmp_path), "--no-cache",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert list(tmp_path.glob("*.json")) == []

    def test_sweep_small_run(self, capsys):
        exit_code = main([
            "sweep", "-w", "mcf", "--arities", "64", "-a", "200", "-n", "1",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "arity" in out
        assert "packing" in out
        assert "64" in out

    def test_sweep_derived_arity_runs(self, capsys):
        # Non-canonical arities derive their configuration group on the fly
        # instead of requiring pre-baked registry names.
        assert main(["sweep", "--arities", "16", "-w", "mcf", "-a", "200", "-n", "1"]) == 0
        out = capsys.readouterr().out
        assert "16" in out
        assert "arity" in out

    def test_sweep_invalid_arity_is_a_clean_error(self, capsys):
        assert main(["sweep", "--arities", "1", "-w", "mcf"]) == 2
        err = capsys.readouterr().err
        assert "arity must be >= 2" in err

    def test_sweep_non_numeric_arity_is_a_clean_error(self, capsys):
        assert main(["sweep", "--arities", "8x", "-w", "mcf"]) == 2
        assert "comma-separated integers" in capsys.readouterr().err

    def test_sweep_no_cache_reads_and_writes_no_cache(self, capsys):
        assert main([
            "sweep", "-w", "mcf", "--arities", "64", "-a", "200", "-n", "1",
            "--no-cache", "--verbose",
        ]) == 0
        err = capsys.readouterr().err
        assert "cache hit" not in err
        assert "cache:" not in err

    @pytest.mark.parametrize("cache_flags", [[], ["--no-cache"]])
    def test_sweep_runs_each_unique_job_once(self, capsys, monkeypatch, cache_flags):
        # Both sweeps run in one pass, so the jobs they share (the baseline,
        # the canonical packing groups) run once, with or without a cache.
        from repro.sim.engines import BatchEngine

        runs = []
        simulate = BatchEngine.simulate

        def counting_simulate(self, trace, spec, experiment):
            runs.append(spec.name)
            return simulate(self, trace, spec, experiment)

        monkeypatch.setattr(BatchEngine, "simulate", counting_simulate)
        assert main([
            "sweep", "-w", "mcf", "--arities", "8,64", "-a", "200", "-n", "1", *cache_flags,
        ]) == 0
        capsys.readouterr()
        assert sorted(runs) == sorted(set(runs))
        assert len(runs) == 7  # the baseline and two groups of three

    def test_sweep_verbose_streams_per_job_progress(self, capsys):
        assert main([
            "sweep", "-w", "mcf", "--arities", "64", "-a", "200", "-n", "1", "--verbose",
        ]) == 0
        err = capsys.readouterr().err
        assert "tdx_baseline" in err and "mcf" in err  # per-job completion lines

    def test_scalability_measured(self, tmp_path):
        self._reproduce(tmp_path, "scalability", "--smoke")
        report = (tmp_path / "REPORT.md").read_text()
        assert "| measured_gmean/secddr_xts |" in report


class TestEngineFlag:
    """The --engine flag and the engine registry listing."""

    def test_parser_accepts_engine_on_simulation_commands(self):
        for command in ("compare", "sweep", "reproduce"):
            args = build_parser().parse_args([command, "--engine", "batch"])
            assert args.engine == "batch"
            assert build_parser().parse_args([command]).engine is None

    def test_list_prints_engine_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Engine registry" in out
        assert "reference" in out
        assert "batch" in out
        assert "vectorized" in out

    def test_unknown_engine_suggests_closest(self, capsys):
        assert main(["compare", "-w", "gcc", "--engine", "bacth"]) == 2
        err = capsys.readouterr().err
        assert "unknown engine 'bacth'" in err
        assert "closest match: 'batch'" in err

    def test_unknown_engine_rejected_on_a_warm_cache(self, capsys, tmp_path):
        # Cache keys do not name the engine, so every job here is a hit; the
        # misspelled engine must still be rejected.
        common = ["compare", "-w", "gcc", "-c", "secddr_ctr", "-a", "150", "-n", "1",
                  "--cache-dir", str(tmp_path)]
        assert main(common) == 0
        capsys.readouterr()
        assert main(common + ["--engine", "bacth"]) == 2
        assert "unknown engine 'bacth'" in capsys.readouterr().err

    def test_unknown_engine_on_reproduce_fails_before_writing(self, capsys, tmp_path):
        out_dir = tmp_path / "artifact"
        assert main([
            "reproduce", "--smoke", "--engine", "bogus", "-o", str(out_dir),
        ]) == 2
        assert "unknown engine 'bogus'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_compare_batch_engine_matches_reference(self, capsys):
        common = ["compare", "-w", "gcc", "-c", "secddr_ctr", "-a", "150", "-n", "1"]
        assert main(common + ["--engine", "reference"]) == 0
        reference_out = capsys.readouterr().out
        assert main(common) == 0
        assert capsys.readouterr().out == reference_out

    def test_sweep_accepts_batch_engine(self, capsys):
        assert main([
            "sweep", "-w", "mcf", "--arities", "8", "-a", "150", "-n", "1",
            "--engine", "batch",
        ]) == 0
        assert "arity" in capsys.readouterr().out
