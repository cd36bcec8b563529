"""End-to-end CLI tests (in-process via ``repro.cli.main``)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.io.solution import read_solution
from repro.netlist.parser import read_netlist


def run_cli(*argv):
    return main(list(argv))


class TestGenerate:
    def test_writes_parseable_netlist(self, tmp_path, capsys):
        path = tmp_path / "grid.sp"
        assert run_cli(
            "generate", "--side", "8", "--tiers", "2", "-o", str(path)
        ) == 0
        netlist = read_netlist(path)
        assert netlist.stats()["nodes"] > 100
        assert "wrote" in capsys.readouterr().out


class TestSolve:
    def test_vp_solve_writes_solution(self, tmp_path, capsys):
        out = tmp_path / "vp.solution"
        assert run_cli(
            "solve", "--side", "10", "--method", "vp", "-o", str(out)
        ) == 0
        solution = read_solution(out)
        assert len(solution) == 10 * 10 * 3
        assert "IR drop" in capsys.readouterr().out

    def test_pcg_solve(self, capsys):
        assert run_cli("solve", "--side", "8", "--method", "pcg") == 0
        assert "PCG[jacobi]" in capsys.readouterr().out

    def test_spice_solve(self, capsys):
        assert run_cli("solve", "--side", "8", "--method", "spice") == 0
        assert "SPICE" in capsys.readouterr().out

    def test_heatmap_printed(self, capsys):
        assert run_cli("solve", "--side", "10", "--heatmap") == 0
        assert "IR-drop map" in capsys.readouterr().out

    def test_netlist_input(self, tmp_path, capsys):
        deck = tmp_path / "d.sp"
        deck.write_text("V1 a 0 1.8\nR1 a b 1\nI1 b 0 1m\n.op\n.end\n")
        out = tmp_path / "d.solution"
        assert run_cli("solve", "--netlist", str(deck), "-o", str(out)) == 0
        solution = read_solution(out)
        assert solution["a"] == pytest.approx(1.8)


class TestCompare:
    def test_pass_and_fail(self, tmp_path, capsys):
        a = tmp_path / "a.solution"
        b = tmp_path / "b.solution"
        a.write_text("n 1.8000\n")
        b.write_text("n 1.8001\n")
        assert run_cli("compare", str(a), str(b)) == 0
        assert run_cli("compare", str(a), str(b), "--budget", "1e-5") == 1
        assert "FAIL" in capsys.readouterr().out


class TestExperimentCommands:
    def test_sweep_tsv(self, capsys):
        assert run_cli(
            "sweep-tsv", "--side", "8", "--r-values", "1,0.05"
        ) == 0
        out = capsys.readouterr().out
        assert "GS iters" in out

    def test_rw_trap(self, capsys):
        assert run_cli(
            "rw-trap", "--side", "8", "--r-values", "1,0.05"
        ) == 0
        assert "mean walk len" in capsys.readouterr().out

    def test_phases(self, capsys):
        assert run_cli("phases", "--side", "10") == 0
        assert "cvn" in capsys.readouterr().out

    def test_transient(self, capsys):
        assert run_cli(
            "transient", "--side", "10", "--t-end", "2e-9",
            "--dt", "2e-10",
        ) == 0
        assert "worst droop" in capsys.readouterr().out


class TestSweep:
    def test_sweep_prints_table_and_writes_reports(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        assert run_cli(
            "sweep", "--side", "10", "--load-scales", "0.5,1.0",
            "--r-tsv-scales", "1,2",
            "--csv", str(csv_path), "--json", str(json_path),
        ) == 0
        out = capsys.readouterr().out
        assert "scenario" in out and "worst_drop_mV" in out
        assert "4 scenarios" in out
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 scenarios
        import json

        payload = json.loads(json_path.read_text())
        assert payload["n_scenarios"] == 4
        assert len(payload["scenarios"]) == 4

    def test_sweep_compare_sequential_reports_speedup(self, capsys):
        assert run_cli(
            "sweep", "--side", "10", "--load-scales", "0.5,1.5",
            "--compare-sequential",
        ) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "parity" in out

    def test_sweep_corner_levels(self, capsys):
        assert run_cli(
            "sweep", "--side", "8", "--tiers", "2",
            "--corner-levels", "0.7,1.3",
        ) == 0
        out = capsys.readouterr().out
        assert "corner-" in out

    def test_sweep_bad_scales(self, capsys):
        assert run_cli("sweep", "--side", "8", "--load-scales", "abc") == 2
        assert "error" in capsys.readouterr().err


class TestMonteCarlo:
    def test_mc_prints_quantiles_and_writes_reports(self, tmp_path, capsys):
        csv_path = tmp_path / "mc.csv"
        json_path = tmp_path / "mc.json"
        assert run_cli(
            "mc", "--side", "10", "--samples", "12",
            "--sigma-tsv", "0.15", "--sigma-width", "0.05",
            "--budget", "0.01", "--seed", "3",
            "--csv", str(csv_path), "--json", str(json_path),
        ) == 0
        out = capsys.readouterr().out
        assert "quantile" in out and "refactorizations 0" in out
        assert "P(drop >" in out
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("quantile")
        assert len(lines) == 5  # header + default 4 quantiles
        import json

        payload = json.loads(json_path.read_text())
        assert payload["n_samples"] == 12
        assert payload["stats"]["refactorizations"] == 0
        for q in payload["quantiles"]:
            assert q["ci_low_v"] <= q["worst_drop_v"] <= q["ci_high_v"]

    def test_mc_seed_reproducible(self, capsys):
        def quantile_table():
            assert run_cli(
                "mc", "--side", "8", "--samples", "6",
                "--sigma-tsv", "0.2", "--seed", "9",
            ) == 0
            # Header + separator + 4 default quantile rows (the summary
            # below them contains wall-clock timings).
            return capsys.readouterr().out.splitlines()[:6]

        assert quantile_table() == quantile_table()

    def test_mc_compare_naive(self, capsys):
        assert run_cli(
            "mc", "--side", "8", "--samples", "8",
            "--sigma-wire", "0.1", "--corr-length", "2", "--seed", "1",
            "--compare-naive",
        ) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "parity" in out

    def test_mc_nothing_varies_is_error(self, capsys):
        assert run_cli("mc", "--side", "8", "--samples", "4") == 2
        assert "nothing varies" in capsys.readouterr().err

    def test_sweep_width_scales(self, capsys):
        assert run_cli(
            "sweep", "--side", "8", "--load-scales", "1.0",
            "--width-scales", "0.9,1.1",
        ) == 0
        assert "width-" in capsys.readouterr().out


class TestSensitivity:
    def test_prints_top_gradients_and_writes_reports(self, tmp_path, capsys):
        csv = tmp_path / "grads.csv"
        json_path = tmp_path / "grads.json"
        assert run_cli(
            "sensitivity", "--side", "8", "--tiers", "2",
            "--top", "3",
            "--csv", str(csv), "--json", str(json_path),
        ) == 0
        out = capsys.readouterr().out
        assert "worst-drop" in out
        assert "0 new factorizations" in out
        assert "width[tier" in out
        import json

        payload = json.loads(json_path.read_text())
        assert payload["new_factorizations"] == 0
        assert len(payload["gradients"]) == payload["n_params"]
        assert csv.read_text().startswith("parameter,")

    def test_fd_check_reports_parity(self, capsys):
        assert run_cli(
            "sensitivity", "--side", "6", "--tiers", "2",
            "--params", "width,load", "--fd-check", "2",
        ) == 0
        out = capsys.readouterr().out
        assert "FD cross-check on 2 parameters" in out

    def test_node_metric_and_bad_inputs(self, capsys):
        assert run_cli(
            "sensitivity", "--side", "6", "--tiers", "2",
            "--node", "0,2,2", "--params", "tsv",
        ) == 0
        assert "node-drop" in capsys.readouterr().out
        assert run_cli(
            "sensitivity", "--side", "6", "--node", "nope"
        ) == 2
        assert run_cli(
            "sensitivity", "--side", "6", "--params", "quantum"
        ) == 2


class TestOptimize:
    def test_budget_mode_reduces_drop(self, tmp_path, capsys):
        json_path = tmp_path / "budget.json"
        assert run_cli(
            "optimize", "--side", "10", "--tiers", "3",
            "--mode", "budget", "--iterations", "4",
            "--json", str(json_path),
        ) == 0
        out = capsys.readouterr().out
        assert "worst-case IR drop" in out
        assert "0 new factorizations" in out
        import json

        payload = json.loads(json_path.read_text())
        assert (
            payload["worst_drop_after_v"] <= payload["worst_drop_before_v"]
        )

    def test_placement_mode(self, capsys):
        assert run_cli(
            "optimize", "--side", "10", "--tiers", "2",
            "--mode", "placement", "--pins", "20", "--iterations", "2",
        ) == 0
        out = capsys.readouterr().out
        assert "20 pins" in out
        assert "worst-case IR drop" in out

    def test_optimize_over_corners(self, capsys):
        assert run_cli(
            "optimize", "--side", "8", "--mode", "budget",
            "--load-scales", "0.9,1.1", "--iterations", "2",
        ) == 0
        assert "worst-case IR drop" in capsys.readouterr().out

    def test_bad_bounds(self, capsys):
        assert run_cli(
            "optimize", "--side", "8", "--bounds", "0.5"
        ) == 2


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            run_cli("--version")
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestErrors:
    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            run_cli()

    def test_repro_error_becomes_exit_2(self, tmp_path):
        bad = tmp_path / "bad.sp"
        bad.write_text("R1 a b notanumber\n")
        assert run_cli("solve", "--netlist", str(bad)) == 2

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--vdd", "nan", "vdd"), ("--r-tsv", "0", "r_tsv"),
         ("--tiers", "0", "tiers")],
    )
    def test_bad_stack_flag_names_the_field(self, capsys, flag, value, field):
        assert run_cli("solve", "--side", "8", flag, value) == 2
        assert f"error: {field} must be" in capsys.readouterr().err


class TestTransientSweep:
    def test_sweep_prints_table_and_writes_reports(self, tmp_path, capsys):
        import json

        csv_path = tmp_path / "transient.csv"
        json_path = tmp_path / "transient.json"
        assert run_cli(
            "transient", "--side", "10", "--sweep",
            "--step-corners", "0.5,1.5", "--dt", "5e-10",
            "--t-end", "2e-9", "--t-step", "5e-10",
            "--csv", str(csv_path), "--json", str(json_path),
        ) == 0
        out = capsys.readouterr().out
        assert "worst_droop_mV" in out
        assert "2 scenarios" in out and "factor group" in out
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 scenarios
        payload = json.loads(json_path.read_text())
        assert payload["n_scenarios"] == 2
        assert payload["n_factor_groups"] == 1
        assert len(payload["scenarios"]) == 2

    def test_sweep_compare_sequential_reports_parity(self, capsys):
        assert run_cli(
            "transient", "--side", "10", "--sweep",
            "--step-corners", "0.5,1.5", "--dt", "5e-10",
            "--t-end", "2e-9", "--compare-sequential",
        ) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "max parity error 0.0000 mV" in out

    def test_ramp_family_with_decap_grid(self, capsys):
        assert run_cli(
            "transient", "--side", "10", "--tiers", "2", "--sweep",
            "--ramp-rises", "0,1e-9", "--decap-boosts", "4",
            "--dt", "5e-10", "--t-end", "2e-9",
        ) == 0
        out = capsys.readouterr().out
        # 2 ramp shapes x (uniform + 2 tiers) placements.
        assert "6 scenarios" in out

    def test_pulse_family(self, capsys):
        assert run_cli(
            "transient", "--side", "10", "--sweep",
            "--pulse-duties", "0.5", "--period", "1e-9",
            "--dt", "2.5e-10", "--t-end", "2e-9",
        ) == 0
        assert "1 scenarios" in capsys.readouterr().out

    def test_stimulus_families_mutually_exclusive(self, capsys):
        assert run_cli(
            "transient", "--side", "10", "--sweep",
            "--step-corners", "1.0", "--pulse-duties", "0.5",
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestEco:
    def test_strap_sweep_ranks_and_writes_reports(self, tmp_path, capsys):
        import json

        csv_path = tmp_path / "eco.csv"
        json_path = tmp_path / "eco.json"
        assert run_cli(
            "eco", "--side", "10",
            "--sweep", "strap", "--candidates", "4",
            "--csv", str(csv_path), "--json", str(json_path),
        ) == 0
        out = capsys.readouterr().out
        assert "4 candidate(s)" in out
        assert "0 new factorization(s)" in out
        payload = json.loads(json_path.read_text())
        assert len(payload["candidates"]) == 4
        assert payload["eval_factorizations"] == 0
        assert csv_path.read_text().count("\n") == 5  # header + 4 rows

    def test_candidate_file_input(self, tmp_path, capsys):
        import json

        edits = tmp_path / "candidates.json"
        edits.write_text(json.dumps({
            "candidates": [
                {"name": "widen", "edits": [
                    {"type": "strap", "tier": 0, "orientation": "h",
                     "index": 2, "g_strap": 1.5, "span": [1, 4]},
                ]},
                {"name": "via", "edits": [
                    {"type": "tsv", "pillars": [0, 1], "scale": 0.5},
                ]},
            ]
        }))
        assert run_cli(
            "eco", "--side", "10", "--edits", str(edits), "--verify", "1.0",
        ) == 0
        out = capsys.readouterr().out
        assert "widen" in out and "via" in out
        assert "verified 2/2" in out

    def test_compare_refactorize_reports_both_speedups(self, capsys):
        assert run_cli(
            "eco", "--side", "10", "--candidates", "3",
            "--compare-refactorize",
        ) == 0
        out = capsys.readouterr().out
        assert "re-factorization baseline" in out
        assert "end-to-end" in out
        assert "factorization pipeline" in out

    def test_cache_entries_must_hold_one(self, capsys):
        assert run_cli(
            "eco", "--side", "10", "--candidates", "2",
            "--cache-entries", "1",
        ) == 0

    def test_unknown_edit_type_exits_2(self, tmp_path, capsys):
        import json

        edits = tmp_path / "bad.json"
        edits.write_text(json.dumps({
            "candidates": [
                {"name": "x", "edits": [{"type": "teleport"}]}
            ]
        }))
        assert run_cli("eco", "--side", "10", "--edits", str(edits)) == 2
        assert "unknown edit type" in capsys.readouterr().err
