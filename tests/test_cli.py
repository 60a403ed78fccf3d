import random
import re
import subprocess
import sys

import numpy as np
import pytest

from nvswap import cli
from nvswap.config import (
    ConfigError,
    build_protocol_params,
    get_bool,
    get_float,
    get_float_list,
    get_int,
    get_pairs,
    parse_config_text,
)
from nvswap.protocol import HeraldType, ProtocolParams, run_protocol
from nvswap.states import DIM_TOTAL, BellLabel, JointState, StateValidationError

from test_readme import EXAMPLES


def write_config(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


RUN_CFG = """
# approach B at half absorption
approach = B
p_abs = 0.5
rounds = 16
p_loss = 0.066
"""


class TestConfigParsing:
    def test_parses_comments_and_blank_lines(self):
        options = parse_config_text(
            "# header\napproach = B  # trailing\n\np_abs = 0.5\n"
        )
        assert options == {"approach": "B", "p_abs": "0.5"}

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("p_abs = 0.5\np_abs = 0.6\n")

    def test_rejects_malformed_lines(self):
        with pytest.raises(ConfigError):
            parse_config_text("p_abs 0.5\n")
        with pytest.raises(ConfigError):
            parse_config_text("= 0.5\n")
        with pytest.raises(ConfigError):
            parse_config_text("p_abs =\n")

    def test_pairs_parser(self):
        assert get_pairs({"x": "0.5:16, 0.9:4"}, "x") == ((0.5, 16), (0.9, 4))
        with pytest.raises(ConfigError):
            get_pairs({"x": "0.5-16"}, "x")
        with pytest.raises(ConfigError):
            get_pairs({"x": "0.5:abc"}, "x")

    @pytest.mark.parametrize("getter", [get_float, get_int, get_bool, get_float_list, get_pairs])
    def test_getters_require_a_key_without_default(self, getter):
        with pytest.raises(ConfigError, match="^key 'x' is required$"):
            getter({}, "x")

    def test_getters_return_the_default_of_a_missing_key(self):
        assert get_float({}, "x", 0.5) == 0.5
        assert get_int({}, "x", None) is None
        assert get_bool({}, "x", False) is False
        assert get_int({"x": "3"}, "x", None) == 3

    def test_unit_suffixed_keys_convert(self):
        params = build_protocol_params(
            parse_config_text(
                "approach = B\np_abs = 0.5\nrounds = 8\ntau_ns = 100\nt2_us = 50\nloss_db = 0.3\n"
            )
        )
        assert params.tau_cycle == pytest.approx(100e-9)
        assert params.t2 == pytest.approx(50e-6)
        assert params.p_loss == pytest.approx(0.0667457, rel=1e-5)

    def test_loss_keys_are_exclusive(self):
        with pytest.raises(ConfigError, match="loss"):
            build_protocol_params(
                parse_config_text(
                    "approach = B\np_abs = 0.5\nrounds = 8\np_loss = 0.1\nloss_db = 0.3\n"
                )
            )

    def test_missing_required_key_names_it(self):
        with pytest.raises(ConfigError, match="p_abs"):
            build_protocol_params(parse_config_text("approach = B\nrounds = 8\n"))


class TestCliRun:
    def test_summary_row_matches_library(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG)
        assert cli.main(["run", "--config", cfg]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == (
            "round,cumulative_success,fidelity_phi_plus,fidelity_phi_minus,"
            "fidelity_psi_plus,fidelity_psi_minus"
        )
        assert len(lines) == 1 + 16 + 1
        result = run_protocol(ProtocolParams("B", p_abs=0.5, rounds=16, p_loss=0.066))
        summary = lines[-1].split(",")
        assert summary[0] == "total"
        assert summary[1] == f"{result.total_success:.6g}"
        for column, label in zip(summary[2:], BellLabel):
            assert column == f"{result.fidelity_per_target[label]:.6g}"

    def test_flip_observable_key_runs_the_zz_variant(self, tmp_path, capsys):
        text = "approach = A\np_abs = 0.5\nrounds = 10\np_loss = 0.066\n"
        summaries = {}
        for observable in ("XX", "ZZ"):
            cfg = write_config(tmp_path, "run.cfg", text + f"flip_observable = {observable}\n")
            assert cli.main(["run", "--config", cfg]) == 0
            summaries[observable] = capsys.readouterr().out.strip().splitlines()[-1]
        result = run_protocol(
            ProtocolParams("A", p_abs=0.5, rounds=10, p_loss=0.066, flip_observable="ZZ")
        )
        expected = [result.total_success, *result.fidelity_per_target.values()]
        assert summaries["ZZ"] == ",".join(["total", *(f"{value:.6g}" for value in expected)])
        assert summaries["ZZ"] != summaries["XX"]

    def test_round_rows_are_cumulative(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG)
        cli.main(["run", "--config", cfg])
        lines = capsys.readouterr().out.strip().splitlines()
        values = [float(line.split(",")[1]) for line in lines[1:-1]]
        assert values == sorted(values)

    @pytest.mark.parametrize("approach,rounds", [("A", 10), ("B", 16)])
    def test_round_rows_are_running_click_fidelities(self, tmp_path, capsys, approach, rounds):
        text = f"approach = {approach}\nrounds = {rounds}\n"
        text += "p_abs = 0.3\np_loss = 0.05\np_dark = 0.02\n"
        assert cli.main(["run", "--config", write_config(tmp_path, "run.cfg", text)]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        result = run_protocol(build_protocol_params(parse_config_text(text)))
        clicks = [r for r in result.herald_log if r.herald_type is HeraldType.QND_CLICK]
        # dark clicks (false weight) herald more than one target
        assert len({r.target for r in clicks if r.false_weight > 0.0}) > 1
        weight = dict.fromkeys(BellLabel, 0.0)
        weighted = dict.fromkeys(BellLabel, 0.0)
        for n, row in enumerate(rows[:-1], start=1):
            for record in clicks:
                if record.round == n:
                    weight[record.target] += record.weight
                    weighted[record.target] += record.weight * record.fidelity
            assert row[2:] == [
                f"{weighted[label] / weight[label]:.6g}" if weight[label] > 0.0 else ""
                for label in BellLabel
            ]
        # the total row adds approach A's parity heralds
        total = result.fidelity_per_target
        assert rows[-1][2:] == [f"{total[label]:.6g}" for label in BellLabel]

    def test_trajectory_column_appears_and_is_seeded(self, tmp_path):
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = ["run", "--config", cfg, "--trajectories", "2000", "--seed", "9"]
        assert cli.main(base + ["--out", str(out_a)]) == 0
        assert cli.main(base + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().splitlines()[0]
        assert header.endswith("mc_cumulative_success")

    def test_approach_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "run.cfg", "approach = B\np_abs = 0.5\nrounds = 10\n"
        )
        assert cli.main(["run", "--config", cfg, "--approach", "A"]) == 0
        out = capsys.readouterr().out
        result = run_protocol(ProtocolParams("A", p_abs=0.5, rounds=10))
        assert out.strip().splitlines()[-1].split(",")[1] == f"{result.total_success:.6g}"

    def test_seed_and_trajectory_flags_override_config(self, tmp_path, capsys):
        keyed = RUN_CFG + "trajectories = 0\nseed = -3\n"
        cfg = write_config(tmp_path, "flagged.cfg", keyed)
        flags = ["--trajectories", "50", "--seed", "3"]
        assert cli.main(["run", "--config", cfg, *flags]) == 0
        flagged = capsys.readouterr().out
        cfg = write_config(tmp_path, "keyed.cfg", RUN_CFG + "trajectories = 50\nseed = 3\n")
        assert cli.main(["run", "--config", cfg]) == 0
        assert flagged == capsys.readouterr().out
        assert flagged.splitlines()[0].endswith("mc_cumulative_success")

    def test_overflowing_dephasing_ratio_runs(self, tmp_path, capsys):
        # (tau / t2) ** 2 raised OverflowError (exit 1); the spins now fully dephase
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG + "tau_ns = 1e10\nt2_us = 1e-150\n")
        assert cli.main(["run", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("round,cumulative_success")


class TestCliErrors:
    def test_unknown_key_exits_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "run.cfg", "approach = B\np_abs = 0.5\nrounds = 8\nbogus = 1\n"
        )
        out = tmp_path / "table.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "bogus" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_key_exits_2_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "run.cfg", "approach = B\nrounds = 8\n")
        assert cli.main(["run", "--config", cfg]) == 2
        assert "p_abs" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_flip_period_key_exits_2(self, tmp_path, capsys):
        # approach B's l_z and l_x follow from rounds and are no config keys
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG + "l_z = 4\n")
        assert cli.main(["run", "--config", cfg]) == 2
        assert "unknown key 'l_z'" in capsys.readouterr().err

    def test_invalid_parameter_exits_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "run.cfg", "approach = B\np_abs = 1.5\nrounds = 8\n"
        )
        assert cli.main(["run", "--config", cfg]) == 2
        assert "p_abs" in capsys.readouterr().err

    def test_numerical_violation_exits_3(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG)
        out = tmp_path / "table.csv"

        def explode(params):
            raise StateValidationError("matrix is not positive semidefinite")

        monkeypatch.setattr(cli, "run_protocol", explode)
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert "invariant" in capsys.readouterr().err
        assert not out.exists()


    def test_non_psd_state_exits_3(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG)
        matrix = np.zeros((DIM_TOTAL, DIM_TOTAL))
        matrix[:2, :2] = [[0.5, 0.7], [0.7, 0.5]]  # eigenvalues 1.2 and -0.2

        def non_psd_run(params):
            return JointState(matrix, 1.0)

        monkeypatch.setattr(cli, "run_protocol", non_psd_run)
        assert cli.main(["run", "--config", cfg]) == 3
        assert "negative eigenvalue" in capsys.readouterr().err

    def test_negative_trajectory_count_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG)
        assert cli.main(["run", "--config", cfg, "--trajectories", "-5"]) == 2
        assert "n_trajectories" in capsys.readouterr().err

    def test_zero_trajectory_flag_exits_2(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG)
        engine_runs = []
        monkeypatch.setattr(cli, "run_protocol", engine_runs.append)
        assert cli.main(["run", "--config", cfg, "--trajectories", "0"]) == 2
        assert engine_runs == []  # rejected before any computation
        captured = capsys.readouterr()
        assert "n_trajectories" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "extra, flags",
        [
            ("", ["--trajectories", "10", "--seed", "-1"]),
            ("trajectories = 10\nseed = -3\n", []),
            ("", ["--seed", "-1"]),
            ("seed = -3\n", []),
        ],
        ids=["flag", "config_key", "flag_without_sampling", "config_key_without_sampling"],
    )
    def test_negative_seed_exits_2(self, tmp_path, capsys, monkeypatch, extra, flags):
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG + extra)
        engine_runs = []
        monkeypatch.setattr(cli, "run_protocol", engine_runs.append)
        assert cli.main(["run", "--config", cfg, *flags]) == 2
        assert engine_runs == []  # rejected before any computation
        captured = capsys.readouterr()
        assert "seed must be a non-negative integer" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("bounds", ["--seed", "-5"]),
            ("bounds", ["--trajectories", "0"]),
            ("bounds", ["--approach", "B"]),
            ("sweep", ["--seed", "1"]),
            ("chain", ["--trajectories", "10"]),
            ("optimize", ["--seed", "1"]),
        ],
    )
    def test_flag_a_subcommand_does_not_read_exits_2(self, tmp_path, capsys, command, flags):
        cfg = write_config(tmp_path, "any.cfg", "")
        # argparse rejects the flag before the config is read, by raising
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--config", cfg, *flags])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert captured.out == ""

    def test_unwritable_output_path_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG)
        out = tmp_path / "no" / "such" / "table.csv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"error: cannot write output file {out}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, key",
        [
            pytest.param("run", "approach = B\np_abs = half\nrounds = 8\n", "p_abs", id="float"),
            pytest.param("run", "approach = B\np_abs = 0.5\nrounds = 8.0\n", "rounds", id="int"),
            pytest.param(
                "sweep",
                "approach = B\np_abs_axis = 0.5\np_loss_axis = 0\noptimize_l = maybe\n",
                "optimize_l",
                id="bool",
            ),
            pytest.param(
                "sweep",
                "approach = B\np_abs_axis = 0.5, x\np_loss_axis = 0\nrounds = 8\n",
                "p_abs_axis",
                id="list",
            ),
            pytest.param(
                "sweep",
                "approach = B\np_abs_axis = ,\np_loss_axis = 0\nrounds = 8\n",
                "p_abs_axis",
                id="empty_list",
            ),
            pytest.param("bounds", "bounds_pairs = , ,\n", "bounds_pairs", id="no_pairs"),
            pytest.param("run", "p_abs = 0.5\nrounds = 8\n", "approach", id="no_approach"),
            pytest.param(
                "chain", "approach = B\np_abs = 0.5\nrounds = 8\nhops = 0\n", "hops", id="no_hops"
            ),
        ],
    )
    def test_malformed_value_exits_2_naming_its_key(self, tmp_path, capsys, command, text, key):
        cfg = write_config(tmp_path, "cmd.cfg", text)
        assert cli.main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert f"key '{key}'" in captured.err
        assert captured.out == ""

    def test_trajectory_count_beyond_the_index_range_exits_2(self, tmp_path, capsys):
        # raised a bare OverflowError (exit 1 with a traceback)
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG)
        assert cli.main(["run", "--config", cfg, "--trajectories", str(10**400)]) == 2
        captured = capsys.readouterr()
        assert "n_trajectories must be an integer in [1, sys.maxsize]" in captured.err
        assert captured.out == ""

    def test_hop_count_beyond_the_index_range_exits_2(self, tmp_path, capsys):
        # raised a bare OverflowError (exit 1 with a traceback)
        text = f"approach = B\np_abs = 0.5\nrounds = 8\nhops = {10**400}\n"
        assert cli.main(["chain", "--config", write_config(tmp_path, "chain.cfg", text)]) == 2
        captured = capsys.readouterr()
        assert "key 'hops' must be an integer in [1, sys.maxsize]" in captured.err
        assert captured.out == ""

    def test_zero_trajectory_config_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG + "trajectories = 0\n")
        assert cli.main(["run", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "n_trajectories" in captured.err
        assert captured.out == ""


class TestCliBounds:
    def test_table_and_degenerate_row(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "bounds.cfg",
            "bounds_pairs = 0:10, 0.9:4\np_qnd = 0.99\np_dark = 2e-4\n",
        )
        assert cli.main(["bounds", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "p_abs,rounds,fn_over_q_qnd,fp_over_p_dark"
        zero_row = lines[1].split(",")
        assert float(zero_row[2]) == 0.0
        assert float(zero_row[3]) == pytest.approx(9.99101, rel=1e-5)
        high_row = lines[2].split(",")
        assert float(high_row[2]) == pytest.approx(0.998794, rel=1e-5)
        assert float(high_row[3]) == pytest.approx(0.111098, rel=1e-5)

    def test_empty_pair_chunks_are_skipped(self, tmp_path, capsys):
        outputs = []
        for pairs in ("0:10, 0.9:4", "0:10, , 0.9:4,"):
            cfg = write_config(tmp_path, "bounds.cfg", f"bounds_pairs = {pairs}\n")
            assert cli.main(["bounds", "--config", cfg]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_requires_pairs_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bounds.cfg", "p_qnd = 0.99\n")
        assert cli.main(["bounds", "--config", cfg]) == 2
        assert "bounds_pairs" in capsys.readouterr().err


class TestCliSweepAndChain:
    def test_single_cell_sweep_matches_run(self, tmp_path, capsys):
        run_cfg = write_config(tmp_path, "run.cfg", RUN_CFG)
        sweep_cfg = write_config(
            tmp_path,
            "sweep.cfg",
            "approach = B\np_abs_axis = 0.5\np_loss_axis = 0.066\nrounds = 16\n",
        )
        cli.main(["run", "--config", run_cfg])
        run_summary = capsys.readouterr().out.strip().splitlines()[-1].split(",")
        cli.main(["sweep", "--config", sweep_cfg])
        sweep_lines = capsys.readouterr().out.strip().splitlines()
        assert sweep_lines[0] == (
            "p_abs,p_loss,approach,rounds_used,total_success,fidelity_phi_plus,"
            "fidelity_phi_minus,fidelity_psi_plus,fidelity_psi_minus"
        )
        cell = sweep_lines[1].split(",")
        assert cell[3] == "16"
        assert cell[4] == run_summary[1]
        assert cell[5:9] == run_summary[2:6]

    def test_optimize_l_false_sweeps_the_given_rounds(self, tmp_path, capsys):
        text = "approach = B\np_abs_axis = 0.5\np_loss_axis = 0.066\nrounds = 16\n"
        outputs = []
        for extra in ("", "optimize_l = false\n"):
            cfg = write_config(tmp_path, "sweep.cfg", text + extra)
            assert cli.main(["sweep", "--config", cfg]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_sweep_requires_rounds_or_optimize(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "sweep.cfg",
            "approach = B\np_abs_axis = 0.5\np_loss_axis = 0.066\n",
        )
        assert cli.main(["sweep", "--config", cfg]) == 2
        assert "rounds" in capsys.readouterr().err

    def test_chain_rows_multiply(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "chain.cfg",
            "approach = B\np_abs = 0.5\nrounds = 8\np_loss = 0.066\nhops = 3\n",
        )
        assert cli.main(["chain", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "hops,chain_success,chain_fidelity"
        assert len(lines) == 4
        s1 = float(lines[1].split(",")[1])
        s3 = float(lines[3].split(",")[1])
        assert s3 == pytest.approx(s1**3, rel=1e-5)

    @pytest.mark.parametrize(
        "command,config",
        [
            pytest.param(
                "optimize", "approach = B\np_abs = 0.9\np_loss = 0.066\n", id="optimize"
            ),
            pytest.param(
                "sweep",
                "approach = B\np_abs_axis = 0.5\np_loss_axis = 0.066\noptimize_l = true\n",
                id="sweep",
            ),
        ],
    )
    @pytest.mark.parametrize("value", ["nan", "-0.2", "2"])
    def test_invalid_min_fidelity_exits_2(self, tmp_path, capsys, command, config, value):
        cfg = write_config(tmp_path, "cmd.cfg", config + f"min_fidelity = {value}\n")
        assert cli.main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "min_fidelity" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("plan", ["rounds = 8", "optimize_l = true"])
    def test_sweep_with_invalid_objective_exits_2(self, tmp_path, capsys, plan):
        cfg = write_config(
            tmp_path,
            "sweep.cfg",
            f"approach = B\np_abs_axis = 0.5\np_loss_axis = 0.066\n{plan}\nobjective = bogus\n",
        )
        assert cli.main(["sweep", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert "objective" in captured.err
        assert captured.out == ""

    def test_optimize_reports_reference_point(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "opt.cfg", "approach = B\np_abs = 0.9\np_loss = 0.066\n"
        )
        assert cli.main(["optimize", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("rounds,l_z,l_x,total_success")
        row = lines[1].split(",")
        assert row[0] == "8" and row[1] == "2" and row[2] == "4"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG)
        proc = subprocess.run(
            [sys.executable, "-m", "nvswap.cli", "run", "--config", cfg],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("round,cumulative_success")

    def test_determinism_across_processes(self, tmp_path):
        cfg = write_config(tmp_path, "run.cfg", RUN_CFG)
        args = [sys.executable, "-m", "nvswap.cli", "run", "--config", cfg]
        first = subprocess.run(args, capture_output=True).stdout
        second = subprocess.run(args, capture_output=True).stdout
        assert first == second


# odd spellings of a config value: non-finite and out-of-range floats, ints
# past Python's 4,300-digit limit, hex, underscores, bool words, lists, empty
# values and malformed pairs
ODD_VALUES = (
    *("nan", "-nan", "NaN", "inf", "-inf", "+inf", "Infinity", "-Infinity"),
    *("1e400", "-1e400", "1e-400", "-1e-400", "9" * 4301, "-" + "9" * 4301, "0." + "9" * 4301),
    *("0x10", "0X1F", "0x1p-1", "1_0", "0_5", "0.5_0", "_1", "1_", "1__0"),
    *("true", "False", "yes", "no", "on", "off"),
    *("0.5, 0.7", "[0.5]", "(1, 2)", "0.5 0.7", "1,", ",", ""),
    *("0.5:", ":16", "0.5:16:2", "0.5;16", "a:b", "0.5:1.5", "0.5:-4", "0.5:0", "0.5:1_6"),
)


def odd_values(count: int, seed: int) -> list:
    """A seeded sample of (command, key, odd value): one key of a README
    config and the value that replaces its own."""
    cases = [
        (command, key, value)
        for command, (config, _) in sorted(EXAMPLES.items())
        for key in parse_config_text(config)
        for value in ODD_VALUES
    ]
    return random.Random(seed).sample(cases, count)


@pytest.mark.parametrize(
    "command,key,value",
    odd_values(200, seed=5),
    ids=lambda case: case if len(case) < 12 else f"{case[:8]}...",
)
def test_an_odd_config_value_exits_0_or_2(tmp_path, capsys, command, key, value):
    # accepted as the number float() or int() reads, or rejected as a bad
    # configuration; never a crash (1) or an invariant violation (3)
    config = re.sub(rf"^{key} =.*$", f"{key} = {value}", EXAMPLES[command][0], flags=re.M)
    path = write_config(tmp_path, f"{command}.cfg", config)
    assert cli.main([command, "--config", path]) in (0, 2)
