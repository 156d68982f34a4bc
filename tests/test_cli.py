"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.stencil import native_available


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_commands_parse(self):
        for command in (
            "table1", "table2", "table3", "table4", "traffic",
            "ablations", "future-work", "generality", "duel", "energy",
            "autotune", "deviation", "all",
            "calibrate",
        ):
            args = build_parser().parse_args([command])
            assert args.command == command

    def test_verify_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert tuple(args.shape) == (24, 16, 8)
        assert args.steps == 2

    def test_recommend_options(self):
        args = build_parser().parse_args(
            ["recommend", "-P", "8", "--shape", "64", "32", "16"]
        )
        assert args.processors == 8
        assert tuple(args.shape) == (64, 32, 16)

    def test_engine_fault_options(self):
        args = build_parser().parse_args(
            [
                "engine", "--faults", "crash@island=1,step=3",
                "corrupt@island=0,step=7", "--checkpoint-every", "5",
                "--checkpoint-dir", "ckpts", "--retries", "3",
                "--rollbacks", "4", "--mass-drift-limit", "1e-6",
            ]
        )
        assert args.faults == [
            "crash@island=1,step=3", "corrupt@island=0,step=7",
        ]
        assert args.checkpoint_every == 5
        assert args.checkpoint_dir == "ckpts"
        assert args.retries == 3
        assert args.rollbacks == 4
        assert args.mass_drift_limit == 1e-6
        assert not args.no_guards

    def test_engine_defaults_select_steady_state_mode(self):
        args = build_parser().parse_args(["engine"])
        assert args.faults is None
        assert args.checkpoint_every is None
        assert args.checkpoint_dir is None
        assert not args.timings

    def test_engine_timings_option(self):
        from repro.runtime import EngineConfig

        args = build_parser().parse_args(["engine", "--timings"])
        assert args.timings
        assert EngineConfig.from_cli_args(args).collect_timings

    def test_engine_telemetry_table_option(self):
        assert not build_parser().parse_args(["engine"]).telemetry_table
        args = build_parser().parse_args(["engine", "--telemetry-table"])
        assert args.telemetry_table


class TestEngineValidation:
    """Inconsistent engine flag mixes fail fast with a parser error."""

    def _error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        return capsys.readouterr().err

    def test_islands_must_be_positive(self, capsys):
        err = self._error(capsys, ["engine", "--islands", "0"])
        assert "--islands" in err

    def test_sync_every_flag_is_gone(self, capsys):
        err = self._error(capsys, ["engine", "--sync-every", "2"])
        assert "unrecognized arguments: --sync-every" in err

    def test_hybrid_halo_is_an_invalid_choice(self, capsys):
        err = self._error(capsys, ["engine", "--halo", "hybrid"])
        assert "argument --halo: invalid choice: 'hybrid'" in err

    def test_halo_threshold_flag_is_gone(self, capsys):
        err = self._error(capsys, ["engine", "--halo-threshold", "64"])
        assert "unrecognized arguments: --halo-threshold" in err

    @pytest.mark.parametrize(
        "flag",
        [
            ["--tiled"],
            ["--block-shape", "8", "8", "8"],
            ["--intra-threads", "2"],
            ["--block-cache-kib", "1024"],
            ["--autotune-blocks"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_removed_blocking_flags_are_gone(self, capsys, flag):
        err = self._error(capsys, ["engine", *flag])
        assert f"unrecognized arguments: {flag[0]}" in err

    @pytest.mark.parametrize(
        "flags,expected",
        [
            (["--islands", "20"], "variant A cannot split axis i (16 cells)"),
            (
                ["--islands", "13", "--variant", "B"],
                "variant B cannot split axis j (12 cells)",
            ),
            (
                ["--variant", "2D", "--grid", "17", "2"],
                "variant 2D cannot split axis i (16 cells)",
            ),
            (
                ["--variant", "2D", "--grid", "2", "13"],
                "variant 2D cannot split axis j (12 cells)",
            ),
        ],
        ids=["A-i", "B-j", "2D-i", "2D-j"],
    )
    def test_islands_must_fit_the_split_axis(self, capsys, flags, expected):
        err = self._error(
            capsys, ["engine", "--shape", "16", "12", "8", *flags]
        )
        assert expected in err
        assert "Traceback" not in err

    def test_verify_islands_must_be_positive(self, capsys):
        err = self._error(capsys, ["verify", "--islands", "0"])
        assert "--islands must be at least 1" in err

    def test_verify_islands_must_fit_both_variants(self, capsys):
        # verify runs variant A (splits i) and variant B (splits j).
        err = self._error(
            capsys,
            ["verify", "--shape", "16", "12", "8", "--islands", "2", "14"],
        )
        assert "--islands 14: variant B cannot split axis j (12 cells)" in err


class TestCommands:
    @pytest.mark.parametrize(
        "flags",
        [[], ["--faults", "crash@island=1,step=1"]],
        ids=["steady", "faults"],
    )
    def test_engine_telemetry_table_counts_one_sync_per_step(
        self, capsys, flags
    ):
        """``--steps 3`` is three steps, warm-up included, in every run."""
        argv = ["engine", "--shape", "16", "12", "8", "--steps", "3",
                "--islands", "2", "--telemetry-table", *flags]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "per-step telemetry:" in out
        assert "total: 3 steps, 3 syncs (1.000 syncs/step)" in out

    @pytest.mark.parametrize(
        "flags, printed",
        [
            (["--islands", "2", "--timings"], "last step timings:"),
            (
                ["--islands", "2", "--faults", "crash@island=1,step=1",
                 "--variant", "B"],
                "Recovery report: 3/3 steps completed",
            ),
            (
                ["--faults", "crash@island=1,step=1", "--variant", "2D",
                 "--grid", "2", "2"],
                "Recovery report: 3/3 steps completed",
            ),
        ],
        ids=["timings", "faults-variant-B", "faults-2D-grid"],
    )
    def test_engine_runs_every_flag_set(self, capsys, flags, printed):
        """Timings and faults combine with every partition: one run."""
        argv = ["engine", "--shape", "16", "12", "8", "--steps", "3", *flags]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert printed in out
        assert "bit-identical to the whole-domain solver: True" in out

    def test_table2_output(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "B(paper)" in out

    def test_table4_output(self, capsys):
        assert main(["table4"]) == 0
        out = capsys.readouterr().out
        assert "sustained performance" in out

    def test_verify_passes(self, capsys):
        code = main(
            ["verify", "--shape", "14", "12", "8", "--islands", "2", "--steps", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "2/2 configurations bit-exact" in out

    def test_calibrate_output(self, capsys):
        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "616 B/point/step" in out
        assert "fused_flops" in out

    def test_recommend_output(self, capsys):
        assert main(["recommend", "-P", "4", "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert "best first" in out
        assert "islands" in out

    def test_engine_fault_run_recovers_bit_identical(self, capsys, tmp_path):
        code = main(
            [
                "engine", "--shape", "16", "12", "8", "--steps", "8",
                "--islands", "3",
                "--faults", "crash@island=1,step=2", "corrupt@island=0,step=5",
                "--checkpoint-every", "3",
                "--checkpoint-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Recovery report: 8/8 steps completed" in out
        assert "bit-identical to the whole-domain solver: True" in out
        assert list(tmp_path.glob("*.npz"))  # checkpoints really landed

    @pytest.mark.skipif(
        not native_available(), reason="needs cffi and a system C compiler"
    )
    def test_engine_fault_run_prints_step_timings(self, capsys):
        code = main(
            [
                "engine", "--shape", "16", "12", "8", "--steps", "2",
                "--islands", "2", "--backend", "native", "--timings",
                "--checkpoint-every", "1", "--no-guards",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "bit-identical to the whole-domain solver: True" in out
        assert "critical path" in out
        assert "top stages (of 17)" in out

    def test_engine_fault_run_unrecoverable_exit_code(self, capsys):
        code = main(
            [
                "engine", "--shape", "16", "12", "8", "--steps", "6",
                "--islands", "2",
                "--faults", "crash@island=0,step=3,attempts=99",
                "--checkpoint-every", "2", "--retries", "1",
                "--rollbacks", "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "UNRECOVERABLE" in out
