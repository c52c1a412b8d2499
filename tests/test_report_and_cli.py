"""Tests for the report harness, table formatting, and the CLI."""

import re
from fractions import Fraction

import pytest

from repro.benchgen import paper_example2, suite_cases
from repro.cli import main
from repro.logic import unit_delays
from repro.mct import MctOptions
from repro.report import analyze_circuit, render_rows, run_case
from repro.report.tables import format_fraction, format_seconds, format_table


class TestFormatting:
    def test_format_fraction_decimals(self):
        assert format_fraction(Fraction(228, 10)) == "22.8"
        assert format_fraction(Fraction(5)) == "5"
        assert format_fraction(Fraction(5, 2)) == "2.5"
        assert format_fraction(None) == "-"

    def test_format_fraction_nonterminating(self):
        text = format_fraction(Fraction(1, 3))
        assert text.startswith("0.333")

    def test_format_seconds(self):
        assert format_seconds(1.234) == "1.23"
        assert format_seconds(None) == "-"

    def test_format_table_alignment(self):
        table = format_table(
            ["Name", "X"], [["a", "1"], ["bbbb", "22"]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "Name" in lines[1]
        # right-aligned numeric column
        assert lines[3].endswith(" 1")


class TestHarness:
    def test_analyze_circuit_example2(self):
        circuit, delays = paper_example2()
        row = analyze_circuit(circuit, delays)
        assert row.topological == 5
        assert row.floating == 4
        assert row.transition == 2
        assert row.mct == Fraction(5, 2)
        assert not row.mct_partial
        assert row.gates == 6 and row.latches == 1

    def test_comb_budget_produces_dash(self):
        circuit, delays = paper_example2()
        row = analyze_circuit(circuit, delays, comb_budget=2)
        assert row.floating is None
        assert row.transition is None
        assert row.floating_cpu is None

    def test_mct_budget_produces_dash(self):
        circuit, delays = paper_example2()
        row = analyze_circuit(
            circuit, delays, mct_options=MctOptions(work_budget=3)
        )
        assert row.mct is None

    def test_render_rows(self):
        circuit, delays = paper_example2()
        row = analyze_circuit(circuit, delays, flags="‡")
        text = render_rows([row], title="T")
        assert "example2‡" in text
        assert "2.5" in text

    def test_run_case_attaches_paper_numbers(self):
        case = next(c for c in suite_cases() if c.name == "g444")
        row = run_case(case)
        assert row.paper["name"] == "s444"
        assert row.paper["mct"] == row.mct


#: Netlists no command can load: file name and content (``None``: no
#: file at all, ``"dir"``: a directory, bytes: not UTF-8).
BAD_NETLISTS = {
    "missing": ("missing.bench", None),
    "directory": ("dir.bench", "dir"),
    "binary": ("bin.bench", b"\x00\x93\xff\xfe" * 16),
    "undriven": ("undriven.bench", "INPUT(a)\nOUTPUT(z)\nz = AND(a, q)\n"),
    "cycle": ("cycle.bench", "INPUT(a)\nOUTPUT(z)\nz = AND(a, z)\n"),
    "truncated": ("trunc.bench", "INPUT(a)\nOUTPUT(\n"),
    "blif-cube": (
        "cube.blif", ".model m\n.inputs a\n.outputs z\n.names a z\n2 1\n.end\n"
    ),
}

#: Every command that loads a netlist, with the arguments it needs.
NETLIST_COMMANDS = {
    "analyze": [], "exact": [], "report": [], "skew": [], "level": [],
    "simulate": ["--tau", "5"],
}

#: Delay transforms the netlist load refuses: a factor that inverts an
#: interval, values that are not numbers, a zero denominator.
BAD_DELAY_TRANSFORMS = [
    ("--widen", "2"),
    ("--widen", "abc"),
    ("--widen", "1/0"),
    ("--setup", "inf"),
    ("--hold", "nan"),
]


class TestCli:
    @pytest.mark.parametrize("kind", sorted(BAD_NETLISTS))
    def test_unloadable_netlist_is_a_clean_error(self, tmp_path, capsys, kind):
        name, content = BAD_NETLISTS[kind]
        path = tmp_path / name
        if content == "dir":
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        for command in (
            ["analyze"], ["exact"], ["report"], ["skew"], ["level"],
            ["simulate", "--tau", "5"],
        ):
            code = main([*command, str(path)])
            err = capsys.readouterr().err
            assert code == 1, command
            assert f"error: {path}: " in err, command
            assert "Traceback" not in err, command

    @pytest.mark.parametrize("command", sorted(NETLIST_COMMANDS))
    @pytest.mark.parametrize("flag,value", BAD_DELAY_TRANSFORMS)
    def test_bad_delay_transform_is_a_clean_error(
        self, tmp_path, capsys, command, flag, value
    ):
        from repro.benchgen import S27_BENCH

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        argv = [command, str(path), *NETLIST_COMMANDS[command], flag, value]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {flag} {value}: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_retired_sift_flag_is_a_usage_error(self, tmp_path, capsys):
        from repro.benchgen import S27_BENCH

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        with pytest.raises(SystemExit) as info:
            main(["analyze", str(path), "--bdd-sift-threshold", "500"])
        assert info.value.code == 2
        assert "--bdd-sift-threshold" in capsys.readouterr().err

    def test_example2_command(self, capsys):
        """Paper Example 2 end to end: the three analyses share one cone
        table, and each value and candidate status is the paper's."""
        assert main(["example2"]) == 0
        out = capsys.readouterr().out
        assert "(floating) delay = 4   (paper: 4)" in out
        assert "(transition) delay    = 2   (paper: 2," in out
        assert "minimum cycle time             = 2.5 (paper: 2.5)" in out
        statuses = re.findall(r"tau = +([\d.]+): (\w+)", out)
        assert statuses == [
            ("5", "steady"), ("4", "pass"), ("2.5", "pass"), ("2", "fail"),
        ]

    def test_table_subset(self, capsys):
        assert main(["table", "--rows", "g444", "--no-s27", "--fixed"]) == 0
        out = capsys.readouterr().out
        assert "g444" in out and "22.8" in out

    def test_table_unknown_row(self, capsys):
        assert main(["table", "--rows", "nope"]) == 1

    def test_analyze_bench_file(self, tmp_path, capsys):
        from repro.benchgen import S27_BENCH

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        assert main(["analyze", str(path), "--delay-model", "unit"]) == 0
        out = capsys.readouterr().out
        assert "minimum cycle time" in out

    def test_simulate_bench_file(self, tmp_path, capsys):
        from repro.benchgen import S27_BENCH

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        assert main([
            "simulate", str(path), "--delay-model", "unit",
            "--tau", "100", "--cycles", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "MATCHES" in out

    def test_skew_command(self, tmp_path, capsys):
        path = tmp_path / "pipe.bench"
        path.write_text(
            "INPUT(u)\nOUTPUT(q2)\nq1 = DFF(d1)\nq2 = DFF(d2)\n"
            "d1 = BUFF(u)\nd2 = BUFF(q1)\n"
        )
        # Unit delays: balanced pipe, no gain expected.
        assert main(["skew", str(path), "--delay-model", "unit"]) == 0
        out = capsys.readouterr().out
        assert "common-clock bound" in out

    def test_level_command_feasible(self, tmp_path, capsys):
        path = tmp_path / "tog.bench"
        path.write_text("OUTPUT(q)\nq = DFF(d)\nd = NOT(q)\n")
        assert main(["level", str(path), "--delay-model", "unit"]) == 0
        out = capsys.readouterr().out
        assert "certified periods" in out

    def test_level_command_infeasible(self, tmp_path, capsys):
        from repro.benchgen import S27_BENCH

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        code = main(["level", str(path), "--delay-model", "unit"])
        out = capsys.readouterr().out
        assert code == 2
        assert "INFEASIBLE" in out

    def test_exact_command(self, tmp_path, capsys):
        from repro.benchgen import S27_BENCH

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        assert main(["exact", str(path), "--delay-model", "unit"]) == 0
        out = capsys.readouterr().out
        assert "exact minimum cycle time = 6" in out
        assert "INEQUIVALENT" in out

    def test_exact_command_collapses_intervals(self, tmp_path, capsys):
        from repro.benchgen import S27_BENCH

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        assert main([
            "exact", str(path), "--delay-model", "unit", "--widen", "0.9",
        ]) == 0
        out = capsys.readouterr().out
        assert "using maxima" in out

    def test_analyze_blif_file(self, tmp_path, capsys):
        path = tmp_path / "tiny.blif"
        path.write_text(
            ".model tiny\n.inputs a\n.outputs y\n.latch d q re clk 0\n"
            ".names a q d\n11 1\n.names q y\n0 1\n.end\n"
        )
        assert main(["analyze", str(path), "--delay-model", "unit"]) == 0
        out = capsys.readouterr().out
        assert "minimum cycle time" in out

    def test_simulate_detects_overclocking(self, tmp_path, capsys):
        from repro.benchgen import S27_BENCH

        path = tmp_path / "s27.bench"
        path.write_text(S27_BENCH)
        code = main([
            "simulate", str(path), "--delay-model", "unit",
            "--tau", "1/2", "--cycles", "32", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 2
        assert "DIVERGES" in out
