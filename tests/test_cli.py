import hashlib
import json
import math
from pathlib import Path

import pytest

from coinwalk import cli

REPO = Path(__file__).resolve().parent.parent


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


SYM_COIN = "c=0.7071067811865476,d=0.7071067811865476i"


class TestSimulate:
    def test_global_json_step_six(self, capsys):
        code, out = run(
            ["simulate", "--scheme", "global", "--p", "0.5",
             "--coin", SYM_COIN, "--steps", "6", "--emit", "json"],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        step6 = record["steps"][6]
        probs = dict(zip(step6["sites"], step6["probs"]))
        assert probs[4] == pytest.approx(0.28125, abs=1e-12)
        assert probs[-4] == pytest.approx(0.28125, abs=1e-12)
        assert record["config"]["scheme"] == "global"

    def test_prompt_csv_step_three(self, capsys):
        code, out = run(
            ["simulate", "--scheme", "prompt", "--p", "0.5", "--steps", "3"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,site,probability"
        step3 = sorted(
            float(l.split(",")[2]) for l in lines[1:] if l.startswith("3,")
        )
        assert step3 == pytest.approx([1 / 8, 1 / 8, 3 / 8, 3 / 8], abs=1e-12)

    def test_kernel_zero_steps_single_record(self, capsys):
        code, out = run(
            ["simulate", "--scheme", "kernel", "--m", "2", "--p", "0.5",
             "--symmetric", "--steps", "0"],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines()[1:] == ["0,0,1"]

    def test_deterministic_output(self, capsys):
        argv = ["simulate", "--scheme", "cp", "--symmetric", "--m", "2",
                "--steps", "4", "--emit", "json"]
        _, first = run(argv, capsys)
        _, second = run(argv, capsys)
        assert first == second

    def test_missing_p_is_argument_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "--scheme", "global", "--steps", "3"])
        assert err.value.code == 2

    def test_negative_steps_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "--p", "0.5", "--steps", "-1"])
        assert err.value.code == 2

    def test_unwritable_output_is_io_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "--p", "0.5", "--steps", "1",
                      "--out", "/nonexistent-dir/x.csv"])
        assert err.value.code == 3


class TestAnalyze:
    def test_sigma_ratios_first_five(self, capsys):
        code, out = run(
            ["analyze", "sigma", "--scheme", "global", "--symmetric",
             "--steps", "5"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,scheme,sigma,ratio_to_classical"
        ratios = [float(l.split(",")[3]) for l in lines[1:]]
        want = [1, 1, 1, math.sqrt(5) / 2, math.sqrt(8 / 5)]
        assert ratios == pytest.approx(want, abs=1e-12)

    def test_entropy_endpoint(self, capsys):
        code, out = run(
            ["analyze", "entropy", "--symmetric", "--steps", "9"], capsys
        )
        assert code == 0
        last = out.strip().splitlines()[-1].split(",")
        assert last[0] == "9"
        assert float(last[2]) == pytest.approx(1.9295, abs=5e-4)

    def test_majorize_kernel_chain_all_ordered(self, capsys):
        code, out = run(
            ["analyze", "majorize", "--scheme", "kernel", "--m", "2",
             "--symmetric", "--steps", "30"],
            capsys,
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 30
        assert all(r.split(",")[2] == "FirstMajorizes" for r in rows)

    def test_lorenz_schema(self, capsys):
        code, out = run(
            ["analyze", "lorenz", "--symmetric", "--steps", "2"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,n,n_over_N,gamma"
        assert lines[1].startswith("0,0,")


class TestFigure:
    def test_lorenz_polylines_match_csv_numbers(self, capsys, tmp_path):
        from coinwalk import analysis, svgplot
        from coinwalk.cli import lorenz_figure_series
        from coinwalk.engine import WalkConfig

        path = tmp_path / "lorenz.svg"
        code = cli.main(
            ["figure", "lorenz", "--p", "0.5", "--steps", "6,7,8,9",
             "--out", str(path)]
        )
        assert code == 0
        svg = path.read_text()
        assert svg.count("<polyline") == 4
        series = lorenz_figure_series(WalkConfig.symmetric(), [6, 7, 8, 9],
                                      "global", 2)
        expected = svgplot.line_chart(
            series,
            title="Lorenz curves of successive walk distributions",
            xlabel="fraction of slots",
            ylabel="cumulative probability",
        )
        assert svg == expected

    def test_entropy_figure_series_count(self, capsys, tmp_path):
        path = tmp_path / "entropy.svg"
        code = cli.main(
            ["figure", "entropy", "--p", "0.3333,0.5,0.75", "--steps", "100",
             "--out", str(path)]
        )
        assert code == 0
        assert path.read_text().count("<polyline") == 4

    def test_memory_diagram_column_groups(self, capsys, tmp_path):
        path = tmp_path / "memory.svg"
        code = cli.main(["figure", "memory-diagram", "--steps", "4",
                         "--out", str(path)])
        assert code == 0
        assert path.read_text().count('class="column"') == 5

    def test_figure_determinism(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            cli.main(["figure", "entropy", "--steps", "20", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    def test_kraus_suite_passes(self, capsys):
        code, out = run(["verify", "kraus", "--max-steps", "20"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert all(c["max_residual"] < 1e-12 for c in report["checks"])

    def test_memory_suite_passes(self, capsys):
        code, out = run(["verify", "memory", "--max-steps", "12"], capsys)
        assert code == 0
        report = json.loads(out)
        strict = [c for c in report["checks"] if not c["informational"]]
        assert strict and all(c["max_residual"] < 1e-10 for c in strict)

    def test_prop2_suite_reports_divergence_informationally(self, capsys):
        code, out = run(["verify", "prop2", "--max-steps", "5"], capsys)
        assert code == 0
        report = json.loads(out)
        info = {c["name"] for c in report["checks"] if c["informational"]}
        assert "kernel-cp-divergence" in info
        assert "cp-walk-first-iteration-moment" in info

    def test_prop2_beyond_fifteen_steps_reports_failure(self, tmp_path):
        # Phi^n for n >= 15 drifts above 1e-12 in its sum; the report is still written
        path = tmp_path / "prop2.json"
        code = cli.main(["verify", "prop2", "--max-steps", "16", "--out", str(path)])
        assert code == 1
        report = json.loads(path.read_text())
        failed = [c["name"] for c in report["checks"] if not c["pass"]]
        assert failed == ["binomial-solution"]
        binomial = next(c for c in report["checks"] if c["name"] == "binomial-solution")
        assert 1e-10 < binomial["max_residual"] < 1e-9

    @pytest.mark.parametrize("suite,steps,key", [
        ("all", "12", "verify-all-12|"),
        ("kraus", "20", "verify-kraus-20|"),
    ])
    def test_reports_match_recorded_digests(self, tmp_path, suite, steps, key):
        # the benchmark's recorded sha256 of these reports: rounding-level
        # residuals are printed, so any change in evaluation order shows here
        recorded = json.loads(
            (REPO / "perfbench" / "reference" / "cli_sha256.json").read_text()
        )
        path = tmp_path / "report.json"
        cli.main(["verify", suite, "--max-steps", steps, "--out", str(path)])
        assert hashlib.sha256(path.read_bytes()).hexdigest() == recorded[key]

    def test_bad_suite_is_argument_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["verify", "bogus"])
        assert err.value.code == 2

    def test_report_schema(self, capsys):
        _, out = run(["verify", "stochastic", "--max-steps", "6"], capsys)
        report = json.loads(out)
        assert set(report) >= {"suite", "checks", "pass"}
        for check in report["checks"]:
            assert set(check) >= {"name", "params", "max_residual", "pass"}


class TestComplexParsing:
    def test_plain_real(self):
        assert cli.parse_complex("0.5") == 0.5

    def test_a_plus_bi(self):
        assert cli.parse_complex("0.3-0.4i") == 0.3 - 0.4j

    def test_pure_imaginary(self):
        assert cli.parse_complex("0.7071067811865476i") == pytest.approx(
            0.7071067811865476j
        )

    def test_bad_literal_rejected(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_complex("zebra")

    def test_coin_pair(self):
        c, d = cli.parse_coin(SYM_COIN)
        assert abs(c) ** 2 + abs(d) ** 2 == pytest.approx(1.0, abs=1e-12)
