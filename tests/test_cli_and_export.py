"""Tests for the CLI and the disk export/ingest round trip."""

import pytest

from repro.analysis.ingest import Dataset
from repro.analysis.report import build_report
from repro.cli import main
from repro.logger.transfer import CollectionServer, load_lines_from_dir


class TestDiskRoundTrip:
    def test_export_and_reload_identical(self, tmp_path, quick_campaign):
        collector = quick_campaign.fleet.collector
        written = collector.export_to_dir(str(tmp_path))
        assert written == quick_campaign.dataset.phone_count
        reloaded = load_lines_from_dir(str(tmp_path))
        assert reloaded == collector.dataset()

    def test_reloaded_dataset_gives_identical_analysis(
        self, tmp_path, quick_campaign
    ):
        quick_campaign.fleet.collector.export_to_dir(str(tmp_path))
        lines = load_lines_from_dir(str(tmp_path))
        dataset = Dataset.from_lines(
            lines, end_time=quick_campaign.dataset.end_time
        )
        report = build_report(dataset)
        original = quick_campaign.report
        assert report.panic_table.total == original.panic_table.total
        assert report.availability.freeze_count == original.availability.freeze_count
        assert (
            report.availability.self_shutdown_count
            == original.availability.self_shutdown_count
        )

    def test_export_empty_collector(self, tmp_path):
        assert CollectionServer().export_to_dir(str(tmp_path)) == 0
        assert load_lines_from_dir(str(tmp_path)) == {}

    def test_load_ignores_non_log_files(self, tmp_path):
        (tmp_path / "notes.txt").write_text("irrelevant")
        (tmp_path / "phone-00.log").write_text("BOOT|1.000|NONE|0.000\n")
        lines = load_lines_from_dir(str(tmp_path))
        assert list(lines) == ["phone-00"]


class TestCli:
    def test_campaign_headline(self, capsys):
        code = main(
            [
                "campaign",
                "--phones",
                "2",
                "--months",
                "1",
                "--seed",
                "9",
                "--headline-only",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Headline findings" in out
        assert "MTBFr" in out

    def test_campaign_export_then_analyze(self, tmp_path, capsys):
        export_dir = str(tmp_path / "logs")
        assert (
            main(
                [
                    "campaign",
                    "--phones",
                    "2",
                    "--months",
                    "1",
                    "--seed",
                    "9",
                    "--headline-only",
                    "--export",
                    export_dir,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["analyze", export_dir]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Figure 2" in out

    def test_analyze_empty_directory_fails(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 1
        assert "no .log files" in capsys.readouterr().err

    @staticmethod
    def _one_line_error(capsys) -> str:
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        return captured.err

    def test_analyze_missing_directory_fails(self, tmp_path, capsys):
        missing = str(tmp_path / "no-such-dir")
        assert main(["analyze", missing]) == 1
        assert "No such file or directory" in self._one_line_error(capsys)

    def test_analyze_nonpositive_end_time_fails(self, tmp_path, capsys):
        (tmp_path / "phone-00.log").write_text("BOOT|1.000|NONE|0.000\n")
        assert main(["analyze", str(tmp_path), "--end-time", "0"]) == 1
        assert "end_time must be positive" in self._one_line_error(capsys)

    def test_analyze_unparseable_logs_fail(self, tmp_path, capsys):
        (tmp_path / "phone-00.log").write_text("XYZZY|1|2\nRUNAPP|180\n")
        assert main(["analyze", str(tmp_path)]) == 1
        assert "no parseable records" in self._one_line_error(capsys)

    def test_forum_command(self, capsys):
        assert main(["forum", "--reports", "120", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "classifier vs ground truth" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["launch-rockets"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["campaign", "--phones", "0"],
            ["campaign", "--months", "0"],
            ["sweep", "--window", "-5"],
            ["megafleet", "--window", "0"],
            ["trace", "OUT", "--phones", "0"],
            ["perf", "--phones", "0"],
            ["forum", "--reports", "0"],
            ["forum", "--noise", "3"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_config_errors_exit_1_with_one_line(self, argv, tmp_path, capsys):
        """An invalid configuration is a one-line message, not a
        traceback — and never silently accepted."""
        argv = [str(tmp_path / arg) if arg == "OUT" else arg for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: ")
        assert err.count("\n") == 1


class TestAnalyzeFlags:
    """`analyze` accepts the same rendering knobs as `campaign`, so an
    exported-then-reanalyzed campaign reproduces the campaign report."""

    CAMPAIGN = ["--phones", "2", "--months", "1", "--seed", "9"]

    def test_analyze_headline_only(self, tmp_path, capsys):
        export_dir = str(tmp_path / "logs")
        assert main(["campaign", *self.CAMPAIGN, "--export", export_dir]) == 0
        capsys.readouterr()
        assert main(["analyze", export_dir, "--headline-only"]) == 0
        out = capsys.readouterr().out
        assert "Headline findings" in out
        assert "Table 2" not in out

    def test_analyze_extended(self, tmp_path, capsys):
        export_dir = str(tmp_path / "logs")
        assert main(["campaign", *self.CAMPAIGN, "--export", export_dir]) == 0
        capsys.readouterr()
        assert main(["analyze", export_dir, "--extended"]) == 0
        assert "Downtime (extension)" in capsys.readouterr().out

    def test_analyze_reproduces_campaign_report(self, tmp_path, capsys):
        """Byte-identical reports from the live campaign and from its
        exported logs (modulo the export trailer line)."""
        export_dir = str(tmp_path / "logs")
        end_time = str(int(1 * 2629800))
        assert (
            main(
                [
                    "campaign",
                    *self.CAMPAIGN,
                    "--export",
                    export_dir,
                ]
            )
            == 0
        )
        campaign_out = capsys.readouterr().out
        campaign_report = campaign_out.split("\nexported ")[0]
        assert main(["analyze", export_dir, "--end-time", end_time]) == 0
        assert capsys.readouterr().out.rstrip("\n") == campaign_report.rstrip(
            "\n"
        )

    def test_analyze_window_changes_coalescence(self, tmp_path, capsys):
        export_dir = str(tmp_path / "logs")
        assert main(["campaign", *self.CAMPAIGN, "--export", export_dir]) == 0
        capsys.readouterr()
        assert main(["analyze", export_dir, "--window", "1"]) == 0
        narrow = capsys.readouterr().out
        assert main(["analyze", export_dir, "--window", "86400"]) == 0
        wide = capsys.readouterr().out
        # A day-long coalescence window merges more low-level events per
        # high-level failure than a zero-length one.
        assert narrow != wide


class TestSweepCommand:
    def test_sweep_prints_per_seed_table(self, capsys):
        code = main(
            [
                "sweep",
                "--phones",
                "2",
                "--months",
                "1",
                "--seeds",
                "5,6",
                "--workers",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Seed" in out
        assert " 5 " in out and " 6 " in out
        assert "MTBFr" in out

    def test_sweep_cache_roundtrip(self, tmp_path, capsys):
        args = [
            "sweep",
            "--phones",
            "2",
            "--months",
            "1",
            "--seeds",
            "5,6",
            "--workers",
            "1",
            "--cache",
            str(tmp_path),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 hits, 2 misses" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "2 hits, 0 misses" in second

    def test_sweep_rejects_bad_seeds(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--seeds", "5,banana"])

    def test_faults_gate_passes_on_mild_plan(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "robustness.json"
        code = main(
            [
                "faults",
                "--phones",
                "3",
                "--months",
                "1",
                "--intensities",
                "0.5,1",
                "--max-drift",
                "5",
                "--gate-intensity",
                "1",
                "--output",
                str(out_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "headline drift vs intensity" in out
        assert "OK: worst drift" in out
        report = json.loads(out_path.read_text())
        assert len(report["points"]) == 3  # clean anchor + 2 intensities
        assert report["points"][0]["intensity"] == 0.0

    def test_faults_gate_fails_on_harsh_plan(self, capsys):
        code = main(
            [
                "faults",
                "--phones",
                "3",
                "--months",
                "1",
                "--preset",
                "harsh",
                "--intensities",
                "1",
                "--max-drift",
                "5",
                "--gate-intensity",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "DEGRADED" in out

    def test_faults_json_output_is_strict(self, capsys):
        import json

        code = main(
            ["faults", "--phones", "3", "--months", "1",
             "--intensities", "0.5", "--json"]
        )
        out = capsys.readouterr().out
        assert code == 0
        json.loads(out)  # whole stdout is one strict-JSON document

    def test_faults_rejects_bad_intensities(self):
        with pytest.raises(SystemExit):
            main(["faults", "--intensities", "fast"])
        with pytest.raises(SystemExit):
            main(["faults", "--intensities", "-1"])


class TestExtendedReport:
    def test_extended_render_includes_extension_sections(self, quick_campaign):
        text = quick_campaign.report.render_extended()
        for fragment in (
            "Downtime (extension)",
            "Inter-failure time modelling (extension)",
            "Fleet variability (extension)",
            "Temporal structure (extension)",
            "Headline findings",  # the base report is still there
        ):
            assert fragment in text

    def test_cli_extended_flag(self, capsys):
        code = main(
            [
                "campaign",
                "--phones",
                "2",
                "--months",
                "1",
                "--seed",
                "9",
                "--extended",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Downtime (extension)" in out
