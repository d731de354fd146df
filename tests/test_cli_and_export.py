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


class TestLogDirectory:
    """`load_lines_from_dir` is a read-on-access mapping."""

    LINE = "BOOT|1.000|NONE|0.000"

    @pytest.fixture
    def logs(self, tmp_path):
        for phone_id in ("phone-02", "phone-00", "phone-01"):
            (tmp_path / f"{phone_id}.log").write_text(self.LINE + "\n")
        (tmp_path / "notes.txt").write_text("irrelevant")
        return tmp_path

    def test_phones_in_sorted_order(self, logs):
        assert list(load_lines_from_dir(str(logs))) == [
            "phone-00",
            "phone-01",
            "phone-02",
        ]

    def test_len_and_in_read_no_file(self, logs):
        lines = load_lines_from_dir(str(logs))
        for path in logs.glob("*.log"):
            path.unlink()
        assert len(lines) == 3
        assert "phone-01" in lines
        assert "phone-09" not in lines
        assert "notes" not in lines
        with pytest.raises(FileNotFoundError):
            lines["phone-01"]

    @pytest.mark.parametrize("phone_id", ["phone-09", "notes", "notes.txt"])
    def test_unknown_phone_is_key_error(self, logs, phone_id):
        with pytest.raises(KeyError):
            load_lines_from_dir(str(logs))[phone_id]

    def test_repeat_lookup_reads_the_file_again(self, logs):
        lines = load_lines_from_dir(str(logs))
        first = lines["phone-00"]
        assert first == [self.LINE]
        (logs / "phone-00.log").write_text("BOOT|2.000|ALIVE|1.500\n")
        second = lines["phone-00"]
        assert second == ["BOOT|2.000|ALIVE|1.500"]
        assert first == [self.LINE]


#: A faults run small enough to finish in seconds if a check lets it start.
FAULTS_QUICK = ["faults", "--phones", "2", "--months", "0.5", "--intensities", "1"]
MEGAFLEET_QUICK = ["--phones", "4", "--months", "0.5", "--shards", "2"]


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

    def test_megafleet_prints_the_campaign_report(self, capsys):
        """A sharded run merges its partials into the report ``campaign``
        prints for the same config: after the run lines and a blank
        line, the text is that report byte for byte."""
        config = ["--phones", "4", "--months", "0.5", "--seed", "9"]
        assert main(["campaign", *config]) == 0
        campaign = capsys.readouterr().out
        sharded = ["--shards", "3", "--workers", "1"]
        assert main(["megafleet", *config, *sharded]) == 0
        megafleet = capsys.readouterr().out
        run_lines, _blank, report = megafleet.partition("\n\n")
        assert run_lines.startswith("Mega-fleet: 4 phones")
        assert report == campaign

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

    def test_analyze_unreadable_log_fails(self, tmp_path, capsys):
        """A `.log` entry that cannot be read is found only while
        parsing, and is still one line and exit 1."""
        (tmp_path / "phone-00.log").write_text("BOOT|1.000|NONE|0.000\n")
        (tmp_path / "phone-99.log").mkdir()
        assert main(["analyze", str(tmp_path)]) == 1
        assert self._one_line_error(capsys) == (
            f"cannot read {tmp_path}: Is a directory\n"
        )

    def test_analyze_nonpositive_end_time_fails(self, tmp_path, capsys):
        (tmp_path / "phone-00.log").write_text("BOOT|1.000|NONE|0.000\n")
        assert main(["analyze", str(tmp_path), "--end-time", "0"]) == 1
        assert "end_time must be positive" in self._one_line_error(capsys)

    @pytest.mark.parametrize("end_time", ["nan", "inf"])
    def test_analyze_nonfinite_end_time_fails(self, tmp_path, capsys, end_time):
        (tmp_path / "phone-00.log").write_text("BOOT|1.000|NONE|0.000\n")
        assert main(["analyze", str(tmp_path), "--end-time", end_time]) == 1
        assert "end_time must be positive and finite" in self._one_line_error(capsys)

    @pytest.mark.parametrize("window", ["0", "-5", "nan", "inf"])
    def test_analyze_invalid_window_fails(self, tmp_path, capsys, window):
        (tmp_path / "phone-00.log").write_text("BOOT|1.000|NONE|0.000\n")
        assert main(["analyze", str(tmp_path), "--window", window]) == 1
        assert self._one_line_error(capsys).startswith("repro analyze: --window ")

    def test_analyze_quarantines_undecodable_bytes(
        self, tmp_path, capsys, quick_campaign
    ):
        """One invalid UTF-8 line is quarantined as a bad value; the
        rest of its file and the run go on."""
        quick_campaign.fleet.collector.export_to_dir(str(tmp_path))
        end = quick_campaign.dataset.end_time
        clean = Dataset.from_lines(load_lines_from_dir(str(tmp_path)), end)
        victim = tmp_path / f"{sorted(clean.logs)[0]}.log"
        with open(victim, "ab") as handle:
            handle.write(b"RUNAPP|12.000|Cam\xff\xfeera\n")

        lines = load_lines_from_dir(str(tmp_path))
        dataset = Dataset.from_lines(lines, end)
        assert dataset.logs == clean.logs
        quarantined = dataset.ingest_report
        assert quarantined.quarantined == clean.ingest_report.quarantined + 1
        assert quarantined.by_class.get("bad-value", 0) == (
            clean.ingest_report.by_class.get("bad-value", 0) + 1
        )
        records = sum(log.record_count for log in dataset.logs.values())
        read = sum(len(phone) for phone in lines.values())
        assert read == records + quarantined.quarantined

        assert main(["analyze", str(tmp_path), "--end-time", repr(end)]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_load_reads_universal_newlines(self, tmp_path):
        (tmp_path / "phone-00.log").write_bytes(
            b"BOOT|1.000|NONE|0.000\r\nBOOT|2.000|ALIVE|1.500\r\n  \nPOWER|3.000|0.5000|low\r"
        )
        assert load_lines_from_dir(str(tmp_path)) == {
            "phone-00": [
                "BOOT|1.000|NONE|0.000",
                "BOOT|2.000|ALIVE|1.500",
                "POWER|3.000|0.5000|low",
            ]
        }

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
            ["campaign", "--phones", "2", "--months", "1", "--export", "REGULAR"],
            ["campaign", "--phones", "2", "--months", "1", "--export", "FILE"],
            ["campaign", "--months", "nan"],
            ["campaign", "--months", "inf"],
            ["sweep", "--months", "nan"],
            ["sweep", "--window", "nan"],
            ["sweep", "--window", "inf"],
            ["megafleet", "--months", "nan"],
            ["megafleet", "--months", "inf"],
            ["megafleet", "--window", "nan"],
            ["trace", "OUT", "--months", "nan"],
            ["trace", "OUT", "--months", "inf"],
            ["sweep", "--seeds", ","],
            ["sweep", "--workers", "0"],
            ["sweep", "--cache", "FILE"],
            ["perf", "--repeats", "0"],
            ["faults", "--intensities", "0"],
            ["megafleet", "--workers", "0"],
            ["megafleet", "--cache", "FILE"],
            ["megafleet", "--skew", "0"],
            ["megafleet", "--skew", "nan"],
            ["megafleet", "--shards", "0"],
            ["megafleet", "--retries", "-1"],
            ["megafleet", "--shards", "5", "--phones", "3"],
            ["monitor", "DIR", "--interval", "0"],
            ["monitor", "DIR", "--interval", "nan"],
            ["monitor", "DIR", "--interval", "inf"],
            ["trace", "MISSING", "--phones", "2", "--months", "0.5"],
            ["trace", "DIR", "--phones", "2", "--months", "0.5"],
            ["trace", "FILE", "--phones", "2", "--months", "0.5"],
            ["perf", "--phones", "2", "--months", "0.5", "--output", "MISSING"],
            ["perf", "--phones", "2", "--months", "0.5", "--output", "DIR"],
            ["perf", "--phones", "2", "--months", "0.5", "--check-against", "MISSING"],
            ["perf", "--phones", "2", "--months", "0.5", "--check-counters", "MISSING"],
            ["perf", "--phones", "2", "--months", "0.5", "--check-counters", "REGULAR"],
            ["perf", "--phones", "2", "--months", "0.5", "--check-counters",
             "REGULAR", "--no-counters"],
            [*FAULTS_QUICK, "--output", "MISSING"],
            [*FAULTS_QUICK, "--output", "DIR"],
            ["megafleet", *MEGAFLEET_QUICK, "--output", "MISSING"],
            ["megafleet", *MEGAFLEET_QUICK, "--output", "DIR"],
            [*FAULTS_QUICK, "--max-drift", "nan"],
            [*FAULTS_QUICK, "--max-drift", "-1"],
            [*FAULTS_QUICK, "--max-drift", "inf"],
            [*FAULTS_QUICK, "--max-drift", "5", "--gate-intensity", "nan"],
            [*FAULTS_QUICK, "--max-drift", "5", "--gate-intensity", "0.5"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_config_errors_exit_1_with_one_line(self, argv, tmp_path, capsys):
        """An invalid configuration is a one-line message, not a
        traceback — and never silently accepted.  ``REGULAR`` is a
        regular file and ``FILE`` lies under it, so neither can be made
        a directory or written; ``MISSING`` lies in a directory that
        does not exist."""
        (tmp_path / "file").write_text("")
        paths = {
            "OUT": str(tmp_path / "OUT"),
            "DIR": str(tmp_path),
            "REGULAR": str(tmp_path / "file"),
            "FILE": str(tmp_path / "file" / "run"),
            "MISSING": str(tmp_path / "missing" / "x.json"),
        }
        argv = [paths.get(arg, arg) for arg in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "command",
        [
            ["trace", "PATH"],
            ["perf", "--output", "PATH"],
            ["faults", "--output", "PATH"],
            ["megafleet", *MEGAFLEET_QUICK, "--output", "PATH"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_output_fails_before_simulating(
        self, command, tmp_path, monkeypatch, capsys
    ):
        """The output path is checked before any phone is simulated,
        and the refused command leaves no file behind."""

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before checking the output path")

        for target in (
            "repro.cli.run_campaign",
            "repro.cli.measure_campaign",
            "repro.cli.run_degradation_experiment",
            "repro.experiments.shard.run_sharded_campaign",
        ):
            monkeypatch.setattr(target, no_simulation)
        path = tmp_path / "missing" / "x.json"
        argv = [str(path) if arg == "PATH" else arg for arg in command]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"repro {command[0]}: cannot write {path}: "
            f"no such directory {path.parent}\n"
        )
        assert list(tmp_path.iterdir()) == []


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
        assert first.endswith(f"run dir {tmp_path}: 0 resumed, 2 executed\n")
        assert main(args) == 0
        second = capsys.readouterr().out
        assert second.endswith(f"run dir {tmp_path}: 2 resumed, 0 executed\n")
        # The seed table and headline comparison are the same bytes.
        assert first.rsplit("run dir", 1)[0] == second.rsplit("run dir", 1)[0]

    def test_sweep_rejects_bad_seeds(self, capsys):
        assert main(["sweep", "--seeds", "5,banana"]) == 1
        assert capsys.readouterr().err == (
            "repro sweep: invalid --seeds value: '5,banana'\n"
        )

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

    def test_faults_rejects_bad_intensities(self, capsys):
        assert main(["faults", "--intensities", "fast"]) == 1
        assert capsys.readouterr().err == (
            "repro faults: invalid --intensities value: 'fast'\n"
        )
        assert main(["faults", "--intensities", "-1"]) == 1
        assert capsys.readouterr().err == (
            "repro faults: intensities must be positive numbers\n"
        )
        assert main(["faults", "--intensities", "0.5,inf"]) == 1
        assert capsys.readouterr().err == (
            "repro faults: intensities must be finite, got inf\n"
        )


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
