"""CLI fault-tolerance paths: flag validation, --status, exit codes."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main


class TestFlagValidation:
    def test_retry_flags_without_workers_are_accepted(self, capsys):
        """`repro campaign` is always sharded, so the retry flags apply
        at the default --workers 1 too."""
        code = main(["campaign", "--rd", "0", "--traces", "64",
                     "--segment-length", "600", "--patience", "1",
                     "--max-retries", "3", "--retry-backoff", "0.1",
                     "--shard-timeout", "120"])
        assert code in (0, 1)
        captured = capsys.readouterr()
        assert "1 workers x 1024-trace shards" in captured.out
        assert "--workers" not in captured.err

    @pytest.mark.parametrize("flag,value,fragment", [
        ("--max-retries", "-1", ">= 0"),
        ("--retry-backoff", "-0.5", ">= 0"),
        ("--shard-timeout", "0", "> 0"),
    ])
    def test_bad_values_exit_2(self, capsys, flag, value, fragment):
        code = main([
            "campaign", "--traces", "200", "--workers", "2", flag, value,
        ])
        assert code == 2
        assert fragment in capsys.readouterr().err

    def test_tvla_validates_the_same_flags(self, capsys):
        code = main(["tvla", "--traces", "40", "--shard-timeout", "0"])
        assert code == 2


class TestStatus:
    def test_status_without_store_exits_2(self, capsys):
        assert main(["campaign", "--status"]) == 2
        assert "--store" in capsys.readouterr().err

    def test_status_on_missing_directory_exits_2(self, tmp_path, capsys):
        store = str(tmp_path / "nowhere")
        assert main(["campaign", "--status", "--store", store]) == 2
        assert "directory does not exist" in capsys.readouterr().err

    def test_status_on_serial_store_explains_the_missing_journal(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store"
        store.mkdir()
        (store / "manifest.json").write_text('{"version": 1, "shards": []}')
        assert main(["campaign", "--status", "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert "serial trace store" in err
        assert "--workers" not in err

    def test_status_on_corrupt_journal_says_how_to_reset(
        self, tmp_path, capsys
    ):
        store = tmp_path / "store"
        store.mkdir()
        (store / "journal.json").write_text("{ not json")
        assert main(["campaign", "--status", "--store", str(store)]) == 2
        assert "delete journal.json" in capsys.readouterr().err

    def test_status_after_a_real_parallel_run(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = ["campaign", "--rd", "0", "--traces", "384",
                "--segment-length", "1600", "--aggregate", "8",
                "--patience", "1", "--first-checkpoint", "128",
                "--shard-size", "128", "--workers", "1", "--store", store]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["campaign", "--status", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "parallel_campaign" in out
        assert "phase" in out
        journal = json.loads((tmp_path / "store" / "journal.json").read_text())
        assert journal["kind"] == "parallel_campaign"


class TestStoreConfigMismatch:
    def test_campaign_resume_refuses_other_capture_mode(
        self, tmp_path, capsys
    ):
        """A mismatched shard root is refused once, before dispatch: exit
        2, no retries, no backoff."""
        store = str(tmp_path / "store")
        base = ["campaign", "--rd", "0", "--traces", "128",
                "--segment-length", "1600", "--patience", "1",
                "--first-checkpoint", "128", "--shard-size", "128",
                "--workers", "1", "--store", store]
        assert main(base + ["--capture-mode", "fast"]) in (0, 1)
        capsys.readouterr()
        assert main(base + ["--capture-mode", "exact"]) == 2
        captured = capsys.readouterr()
        assert "capture_mode" in captured.err
        assert "retrying" not in captured.out

