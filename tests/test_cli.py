"""CLI smoke tests (argument wiring; heavy paths run in benchmarks)."""

from __future__ import annotations

import re

import pytest

from repro.__main__ import main


class TestCli:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_train_rejects_unknown_cipher(self):
        with pytest.raises(SystemExit):
            main(["train", "--cipher", "des"])

    def test_locate_needs_existing_model(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["locate", "--model", str(tmp_path / "missing.npz")])

    def test_campaign_rejects_unknown_cipher(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--cipher", "des"])

    def test_campaign_runs_and_resumes(self, tmp_path, capsys):
        """End-to-end: RD-0 campaign reaches rank 1, then resumes its store.

        Without --workers the campaign is still sharded: the store is a
        shard root with a journal that --status reads.
        """
        store = str(tmp_path / "store")
        argv = ["campaign", "--rd", "0", "--traces", "640",
                "--segment-length", "1600", "--aggregate", "8",
                "--patience", "1", "--first-checkpoint", "128",
                "--store", store]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "recovered key" in first
        assert (tmp_path / "store" / "shard-000000").is_dir()
        assert (tmp_path / "store" / "journal.json").is_file()
        assert main(argv) == 0
        resumed = capsys.readouterr().out
        assert "640 traces (640 resumed)" in resumed
        assert main(["campaign", "--status", "--store", store]) == 0

    def test_campaign_refuses_cross_mode_store_resume(self, tmp_path, capsys):
        """A shard root captured in one capture mode cannot be resumed in
        the other: the streams differ, splicing them would be silent
        garbage."""
        store = str(tmp_path / "store")
        argv = ["campaign", "--rd", "0", "--traces", "96",
                "--segment-length", "600", "--aggregate", "8",
                "--patience", "1", "--first-checkpoint", "64",
                "--store", store]
        # The tiny budget need not reach rank 1; it only seeds the store.
        assert main(argv + ["--capture-mode", "fast"]) in (0, 1)
        capsys.readouterr()
        assert main(argv + ["--capture-mode", "exact"]) == 2
        assert "capture" in capsys.readouterr().err

    def test_campaign_fast_mode_recovers_the_key(self, capsys):
        argv = ["campaign", "--rd", "0", "--traces", "400",
                "--aggregate", "8", "--patience", "1",
                "--first-checkpoint", "128", "--capture-mode", "fast"]
        assert main(argv) == 0
        assert "recovered key" in capsys.readouterr().out

    def test_parallel_campaign_runs_and_resumes(self, tmp_path, capsys):
        """`--workers N` routes to the sharded parallel campaign."""
        store = str(tmp_path / "shards")
        argv = ["campaign", "--rd", "0", "--traces", "512",
                "--segment-length", "1600", "--aggregate", "8",
                "--patience", "1", "--workers", "2", "--shard-size", "128",
                "--batch-size", "128", "--store", store]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "parallel campaign" in first
        assert "recovered key" in first
        assert (tmp_path / "shards" / "shard-000000").is_dir()
        assert main(argv) == 0
        resumed = capsys.readouterr().out
        assert re.search(r"\((?!0 )\d+ resumed\)", resumed)

    def test_parallel_campaign_rejects_bad_worker_count(self):
        assert main(["campaign", "--rd", "0", "--traces", "64",
                     "--segment-length", "1600", "--workers", "0"]) == 2


class TestCliDistinguisherErrors:
    """Unknown distinguisher / leakage-model names fail fast, listing the
    valid choices (satellite: CLI error paths)."""

    def test_campaign_rejects_unknown_distinguisher(self, capsys):
        assert main(["campaign", "--distinguisher", "mia"]) == 2
        err = capsys.readouterr().err
        assert "unknown distinguisher" in err
        assert "cpa, cpa2, dpa, lra, nnp, template" in err

    def test_campaign_rejects_unknown_leakage_model(self, capsys):
        assert main(["campaign", "--leakage-model", "hamming-cube"]) == 2
        err = capsys.readouterr().err
        assert "unknown leakage model" in err
        assert "hd, hw, identity, lsb, msb" in err

    def test_bench_rejects_unknown_distinguisher(self, capsys):
        assert main(["bench", "--distinguisher", "mia"]) == 2
        assert "cpa, cpa2, dpa, lra, nnp, template" in capsys.readouterr().err

    def test_bench_rejects_unknown_leakage_model(self, capsys):
        assert main(["bench", "--leakage-model", "nope"]) == 2
        assert "hd, hw, identity, lsb, msb" in capsys.readouterr().err

    def test_bench_routes_cpa2_to_campaign(self, capsys):
        assert main(["bench", "--distinguisher", "cpa2"]) == 2
        assert "repro campaign" in capsys.readouterr().err

    def test_cpa2_needs_windows_outside_masked_aes(self, capsys):
        assert main(["campaign", "--cipher", "aes",
                     "--distinguisher", "cpa2"]) == 2
        assert "--window1" in capsys.readouterr().err

    def test_cpa2_window_derivation_needs_rd0(self, capsys):
        """Auto-derived windows only pair up without delay jitter."""
        assert main(["campaign", "--cipher", "aes_masked", "--rd", "2",
                     "--distinguisher", "cpa2"]) == 2
        assert "--rd 0" in capsys.readouterr().err

    def test_lra_rejects_leakage_model(self, capsys):
        assert main(["campaign", "--distinguisher", "lra",
                     "--leakage-model", "hw"]) == 2
        assert "basis" in capsys.readouterr().err

    def test_bad_window_format_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--distinguisher", "cpa2",
                  "--window1", "12-20", "--window2", "30:40"])


class TestCliSecondOrderCampaign:
    def test_masked_aes_second_order_recovers_key(self, capsys):
        """`--distinguisher cpa2` derives windows and breaks aes_masked."""
        argv = ["campaign", "--cipher", "aes_masked", "--rd", "0",
                "--distinguisher", "cpa2", "--traces", "1600",
                "--segment-length", "1100", "--first-checkpoint", "700",
                "--growth", "2.0", "--patience", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cpa2 windows (derived, 2 shares)" in out
        assert "[cpa2]" in out
        assert "rank 1 at" in out


class TestCliProfiledWorkflow:
    """profile → assess → campaign --profile, plus the refusal paths."""

    def test_profile_attack_and_assess_roundtrip(self, tmp_path, capsys):
        """The full profiled workflow through the CLI on the fast path."""
        profile_dir = str(tmp_path / "prof")
        assert main(["profile", "--cipher", "aes", "--rd", "0",
                     "--traces", "1200", "--seed", "5",
                     "--output", profile_dir, "--pois", "2",
                     "--capture-mode", "fast"]) == 0
        out = capsys.readouterr().out
        assert "template profile: aes RD-0" in out
        assert main(["campaign", "--cipher", "aes", "--rd", "0",
                     "--seed", "77", "--traces", "400", "--patience", "1",
                     "--first-checkpoint", "100",
                     "--distinguisher", "template", "--profile", profile_dir,
                     "--capture-mode", "fast"]) == 0
        out = capsys.readouterr().out
        assert "(from the profile)" in out
        assert "rank 1 at" in out
        # The profiling store doubles as assessment input: an unmasked
        # target must trip the TVLA threshold.
        assert main(["assess", "--store", str(tmp_path / "prof" / "traces"),
                     "--output", str(tmp_path / "maps.npz")]) == 0
        out = capsys.readouterr().out
        assert "exceeds the TVLA threshold" in out
        assert (tmp_path / "maps.npz").is_file()

    def test_profile_masked_needs_rd0(self, capsys):
        assert main(["profile", "--cipher", "aes_masked", "--rd", "2",
                     "--output", "unused"]) == 2
        assert "--rd 0" in capsys.readouterr().err

    def test_campaign_requires_a_profile_argument(self, capsys):
        assert main(["campaign", "--distinguisher", "nnp"]) == 2
        assert "repro profile" in capsys.readouterr().err

    def test_campaign_rejects_profile_target_mismatch(self, tmp_path, capsys):
        profile_dir = str(tmp_path / "prof")
        assert main(["profile", "--cipher", "aes", "--rd", "0",
                     "--traces", "600", "--output", profile_dir,
                     "--pois", "2", "--capture-mode", "fast"]) == 0
        capsys.readouterr()
        assert main(["campaign", "--cipher", "camellia", "--rd", "0",
                     "--distinguisher", "template",
                     "--profile", profile_dir]) == 2
        assert "--cipher aes" in capsys.readouterr().err
        assert main(["campaign", "--cipher", "aes", "--rd", "4",
                     "--distinguisher", "template",
                     "--profile", profile_dir]) == 2
        assert "--rd 0" in capsys.readouterr().err
        assert main(["campaign", "--cipher", "aes", "--rd", "0",
                     "--segment-length", "123",
                     "--distinguisher", "template",
                     "--profile", profile_dir]) == 2
        assert "--segment-length" in capsys.readouterr().err

    def test_campaign_rejects_a_non_profile_directory(self, tmp_path, capsys):
        assert main(["campaign", "--distinguisher", "template",
                     "--profile", str(tmp_path)]) == 2
        assert "manifest.json" in capsys.readouterr().err

    def test_bench_routes_profiled_to_campaign(self, capsys):
        assert main(["bench", "--distinguisher", "nnp"]) == 2
        assert "repro campaign" in capsys.readouterr().err

    def test_assess_rejects_a_missing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["assess", "--store", str(tmp_path / "nope")])


class TestCliTvlaParallel:
    """`repro tvla --workers`: the sharded path's CLI parity with its
    inline reference, plus the error paths (satellite: CLI error paths)."""

    _base = ["tvla", "--traces", "24", "--seed", "3", "--shard-size", "8",
             "--segment-length", "160", "--batch-size", "8",
             "--capture-mode", "fast"]

    def test_worker_count_invariant_t_map(self, tmp_path, capsys):
        """workers=4 saves the bit-identical t statistics of workers=1."""
        import numpy as np

        from repro.evaluation import WelchTAccumulator

        out1 = str(tmp_path / "w1.npz")
        out4 = str(tmp_path / "w4.npz")
        rc1 = main(self._base + ["--workers", "1", "--output", out1])
        rc4 = main(self._base + ["--workers", "4", "--output", out4])
        capsys.readouterr()
        assert rc1 == rc4
        assert np.array_equal(
            WelchTAccumulator.load(out1).t(),
            WelchTAccumulator.load(out4).t(),
        )

    def test_grid_verdicts_are_worker_count_invariant(self, capsys):
        """The acceptance pin: --grid --workers 4 == --grid --workers 1."""
        argv = ["tvla", "--grid", "--traces", "8", "--batch-size", "4",
                "--shard-size", "4", "--capture-mode", "fast"]

        def verdict_lines():
            return [line for line in capsys.readouterr().out.splitlines()
                    if "max |t|" in line]

        main(argv + ["--workers", "1"])
        serial = verdict_lines()
        main(argv + ["--workers", "4"])
        pooled = verdict_lines()
        assert len(serial) == 5
        assert pooled == serial

    def test_rejects_bad_worker_and_shard_counts(self, capsys):
        assert main(["tvla", "--traces", "8", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["tvla", "--traces", "8", "--workers", "2",
                     "--shard-size", "0"]) == 2
        assert "--shard-size" in capsys.readouterr().err

    def test_parallel_refuses_a_serial_store(self, tmp_path, capsys):
        from repro.evaluation import TvlaCampaign
        from repro.soc.platform import PlatformSpec

        store = str(tmp_path / "serial")
        # The CLI is always sharded; the library's unsharded campaign
        # still writes a single serial store.
        TvlaCampaign(PlatformSpec("aes"), segment_length=160, batch_size=4,
                     store_dir=store).run(4)
        argv = ["tvla", "--traces", "4", "--segment-length", "160",
                "--batch-size", "4", "--store", store]
        assert main(argv + ["--workers", "1"]) == 2
        assert "serial TraceStore" in capsys.readouterr().err


class TestCliNoBackendFlag:
    """The capture kernels have one implementation, so no command selects one."""

    @pytest.mark.parametrize("argv", [
        ["bench"],
        ["campaign"],
        ["profile", "--output", "unused"],
        ["tvla"],
    ], ids=["bench", "campaign", "profile", "tvla"])
    def test_backend_flag_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--backend", "numpy"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err
