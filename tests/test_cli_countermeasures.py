"""CLI error paths and smokes for the countermeasure matrix options.

Every refusal must exit 2 with an actionable stderr message (naming the
valid choices, or the stored configuration a resume would contradict),
never a traceback — these are the seams a user hits first when driving
the matrix from the command line.
"""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestCountermeasureParsing:
    def test_unknown_countermeasure_lists_the_valid_choices(self, capsys):
        rc = main(["campaign", "--countermeasure", "masking"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "masking" in err and "valid choices" in err
        assert "shuffle" in err and "jitter" in err

    def test_jitter_strength_out_of_range(self, capsys):
        assert main(["campaign", "--countermeasure", "jitter-250"]) == 2
        assert "jitter" in capsys.readouterr().err

    def test_masking_order_needs_the_masked_cipher(self, capsys):
        rc = main(["campaign", "--cipher", "aes", "--masking-order", "2"])
        assert rc == 2
        assert "aes_masked" in capsys.readouterr().err

    def test_shuffle_is_aes_only(self, capsys):
        rc = main(["campaign", "--cipher", "aes_masked",
                   "--countermeasure", "shuffle"])
        assert rc == 2
        assert "shuffle" in capsys.readouterr().err

    def test_jitter_refuses_fast_capture(self, capsys):
        rc = main(["campaign", "--countermeasure", "jitter",
                   "--capture-mode", "fast"])
        assert rc == 2
        assert "fast" in capsys.readouterr().err

    def test_bench_validates_per_cipher_list(self, capsys):
        rc = main(["bench", "--ciphers", "aes,simon",
                   "--countermeasure", "shuffle"])
        assert rc == 2
        assert "simon" in capsys.readouterr().err


class TestDerivedWindowRefusals:
    def test_cpa2_derivation_refuses_jitter(self, capsys):
        rc = main(["campaign", "--cipher", "aes_masked",
                   "--distinguisher", "cpa2", "--countermeasure", "jitter"])
        assert rc == 2
        assert "deterministic op layout" in capsys.readouterr().err

    def test_profile_refuses_shuffle_and_jitter(self, tmp_path, capsys):
        for cm in ("shuffle", "jitter"):
            rc = main(["profile", "--countermeasure", cm,
                       "--output", str(tmp_path / "p.npz")])
            assert rc == 2
            assert "profil" in capsys.readouterr().err


class TestStoreConfigurationGuards:
    def _seed_store(self, store):
        argv = ["campaign", "--rd", "0", "--capture-mode", "fast",
                "--traces", "32", "--batch-size", "16",
                "--segment-length", "1600", "--first-checkpoint", "32",
                "--patience", "1", "--store", store]
        assert main(argv) in (0, 1)

    def test_cross_countermeasure_resume_refused(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self._seed_store(store)
        capsys.readouterr()
        argv = ["campaign", "--rd", "0", "--capture-mode", "fast",
                "--traces", "64", "--batch-size", "16",
                "--segment-length", "1600", "--store", store,
                "--countermeasure", "shuffle"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'RD-0'" in err and "SH-20x16" in err

    def test_resume_under_another_jitter_strength_refused(
        self, tmp_path, capsys
    ):
        """Jitter strength leaves key and segment length alone, so only the
        recorded countermeasure tells the two trace streams apart."""
        store = str(tmp_path / "store")
        base = ["campaign", "--rd", "0", "--shard-size", "64",
                "--workers", "1", "--patience", "9", "--store", store]
        assert main(base + ["--traces", "128",
                            "--countermeasure", "jitter-10"]) in (0, 1)
        capsys.readouterr()
        assert main(base + ["--traces", "256",
                            "--countermeasure", "jitter-40"]) == 2
        captured = capsys.readouterr()
        assert "countermeasure" in captured.err
        assert "resumed" not in captured.out

    def test_assess_expect_countermeasure_mismatch(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self._seed_store(store)
        capsys.readouterr()
        # Each shard store records the countermeasure it was captured under.
        rc = main(["assess", "--store", str(tmp_path / "store" / "shard-000000"),
                   "--expect-countermeasure", "RD-0+SH-20x16"])
        assert rc == 2
        assert "'RD-0'" in capsys.readouterr().err


class TestTvlaCommand:
    def test_traces_floor(self, capsys):
        assert main(["tvla", "--traces", "1"]) == 2
        assert ">= 2" in capsys.readouterr().err

    def test_grid_refuses_per_config_persistence(self, tmp_path, capsys):
        rc = main(["tvla", "--grid", "--store", str(tmp_path / "s")])
        assert rc == 2
        assert "per-configuration" in capsys.readouterr().err

    def test_unknown_countermeasure(self, capsys):
        assert main(["tvla", "--countermeasure", "nope"]) == 2
        assert "valid choices" in capsys.readouterr().err

    def test_runs_detects_and_resumes(self, tmp_path, capsys):
        store = str(tmp_path / "tvla")
        argv = ["tvla", "--rd", "0", "--capture-mode", "fast",
                "--traces", "48", "--batch-size", "16", "--store", store,
                "--output", str(tmp_path / "t.npz")]
        # unprotected AES leaks: verdict exit code 0
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "RD-0" in out and "LEAKS" in out
        assert (tmp_path / "t.npz").exists()
        # a second run resumes the stored traces instead of recapturing
        assert main(argv) == 0
        assert "resumed 96 traces" in capsys.readouterr().out

    def test_resume_refuses_other_countermeasure(self, tmp_path, capsys):
        store = str(tmp_path / "tvla")
        base = ["tvla", "--rd", "0", "--capture-mode", "fast",
                "--traces", "8", "--batch-size", "8", "--store", store]
        assert main(base) in (0, 1)
        capsys.readouterr()
        assert main(base + ["--countermeasure", "shuffle"]) == 2
        assert "countermeasure" in capsys.readouterr().err

    def test_masked_passes(self, capsys):
        rc = main(["tvla", "--cipher", "aes_masked", "--rd", "0",
                   "--capture-mode", "fast", "--traces", "48",
                   "--batch-size", "16"])
        assert rc == 1
        assert "passes" in capsys.readouterr().out


class TestGeCurveSmoke:
    def test_engine_ge_curve_reaches_zero_entropy(self):
        """The CLI-facing GE path: repetitions averaged on one ladder."""
        from repro.runtime import ExperimentEngine, ScenarioSpec

        engine = ExperimentEngine(seed=0, capture_mode="fast")
        ge = engine.run_ge_curve(
            ScenarioSpec(cipher="aes", max_delay=0, seed=90),
            max_traces=150, repetitions=2, aggregate=8, batch_size=64,
        )
        assert ge.n_repetitions == 2
        assert ge.traces_to_entropy(0.5) is not None
