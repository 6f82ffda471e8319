"""Guessing-entropy accumulator: moments, merging, persistence, engine glue.

The accumulator averages per-checkpoint guessing entropy over
independent campaign repetitions.  Its bins hold additive moments, so
merging accumulators from split repetition sets must equal the
single-stream fold, the state must survive a save/load round trip, and
the engine's ``run_ge_curve`` must pin every repetition to one
checkpoint ladder so the bins align.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.evaluation import GuessingEntropyAccumulator
from repro.evaluation.convergence import guessing_entropy


@dataclass
class FakeRecord:
    n_traces: int
    ranks: tuple | None


def _repetition(rng, checkpoints=(25, 50, 100)):
    return [
        FakeRecord(n, tuple(rng.integers(1, 257, 16).tolist()))
        for n in checkpoints
    ]


class TestAccumulator:
    def test_single_repetition_curve(self):
        rng = np.random.default_rng(0)
        records = _repetition(rng)
        acc = GuessingEntropyAccumulator()
        acc.update(records)
        counts, means, stds, reps = acc.curve()
        np.testing.assert_array_equal(counts, [25, 50, 100])
        np.testing.assert_array_equal(reps, [1, 1, 1])
        np.testing.assert_array_equal(stds, [0.0, 0.0, 0.0])
        for record, mean in zip(records, means):
            assert mean == pytest.approx(guessing_entropy(record.ranks))

    def test_mean_and_std_over_repetitions(self):
        rng = np.random.default_rng(1)
        reps = [_repetition(rng) for _ in range(6)]
        acc = GuessingEntropyAccumulator()
        for records in reps:
            acc.update(records)
        counts, means, stds, _ = acc.curve()
        for i, n in enumerate(counts):
            values = [guessing_entropy(r[i].ranks) for r in reps]
            assert means[i] == pytest.approx(np.mean(values))
            assert stds[i] == pytest.approx(np.std(values))

    def test_merge_equals_single_stream(self):
        rng = np.random.default_rng(2)
        reps = [_repetition(rng) for _ in range(5)]
        whole = GuessingEntropyAccumulator()
        for records in reps:
            whole.update(records)
        left = GuessingEntropyAccumulator()
        right = GuessingEntropyAccumulator()
        for records in reps[:2]:
            left.update(records)
        for records in reps[2:]:
            right.update(records)
        merged = left.merge(right)
        assert merged.n_repetitions == whole.n_repetitions == 5
        for a, b in zip(merged.curve(), whole.curve()):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_merge_accepts_disjoint_ladders(self):
        """Bins are keyed by trace count; unmatched bins just coexist."""
        rng = np.random.default_rng(3)
        a = GuessingEntropyAccumulator()
        a.update(_repetition(rng, checkpoints=(25, 50)))
        b = GuessingEntropyAccumulator()
        b.update(_repetition(rng, checkpoints=(50, 75)))
        counts, _, _, reps = a.merge(b).curve()
        np.testing.assert_array_equal(counts, [25, 50, 75])
        np.testing.assert_array_equal(reps, [1, 2, 1])

    def test_merge_type_error(self):
        with pytest.raises(TypeError):
            GuessingEntropyAccumulator().merge(object())

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        acc = GuessingEntropyAccumulator()
        for _ in range(3):
            acc.update(_repetition(rng))
        acc.save(tmp_path / "ge.npz")
        loaded = GuessingEntropyAccumulator.load(tmp_path / "ge.npz")
        assert loaded.n_repetitions == 3
        for a, b in zip(loaded.curve(), acc.curve()):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_load_rejects_foreign_checkpoints(self, tmp_path):
        np.savez_compressed(tmp_path / "alien.npz", kind=np.array("other"))
        with pytest.raises(ValueError):
            GuessingEntropyAccumulator.load(tmp_path / "alien.npz")

    def test_traces_to_entropy(self):
        acc = GuessingEntropyAccumulator()
        acc.update([FakeRecord(25, (200,) * 16),
                    FakeRecord(50, (2,) * 16),
                    FakeRecord(100, (1,) * 16)])
        assert acc.traces_to_entropy(0.0) == 100
        assert acc.traces_to_entropy(1.0) == 50
        assert acc.traces_to_entropy(-5.0) is None

    def test_rejects_rankless_and_empty_repetitions(self):
        acc = GuessingEntropyAccumulator()
        with pytest.raises(ValueError):
            acc.update([])
        with pytest.raises(ValueError):
            acc.update([FakeRecord(25, None)])
        with pytest.raises(ValueError):
            acc.curve()
        with pytest.raises(ValueError):
            acc.save("unused.npz")


class TestEngineGeCurve:
    def test_repetitions_share_one_ladder_and_converge(self):
        from repro.runtime import ExperimentEngine, ScenarioSpec

        engine = ExperimentEngine(seed=0, capture_mode="fast")
        ge = engine.run_ge_curve(
            ScenarioSpec(cipher="aes", max_delay=0, seed=700),
            max_traces=200, repetitions=3, aggregate=8, batch_size=64,
        )
        counts, means, _, reps = ge.curve()
        # every repetition hit every bin of the shared ladder
        np.testing.assert_array_equal(reps, np.full(counts.size, 3))
        assert counts[-1] == 200
        # the unprotected target converges within the budget
        assert means[-1] == pytest.approx(0.0, abs=0.2)
        assert ge.traces_to_entropy(0.5) is not None

    def test_accumulator_continues_across_calls(self):
        from repro.runtime import ExperimentEngine, ScenarioSpec

        engine = ExperimentEngine(seed=0, capture_mode="fast")
        spec = ScenarioSpec(cipher="aes", max_delay=0, seed=800)
        ge = engine.run_ge_curve(spec, max_traces=100, repetitions=1,
                                 aggregate=8, batch_size=64)
        ge = engine.run_ge_curve(
            ScenarioSpec(cipher="aes", max_delay=0, seed=801),
            max_traces=100, repetitions=1, aggregate=8, batch_size=64,
            accumulator=ge,
        )
        _, _, _, reps = ge.curve()
        assert ge.n_repetitions == 2
        np.testing.assert_array_equal(reps, np.full(reps.size, 2))

    def test_repetition_floor(self):
        from repro.runtime import ExperimentEngine, ScenarioSpec

        with pytest.raises(ValueError):
            ExperimentEngine(seed=0).run_ge_curve(
                ScenarioSpec(), max_traces=100, repetitions=0)


class TestEngineGeCurveWorkers:
    """``run_ge_curve(workers=N)``: repetitions are independent streams,
    so pooling them must reproduce the serial curve bit for bit."""

    def _curve(self, workers):
        from repro.runtime import ExperimentEngine, ScenarioSpec

        engine = ExperimentEngine(seed=0, capture_mode="fast")
        return engine.run_ge_curve(
            ScenarioSpec(cipher="aes", max_delay=0, seed=700),
            max_traces=150, repetitions=3, aggregate=8, batch_size=64,
            workers=workers,
        )

    def test_pool_matches_the_serial_curve(self):
        serial = self._curve(workers=1)
        pooled = self._curve(workers=2)
        assert pooled.n_repetitions == serial.n_repetitions == 3
        for a, b in zip(pooled.curve(), serial.curve()):
            np.testing.assert_array_equal(a, b)

    def test_workers_floor(self):
        from repro.runtime import ExperimentEngine, ScenarioSpec

        with pytest.raises(ValueError, match="workers"):
            ExperimentEngine(seed=0).run_ge_curve(
                ScenarioSpec(), max_traces=100, workers=0)

    def test_pool_rejects_a_live_accumulator_distinguisher(self):
        from repro.attacks.distinguishers import DistinguisherSpec
        from repro.runtime import ExperimentEngine, ScenarioSpec

        live = DistinguisherSpec(aggregate=8).build()
        with pytest.raises(TypeError, match="picklable"):
            ExperimentEngine(seed=0).run_ge_curve(
                ScenarioSpec(), max_traces=100, workers=2,
                distinguisher=live,
            )

    def test_a_live_accumulator_is_rejected_at_one_worker_too(self):
        """Every repetition builds its own accumulator, so a pre-built one
        is refused up front instead of failing at the second repetition."""
        from repro.attacks.distinguishers import DistinguisherSpec
        from repro.runtime import ExperimentEngine, ScenarioSpec

        live = DistinguisherSpec(aggregate=8).build()
        with pytest.raises(TypeError, match="picklable"):
            ExperimentEngine(seed=0).run_ge_curve(
                ScenarioSpec(), max_traces=100, repetitions=2,
                distinguisher=live,
            )

