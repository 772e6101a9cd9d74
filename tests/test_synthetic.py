"""Tests for the synthetic generators (determinism + structure)."""

import numpy as np
import pytest

from repro.data import synthetic
from repro.exceptions import InvalidParameterError


class TestDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda seed: synthetic.random_walk(500, seed=seed),
            lambda seed: synthetic.ar1(500, seed=seed),
            lambda seed: synthetic.noisy_sines(500, seed=seed),
            lambda seed: synthetic.regime_switching(500, seed=seed),
            lambda seed: synthetic.insect_like(2000, seed=seed),
            lambda seed: synthetic.eeg_like(2000, seed=seed),
        ],
        ids=["walk", "ar1", "sines", "regime", "insect", "eeg"],
    )
    def test_same_seed_same_series(self, factory):
        assert np.array_equal(factory(7), factory(7))

    def test_different_seed_different_series(self):
        a = synthetic.insect_like(1000, seed=1)
        b = synthetic.insect_like(1000, seed=2)
        assert not np.array_equal(a, b)


class TestShapes:
    def test_lengths(self):
        for n in (1, 10, 999):
            assert synthetic.random_walk(n, seed=0).size == n
            assert synthetic.insect_like(n, seed=0).size == n
            assert synthetic.eeg_like(n, seed=0).size == n

    def test_default_lengths_match_paper(self):
        # Only check the advertised defaults, not generate them fully.
        import inspect

        assert inspect.signature(synthetic.insect_like).parameters["n"].default == 64_436
        assert inspect.signature(synthetic.eeg_like).parameters["n"].default == 1_801_999

    def test_all_finite(self):
        for values in (
            synthetic.insect_like(3000, seed=3),
            synthetic.eeg_like(3000, seed=3),
            synthetic.regime_switching(3000, seed=3),
        ):
            assert np.all(np.isfinite(values))

    def test_rejects_zero_length(self):
        with pytest.raises(InvalidParameterError):
            synthetic.random_walk(0)


class TestStatisticalStructure:
    def test_ar1_autocorrelation(self):
        values = synthetic.ar1(20_000, seed=5, phi=0.9)
        lag1 = np.corrcoef(values[:-1], values[1:])[0, 1]
        assert 0.85 < lag1 < 0.95

    def test_ar1_rejects_nonstationary(self):
        with pytest.raises(InvalidParameterError):
            synthetic.ar1(100, phi=1.0)

    def test_noisy_sines_mismatched_params(self):
        with pytest.raises(InvalidParameterError):
            synthetic.noisy_sines(100, frequencies=(0.1,), amplitudes=(1.0, 2.0))

    def test_noisy_sines_periodicity(self):
        values = synthetic.noisy_sines(
            4000, seed=0, frequencies=(0.01,), amplitudes=(1.0,), noise_std=0.01
        )
        period = 100
        shifted_corr = np.corrcoef(values[:-period], values[period:])[0, 1]
        assert shifted_corr > 0.9

    def test_regime_switching_has_level_changes(self):
        values = synthetic.regime_switching(5000, seed=9, mean_regime_length=200)
        # Block means should vary far more than white noise would allow.
        blocks = values[: 5000 // 10 * 10].reshape(10, -1).mean(axis=1)
        assert blocks.std() > 0.1

    def test_insect_selectivity_calibration(self):
        # The generator is calibrated so z-normalized twin queries at
        # eps = 0.5 are highly selective, as on the paper's Insect
        # series: selectivity at Table 1's grid is what makes the
        # surrogate a fair stand-in for the method comparisons.
        from repro.core.windows import WindowSource
        from repro.indices.sweepline import SweeplineSearch

        values = synthetic.insect_like(8000, seed=42)
        source = WindowSource(values, 100, "global")
        sweep = SweeplineSearch.from_source(source)
        query = np.array(source.window_block(1234, 1235)[0])
        matches = len(sweep.search(query, 0.5))
        assert matches < source.count * 0.01

    def test_eeg_has_spikes(self):
        values = synthetic.eeg_like(50_000, seed=7)
        z = (values - values.mean()) / values.std()
        assert np.max(np.abs(z)) > 3.5
