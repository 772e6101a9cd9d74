"""Seeded synthetic time-series generators.

All generators take an explicit ``seed`` and are deterministic given it
(``numpy.random.default_rng``). Two of them are purpose-built surrogates
for the paper's evaluation data:

* :func:`insect_like` — the *Insect Movement* surrogate. EPG insect
  telemetry alternates between distinct behavioural regimes (quiet
  probing, active feeding bursts, baseline drifts); we model this with
  a regime-switching AR(1) whose level, noise scale and oscillatory
  content change at random regime boundaries.
* :func:`eeg_like` — the *EEG* surrogate. Scalp EEG mixes banded
  oscillations (delta/alpha/beta) with pink-ish background noise and
  sparse high-amplitude transients (spikes / K-complexes); we sum
  phase-drifting band oscillators, an AR(1) background and injected
  spike-wave events.

Both carry repeated motifs (regimes and events recur), which is what
makes twin search non-trivial: queries have genuine twins, and index
pruning quality matters.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .._util import FLOAT_DTYPE, check_positive_int
from ..exceptions import InvalidParameterError


def _rng(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_walk(n: int, *, seed: int | None = 0, step_std: float = 1.0) -> np.ndarray:
    """Gaussian random walk of ``n`` points."""
    n = check_positive_int(n, name="n")
    return np.cumsum(_rng(seed).normal(0.0, step_std, size=n)).astype(FLOAT_DTYPE)


def ar1(n: int, *, seed: int | None = 0, phi: float = 0.9, sigma: float = 1.0) -> np.ndarray:
    """Stationary AR(1): ``x_t = phi·x_{t-1} + N(0, sigma)``.

    Implemented with an exact vectorized recursion (scaled cumulative
    products) rather than a Python loop.
    """
    n = check_positive_int(n, name="n")
    if not -1.0 < phi < 1.0:
        raise InvalidParameterError(f"phi must be in (-1, 1), got {phi}")
    noise = _rng(seed).normal(0.0, sigma, size=n)
    out = np.empty(n, dtype=FLOAT_DTYPE)
    # scipy-free linear filter: x = signal.lfilter([1], [1, -phi], noise)
    from scipy.signal import lfilter

    out[:] = lfilter([1.0], [1.0, -phi], noise)
    return out


def noisy_sines(
    n: int,
    *,
    seed: int | None = 0,
    frequencies: Sequence[float] = (0.01, 0.037),
    amplitudes: Sequence[float] = (1.0, 0.5),
    noise_std: float = 0.1,
) -> np.ndarray:
    """Sum of sinusoids plus white noise — a simple periodic testbed."""
    n = check_positive_int(n, name="n")
    if len(frequencies) != len(amplitudes):
        raise InvalidParameterError(
            "frequencies and amplitudes must have equal lengths"
        )
    t = np.arange(n, dtype=FLOAT_DTYPE)
    rng = _rng(seed)
    signal = np.zeros(n, dtype=FLOAT_DTYPE)
    for frequency, amplitude in zip(frequencies, amplitudes):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        signal += amplitude * np.sin(2.0 * np.pi * frequency * t + phase)
    return signal + rng.normal(0.0, noise_std, size=n)


def regime_switching(
    n: int,
    *,
    seed: int | None = 0,
    mean_regime_length: int = 400,
    level_std: float = 2.0,
    noise_scales: Sequence[float] = (0.2, 1.0, 0.5),
) -> np.ndarray:
    """Piecewise AR(1) whose level and noise scale jump between regimes.

    Regime lengths are geometric with the given mean; each regime draws
    a base level and one of ``noise_scales``. The building block of
    :func:`insect_like`.
    """
    n = check_positive_int(n, name="n")
    rng = _rng(seed)
    values = np.empty(n, dtype=FLOAT_DTYPE)
    position = 0
    level = 0.0
    while position < n:
        length = min(
            n - position, 1 + int(rng.geometric(1.0 / mean_regime_length))
        )
        level += rng.normal(0.0, level_std)
        scale = float(rng.choice(noise_scales))
        from scipy.signal import lfilter

        noise = rng.normal(0.0, scale, size=length)
        segment = lfilter([1.0], [1.0, -0.85], noise)
        values[position : position + length] = level + segment
        position += length
    return values


def insect_like(n: int = 64_436, *, seed: int | None = 42) -> np.ndarray:
    """Insect Movement surrogate (default length matches the paper).

    Regime-switching AR base with per-regime oscillatory texture
    (behavioural modes), recurring stereotyped feeding bursts (these
    recur with small jitter, creating genuine twins) and slow baseline
    drift. Parameters are calibrated so that, globally z-normalized,
    the Table 1 ε grid spans paper-like selectivities: near-singleton
    result sets at ε = 0.5 growing to thousands of twins at ε = 1.5.
    """
    from scipy.signal import lfilter

    n = check_positive_int(n, name="n")
    rng = _rng(seed)
    values = np.empty(n, dtype=FLOAT_DTYPE)
    position = 0
    mean_regime = 500
    noise_scales = (0.5, 1.2, 0.8)
    while position < n:
        length = min(n - position, 1 + int(rng.geometric(1.0 / mean_regime)))
        # Mild level continuity with the previous regime avoids
        # physically implausible jumps while keeping regimes distinct.
        carry = 0.0 if position == 0 else float(values[position - 1]) * 0.3
        level = rng.normal(0.0, 0.8) + carry
        scale = float(rng.choice(noise_scales))
        noise = rng.normal(0.0, scale, size=length)
        segment = lfilter([1.0], [1.0, -0.75], noise)
        # Per-regime oscillatory texture with random frequency/phase —
        # this is what keeps windows from different regimes apart.
        frequency = rng.uniform(0.02, 0.2)
        amplitude = rng.uniform(0.0, 1.0) * scale
        segment = segment + amplitude * np.sin(
            2.0 * np.pi * frequency * np.arange(length)
            + rng.uniform(0.0, 2.0 * np.pi)
        )
        values[position : position + length] = level + segment
        position += length

    # Slow drift: smooth random walk across the recording.
    drift_points = max(4, n // 2000)
    anchors = np.cumsum(rng.normal(0.0, 0.5, size=drift_points))
    drift = np.interp(
        np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, drift_points), anchors
    )

    # Recurring stereotyped bursts, pasted with ~2% amplitude jitter so
    # their occurrences are twins at moderate thresholds.
    bursts = np.zeros(n, dtype=FLOAT_DTYPE)
    templates = []
    for _ in range(3):
        burst_length = int(rng.integers(80, 200))
        tt = np.arange(burst_length)
        frequency = rng.uniform(0.05, 0.15)
        envelope = np.hanning(burst_length)
        templates.append(
            envelope * np.sin(2.0 * np.pi * frequency * tt) * rng.uniform(1.5, 3.0)
        )
    burst_count = max(4, n // 800)
    for _ in range(burst_count):
        template = templates[int(rng.integers(0, len(templates)))]
        if template.size >= n:
            continue  # series too short to host this burst
        start = int(rng.integers(0, n - template.size))
        jitter = 1.0 + rng.normal(0.0, 0.02)
        bursts[start : start + template.size] += template * jitter
    return (values + drift + bursts).astype(FLOAT_DTYPE)


def eeg_like(n: int = 1_801_999, *, seed: int | None = 7) -> np.ndarray:
    """EEG surrogate (default length matches the paper's one-hour 500 Hz
    recording).

    Banded oscillations with drifting instantaneous frequency + AR(1)
    background + sparse spike-wave events.
    """
    n = check_positive_int(n, name="n")
    rng = _rng(seed)
    t = np.arange(n, dtype=FLOAT_DTYPE)

    signal = np.zeros(n, dtype=FLOAT_DTYPE)
    # Banded oscillators: (center frequency in cycles/sample, amplitude).
    # At a nominal 500 Hz: delta ~2 Hz, alpha ~10 Hz, beta ~20 Hz.
    for center, amplitude in ((2 / 500, 1.2), (10 / 500, 0.8), (20 / 500, 0.4)):
        # Slowly drifting instantaneous frequency around the center.
        drift_points = max(4, n // 50_000)
        drift = np.interp(
            np.linspace(0.0, 1.0, n),
            np.linspace(0.0, 1.0, drift_points),
            rng.normal(1.0, 0.05, size=drift_points),
        )
        phase = 2.0 * np.pi * np.cumsum(center * drift)
        signal += amplitude * np.sin(phase + rng.uniform(0.0, 2.0 * np.pi))

    background = ar1(n, seed=rng.integers(0, 2**31), phi=0.97, sigma=0.08)
    signal += background

    # Sparse spike-wave events: sharp biphasic transient + slow wave.
    event_count = max(6, n // 25_000)
    spike_length = 120
    tt = np.arange(spike_length, dtype=FLOAT_DTYPE)
    spike = (
        2.5 * np.exp(-((tt - 20.0) ** 2) / 18.0)
        - 1.5 * np.exp(-((tt - 34.0) ** 2) / 60.0)
        + 0.8 * np.sin(2.0 * np.pi * tt / spike_length) * np.hanning(spike_length)
    )
    # Events recur at a few canonical amplitudes with ~2% jitter, so
    # occurrences of the same class are near-twins of each other (the
    # "doublet" structure twin search is meant to recover).
    canonical_scales = (1.8, 2.4, 3.0)
    if spike_length < n:
        for _ in range(event_count):
            start = int(rng.integers(0, n - spike_length))
            polarity = 1.0 if rng.random() < 0.85 else -1.0
            scale = float(rng.choice(canonical_scales))
            jitter = 1.0 + rng.normal(0.0, 0.02)
            signal[start : start + spike_length] += spike * scale * jitter * polarity
    del t
    return signal.astype(FLOAT_DTYPE)
