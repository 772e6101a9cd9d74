"""Datasets: seeded synthetic surrogates for the paper's series + IO.

The paper evaluates on the *Insect Movement* (64,436 points) and *EEG*
(1,801,999 points @ 500 Hz) series of Mueen et al., which are not
redistributable here. :mod:`repro.data.synthetic` provides seeded
generators with matching lengths and qualitatively similar structure.
The substitution is fair because every comparison the paper draws is
between methods answering the same queries over the same windows: what
separates them is filter quality at a given query selectivity, and the
generators are calibrated to the paper's selectivities at Table 1's ε
grids — so method orderings and trends carry over, absolute times do
not (EXPERIMENTS.md records both the measurements and this deviation).
:mod:`repro.data.datasets` registers them under the paper's names so
the experiment harness can request ``"insect"`` / ``"eeg"`` directly.
Real data, if available, drops in through :mod:`repro.data.loaders`.
"""

from .datasets import (
    DATASET_NAMES,
    DatasetSpec,
    dataset_spec,
    load_dataset,
)
from .loaders import load_series, save_series
from .synthetic import (
    ar1,
    eeg_like,
    insect_like,
    noisy_sines,
    random_walk,
    regime_switching,
)

__all__ = [
    "DATASET_NAMES",
    "DatasetSpec",
    "ar1",
    "dataset_spec",
    "eeg_like",
    "insect_like",
    "load_dataset",
    "load_series",
    "noisy_sines",
    "random_walk",
    "regime_switching",
    "save_series",
]
