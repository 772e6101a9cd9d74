"""Dataset registry: the paper's two evaluation series as surrogates.

Table 1 of the paper:

==========  =========  =========================  =========================
Dataset     Length     ε grid (z-normalized)      ε grid (non-normalized)
==========  =========  =========================  =========================
Insect      64,436     0.5, 0.75, 1, 1.25, 1.5    50, 100, 150, 200, 250
EEG         1,801,999  0.1, 0.2, 0.3, 0.4, 0.5    20, 40, 60, 80, 100
==========  =========  =========================  =========================

Defaults (bold in the paper) are ``ε = 0.75`` / ``ε = 100`` for Insect
and ``ε = 0.2`` / ``ε = 40`` for EEG. The surrogate generators do not
share the real series' value scale, so the non-normalized grids are
additionally re-expressed in *fractions of the surrogate's value range*
by the harness when requested (see
:meth:`DatasetSpec.scaled_raw_epsilons`).

``load_dataset`` accepts a ``scale`` in (0, 1] to truncate the series —
used to keep pure-Python tree construction tractable. Truncation takes
the same windows away from every method, and the ε grids keep their
selectivity (a fraction of windows, not a count), so the comparisons
between methods survive it; EXPERIMENTS.md names the scales it ran at.
"""

from __future__ import annotations

import dataclasses

from ..core.series import TimeSeries
from ..exceptions import InvalidParameterError
from . import synthetic

#: Names accepted by :func:`load_dataset`.
DATASET_NAMES = ("insect", "eeg")


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """Static description of one evaluation dataset (Table 1)."""

    name: str
    full_length: int
    #: ε grid for z-normalized experiments (Figures 4–6).
    normalized_epsilons: tuple[float, ...]
    #: default (bold) ε for z-normalized experiments.
    default_normalized_epsilon: float
    #: ε grid for the paper's raw-value experiments (Figure 7), in the
    #: *paper's* value scale.
    raw_epsilons: tuple[float, ...]
    #: default (bold) raw ε in the paper's value scale.
    default_raw_epsilon: float
    #: the paper's raw value range these raw ε were chosen against; used
    #: to re-express thresholds on surrogates with a different scale.
    paper_value_range: float
    #: generator seed for the surrogate.
    seed: int

    def scaled_raw_epsilons(self, series: TimeSeries) -> tuple[float, ...]:
        """The raw ε grid re-expressed for a surrogate series.

        Each paper ε is mapped to the same *fraction of the value range*
        on the surrogate: ``ε' = ε / paper_range · surrogate_range``.
        This preserves query selectivity, which is what drives all the
        performance comparisons.
        """
        surrogate_range = series.maximum() - series.minimum()
        factor = surrogate_range / self.paper_value_range
        return tuple(round(eps * factor, 6) for eps in self.raw_epsilons)

    def scaled_default_raw_epsilon(self, series: TimeSeries) -> float:
        """Default raw ε re-expressed for a surrogate (see above)."""
        surrogate_range = series.maximum() - series.minimum()
        return round(
            self.default_raw_epsilon * surrogate_range / self.paper_value_range, 6
        )


_SPECS = {
    "insect": DatasetSpec(
        name="insect",
        full_length=64_436,
        normalized_epsilons=(0.5, 0.75, 1.0, 1.25, 1.5),
        default_normalized_epsilon=0.75,
        raw_epsilons=(50.0, 100.0, 150.0, 200.0, 250.0),
        default_raw_epsilon=100.0,
        # The real insect EPG series spans roughly 0..1000 units; the
        # paper's raw thresholds 50..250 are 5%..25% of that range.
        paper_value_range=1000.0,
        seed=42,
    ),
    "eeg": DatasetSpec(
        name="eeg",
        full_length=1_801_999,
        normalized_epsilons=(0.1, 0.2, 0.3, 0.4, 0.5),
        default_normalized_epsilon=0.2,
        raw_epsilons=(20.0, 40.0, 60.0, 80.0, 100.0),
        default_raw_epsilon=40.0,
        # The real EEG series spans roughly ±300 µV; 20..100 µV is
        # ~3%..17% of the range.
        paper_value_range=600.0,
        seed=7,
    ),
}


def dataset_spec(name: str) -> DatasetSpec:
    """The :class:`DatasetSpec` registered under ``name``."""
    try:
        return _SPECS[str(name).lower()]
    except KeyError as exc:
        raise InvalidParameterError(
            f"unknown dataset {name!r}; expected one of {DATASET_NAMES}"
        ) from exc


def load_dataset(name: str, *, scale: float = 1.0, seed: int | None = None) -> TimeSeries:
    """Materialize the named surrogate series.

    Parameters
    ----------
    name:
        ``"insect"`` or ``"eeg"``.
    scale:
        Fraction of the full length to generate, in (0, 1]. The harness
        uses this to keep tree construction tractable in pure Python.
    seed:
        Override the registered seed (for robustness experiments).
    """
    spec = dataset_spec(name)
    if not 0.0 < scale <= 1.0:
        raise InvalidParameterError(f"scale must be in (0, 1], got {scale}")
    length = max(1000, int(round(spec.full_length * scale)))
    length = min(length, spec.full_length)
    seed = spec.seed if seed is None else seed
    if spec.name == "insect":
        values = synthetic.insect_like(length, seed=seed)
    else:
        values = synthetic.eeg_like(length, seed=seed)
    label = spec.name if scale == 1.0 else f"{spec.name}@{scale:g}"
    return TimeSeries(values, name=label)
