"""Shuffle-and-scale synthesis of changepoint instances from real passes.

A measured experiment of N passes is turned into a synthetic 2N-pass
instance by concatenating an independent random permutation of the
original series with an independent random permutation of the series
multiplied by a leak rate ratio (LRR). The change therefore always sits
between passes N and N+1, while the shuffles vary which measurements
land next to the boundary. Repeating the shuffle many times maps out how
detection performance depends on the jump size relative to the signal's
own variability, summarized by the jump-to-noise ratio
JNR = (LRR - 1) / CV.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientDataError
from .transport import MetSummary


@dataclass(frozen=True)
class ExperimentRecord:
    """One measured experiment: its reduced passes plus met context."""

    experiment_id: str
    fetch_m: float
    cy_series: np.ndarray = field(compare=False)
    met: MetSummary | None = None

    def __post_init__(self) -> None:
        series = np.asarray(self.cy_series, dtype=float)
        if series.ndim != 1 or series.size < 2:
            raise InsufficientDataError("an experiment needs at least 2 passes")
        if np.any(series < 0):
            raise ValueError("integrated concentrations must be non-negative")
        if self.fetch_m <= 0:
            raise ValueError("fetch must be positive")
        series = series.copy()
        series.setflags(write=False)
        object.__setattr__(self, "cy_series", series)

    @property
    def n_passes(self) -> int:
        return self.cy_series.size


@dataclass(frozen=True)
class SynthesizedInstance:
    """A 2N-pass series whose rate changes right after pass ``true_cp_index``."""

    series: np.ndarray = field(compare=False)
    true_cp_index: int
    lrr: float

    def __post_init__(self) -> None:
        series = np.asarray(self.series, dtype=float)
        if series.size != 2 * self.true_cp_index:
            raise ValueError("series must hold exactly 2N passes with the change at N")
        series = series.copy()
        series.setflags(write=False)
        object.__setattr__(self, "series", series)


@dataclass(frozen=True)
class SignalStats:
    mean: float
    std: float
    cv: float
    value_range: float
    jnr: float


def instance_rng(
    master_seed: int, experiment_id: str, lrr: float, instance_index: int
) -> np.random.Generator:
    """Deterministic per-instance generator.

    The child seed mixes (master_seed, experiment_id, lrr, instance
    index) through a SeedSequence, so instances are reproducible in
    isolation and independent of evaluation order or worker count. The
    LRR enters via its IEEE-754 bit pattern to avoid any float hashing
    ambiguity.
    """
    if master_seed < 0:
        raise ValueError("master seed must be non-negative")
    lrr_bits = struct.unpack("<Q", struct.pack("<d", float(lrr)))[0]
    id_bits = int.from_bytes(experiment_id.encode("utf-8"), "little") if experiment_id else 0
    entropy = [int(master_seed), id_bits, lrr_bits, int(instance_index)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def synthesize_instance(
    exp: ExperimentRecord, lrr: float, rng: np.random.Generator
) -> SynthesizedInstance:
    """Shuffle the original and the scaled copy, then concatenate.

    Both halves use Fisher-Yates draws from ``rng`` (the identity
    permutation is a legitimate outcome). The pre-change half preserves
    the original multiset exactly; the post-change half preserves the
    multiset of lrr-scaled values, so the half-mean ratio is lrr up to
    float summation order.
    """
    if not (lrr > 0 and math.isfinite(lrr)):
        raise ValueError("leak rate ratio must be positive and finite")
    with np.errstate(over="ignore"):
        scaled = exp.cy_series * lrr
    if not np.isfinite(scaled).all():
        raise ValueError("leak rate ratio times a pass overflows")
    first = rng.permutation(exp.cy_series)
    second = rng.permutation(scaled)
    return SynthesizedInstance(
        series=np.concatenate([first, second]),
        true_cp_index=exp.n_passes,
        lrr=float(lrr),
    )


def synthesize_batch(
    exp: ExperimentRecord,
    lrr: float,
    n_instances: int,
    master_seed: int,
    start_index: int = 0,
) -> list[SynthesizedInstance]:
    """Generate instances ``start_index .. start_index + n_instances - 1``.

    Instance i always uses the child seed derived from
    (master_seed, experiment_id, lrr, i), so batches are reproducible
    and may be split across workers without changing any series.
    """
    if n_instances < 1:
        raise ValueError("need at least one instance")
    return [
        synthesize_instance(exp, lrr, instance_rng(master_seed, exp.experiment_id, lrr, i))
        for i in range(start_index, start_index + n_instances)
    ]


def signal_stats(series: np.ndarray, lrr: float) -> SignalStats:
    """Sample statistics of an original signal and the implied JNR."""
    values = np.asarray(series, dtype=float)
    if values.size < 2:
        raise InsufficientDataError("need at least 2 passes for signal statistics")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(values))
        std = float(np.std(values, ddof=1))
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise ValueError("signal too large: its mean or spread overflows")
    if mean <= 0:
        raise ValueError("signal mean must be positive for a defined CV")
    if std == 0:
        raise ValueError("constant signal has zero CV, JNR undefined")
    cv = std / mean
    return SignalStats(
        mean=mean,
        std=std,
        cv=cv,
        value_range=float(np.max(values) - np.min(values)),
        jnr=(float(lrr) - 1.0) / cv,
    )
