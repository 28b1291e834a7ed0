"""Detection performance metrics from each instance's first alarm.

An instance with a known change between passes N and N+1 is scored from
its first alarm. An alarm at or before the change is a false positive
and takes precedence over everything else, since an operator would have
been alerted spuriously. Otherwise the first alarm lands either
immediately after the change (true positive), later (delayed true
positive), or never (false negative).

A cell's instances all share the length 2N, the grid, the forward model
and the detector configuration, and ``detector.first_alarms`` scores each
repetition's instances as one lockstep block that stops processing an
instance at its first alarm. A failure at a pass after an instance's
first alarm therefore never occurs; one at or before it aborts the cell
with the instance's coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detector import DetectorConfig, first_alarms
from .errors import DetectionError
from .synthesis import ExperimentRecord, synthesize_batch, instance_rng
from .transport import ForwardModel

# Reserved stream index for the cell-level bootstrap generator, far above
# any realistic instance index, so metric resampling never collides with
# the per-instance synthesis streams.
BOOTSTRAP_STREAM_INDEX = 2**62

CONFIDENCE_LEVEL = 0.95


@dataclass(frozen=True)
class PerformanceReport:
    """A cell's scores. The recalls and their intervals are None when a
    repetition had every instance alarm before its change, and the delay
    is None unless every repetition detected every change."""

    recall: float | None
    detection_recall: float | None
    false_positive_rate: float
    detection_delay: float | None
    recall_ci: tuple[float, float] | None
    detection_recall_ci: tuple[float, float] | None
    false_positive_rate_ci: tuple[float, float]


def score_first_alarms(
    alarms: np.ndarray, n_passes: int
) -> tuple[float, float, float, float | None]:
    """Recall, detection recall, false-positive rate and mean delay of a
    batch of 2N-pass instances whose rate changes after pass N.

    ``alarms`` holds each instance's first alarm pass, 0 for none, as
    ``detector.first_alarms`` returns it. The mean delay, in passes after
    the change, is only reported when every true change was detected,
    because a partially detected batch would bias it toward the easy
    instances.
    """
    alarms = np.asarray(alarms)
    if alarms.size == 0:
        raise ValueError("no instances to score")
    if np.any((alarms < 0) | (alarms > 2 * n_passes)):
        raise ValueError("alarm pass outside the stream")
    fp = np.count_nonzero((alarms > 0) & (alarms <= n_passes))
    detected = alarms > n_passes
    denom = alarms.size - fp
    if denom == 0:
        raise ValueError("recall undefined: every instance was a false positive")
    detection_recall = np.count_nonzero(detected) / denom
    delay = float(np.mean(alarms[detected] - n_passes)) if detection_recall == 1.0 else None
    recall = np.count_nonzero(alarms == n_passes + 1) / denom
    return recall, detection_recall, fp / alarms.size, delay


def bootstrap_ci(
    values: Sequence[float],
    n_boot: int = 10_000,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap interval, at ``CONFIDENCE_LEVEL``, for the
    mean of ``values``."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if rng is None:
        rng = np.random.default_rng(0)
    idx = rng.integers(0, data.size, size=(n_boot, data.size))
    means = data[idx].mean(axis=1)
    tail = 100.0 * (1.0 - CONFIDENCE_LEVEL) / 2.0
    lo, hi = np.percentile(means, [tail, 100.0 - tail])
    return float(lo), float(hi)


def evaluate_cell(
    exp: ExperimentRecord,
    lrr: float,
    cfg: DetectorConfig,
    fm: ForwardModel,
    n_instances: int = 1000,
    n_repetitions: int = 100,
    master_seed: int = 0,
    n_boot: int = 10_000,
) -> PerformanceReport:
    """Score one (experiment, lrr) cell with repetition-level intervals.

    Each repetition synthesizes and scores ``n_instances`` fresh shuffles
    (instance indices keep counting across repetitions, so every series
    in the cell is distinct and reproducible). Point estimates average
    the per-repetition metrics and the intervals are percentile
    bootstraps over those repetition values. A repetition whose every
    instance is a false positive scores an fpr of 1 and no recall, which
    leaves the cell without recalls. The delay is present only when every
    repetition achieved full detection.
    """
    scores = []
    for rep in range(n_repetitions):
        start = rep * n_instances
        instances = synthesize_batch(exp, lrr, n_instances, master_seed, start)
        try:
            alarms, _ = first_alarms(instances, fm, cfg)
        except DetectionError as exc:
            raise DetectionError(
                f"experiment {exp.experiment_id!r} lrr {lrr} repetition "
                f"{rep} instance {start + exc.instance}: {exc}"
            ) from exc
        if np.all((alarms > 0) & (alarms <= exp.n_passes)):
            scores.append((None, None, 1.0, None))
        else:
            scores.append(score_first_alarms(alarms, exp.n_passes))
    recalls, det_recalls, fprs, delays = zip(*scores)
    boot_rng = instance_rng(master_seed, exp.experiment_id, lrr, BOOTSTRAP_STREAM_INDEX)

    def mean_and_ci(values):
        if None in values:
            return None, None
        return float(np.mean(values)), bootstrap_ci(values, n_boot=n_boot, rng=boot_rng)

    recall, recall_ci = mean_and_ci(recalls)
    det_recall, det_recall_ci = mean_and_ci(det_recalls)
    fpr, fpr_ci = mean_and_ci(fprs)
    delay = None if None in delays else float(np.mean(delays))
    return PerformanceReport(recall, det_recall, fpr, delay, recall_ci, det_recall_ci, fpr_ci)
