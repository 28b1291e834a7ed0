"""Outcome classification and detection performance metrics.

An instance with a known change between passes N and N+1 is scored from
its ordered detection events. Any event at or before the change is a
false positive and takes precedence over everything else, since an
operator would have been alerted spuriously. Otherwise the first event
lands either immediately after the change (true positive), later
(delayed true positive), or never (false negative).

So a label needs only an instance's first alarm. A cell's instances all
share the length 2N, the grid, the forward model and the detector
configuration, and ``detector.first_alarms`` scores each repetition's
instances as one lockstep block that stops processing an instance at its
first alarm. A failure at a pass after an instance's
first alarm therefore never occurs; one at or before it aborts the cell
with the instance's coordinates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detector import DetectorConfig, first_alarms
from .errors import DetectionError
from .synthesis import ExperimentRecord, synthesize_batch, instance_rng
from .transport import ForwardModel, Geometry, build_forward_model

# Reserved stream index for the cell-level bootstrap generator, far above
# any realistic instance index, so metric resampling never collides with
# the per-instance synthesis streams.
BOOTSTRAP_STREAM_INDEX = 2**62


class OutcomeLabel(enum.Enum):
    TP = "TP"
    DTP = "DTP"
    FN = "FN"
    FP = "FP"


def classify_outcome(
    events: Sequence[int], true_cp_index: int, n_passes: int
) -> OutcomeLabel:
    """Label one instance from the pass indices of its detection events."""
    if not 1 <= true_cp_index < n_passes:
        raise ValueError("true changepoint must lie strictly inside the stream")
    passes = sorted(int(e) for e in events)
    if any(p < 1 or p > n_passes for p in passes):
        raise ValueError("event pass index outside the stream")
    if not passes:
        return OutcomeLabel.FN
    if passes[0] <= true_cp_index:
        return OutcomeLabel.FP
    if passes[0] == true_cp_index + 1:
        return OutcomeLabel.TP
    return OutcomeLabel.DTP


@dataclass(frozen=True)
class PerformanceReport:
    tp: int
    dtp: int
    fn: int
    fp: int
    recall: float
    detection_recall: float
    false_positive_rate: float
    detection_delay: float | None
    recall_ci: tuple[float, float] | None = None
    detection_recall_ci: tuple[float, float] | None = None
    false_positive_rate_ci: tuple[float, float] | None = None
    detection_delay_ci: tuple[float, float] | None = None


def compute_metrics(
    labels: Sequence[OutcomeLabel], delays: Sequence[float] = ()
) -> PerformanceReport:
    """Aggregate labels (and delays of detected instances) into metrics.

    ``delays`` must hold one entry per TP or DTP instance. The mean delay
    is only reported when every true change was detected, because a
    partially detected batch would bias it toward the easy instances.
    """
    if not labels:
        raise ValueError("no instances to score")
    tp = sum(1 for l in labels if l is OutcomeLabel.TP)
    dtp = sum(1 for l in labels if l is OutcomeLabel.DTP)
    fn = sum(1 for l in labels if l is OutcomeLabel.FN)
    fp = sum(1 for l in labels if l is OutcomeLabel.FP)
    detected = tp + dtp
    denom = detected + fn
    if denom == 0:
        raise ValueError("recall undefined: every instance was a false positive")
    if len(delays) != detected:
        raise ValueError("need exactly one delay per detected instance")
    detection_recall = detected / denom
    delay = float(np.mean(delays)) if detected and detection_recall == 1.0 else None
    return PerformanceReport(
        tp=tp,
        dtp=dtp,
        fn=fn,
        fp=fp,
        recall=tp / denom,
        detection_recall=detection_recall,
        false_positive_rate=fp / len(labels),
        detection_delay=delay,
    )


def bootstrap_ci(
    values: Sequence[float],
    level: float = 0.95,
    n_boot: int = 10_000,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the mean of ``values``."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0 < level < 1:
        raise ValueError("confidence level must lie in (0, 1)")
    if rng is None:
        rng = np.random.default_rng(0)
    idx = rng.integers(0, data.size, size=(n_boot, data.size))
    means = data[idx].mean(axis=1)
    tail = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(means, [tail, 100.0 - tail])
    return float(lo), float(hi)


def _score_instances(
    exp: ExperimentRecord,
    lrr: float,
    cfg: DetectorConfig,
    fm: ForwardModel,
    n_instances: int,
    master_seed: int,
    start_index: int,
    repetition: int = 0,
) -> tuple[list[OutcomeLabel], list[int]]:
    instances = synthesize_batch(exp, lrr, n_instances, master_seed, start_index)
    try:
        alarms, _ = first_alarms(instances, fm, cfg)
    except DetectionError as exc:
        raise DetectionError(
            f"experiment {exp.experiment_id!r} lrr {lrr} repetition "
            f"{repetition} instance {start_index + exc.instance}: {exc}"
        ) from exc
    n = exp.n_passes
    labels: list[OutcomeLabel] = []
    delays: list[int] = []
    for first in alarms.tolist():
        label = classify_outcome([first] if first else [], n, 2 * n)
        labels.append(label)
        if label in (OutcomeLabel.TP, OutcomeLabel.DTP):
            delays.append(first - n)
    return labels, delays


def evaluate_cell(
    exp: ExperimentRecord,
    lrr: float,
    cfg: DetectorConfig,
    n_instances: int = 1000,
    n_repetitions: int = 100,
    master_seed: int = 0,
    fm: ForwardModel | None = None,
    n_boot: int = 10_000,
) -> PerformanceReport:
    """Score one (experiment, lrr) cell with repetition-level intervals.

    Each repetition synthesizes and scores ``n_instances`` fresh shuffles
    (instance indices keep counting across repetitions, so every series
    in the cell is distinct and reproducible). Point estimates average
    the per-repetition metrics and the intervals are percentile
    bootstraps over those repetition values. The delay column is present
    only when every repetition achieved full detection.
    """
    if fm is None:
        if exp.met is None:
            raise ValueError("need met data or an explicit forward model")
        fm = build_forward_model(exp.met, Geometry(exp.fetch_m))
    recalls, det_recalls, fprs, delay_means = [], [], [], []
    tp = dtp = fn = fp = 0
    for rep in range(n_repetitions):
        labels, delays = _score_instances(
            exp,
            lrr,
            cfg,
            fm,
            n_instances,
            master_seed,
            start_index=rep * n_instances,
            repetition=rep,
        )
        report = compute_metrics(labels, delays)
        tp, dtp, fn, fp = tp + report.tp, dtp + report.dtp, fn + report.fn, fp + report.fp
        recalls.append(report.recall)
        det_recalls.append(report.detection_recall)
        fprs.append(report.false_positive_rate)
        if report.detection_delay is not None:
            delay_means.append(report.detection_delay)
    boot_rng = instance_rng(master_seed, exp.experiment_id, lrr, BOOTSTRAP_STREAM_INDEX)
    have_delay = len(delay_means) == n_repetitions
    return PerformanceReport(
        tp=tp,
        dtp=dtp,
        fn=fn,
        fp=fp,
        recall=float(np.mean(recalls)),
        detection_recall=float(np.mean(det_recalls)),
        false_positive_rate=float(np.mean(fprs)),
        detection_delay=float(np.mean(delay_means)) if have_delay else None,
        recall_ci=bootstrap_ci(recalls, n_boot=n_boot, rng=boot_rng),
        detection_recall_ci=bootstrap_ci(det_recalls, n_boot=n_boot, rng=boot_rng),
        false_positive_rate_ci=bootstrap_ci(fprs, n_boot=n_boot, rng=boot_rng),
        detection_delay_ci=(
            bootstrap_ci(delay_means, n_boot=n_boot, rng=boot_rng) if have_delay else None
        ),
    )
