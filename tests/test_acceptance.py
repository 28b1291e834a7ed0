"""Acceptance gate for the package's headline behavior.

Each test covers one criterion and prints a single PASS/FAIL scoreboard
line straight to the terminal (bypassing capture) so a full-suite log
always shows the verdicts. Heavy Monte Carlo cells run in a small
process pool; every cell is seeded, so worker count cannot change any
number asserted here.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from oracles import (
    bayes_update,
    brute_force_alpha,
    grid_integrate,
    posterior_mean_std,
    posterior_mode,
    uniform_prior,
)
from plumecpd.cli import main
from plumecpd.dataio import write_passes_csv
from plumecpd.detector import DetectorConfig
from plumecpd.inference import LikelihoodConfig, QGrid, estimate_sigma_e
from plumecpd.metrics import bootstrap_ci, evaluate_cell, score_first_alarms
from plumecpd.surrogate import make_unit_forward_experiment
from plumecpd.synthesis import synthesize_batch
from plumecpd.transport import ForwardModel
from stepping import posterior_of, run_core

UNIT_FM = ForwardModel(1.0, 1.0)


def _verdict(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _cell_worker(payload):
    exp, fm, cfg, lrr, n_instances, n_repetitions, seed, n_boot = payload
    return evaluate_cell(
        exp,
        lrr,
        cfg,
        n_instances=n_instances,
        n_repetitions=n_repetitions,
        master_seed=seed,
        fm=fm,
        n_boot=n_boot,
    )


def _run_cells(payloads):
    with ProcessPoolExecutor(max_workers=3) as pool:
        return list(pool.map(_cell_worker, payloads))


def _surrogate_cell(cv: float, q_true: float, threshold: float = 0.8):
    exp, fm = make_unit_forward_experiment(f"cv{cv:g}", 14, cv, q_true)
    sigma_e = estimate_sigma_e(list(exp.cy_series), q_true, fm)
    cfg = DetectorConfig(threshold=threshold, sigma_e_initial=sigma_e)
    return exp, fm, cfg


@pytest.fixture(scope="module")
def lrr_delay_cells():
    # jump sizes stay inside the default rate grid: 0.35 * 7.5 * max
    # relative scatter at cv 0.3 is about 4 g/s
    exp, fm, cfg = _surrogate_cell(0.3, 0.35)
    lrrs = [4.5, 5.5, 6.5, 7.5]
    payloads = [(exp, fm, cfg, lrr, 200, 5, 23, 1000) for lrr in lrrs]
    return lrrs, _run_cells(payloads)


def test_01_recursion_matches_enumeration(capsys):
    grid = QGrid(0.0, 5.0, 0.25)
    cfg = LikelihoodConfig(0.3)
    rng = np.random.default_rng(20241)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        k = 2 + trial % 7
        cys = np.clip(rng.normal(2.0, 0.8, size=k), 0.0, 4.9)
        if trial % 2 == 0:
            cys[int(rng.integers(1, k + 1)) :] *= 1.8
            cys = np.clip(cys, 0.0, 4.9)
        run = run_core([float(c) for c in cys], UNIT_FM, cfg, 15.0, grid)
        alpha = run.weights * math.exp(run.log_evidence)
        expected = brute_force_alpha(
            [float(c) for c in cys], grid.values, grid.dq, 1.0, 0.3, 15.0
        )
        np.testing.assert_allclose(alpha, expected, rtol=1e-9)
        worst = max(worst, float(np.max(np.abs(alpha - expected) / expected)))
    elapsed = time.perf_counter() - started
    _verdict(
        capsys,
        1,
        elapsed < 10.0,
        f"50 streams, k up to 8, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_02_posterior_engine(capsys):
    # The package's rate posterior, built from the passes' summed conjugate
    # terms, against the oracle's grid-product chain.
    started = time.perf_counter()
    fm = UNIT_FM
    cfg = LikelihoodConfig(0.5)
    grid = QGrid(0.0, 5.0, 0.01)
    rng = np.random.default_rng(7)
    cys = [float(c) for c in np.clip(rng.normal(2.2, 0.7, size=30), 0.1, 4.8)]

    chain = uniform_prior(grid)
    worst_norm = 0.0
    worst_gap = 0.0
    for n in range(1, len(cys) + 1):
        posterior = posterior_of(cys[:n], grid, fm, cfg)
        chain = bayes_update(chain, cys[n - 1], fm, cfg)
        worst_norm = max(worst_norm, abs(grid_integrate(grid, posterior.density) - 1.0))
        gap = np.max(np.abs(posterior.density - chain.density)) / np.max(chain.density)
        worst_gap = max(worst_gap, float(gap))

    subset = cys[:8]
    forward = posterior_of(subset, grid, fm, cfg)
    backward = posterior_of(subset[::-1], grid, fm, cfg)
    order_gap = float(np.max(np.abs(forward.density - backward.density)))
    order_bound = 1e-10 * float(np.max(forward.density))

    coarse, fine = QGrid(0.0, 5.0, 0.05), QGrid(0.0, 5.0, 0.005)
    post_c = posterior_of(subset, coarse, fm, cfg)
    post_f = posterior_of(subset, fine, fm, cfg)
    mode_gap = abs(posterior_mode(post_c) - posterior_mode(post_f))
    mean_c, std_c = posterior_mean_std(post_c)
    mean_f, std_f = posterior_mean_std(post_f)

    elapsed = time.perf_counter() - started
    ok = (
        worst_norm <= 1e-8
        and worst_gap <= 1e-9
        and order_gap <= order_bound
        and mode_gap <= coarse.dq
        and abs(mean_c - mean_f) <= coarse.dq
        and abs(std_c - std_f) <= coarse.dq
        and elapsed < 5.0
    )
    _verdict(
        capsys,
        2,
        ok,
        f"norm gap {worst_norm:.1e}, oracle gap {worst_gap:.1e}, order gap {order_gap:.1e}, "
        f"refinement gaps mode {mode_gap:.3f} mean {abs(mean_c - mean_f):.3f} "
        f"std {abs(std_c - std_f):.3f}, {elapsed:.1f}s",
    )


def test_03_tripled_rate_detection(capsys):
    started = time.perf_counter()
    cvs = [0.3, 0.5, 0.7]
    payloads = []
    for cv in cvs:
        exp, fm, cfg = _surrogate_cell(cv, 0.5)
        payloads.append((exp, fm, cfg, 3.0, 1000, 10, 11, 1000))
    reports = _run_cells(payloads)
    elapsed = time.perf_counter() - started
    recalls = {cv: r.detection_recall for cv, r in zip(cvs, reports)}
    ok = all(r >= 0.90 for r in recalls.values()) and elapsed < 300.0
    detail = ", ".join(f"cv {cv}: det recall {r:.3f}" for cv, r in recalls.items())
    _verdict(capsys, 3, ok, f"lrr 3, 1000x10 per cell; {detail}; {elapsed:.0f}s")


def test_04_false_positive_bounds(capsys):
    started = time.perf_counter()
    bounds = {0.5: 0.12, 0.8: 0.02}
    cells = []
    payloads = []
    for cv in (0.3, 0.5, 0.7):
        for threshold, bound in bounds.items():
            exp, fm, cfg = _surrogate_cell(cv, 0.5, threshold=threshold)
            cells.append((cv, threshold, bound))
            payloads.append((exp, fm, cfg, 1.0, 1000, 10, 13, 1000))
    reports = _run_cells(payloads)
    elapsed = time.perf_counter() - started
    ok = elapsed < 300.0
    parts = []
    for (cv, threshold, bound), report in zip(cells, reports):
        ok = ok and report.false_positive_rate <= bound
        parts.append(f"cv {cv} thr {threshold}: fpr {report.false_positive_rate:.4f}")
    _verdict(capsys, 4, ok, f"lrr 1, 1000x10 per cell; {'; '.join(parts)}; {elapsed:.0f}s")


def test_05_monotonic_trends(capsys, lrr_delay_cells):
    cv = 0.5
    exp, fm, cfg = _surrogate_cell(cv, 0.2)
    jnrs = [1.5, 3.5, 5.5, 7.5, 9.5, 11.5, 13.5, 15.5]
    payloads = [(exp, fm, cfg, 1.0 + jnr * cv, 200, 10, 17, 2000) for jnr in jnrs]
    reports = _run_cells(payloads)

    inversions = []
    for (jnr_a, a), (jnr_b, b) in zip(zip(jnrs, reports), zip(jnrs[1:], reports[1:])):
        if b.recall < a.recall:
            overlaps = b.recall_ci[1] >= a.recall_ci[0] and a.recall_ci[1] >= b.recall_ci[0]
            inversions.append((jnr_a, jnr_b, overlaps))
    recall_ok = len(inversions) <= 1 and all(over for _, _, over in inversions)

    lrrs, delay_reports = lrr_delay_cells
    full = [(lrr, r.detection_delay) for lrr, r in zip(lrrs, delay_reports) if r.detection_recall == 1.0]
    delay_ok = len(full) >= 2 and all(
        later <= earlier for (_, earlier), (_, later) in zip(full, full[1:])
    )

    trend = " -> ".join(f"{r.recall:.3f}" for r in reports)
    delays = ", ".join(f"lrr {lrr}: {d:.3f}" for lrr, d in full)
    _verdict(
        capsys,
        5,
        recall_ok and delay_ok,
        f"recall over jnr {trend} ({len(inversions)} inversion(s)); delay over lrr {delays}",
    )


def test_06_delay_bound(capsys, lrr_delay_cells):
    lrrs, reports = lrr_delay_cells
    full = [(lrr, r) for lrr, r in zip(lrrs, reports) if r.detection_recall == 1.0]
    ok = bool(full) and full[0][1].detection_delay is not None and full[0][1].detection_delay < 2.0
    detail = (
        f"smallest fully detected lrr {full[0][0]}, mean delay {full[0][1].detection_delay:.3f}"
        if full
        else "no fully detected cell"
    )
    _verdict(capsys, 6, ok, detail)


def test_07_jump_to_noise_identity(capsys):
    worst = 0.0
    checked = 0
    for cv in (0.3, 0.5, 0.7, 1.0):
        exp, _ = make_unit_forward_experiment(f"cv{cv:g}", 14, cv, 0.5)
        for lrr in (1.5, 3.0, 7.5):
            target = (lrr - 1.0) / cv
            for series in synthesize_batch(exp, lrr, 100, master_seed=29):
                pre, post = series[: exp.n_passes], series[exp.n_passes :]
                jnr = (post.mean() - pre.mean()) / pre.std(ddof=1)
                worst = max(worst, abs(jnr - target) / target)
                checked += 1
    ok = worst <= 1e-9
    _verdict(capsys, 7, ok, f"{checked} instances, max rel err {worst:.2e}")


def test_08_metric_formulas(capsys):
    # First alarms of 20-pass instances whose change follows pass 10: a
    # TP alarms at pass 11, a DTP later, an FP at or before 10, an FN never.
    n = 10
    batch = score_first_alarms(np.array([n + 1] * 700 + [n + 2] * 200 + [0] * 100), n)
    exact = batch == (0.7, 0.9, 0.0, None)
    with pytest.raises(ValueError, match="recall undefined"):
        score_first_alarms(np.full(1000, n), n)
    all_fp = score_first_alarms(np.array([n] * 999 + [n + 1]), n)
    fp_ok = all_fp[2] == 0.999
    delayed = score_first_alarms(np.array([n + 1, n + 1, n + 2, n + 4]), n)
    delay_ok = delayed[3] == 2.0
    # 4 values keep every resampled mean exact (sums of 0.8 stay exact
    # under doubling); odd sizes collapse to a point one ulp off 0.8
    lo, hi = bootstrap_ci([0.8] * 6)
    collapse = bootstrap_ci([0.8] * 4) == (0.8, 0.8) and lo == hi
    ok = exact and fp_ok and delay_ok and collapse
    _verdict(
        capsys,
        8,
        ok,
        f"counts {exact}, fp rate {fp_ok}, delay {delay_ok}, constant ci collapse {collapse}",
    )


def test_09_sweep_worker_determinism(capsys, tmp_path):
    exp, fm, _ = _surrogate_cell(0.5, 0.5)
    passes = tmp_path / "passes.csv"
    write_passes_csv(
        passes, [("4", i + 1, cy) for i, cy in enumerate(exp.cy_series)]
    )
    met = tmp_path / "met.csv"
    met.write_text(
        "experiment_id,x_m,u_mean_mps,sigma_u_mps,sigma_w_mps,u_star_mps,temperature_K\n"
        "4,30,2.72,1.15,0.30,0.24,293.15\n"
    )
    outputs = {}
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        rc = main(
            [
                "sweep", "--passes", str(passes), "--met", str(met),
                "--q-true", "0.5", "--out", str(out), "--seed", "31",
                "--lrr", "2.0,4.0", "--instances", "25", "--repetitions", "2",
                "--boot", "300", "--workers", str(workers),
            ]
        )
        assert rc == 0
        outputs[workers] = (out / "report.csv").read_bytes()
    ok = outputs[1] == outputs[2] and len(outputs[1]) > 0
    _verdict(capsys, 9, ok, f"report.csv identical across 1 vs 2 workers ({len(outputs[1])} bytes)")
