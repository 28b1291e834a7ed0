"""Benchmark plumecpd's own commands, run in-process through ``plumecpd.cli.main``.

    python3 bench/run.py --workload long_stream --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed or built. The run sets up ``SETUP_REPEATS``
times (inputs generated from ``--seed``, then one warm-up op), then runs
ops in a closed loop, one at a time on one thread, for ``--seconds``.
Every op writes to a fresh directory and its outputs are checked.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced
ones, plus the traced over untraced median op time. Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The run's
record (machine, seed, op times, output digests, failures) is written to
``.bench_runs/<workload>-seed<seed>-trace<trace>.json``, and a traced
run's spans to the ``.spans.jsonl`` file beside it.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
SETUP_REPEATS = 5
TAIL_OPS = 10

# On a shared host the CPU speed drifts: on the 2-vCPU VM this benchmark
# was tuned on, identical sweep_grid runs a few minutes apart had median
# op times from 0.68 s to 1.01 s, and slow spells of a few seconds came
# and went within a run. Each run therefore times the fixed reference
# kernel below before every op. An op's speed factor is REFERENCE_S over
# the median kernel time of the SPEED_WINDOW ops on either side of it and
# itself; its time times that factor reads as seconds at the speed where
# the kernel takes REFERENCE_S. Raw times stay in the record and in the
# printed lines.
REFERENCE_S = 0.012
SPEED_WINDOW = 2

# error_rate is printed with these but left out of the JSON metrics: it
# is 0 on every healthy run, and the JSON's failed/attempted carry it.
END_TO_END = [
    ("setup_s", "s"),
    ("passes_per_s", "1/s"),
    ("instances_per_s", "1/s"),
    ("samples_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
]


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least TAIL_OPS values above it.

    Returns (value, percentile). With TAIL_OPS or fewer values no such
    percentile exists, and the maximum is returned as the 100th.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_OPS if n > TAIL_OPS else n
    return ordered[rank - 1], 100.0 * rank / n


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter and small-array numpy work,
    the two kinds of work plumecpd's ops are made of.

    Its arrays stay below glibc's 128 KiB mmap threshold, so the kernel
    leaves the allocator's adaptive threshold, and with it the program's
    own large allocations, alone.
    """
    import numpy as np

    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    weights, likelihood = np.ones((15, 1001)), np.ones(1001)
    for _ in range(250):
        rows = (weights * likelihood)[:, :-1].sum(axis=1)
        rows /= rows.sum()
    return perf_counter() - start


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit read from ``.git`` directly; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclasses.dataclass
class Op:
    index: int
    kind: str  # "warmup", "untraced" or "traced"
    seconds: float = 0.0
    kernel_s: float = 0.0  # reference kernel time just before the op
    speed: float = 1.0
    error: str | None = None
    digests: dict[str, str] = dataclasses.field(default_factory=dict)


def run_op(wl, out: Path, op: Op, tracer=None) -> Op:
    """Run one op into ``out``, check it, record failures; never raises."""
    from workloads import CheckFailed

    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    start = perf_counter()
    try:
        if tracer is None:
            wl.run(out)
        else:
            with tracer.op(op.index):
                wl.run(out)
    except CheckFailed as exc:
        op.error = str(exc)
    except Exception as exc:  # an op that raises is counted as failed; the run goes on
        traceback.print_exc(file=sys.stderr)
        op.error = f"{type(exc).__name__}: {exc}"
    op.seconds = perf_counter() - start
    if op.error is None:
        try:
            op.digests = wl.check(out)
        except CheckFailed as exc:
            op.error = str(exc)
        except Exception as exc:  # malformed output the check could not parse
            op.error = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(out, ignore_errors=True)
    return op


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    sizes=None,
    import_s: float = 0.0,
    runs_dir: Path = RUNS_DIR,
) -> dict:
    """Set up, measure and check one workload; return the run's record."""
    from tracing import PER_LAYER, Tracer
    from workloads import FULL, WORKLOADS

    wl = WORKLOADS[name](seed, sizes or FULL)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = runs_dir / f"{tag}.work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops: list[Op] = []
    tracer = Tracer() if trace else None
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            op = Op(len(ops), "warmup", kernel_s=reference_kernel())
            start = perf_counter()
            inputs = work / f"inputs{len(setup_times)}"
            inputs.mkdir()
            wl.prepare(inputs)
            ops.append(run_op(wl, work / "out", op))
            setup_times.append(perf_counter() - start)

        # Untraced runs need more than 2 * TAIL_OPS ops for op_tail_s to
        # sit above the median; traced runs need two ops of each kind.
        min_ops = 4 if trace else 2 * TAIL_OPS + 1
        deadline = perf_counter() + seconds
        measured = 0
        while True:
            traced = trace and measured % 2 == 1
            op = Op(len(ops), "traced" if traced else "untraced", kernel_s=reference_kernel())
            ops.append(run_op(wl, work / "out", op, tracer if traced else None))
            measured += 1
            if perf_counter() >= deadline and measured >= min_ops:
                break
        if tracer is not None:
            tracer.write_spans(runs_dir / f"{tag}.spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in ops if op.error is not None]
    reference = next((op.digests for op in ops if op.error is None), {})
    for op in ops:
        if op.error is None and op.digests != reference:
            op.error = "output bytes differ from the first op's"
            failed.append(op)

    kernel_times = [op.kernel_s for op in ops]
    for j, op in enumerate(ops):
        window = kernel_times[max(0, j - SPEED_WINDOW) : j + SPEED_WINDOW + 1]
        op.speed = REFERENCE_S / statistics.median(window)
    speed = REFERENCE_S / statistics.median(kernel_times)
    untraced = [op.seconds for op in ops if op.kind == "untraced"]
    scaled = [op.seconds * op.speed for op in ops if op.kind == "untraced"]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "sizes": dataclasses.asdict(wl.sizes),
        "work_per_op": wl.work,
        "machine": machine(),
        "git_commit": git_commit(ROOT),
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "ops": [
            {"kind": op.kind, "seconds": op.seconds, "kernel_s": op.kernel_s, "speed": op.speed}
            for op in ops
        ],
        "speed_factor": speed,
        "untraced_ops": len(untraced),
        "op_tail_percentile": tail_percentile(untraced)[1],
        "digests": reference,
        "failures": [{"op": op.index, "kind": op.kind, "error": op.error} for op in failed],
        "attempted": len(ops),
        "failed": len(failed),
    }
    if trace:
        ok_traced = [op for op in ops if op.kind == "traced" and op.error is None]
        per_op = [tracer.layer_metrics(op.index) for op in ok_traced]
        metrics = {
            name: statistics.median(m[name] for m in per_op) if per_op else 0.0
            for name, _ in PER_LAYER[:-1]
        }
        traced_s = [op.seconds for op in ops if op.kind == "traced"]
        metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced)
        record["traced_ops"] = len(traced_s)
    else:
        ok = len(untraced) - sum(1 for op in failed if op.kind == "untraced")
        setup_s = import_s + statistics.median(setup_times)

        def timings(times: list[float], setup: float) -> dict[str, float]:
            return {
                "setup_s": setup,
                "passes_per_s": ok * wl.work["passes"] / sum(times),
                "instances_per_s": ok * wl.work["instances"] / sum(times),
                "samples_per_s": ok * wl.work["samples"] / sum(times),
                "op_p50_s": statistics.median(times),
                "op_tail_s": tail_percentile(times)[0],
            }

        record["raw_metrics"] = timings(untraced, setup_s)
        metrics = timings(scaled, setup_s * speed)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["metrics"] = metrics
    record["error_rate"] = len(failed) / len(ops)
    runs_dir.mkdir(parents=True, exist_ok=True)
    (runs_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def units(trace: bool) -> dict[str, str]:
    from tracing import PER_LAYER

    return dict(PER_LAYER if trace else END_TO_END)


def report(record: dict) -> str:
    """Human-readable lines, then the JSON result line."""
    trace = bool(record["trace"])
    unit = units(trace)
    lines = [
        f"# {record['workload']} seed {record['seed']} trace {record['trace']}: "
        f"{record['attempted']} ops ({SETUP_REPEATS} set-up), {record['failed']} failed; "
        f"commit {record['git_commit']}",
        f"# machine {json.dumps(record['machine'], sort_keys=True)}",
    ]
    for name, value in record["metrics"].items():
        lines.append(f"{name:<48} {value:.6g} {unit[name]}")
    if not trace:
        lines.append(
            f"# op_tail_s is p{record['op_tail_percentile']:.1f} "
            f"and op_p50_s p50 over {record['untraced_ops']} untraced ops"
        )
        raw = ", ".join(f"{k} {v:.6g}" for k, v in record["raw_metrics"].items())
        lines.append(
            f"# times scaled to the reference speed (run median factor "
            f"{record['speed_factor']:.4f}); raw: {raw}"
        )
    lines.append(f"{'error_rate':<48} {record['error_rate']:.6g} ratio")
    for failure in record["failures"]:
        lines.append(f"# FAILED op {failure['op']} ({failure['kind']}): {failure['error']}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": unit[name]}
            for name, value in record["metrics"].items()
        },
    }
    lines.append(json.dumps(result))
    return "\n".join(lines)


def load_program() -> float:
    """Import the package from ``src/`` and the benchmark modules; return seconds."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import plumecpd
    import tracing  # noqa: F401
    import workloads  # noqa: F401

    if Path(plumecpd.__file__).resolve().parent != SRC / "plumecpd":
        raise ImportError(f"plumecpd imported from {plumecpd.__file__}, not {SRC}")
    return perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["long_stream", "sweep_grid", "ingest_campaign"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not (SRC / "plumecpd" / "__init__.py").is_file():
        print(f"error: no plumecpd package under {SRC}", file=sys.stderr)
        return 2
    import_s = load_program()
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s=import_s
    )
    print(report(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
