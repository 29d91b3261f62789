"""Benchmark of sharpshift: SSA-CLR training, shift-gap measurement, bound lab.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload train_ssa_mlp --seed 0 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --tiny --trace 1     # smoke run, seconds

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; progress and
check details go to standard error. See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# Pin BLAS/OpenMP to one thread before NumPy is imported anywhere.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

# (metric, span name, field of Tracer.totals, unit)
PER_LAYER = (
    ("data.base_augment.calls", "data.base_augment", "calls", "count/round"),
    ("data.base_augment.s", "data.base_augment", "s", "s/round"),
    ("fourier.fft_augment_batch.calls", "fourier.fft_augment_batch", "calls", "count/round"),
    ("fourier.fft_augment_batch.s", "fourier.fft_augment_batch", "s", "s/round"),
    ("fourier.channel_mix.calls", "fourier.channel_mix", "calls", "count/round"),
    ("fourier.channel_mix.s", "fourier.channel_mix", "s", "s/round"),
    ("losses.info_nce_batch_grad.calls", "losses.info_nce_batch_grad", "calls", "count/round"),
    ("losses.info_nce_batch_grad.s", "losses.info_nce_batch_grad", "s", "s/round"),
    ("encoder.loss_and_grad.calls", "encoder.loss_and_grad", "calls", "count/round"),
    ("encoder.loss_and_grad.self_s", "encoder.loss_and_grad", "self_s", "s/round"),
    ("encoder.forward.calls", "encoder.forward", "calls", "count/round"),
    ("encoder.forward.images", "encoder.forward", "items", "count/round"),
    ("encoder.forward.s", "encoder.forward", "s", "s/round"),
    ("sam.step.calls", "sam.step", "calls", "count/round"),
    ("sam.step.self_s", "sam.step", "self_s", "s/round"),
    ("shift.estimate_shift_gap.self_s", "shift.estimate_shift_gap", "self_s", "s/round"),
    ("shift.augment_fn.calls", "shift.augment_fn", "calls", "count/round"),
    ("shift.augment_fn.self_s", "shift.augment_fn", "self_s", "s/round"),
    ("bounds.exact_info_nce_expectation.calls", "bounds.exact_info_nce_expectation", "calls",
     "count/round"),
    ("bounds.exact_info_nce_expectation.s", "bounds.exact_info_nce_expectation", "s", "s/round"),
    ("bounds.surrogate_unsup_loss.s", "bounds.surrogate_unsup_loss", "s", "s/round"),
    ("training.train_ssl.self_s", "training.train_ssl", "self_s", "s/round"),
    ("encoder.save_checkpoint.s", "encoder.save_checkpoint", "s", "s/round"),
    ("evaluation.train_linear_probe.s", "evaluation.train_linear_probe", "s", "s/round"),
    ("evaluation.robust_accuracy.s", "evaluation.robust_accuracy", "s", "s/round"),
)


def _import_program():
    """Import sharpshift from this checkout's src/, never from site-packages."""
    if not (SRC / "sharpshift" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/sharpshift not found; run from a sharpshift source checkout")
    sys.path.insert(0, str(SRC))
    import sharpshift

    if Path(sharpshift.__file__).resolve().parent != SRC / "sharpshift":
        sys.exit(f"error: imported sharpshift from {sharpshift.__file__}, not {SRC}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(session, setup_times):
    # work per second over every round: total work / total wall time of the step
    rates = {key: sum(w for w, _ in rounds) / sum(t for _, t in rounds)
             for key, rounds in session.timings.items()}
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "train.images_per_s": _metric(rates["train"], "images/s"),
        "shift_gap.base.draws_per_s": _metric(rates["base"], "draws/s"),
        "shift_gap.fft.draws_per_s": _metric(rates["fft"], "draws/s"),
        "bound_lab.worlds_per_s": _metric(rates["worlds"], "worlds/s"),
    }


def _per_layer(tracer, rounds, span_cost):
    totals = tracer.totals()
    empty = {"calls": 0, "items": 0, "s": 0.0, "self_s": 0.0}
    metrics = {
        name: _metric(totals.get(span, empty)[field] / rounds, unit)
        for name, span, field, unit in PER_LAYER
    }
    forward = totals.get("encoder.forward", empty)
    metrics["encoder.forward.images_per_call"] = _metric(
        forward["items"] / max(forward["calls"], 1), "images/call")
    metrics["trace.spans"] = _metric(len(tracer.spans) / rounds, "count/round")
    metrics["trace.overhead_s"] = _metric(len(tracer.spans) * span_cost / rounds, "s/round")
    return metrics


def run_workload(name, args):
    """Set up, run timed rounds for ``args.seconds``, check; returns the result object."""
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    if args.tiny:
        workload = workloads.tiny(workload)
    out_dir = OUT_ROOT / f"{name}-{os.getpid()}"
    try:
        session = workloads.Session(workload, args.seed, str(out_dir))
        setup_times = [session.setup() for _ in range(workloads.SETUP_REPEATS)]
        tracer = tracing.Tracer()
        durations = []
        with tracer.installed() if args.trace else contextlib.nullcontext():
            start = time.perf_counter()
            while not durations or (
                time.perf_counter() - start + statistics.mean(durations) <= args.seconds
            ):
                t0 = time.perf_counter()
                session.run_round()
                durations.append(time.perf_counter() - t0)
        results = session.check()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for check_name, ok, detail in results:
        print(f"[{name}] check {check_name}: {'ok' if ok else 'FAILED'} ({detail})",
              file=sys.stderr)
    print(f"[{name}] {len(durations)} rounds in {sum(durations):.2f} s; setup "
          f"{', '.join(f'{t:.3f}' for t in setup_times)} s", file=sys.stderr)
    for key, rounds in session.timings.items():
        print(f"[{name}] {key} per round: {', '.join(f'{w / t:.1f}' for w, t in rounds)}",
              file=sys.stderr)
    if args.trace:
        metrics = _per_layer(tracer, len(durations), tracing.per_span_cost())
    else:
        metrics = _end_to_end(session, setup_times)
    return {
        "correct": all(ok for _, ok, _ in results),
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="train_ssa_mlp, train_sgd_conv, measure_conv, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="timed rounds continue while they fit in this many seconds "
                             "(at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs: every workload step and check in seconds")
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    try:
        results = {name: run_workload(name, args) for name in names}
    finally:
        if OUT_ROOT.is_dir() and not any(OUT_ROOT.iterdir()):
            OUT_ROOT.rmdir()
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        for name, result in results.items():
            print(json.dumps({"workload": name, **result}))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
