"""Run one benchmark workload of filtershare and print its metrics.

    python3 perfbench/run.py --blas-threads 1 --workload unet3d_train \
        --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; the program is imported from
``src/`` there, never from an installed copy. The last line of standard
output is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans around the program's public functions (see README.md).
Exit code 0 on success, 1 when a correctness check fails, 2 when the
program's source is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import warnings
from pathlib import Path

_T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["unet3d_train", "unet3d_segment", "cifcnn_subset"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--blas-threads", type=int, default=1,
                    help="OpenBLAS/OpenMP thread count, fixed before NumPy "
                         "is imported (default 1)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.blas_threads < 1:
        ap.error("--seed must be >= 0, --seconds and --blas-threads > 0")
    return args


def _process_age_fn():
    """Seconds since this process started, from /proc's start time (10 ms
    resolution), falling back to the time since this module was loaded."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        offset = time.clock_gettime(time.CLOCK_BOOTTIME) - started \
            - (time.perf_counter() - _T0)
    except (OSError, ValueError, IndexError, AttributeError):
        offset = 0.0
    if not 0.0 <= offset < 5.0:
        offset = 0.0
    return lambda: time.perf_counter() - _T0 + offset


def _import_program():
    if not (SRC / "filtershare" / "__init__.py").is_file():
        print(f"run.py: no filtershare source under {SRC}; run the "
              f"benchmark from the root of a source checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from types import SimpleNamespace

    from filtershare import (autodiff, data, kernels, nets, regularizers,
                             sharedconv, tensor, traineval)
    return SimpleNamespace(autodiff=autodiff, data=data, kernels=kernels,
                           nets=nets, regularizers=regularizers,
                           sharedconv=sharedconv, tensor=tensor,
                           traineval=traineval)


def _per_layer(out, tracer, clock):
    """Per-layer metrics from the tracer's timed-window deltas."""
    (s0, n0), (s1, n1) = out.window

    def window(name):
        return s1.get(name, 0.0) - s0.get(name, 0.0)

    def per_call(name):
        calls = tracer.calls.get(name, 0)
        return tracer.self_s[name] / calls if calls else 0.0

    train_n, infer_n = out.train_samples, out.infer_samples
    ops = train_n + infer_n
    expand_train = (n1.get("sharedconv.expand_calls_train", 0)
                    - n0.get("sharedconv.expand_calls_train", 0))
    m = {
        "kernels.stack_cols_s": window("kernels.stack_cols") / ops,
        "kernels.conv_stack_s": window("kernels.conv_stack") / ops,
        "kernels.conv_grad_input_s": window("kernels.conv_grad_input") / train_n,
        "kernels.conv_grad_filters_s":
            window("kernels.conv_grad_filters") / train_n,
        "kernels.pool_upsample_s": window("kernels.pool_upsample") / ops,
        "proc.sys_s": clock.sys_s / train_n,
        "proc.minor_faults": clock.minflt / train_n,
        "autodiff.backward_self_s": window("autodiff.backward") / train_n,
        "nets.forward_train_self_s": window("nets.forward_train") / train_n,
        "nets.forward_infer_self_s": window("nets.forward_infer") / infer_n,
        "sharedconv.expand_s": window("sharedconv.expand") / ops,
        "sharedconv.expand_calls_per_step": expand_train / out.train_steps,
        "traineval.optimizer_step_s":
            window("traineval.optimizer_step") / train_n,
        "regularizers.penalty_s": window("regularizers.penalty") / train_n,
        "regularizers.dropout_mask_s":
            window("regularizers.dropout_mask") / train_n,
        "traineval.loss_s": window("traineval.loss") / ops,
        "traineval.checkpoint_save_s": per_call("traineval.checkpoint_save"),
        "traineval.checkpoint_load_s": per_call("traineval.checkpoint_load"),
        "data.generate_s": tracer.self_s["data.generate"],
    }
    m.update(out.probe)
    return m


UNITS = {
    "setup_s": "s", "train_samples_per_s": "samples/s",
    "infer_samples_per_s": "samples/s", "peak_rss_mb": "MB",
    "kernels.im2col_mb": "MB/sample", "autodiff.tape_retained_mb": "MB",
    "autodiff.tape_entries": "count", "proc.minor_faults": "faults/sample",
    "sharedconv.expand_calls_per_step": "count/step",
    "traineval.checkpoint_save_s": "s/call",
    "traineval.checkpoint_load_s": "s/call", "data.generate_s": "s",
    "trace.train_samples_per_s": "samples/s",
    "trace.infer_samples_per_s": "samples/s",
}


def main(argv=None):
    args = _parse(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.blas_threads)
    sys.dont_write_bytecode = True
    process_age = _process_age_fn()
    fs = _import_program()
    import checks
    import workloads
    from tracing import Clock, Tracer

    warnings.filterwarnings("ignore", message="sharing P=")
    tracer = Tracer()
    clock = Clock(tracer, fs.traineval)
    if args.trace:
        tracer.install_layers(fs)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(fs, args.seed, args.seconds, bool(args.trace),
                            tracer, clock, work, process_age)
    try:
        out = workloads.WORKLOADS[args.workload](ctx)
    except checks.CheckFailed as e:
        print(f"run.py: check failed: {e}", file=sys.stderr)
        out = None
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if out is None:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1

    train_rate = statistics.median(out.train_rates)
    infer_rate = statistics.median(out.infer_rates)
    if args.trace:
        metrics = _per_layer(out, tracer, clock)
        metrics["trace.train_samples_per_s"] = train_rate
        metrics["trace.infer_samples_per_s"] = infer_rate
    else:
        metrics = {"setup_s": out.setup_s, "train_samples_per_s": train_rate,
                   "infer_samples_per_s": infer_rate,
                   "peak_rss_mb": out.peak_rss_mb}
    print(f"run.py: {args.workload} seed={args.seed} "
          f"blas_threads={args.blas_threads} train_samples={out.train_samples} "
          f"infer_samples={out.infer_samples} steps={out.train_steps} "
          f"{' '.join(out.notes)}", file=sys.stderr)
    result = {
        "correct": True, "attempted": out.attempted, "failed": 0,
        "metrics": {k: {"value": float(v), "unit": UNITS.get(
            k, "s/sample" if k.endswith("_s") else "count")}
            for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
