"""specangle benchmark: one workload per run, a closed loop with one caller.

Run from the root of a source checkout; specangle is imported from its src/:

    python3 perfbench/run.py --workload map --seed 1 --seconds 40 --trace 0

The seed makes the scene and the splits. Passes of the workload run back to
back for about --seconds, the first of them an untimed warm-up. Set-up (scene
generation and file writes) is repeated SETUPS_PER_PASS times before every
pass and timed on its own.

Every set-up and every operation of an untraced pass is timed while a fixed
reference kernel (hostspeed.py) samples the host's speed before, during and
after it. Its wall time, less the kernel's, is scaled to the host speed at
which the kernel takes REFERENCE_S seconds. The shared host's speed drifts by a
third in phases of seconds to minutes; the scaled times drift far less.
setup_s is the median scaled set-up time; run_s sums, over the operations of a
pass, each one's median scaled time. Pass wall times (less the kernel's) and
kernel times are printed in the human-readable lines.

--trace 0  untraced passes only; reports the end-to-end metrics.
--trace 1  untraced and traced passes alternate. The traced outputs must equal
           the untraced ones byte for byte. Reports per-layer metrics from the
           traced passes, each layer's self time, and the tracing overhead
           against the untraced passes. One more traced pass, not timed,
           records memory peaks.

Every pass must reproduce the first pass's outputs byte for byte, and each
operation's accuracy must reach its floor; otherwise ``correct`` is false. A
SpecAngleError in one operation is counted as a failure and the run goes on.
Human-readable lines come first; the last line of stdout is one JSON object.
The spans of the last traced pass are written to perfbench/.work/.

BLAS runs on BLAS_THREADS threads, pinned before numpy loads, because times
taken at different thread counts are not comparable.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer, layer_of

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
BLAS_THREADS = 1
SETUPS_PER_PASS = 3

METHODS = ("lspp", "slspp", "ada", "lada", "lpp")
LAYERS = ("bench", "cli", "data", "affinity", "projections", "evaluate", "pursuit", "classify")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "pixels_per_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy": "fraction",
    "accuracy_min": "fraction",
    "success_rate": "fraction",
}

PER_LAYER_UNITS = {
    "data.load_s": "s",
    "data.load_mb": "MB",
    "data.split_s": "s",
    "data.gather_s": "s",
    "affinity.sigma_s": "s",
    "affinity.sigma_pairs": "count",
    "affinity.sigma_peak_mb": "MB",
    **{f"projections.fit_s.{m}": "s" for m in METHODS},
    "projections.fit_calls": "count",
    "projections.fit_peak_mb": "MB",
    "projections.cols_used_ratio": "fraction",
    "evaluate.block_build_s": "s",
    "evaluate.block_calls": "count",
    "evaluate.report_s": "s",
    "pursuit.sbomp_s": "s",
    "pursuit.residual_s": "s",
    "pursuit.iterations": "count",
    "pursuit.early_stops": "count",
    "pursuit.useful_ratio": "fraction",
    "pursuit.score_gflop": "GFLOP",
    "classify.nn_s": "s",
    "classify.calls": "count",
    "classify.ties": "count",
    "classify.pixel_us_p50": "us",
    "classify.pixel_us_p99": "us",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "fraction",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.spans": "count",
}

_clock = time.perf_counter


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("protocol", "map", "scene-fit"))
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_blas_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def blas_threads_in_use():
    """Thread counts of the OpenBLAS builds bundled with numpy and scipy, by
    package, for those that can be asked."""
    import ctypes

    import numpy
    import scipy

    getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    found = {}
    for mod in (numpy, scipy):
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in getters:
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[mod.__name__] = fn()
                    break
    return found


def _sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _compare(ops, reference, label, problems):
    """Record a problem for every operation whose outcome differs."""
    for op, ref in zip(ops, reference):
        if (op.output, op.error_type) != (ref.output, ref.error_type):
            problems.append(f"{label}: {op.name} differs from the first untraced pass")


def run_benchmark(wl, seconds, trace):
    """Set up, run passes for about ``seconds``, check outputs, and return
    the result as a dict (see ``report``)."""
    from hostspeed import HostSpeed  # loads numpy, so not before pin_blas_threads

    host = HostSpeed()
    deadline = _clock() + seconds
    # The warm-up pass fills lazy imports and caches and gives the reference
    # outputs; it is not timed.
    wl.setup()
    reference = wl.run_pass()
    problems, tracers, attempted = [], [], list(reference)
    # Times scaled to the reference host speed: of every set-up, and of every
    # operation of every timed pass. Wall time of every timed pass.
    setup_s, op_s, untraced = [], [], []
    while True:
        t0 = _clock()
        # Set-ups are spread over the run, a few before every pass, so that
        # their median does not hang on one moment of the host.
        setup_s += [scaled for _, _, scaled in host.timed([wl.setup] * SETUPS_PER_PASS)]
        timed = host.timed(wl.operations())
        ops = [op for op, _, _ in timed]
        untraced.append(sum(wall for _, wall, _ in timed))
        op_s.append([scaled for _, _, scaled in timed])
        attempted += ops
        _compare(ops, reference, f"untraced pass {len(untraced)}", problems)
        if trace:
            tr = Tracer()
            with tr.span("bench.pass"):
                ops = wl.traced_pass(tr)
            tracers.append(tr)
            attempted += ops
            _compare(ops, reference, f"traced pass {len(tracers)}", problems)
        if _clock() + (_clock() - t0) > deadline:
            break
    memory = None
    if trace:
        memory = Tracer(memory=True)
        with memory.span("bench.pass"):
            ops = wl.traced_pass(memory)
        attempted += ops
        _compare(ops, reference, "memory pass", problems)

    accuracies = {}
    for op in reference:
        if op.output is None:
            continue
        accuracies[op.name] = wl.accuracy(op)
        if accuracies[op.name] < wl.floor(op.name):
            problems.append(
                f"{op.name}: accuracy {accuracies[op.name]:.4f} below floor {wl.floor(op.name)}"
            )
    if not accuracies:
        problems.append("every operation failed")

    failed = sum(op.error is not None for op in attempted)
    result = {
        "reference": reference,
        "accuracies": accuracies,
        "problems": problems,
        "attempted": len(attempted),
        "failed": failed,
        "setup_repeats": len(setup_s),
        "untraced_passes": untraced,
        "host_kernel_s": host.kernel_s,
        "tracers": tracers,
    }
    if trace:
        result["metrics"] = layer_metrics(tracers, memory, statistics.median(untraced))
    else:
        run_s = sum(statistics.median(times) for times in zip(*op_s))
        acc = list(accuracies.values()) or [0.0]
        result["metrics"] = {
            "setup_s": statistics.median(setup_s),
            "run_s": run_s,
            "pixels_per_s": wl.pixels_per_pass / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "accuracy": statistics.fmean(acc),
            "accuracy_min": min(acc),
            "success_rate": 1.0 - failed / len(attempted),
        }
    return result


def layer_metrics(tracers, memory, untraced_s):
    """Per-layer metrics: times are medians over the traced passes, counts
    are those of one pass (they repeat exactly), peaks come from the memory
    pass."""
    sums = [tr.summary() for tr in tracers]

    def med_total(*names):
        return statistics.median(sum(s["total"][n] for n in names) for s in sums)

    def med_self(layer):
        return statistics.median(
            sum(v for n, v in s["self"].items() if layer_of(n) == layer) for s in sums
        )

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracers[-1].counts
    calls = sums[-1]["calls"]
    pixel_us = [d * 1e6 for s in sums for d in s["durations"].get("classify.pixel", ())]
    qs = statistics.quantiles(pixel_us, n=100) if len(pixel_us) >= 2 else [0.0] * 99
    peaks = memory.peak_mb
    traced_s = med_total("bench.pass")
    metrics = {
        "data.load_s": med_total("data.load"),
        "data.load_mb": c["data.load_bytes"] / 1e6,
        "data.split_s": med_total("data.split"),
        "data.gather_s": med_total("data.gather"),
        "affinity.sigma_s": med_total("affinity.sigma"),
        "affinity.sigma_pairs": c["affinity.sigma_pairs"],
        "affinity.sigma_peak_mb": peaks.get("affinity.sigma", 0.0),
        **{f"projections.fit_s.{m}": med_total(f"projections.fit.{m}") for m in METHODS},
        "projections.fit_calls": c["projections.fit_calls"],
        "projections.fit_peak_mb": max(
            (v for n, v in peaks.items() if n.startswith("projections.fit.")), default=0.0
        ),
        "projections.cols_used_ratio": ratio(c["projections.cols_used"], c["projections.fit_calls"]),
        "evaluate.block_build_s": med_total("evaluate.block"),
        "evaluate.block_calls": calls["evaluate.block"],
        "evaluate.report_s": med_total("evaluate.report"),
        "pursuit.sbomp_s": med_total("pursuit.sbomp"),
        "pursuit.residual_s": med_total("pursuit.residual"),
        "pursuit.iterations": c["pursuit.iterations"],
        "pursuit.early_stops": c["pursuit.early_stops"],
        "pursuit.useful_ratio": ratio(c["pursuit.iterations"], c["pursuit.budget"]),
        "pursuit.score_gflop": c["pursuit.score_flop"] / 1e9,
        "classify.nn_s": med_total("classify.nn"),
        "classify.calls": c["classify.calls"],
        "classify.ties": c["classify.ties"],
        "classify.pixel_us_p50": qs[49],
        "classify.pixel_us_p99": qs[98],
        **{f"{layer}.self_s": med_self(layer) for layer in LAYERS},
        "trace.overhead_frac": traced_s / untraced_s - 1.0,
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.spans": len(tracers[-1].spans),
    }
    return {k: float(v) for k, v in metrics.items()}


def report(workload, args, threads, result):
    """Human-readable lines, then the JSON result line."""
    from hostspeed import REFERENCE_S
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    untraced = result["untraced_passes"]
    kernel = result["host_kernel_s"]
    lines = [
        f"# workload={workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
        f"# blas_threads={BLAS_THREADS} (pinned; openblas reports "
        + (", ".join(f"{k}={v}" for k, v in sorted(threads.items())) or "nothing") + ")",
        f"# set-up repeats={result['setup_repeats']} untraced passes={len(untraced)} "
        f"traced passes={len(result['tracers'])}; untraced pass wall seconds "
        + " ".join(f"{t:.3f}" for t in untraced),
        f"# reference kernel: {len(kernel)} runs, median {statistics.median(kernel):.4f} s, "
        f"range {min(kernel):.4f}-{max(kernel):.4f} s; run_s and setup_s are scaled to "
        f"{REFERENCE_S} s",
    ]
    for op in result["reference"]:
        if op.output is None:
            lines.append(f"op {op.name} FAILED {op.error}")
        else:
            lines.append(
                f"op {op.name} accuracy={result['accuracies'][op.name]:.4f} sha256={_sha(op.output)}"
            )
    for name, value in result["metrics"].items():
        lines.append(f"metric {name} {value:.6g} {units[name]}")
    lines.append(
        f"metric error_rate {result['failed'] / result['attempted']:.6g} fraction "
        f"({result['failed']} of {result['attempted']} operations failed)"
    )
    lines += [f"problem: {p}" for p in result["problems"]]
    payload = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }
    return "\n".join(lines) + "\n" + json.dumps(payload)


def write_spans(path, tracer):
    t0 = tracer.spans[0][2]
    rows = [[n, p, round(s - t0, 9), round(e - t0, 9)] for n, p, s, e in tracer.spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"columns": ["name", "parent", "start_s", "end_s"], "spans": rows}))


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "specangle" / "__init__.py").is_file():
        print(f"error: no specangle sources in {src}; run from a source checkout", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(src))
    import specangle

    if Path(specangle.__file__).resolve().parent != src / "specangle":
        print(f"error: imported specangle from {specangle.__file__}, not {src}", file=sys.stderr)
        return 2
    threads = blas_threads_in_use()
    if any(n != BLAS_THREADS for n in threads.values()):
        print(f"error: BLAS runs {threads} threads, expected {BLAS_THREADS}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        result = run_benchmark(wl, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result["tracers"]:
        write_spans(WORK / f"spans-{args.workload}.json", result["tracers"][-1])
    for p in result["problems"]:
        print(f"problem: {p}", file=sys.stderr)
    print(report(args.workload, args, threads, result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
